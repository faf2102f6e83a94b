"""Entanglement witnesses and the Frobenius-distance bounds they induce.

A witness ``W`` with ``Tr(W sigma) >= 0`` on every separable ``sigma``
certifies, for any state with ``Tr(W rho) < 0``, the lower bound

    D_sep(rho) >= -Tr(W rho) / b,

where ``b`` is the Frobenius norm of the traceless part of ``W`` (or any
upper bound on it).  Two witness families are built here: the projector
family derived from mutually unbiased bases, and the variance witness
derived from the collective-operator squeezing inequality.  Via the SU(d)
generator identities it needs only the marginals, the swap and ``gens.d``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .config import TOLS
from .errors import DimensionMismatch, InvariantViolation
from .generators import GeneratorSet, swap_operator
from .linalg import bipartite_operator, frobenius_inner, partial_trace

if TYPE_CHECKING:
    from .states import DensityMatrix


@dataclass
class Witness:
    """Hermitian observable on a dA x dB bipartite space (need not be PSD)."""

    dims: tuple[int, int]
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.dims, self.mat = bipartite_operator(self.dims, self.mat, "witness matrix")
        if not np.any(self.mat):
            raise InvariantViolation("nonzero: witness matrix is identically zero")


@dataclass(frozen=True)
class WitnessNormalization:
    """Identity component ``a`` and Frobenius radius ``b`` of a witness.

    ``(W - a*I) / b`` is traceless with unit Frobenius norm.
    """

    a: float
    b: float


@dataclass(frozen=True)
class BoundCertificate:
    """A certified lower bound on the Frobenius distance to the separable set."""

    witness_value: float
    b_used: float
    dsep_lower: float
    certified: bool

    def to_json(self) -> dict:
        return {
            "witness_value": self.witness_value,
            "b_used": self.b_used,
            "dsep_lower": self.dsep_lower,
            "certified": self.certified,
        }


def normalize_witness(w: Witness) -> WitnessNormalization:
    """Split ``W = a*I + b*W1`` with Tr(W1) = 0 and ||W1||_F = 1."""
    d = w.dims[0] * w.dims[1]
    tr = np.trace(w.mat).real
    a = tr / d
    norm_sq = float(np.vdot(w.mat, w.mat).real)
    b_sq = norm_sq - tr * tr / d
    if b_sq <= 1e-13 * norm_sq:
        raise InvariantViolation(
            "direction: witness is proportional to the identity (b = 0)"
        )
    return WitnessNormalization(a=a, b=float(np.sqrt(b_sq)))


def generic_bound(
    w: Witness, rho: "DensityMatrix", b_override: float | None = None
) -> BoundCertificate:
    """Distance bound from one witness expectation value.

    The caller is responsible for ``w`` being nonnegative on separable
    states; this module checks that only for its own constructions.  A
    ``b_override`` larger than the true radius yields a valid, weaker
    bound; smaller overrides are rejected.
    """
    if tuple(rho.dims) != w.dims:
        raise DimensionMismatch(f"dims: witness {w.dims} vs state {tuple(rho.dims)}")
    b_true = normalize_witness(w).b
    if b_override is None:
        b_used = b_true
    else:
        if b_override < b_true * (1 - 1e-12):
            raise InvariantViolation(
                f"radius: override {b_override:.6g} is below the witness radius {b_true:.6g}"
            )
        b_used = float(b_override)
    value = frobenius_inner(w.mat, rho.mat)
    if abs(value.imag) > 1e-9:
        raise InvariantViolation(
            f"hermiticity: Tr(W rho) has imaginary part {value.imag:.3e}"
        )
    wv = value.real
    return BoundCertificate(
        witness_value=wv,
        b_used=b_used,
        dsep_lower=max(0.0, -wv / b_used),
        certified=wv < 0.0,
    )


# ---------------------------------------------------------------------------
# Mutually unbiased bases
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass
class MubFamily:
    """L mutually unbiased orthonormal bases of C^d (columns of each array)."""

    d: int
    bases: list[np.ndarray]

    def __post_init__(self):
        self.bases = [np.asarray(b, dtype=np.complex128) for b in self.bases]
        eye = np.eye(self.d)
        for idx, b in enumerate(self.bases):
            if b.shape != (self.d, self.d):
                raise InvariantViolation(
                    f"shape: basis {idx} is {b.shape}, expected {(self.d, self.d)}"
                )
            defect = np.abs(b.conj().T @ b - eye).max()
            if defect > TOLS.unit_norm:
                raise InvariantViolation(
                    f"orthonormality: basis {idx} defect {defect:.3e} exceeds {TOLS.unit_norm:.1e}"
                )
        target = 1.0 / np.sqrt(self.d)
        for i in range(len(self.bases)):
            for j in range(i + 1, len(self.bases)):
                overlaps = np.abs(self.bases[i].conj().T @ self.bases[j])
                defect = np.abs(overlaps - target).max()
                if defect > 1e-9:
                    raise InvariantViolation(
                        f"unbiasedness: bases {i},{j} overlap defect {defect:.3e} exceeds 1e-09"
                    )


def mub_family(d: int, count: int) -> MubFamily:
    """``count`` mutually unbiased bases of C^d for prime ``d``.

    The computational basis plus the quadratic-phase Fourier families; for
    d = 2 the x and y eigenbases are used (the quadratic construction
    degenerates there).
    """
    if not _is_prime(d):
        raise InvariantViolation(f"primality: d must be prime, got {d}")
    if not 2 <= count <= d + 1:
        raise InvariantViolation(f"count: need 2 <= L <= d+1 = {d + 1}, got {count}")
    bases = [np.eye(d, dtype=np.complex128)]
    if d == 2:
        s = 1 / np.sqrt(2)
        bases.append(np.array([[s, s], [s, -s]], dtype=np.complex128))
        bases.append(np.array([[s, s], [1j * s, -1j * s]], dtype=np.complex128))
    else:
        omega = np.exp(2j * np.pi / d)
        j = np.arange(d)
        for a in range(d):
            cols = [omega ** ((a * j * j + k * j) % d) / np.sqrt(d) for k in range(d)]
            bases.append(np.stack(cols, axis=1))
    return MubFamily(d=d, bases=bases[:count])


@dataclass
class RotationSet:
    """Real orthogonal matrices fixing the uniform axis (1,...,1)/sqrt(d)."""

    mats: list[np.ndarray]

    def __post_init__(self):
        self.mats = [np.asarray(m, dtype=float) for m in self.mats]
        for idx, m in enumerate(self.mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InvariantViolation(f"shape: rotation {idx} is not square: {m.shape}")
            d = m.shape[0]
            defect = np.abs(m.T @ m - np.eye(d)).max()
            if defect > TOLS.hermiticity:
                raise InvariantViolation(
                    f"orthogonality: rotation {idx} defect {defect:.3e} exceeds {TOLS.hermiticity:.1e}"
                )
            axis = np.full(d, 1 / np.sqrt(d))
            drift = np.abs(m @ axis - axis).max()
            if drift > TOLS.hermiticity:
                raise InvariantViolation(
                    f"axis: rotation {idx} moves the uniform axis by {drift:.3e}"
                )

    @classmethod
    def identity(cls, d: int, count: int) -> "RotationSet":
        return cls([np.eye(d) for _ in range(count)])


def mub_witness(mubs: MubFamily, rotations: RotationSet) -> Witness:
    """Witness built from projector correlations across the given bases.

    W = ((d - 1 + L)/d) I - sum_a sum_{k,l} O^(a)_{kl} conj(P_l^(a)) (x) P_k^(a)
    with P the rank-1 basis projectors and conj the entrywise conjugate.
    """
    d = mubs.d
    count = len(mubs.bases)
    if len(rotations.mats) != count:
        raise DimensionMismatch(
            f"count: {len(rotations.mats)} rotations for {count} bases"
        )
    acc = np.zeros((d * d, d * d), dtype=np.complex128)
    for basis, rot in zip(mubs.bases, rotations.mats):
        if rot.shape != (d, d):
            raise DimensionMismatch(f"shape: rotation is {rot.shape}, expected {(d, d)}")
        # column (l, k) is conj(b_l) (x) b_k, so the sum is cols diag(O^T) cols^dag
        cols = np.einsum("il,jk->ijlk", basis.conj(), basis).reshape(d * d, d * d)
        acc += (cols * rot.T.reshape(-1)) @ cols.conj().T
    mat = ((d - 1 + count) / d) * np.eye(d * d) - acc
    return Witness(dims=(d, d), mat=mat)


def mub_bound(w: Witness, count: int, rho: "DensityMatrix") -> BoundCertificate:
    """Distance bound using the closed-form radius sqrt(L (d - 1))."""
    if w.dims[0] != w.dims[1]:
        raise DimensionMismatch(f"dims: expected equal local dimensions, got {w.dims}")
    d = w.dims[0]
    return generic_bound(w, rho, b_override=float(np.sqrt(count * (d - 1))))


# ---------------------------------------------------------------------------
# Collective-operator variance witness
# ---------------------------------------------------------------------------


def spin_radius_bound(d: int) -> float:
    """Upper bound on the Frobenius radius of the variance witness."""
    return float(np.sqrt(144 * d * d - 224 * d + 112))


def spin_witness(rho: "DensityMatrix", gens: GeneratorSet) -> Witness:
    """Variance witness linearized at ``rho``.

    W = sum_k (G_k - m_k I)^2 - 4(d-1) I, with G_k = g_k (x) I + I (x) g_k
    and m_k = Tr(G_k rho), is the collective variance minus its separable
    floor.  With F the swap and X = rho_A + rho_B, the identities
    sum_k g_k^2 = 2(d^2-1)/d I, sum_k g_k (x) g_k = 2(F - I/d) and
    sum_k Tr(g_k X) g_k = 2(X - Tr X I/d), which hold for every orthonormal
    Hermitian generator set (so only ``gens.d`` is used), give

        W = (4 - 8/d + Tr(M^2)/2) I + 4F - 2(M (x) I + I (x) M),
        M = sum_k m_k g_k = 2(X - Tr X I/d) = 2X - (4/d) I.
    """
    d = gens.d
    if rho.dims != (d, d):
        raise DimensionMismatch(f"dims: the variance witness needs dims ({d}, {d}), got {rho.dims}")
    eye = np.eye(d)
    x = partial_trace(rho.mat, rho.dims, "A") + partial_trace(rho.mat, rho.dims, "B")
    m = x + x.conj().T - 2 * np.trace(x).real / d * eye  # Hermitian part of 2X keeps W Hermitian
    shift = 4 - 8 / d + np.vdot(m, m).real / 2  # M is Hermitian: Tr(M^2) = ||M||_F^2
    mat = shift * np.eye(d * d) + 4 * swap_operator(d) - 2 * (np.kron(m, eye) + np.kron(eye, m))
    return Witness(dims=(d, d), mat=mat)


def spin_bound(rho: "DensityMatrix", gens: GeneratorSet) -> BoundCertificate:
    """Distance bound from the variance witness at its closed-form radius."""
    w = spin_witness(rho, gens)
    return generic_bound(w, rho, b_override=spin_radius_bound(gens.d))
