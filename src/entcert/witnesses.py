"""Entanglement witnesses and the Frobenius-distance bounds they induce.

A witness ``W`` with ``Tr(W sigma) >= 0`` on every separable ``sigma``
certifies, for any state with ``Tr(W rho) < 0``, the lower bound

    D_sep(rho) >= -Tr(W rho) / b,

where ``b`` is the Frobenius norm of the traceless part of ``W`` (or any
upper bound on it).  Two witness families are built here: the projector
family derived from mutually unbiased bases, and the variance witness
derived from the collective-operator squeezing inequality.  Via the SU(d)
generator identities it needs only the marginals, the swap and ``d``.
A certificate carries the distance bound and the measure bounds it implies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .generators import GeneratorSet, swap_operator
from .linalg import (
    UNIT_NORM_TOL, Checked, as_array, as_integer, as_real, bipartite_operator, frobenius_inner, partial_trace,
    read_only, require, require_type
)
from .measures import MeasureBounds
from .states import DensityMatrix


@dataclass(frozen=True)
class Witness(Checked):
    """Hermitian observable on a dA x dB bipartite space (need not be PSD)."""

    dims: tuple[int, int]
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims, mat = bipartite_operator(self.dims, self.mat, "witness matrix")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)
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
    """A certified lower bound on the Frobenius distance to the separable set.

    Built from the witness value wv = Tr(W rho) and the radius b alone, finite
    floats with b > 0 (``radius:``); the rest is derived: ``certified`` is
    wv < 0, ``dsep_lower`` is max(0, -wv/b), and the measure bounds come from
    ``MeasureBounds``, which refuses a distance outside [0, 1): no state is that
    far from the separable set, so such a value means ``W`` was not a witness.
    """

    witness_value: float
    b_used: float
    dsep_lower: float = field(init=False)
    certified: bool = field(init=False)
    concurrence_lower: float = field(init=False)
    eof_lower: float = field(init=False)       # bits
    geometric_lower: float = field(init=False)  # heuristic, see ``bounds_from_dsep``

    def __post_init__(self):
        wv, b = as_real(self.witness_value, "witness value"), as_real(self.b_used, "radius")
        if not b > 0.0:
            raise InvariantViolation(f"radius: must be positive, got {b!r}")
        bounds = MeasureBounds(max(0.0, -wv / b))
        for name, value in {"witness_value": wv, "b_used": b, "certified": wv < 0.0, **bounds.to_json()}.items():
            object.__setattr__(self, name, value)

    def to_json(self) -> dict:
        # the keys and values of dataclasses.asdict, without its recursive deep copy
        return {f.name: getattr(self, f.name) for f in fields(self)}


def normalize_witness(w: Witness) -> WitnessNormalization:
    """Split ``W = a*I + b*W1`` with Tr(W1) = 0 and ||W1||_F = 1.

    The sums run on ``W * 2**-e``, whose largest real or imaginary part
    lies in [1/2, 1), so they cannot overflow; scaling ``a`` and ``b`` back
    by ``2**e`` is exact, and a radius beyond the float range is refused.
    """
    d = w.dims[0] * w.dims[1]
    parts = w.mat.view(np.float64)
    e = math.frexp(np.abs(parts).max())[1]
    mat = np.ldexp(parts, -e).view(np.complex128)
    tr = np.trace(mat).real
    norm_sq = float(np.vdot(mat, mat).real)
    b_sq = norm_sq - tr * tr / d
    if b_sq <= 1e-13 * norm_sq:
        raise InvariantViolation(
            "direction: witness is proportional to the identity (b = 0)"
        )
    b = math.sqrt(b_sq)
    try:
        return WitnessNormalization(a=math.ldexp(tr / d, e), b=math.ldexp(b, e))
    except OverflowError:
        raise InvariantViolation(f"radius: the witness radius {b:.6g} * 2**{e} exceeds the float range") from None


def generic_bound(
    w: Witness, rho: DensityMatrix, b_override: float | None = None
) -> BoundCertificate:
    """Distance bound from one witness expectation value.

    The caller is responsible for ``w`` being nonnegative on separable
    states; this module checks that only for its own constructions.  A
    ``b_override`` larger than the true radius yields a valid, weaker
    bound; smaller overrides are rejected.
    """
    require_type(w, Witness, "witness")
    require_type(rho, DensityMatrix, "state")
    if rho.dims != w.dims:
        raise DimensionMismatch(f"dims: witness {w.dims} vs state {rho.dims}")
    b_true = normalize_witness(w).b
    if b_override is None:
        b_used = b_true
    else:
        b_used = as_real(b_override, "radius")
        what = f"radius: shortfall of the override {b_used:.6g} below the radius {b_true:.6g}"
        require(b_true - b_used, 1e-12 * b_true, what)
    value = frobenius_inner(w.mat, rho.mat)
    require(abs(value.imag), 1e-9, "hermiticity: |Im Tr(W rho)|")
    return BoundCertificate(witness_value=value.real, b_used=b_used)


# ---------------------------------------------------------------------------
# Mutually unbiased bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MubFamily(Checked):
    """L mutually unbiased orthonormal bases of C^d (columns of each array); ``d`` is read from ``bases``."""

    bases: np.ndarray  # shape (L, d, d)

    def __post_init__(self):
        stack = as_array(self.bases, 3, "bases")
        count, d = stack.shape[:2]
        if stack.shape[2] != d:
            raise InvariantViolation(f"shape: bases must be square, got {stack.shape[1:]}")
        # entry (a, k, b, l) of the joint Gram matrix is <a_k|b_l>
        flat = stack.transpose(1, 0, 2).reshape(d, count * d)
        gram = (flat.conj().T @ flat).reshape(count, d, count, d).transpose(0, 2, 1, 3)
        same = np.eye(count, dtype=bool)
        defect = np.abs(gram[same] - np.eye(d)).max()
        require(defect, UNIT_NORM_TOL, "orthonormality: max |B_a^dag B_a - I|")
        defect = np.max(np.abs(np.abs(gram[~same]) - 1 / np.sqrt(d)), initial=0.0)
        require(defect, 1e-9, "unbiasedness: max ||<a_k|b_l>| - 1/sqrt(d)| over a != b")
        object.__setattr__(self, "bases", read_only(stack))

    @property
    def d(self) -> int:
        return self.bases.shape[1]


def _mub_arguments(d: int, count: int) -> tuple[int, int]:
    """``d`` and ``count`` as ``mub_family`` takes them: ``d`` prime and 2 <= ``count`` <= d + 1."""
    d = as_integer(d, "dimension", 2)
    if any(d % f == 0 for f in range(2, math.isqrt(d) + 1)):
        raise InvariantViolation(f"primality: d must be prime, got {d}")
    count = as_integer(count, "count", 2)
    if count > d + 1:
        raise InvariantViolation(f"count: need 2 <= L <= d+1 = {d + 1}, got {count}")
    return d, count


def mub_family(d: int, count: int) -> MubFamily:
    """``count`` mutually unbiased bases of C^d for prime ``d``.

    The computational basis plus the quadratic-phase Fourier families; for
    d = 2 the x and y eigenbases are used (the quadratic construction
    degenerates there).
    """
    d, count = _mub_arguments(d, count)
    if d == 2:
        s = 1 / np.sqrt(2)
        bases = np.array([np.eye(2), [[s, s], [s, -s]], [[s, s], [1j * s, -1j * s]]], dtype=np.complex128)[:count]
    else:
        # entry (a, j, k) is component j of vector k of quadratic-phase basis a
        omega = np.exp(2j * np.pi / d)
        a, j, k = np.ogrid[:count - 1, :d, :d]
        phases = omega ** ((a * j * j + k * j) % d) / np.sqrt(d)
        bases = np.concatenate([np.eye(d, dtype=np.complex128)[None], phases])
    return MubFamily(bases=bases)


@dataclass(frozen=True)
class RotationSet(Checked):
    """Real orthogonal matrices fixing the uniform axis (1,...,1)/sqrt(d)."""

    mats: np.ndarray  # shape (L, d, d)

    def __post_init__(self):
        stack = as_array(self.mats, 3, "rotations", float)
        d = stack.shape[1]
        if stack.shape[2] != d:
            raise InvariantViolation(f"shape: rotations must be square, got {stack.shape[1:]}")
        defect = np.abs(stack.swapaxes(1, 2) @ stack - np.eye(d)).max()
        require(defect, UNIT_NORM_TOL, "orthogonality: max |O^T O - I|")
        axis = np.full(d, 1 / np.sqrt(d))
        defect = np.abs(stack @ axis - axis).max()
        require(defect, UNIT_NORM_TOL, "axis: max |O u - u| for the uniform axis u")
        object.__setattr__(self, "mats", read_only(stack))

    @classmethod
    def identity(cls, d: int, count: int) -> "RotationSet":
        d, count = as_integer(d, "dimension", 1), as_integer(count, "count", 1)
        return cls(np.tile(np.eye(d), (count, 1, 1)))


def mub_witness(mubs: MubFamily, rotations: RotationSet) -> Witness:
    """Witness built from projector correlations across the given bases.

    W = ((d - 1 + L)/d) I - sum_a sum_{k,l} O^(a)_{kl} conj(P_l^(a)) (x) P_k^(a)
    with P the rank-1 basis projectors and conj the entrywise conjugate.

    The L d projectors form one stack p[a, k] = P_k^(a).  Since conj(P) = P^T,
    the rows r[a, k] = sum_l O^(a)_{kl} P_l^(a)T are one batched product, and
    the sum is the one contraction sum_{a,k} r[a, k]_{im} p[a, k]_{jn}, read
    on axes (i, j, m, n): O(L d^5) flops.
    """
    d = mubs.d
    count = len(mubs.bases)
    if len(rotations.mats) != count:
        raise DimensionMismatch(
            f"count: {len(rotations.mats)} rotations for {count} bases"
        )
    if rotations.mats[0].shape != (d, d):
        raise DimensionMismatch(f"shape: rotations are {rotations.mats[0].shape}, need {(d, d)}")
    p = np.einsum("aik,ajk->akij", mubs.bases, mubs.bases.conj())
    rows = rotations.mats @ p.swapaxes(-1, -2).reshape(count, d, d * d)
    corr = (rows.reshape(-1, d * d).T @ p.reshape(-1, d * d)).reshape((d,) * 4).transpose(0, 2, 1, 3)
    mat = ((d - 1 + count) / d) * np.eye(d * d) - corr.reshape(d * d, d * d)
    return Witness(dims=(d, d), mat=mat)


def mub_bound(w: Witness, count: int, rho: DensityMatrix) -> BoundCertificate:
    """Distance bound using the closed-form radius sqrt(L (d - 1))."""
    if w.dims[0] != w.dims[1]:
        raise DimensionMismatch(f"dims: expected equal local dimensions, got {w.dims}")
    d, count = w.dims[0], as_integer(count, "count", 1)
    return generic_bound(w, rho, b_override=float(np.sqrt(count * (d - 1))))


# ---------------------------------------------------------------------------
# Collective-operator variance witness
# ---------------------------------------------------------------------------


def spin_radius_bound(d: int) -> float:
    """Upper bound on the Frobenius radius of the variance witness."""
    d = as_integer(d, "dimension", 1)
    return float(np.sqrt(144 * d * d - 224 * d + 112))


def spin_witness(rho: DensityMatrix, gens: GeneratorSet | None = None) -> Witness:
    """Variance witness linearized at ``rho``; ``d`` is read from ``gens`` if given, else from ``rho``.

    W = sum_k (G_k - m_k I)^2 - 4(d-1) I, with G_k = g_k (x) I + I (x) g_k
    and m_k = Tr(G_k rho), is the collective variance minus its separable
    floor.  With F the swap and X = rho_A + rho_B, the identities
    sum_k g_k^2 = 2(d^2-1)/d I, sum_k g_k (x) g_k = 2(F - I/d) and
    sum_k Tr(g_k X) g_k = 2(X - Tr X I/d), which hold for every orthonormal
    Hermitian generator set (so no set is needed, only ``d``), give

        W = (4 - 8/d + Tr(M^2)/2) I + 4F - 2(M (x) I + I (x) M),
        M = sum_k m_k g_k = 2(X - Tr X I/d) = 2X - (4/d) I.
    """
    require_type(rho, DensityMatrix, "state")
    d = as_integer(rho.dims[0], "dimension", 2) if gens is None else gens.d
    if rho.dims != (d, d):
        raise DimensionMismatch(f"dims: the variance witness needs dims ({d}, {d}), got {rho.dims}")
    eye = np.eye(d)
    x = partial_trace(rho.mat, rho.dims, "A") + partial_trace(rho.mat, rho.dims, "B")
    m = x + x.conj().T - 2 * np.trace(x).real / d * eye  # Hermitian part of 2X keeps W Hermitian
    shift = 4 - 8 / d + np.vdot(m, m).real / 2  # M is Hermitian: Tr(M^2) = ||M||_F^2
    mat = shift * np.eye(d * d) + 4 * swap_operator(d) - 2 * (np.kron(m, eye) + np.kron(eye, m))
    return Witness(dims=(d, d), mat=mat)


def spin_bound(rho: DensityMatrix, gens: GeneratorSet | None = None) -> BoundCertificate:
    """Distance bound from the variance witness at its closed-form radius."""
    w = spin_witness(rho, gens)
    return generic_bound(w, rho, b_override=spin_radius_bound(w.dims[0]))
