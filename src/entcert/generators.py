"""Traceless SU(d) generator families and two-site collective operators.

The generator set is the generalized Gell-Mann family, ordered as all
symmetric pair generators (lexicographic), then all antisymmetric pair
generators, then the diagonal ones, so expectation-value vectors are
reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .linalg import UNIT_NORM_TOL, Checked, as_array, as_integer, kron, read_only, require, require_hermitian


@dataclass(frozen=True)
class GeneratorSet(Checked):
    """d**2 - 1 Hermitian traceless generators with Tr(g_k g_l) = 2 delta_kl; ``d`` is read from ``gens``."""

    gens: np.ndarray  # shape (d**2 - 1, d, d)

    def __post_init__(self):
        gens = as_array(self.gens, 3, "generators")
        d = gens.shape[1]
        n = d * d - 1
        if gens.shape != (n, d, d):
            raise InvariantViolation(f"shape: expected {n} generators of size {d}x{d}, got {gens.shape}")
        require_hermitian(gens, "generator set")
        defect = np.abs(np.trace(gens, axis1=1, axis2=2)).max()
        require(defect, 1e-12, "tracelessness: max |Tr g_k|")
        flat = gens.reshape(n, -1)
        gram = flat.conj() @ flat.T  # Tr(g_k^dag g_l) = Tr(g_k g_l) for Hermitian g_k
        defect = np.abs(gram - 2 * np.eye(n)).max()
        require(defect, UNIT_NORM_TOL, "orthogonality: max |Tr(g_k g_l) - 2 delta_kl|")
        object.__setattr__(self, "gens", read_only(gens))

    @property
    def d(self) -> int:
        return self.gens.shape[1]


def gellmann(d: int) -> GeneratorSet:
    """Generalized Gell-Mann generators of SU(d).

    d(d-1)/2 symmetric, d(d-1)/2 antisymmetric and d-1 diagonal matrices;
    for d = 2 these are the Pauli matrices.
    """
    d = as_integer(d, "dimension", 2)
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = m[k, j] = 1.0
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=np.complex128)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -l
        mats.append(m * np.sqrt(2.0 / (l * (l + 1))))
    return GeneratorSet(gens=np.stack(mats))


def collective(gens: GeneratorSet) -> np.ndarray:
    """Two-site collective operators G_k = g_k (x) I + I (x) g_k, stacked with shape (d**2 - 1, d**2, d**2)."""
    eye = np.eye(gens.d)
    return np.stack([kron(g, eye) + kron(eye, g) for g in gens.gens])


def swap_operator(d: int) -> np.ndarray:
    """Permutation matrix exchanging the two tensor factors: F |i,j> = |j,i>."""
    d = as_integer(d, "dimension", 1)
    eye = np.eye(d * d, dtype=np.complex128).reshape(d, d, d, d)
    return eye.transpose(1, 0, 2, 3).reshape(d * d, d * d)


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the four generator identities, evaluated on one state."""

    orthogonality: float   # max |Tr(g_k g_l) - 2 delta_kl|
    sum_of_squares: float  # || sum_k g_k^2 - 2 (d^2-1)/d I ||_max
    purity: float          # | sum_k <g_k>^2 - 2 (Tr rho^2 - 1/d) |
    swap: float            # || sum_k g_k (x) g_k - 2 (F - I/d) ||_max

    @property
    def max_residual(self) -> float:
        return max(self.orthogonality, self.sum_of_squares, self.purity, self.swap)


def verify_generator_identities(gens: GeneratorSet, rho) -> IdentityReport:
    """Evaluate both sides of the four SU(d) generator identities on ``rho``.

    ``rho`` is a single-system d x d density matrix; the swap identity is
    checked against an explicitly built permutation matrix so it is a
    genuine two-sided test.
    """
    d = gens.d
    rho = as_array(rho, 2, "state")
    if rho.shape != (d, d):
        raise DimensionMismatch(f"dims: state is {rho.shape}, generators act on ({d}, {d})")
    n = d * d - 1
    flat = gens.gens.reshape(n, -1)
    gram = flat.conj() @ flat.T
    r_orth = float(np.abs(gram - 2 * np.eye(n)).max())

    sq = np.einsum("kab,kbc->ac", gens.gens, gens.gens)
    r_sq = float(np.abs(sq - 2 * (d * d - 1) / d * np.eye(d)).max())

    expvals = np.einsum("kab,ba->k", gens.gens, rho).real
    purity = np.trace(rho @ rho).real
    r_pur = float(abs(np.sum(expvals**2) - 2 * (purity - 1 / d)))

    tensor_sum = sum(kron(g, g) for g in gens.gens)
    target = 2 * (swap_operator(d) - np.eye(d * d) / d)
    r_swap = float(np.abs(tensor_sum - target).max())

    return IdentityReport(
        orthogonality=r_orth, sum_of_squares=r_sq, purity=r_pur, swap=r_swap
    )
