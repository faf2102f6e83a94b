"""Bipartite state types and the Schmidt decomposition.

``DensityMatrix``, ``PureState`` and ``SchmidtVector`` validate on
construction, also when copied or unpickled, are frozen and hold
read-only arrays; ``schmidt`` splits a pure state into its coefficients
and local bases.
``bell_state`` and ``singlet_state`` build the standard maximally
entangled states.  File I/O and named fixtures live in ``entcert.io``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    PSD_TOL, TRACE_TOL, UNIT_NORM_TOL, Checked, as_array, as_integer, bipartite_array, bipartite_operator,
    hermitian_part, read_only, require, svd
)


def _cholesky_screen(h: np.ndarray) -> bool:
    """Whether ``h + (PSD_TOL/2) I`` has a Cholesky factor; tried only when no entry of ``h`` has modulus above 1."""
    if not np.abs(h).max() <= 1:
        return False
    try:
        np.linalg.cholesky(h + (PSD_TOL / 2) * np.eye(len(h)))
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class DensityMatrix(Checked):
    """Bipartite mixed state: Hermitian, unit trace, PSD within tolerance.

    Positivity is screened by one Cholesky factorization of
    ``hermitian_part(mat) + (PSD_TOL/2) I`` when no entry has modulus above
    1, as no entry of a trace-one PSD matrix has.  Run to completion, it
    shows that the minimum eigenvalue exceeds ``-PSD_TOL/2`` up to the
    factorization's backward error, of order ``(D + 1) u`` times the trace
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    §10.1), far inside ``-PSD_TOL``.  A failed or skipped screen
    leaves the decision to ``eigvalsh``, which alone refuses a state.
    """

    dims: tuple[int, int]
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims, mat = bipartite_operator(self.dims, self.mat, "matrix")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)
        # summed at scale 2**-k <= 1/n, exactly and without overflow; a Python float reads a defect out of range as inf
        k = (len(self.mat) - 1).bit_length()
        scaled = complex((self.mat.diagonal() * 2.0**-k).sum())
        require(abs(scaled - 2.0**-k) * 2**k, TRACE_TOL, "trace: |Tr(rho) - 1|")
        h = hermitian_part(self.mat)
        if not _cholesky_screen(h):
            require(-np.linalg.eigvalsh(h)[0], PSD_TOL, "positivity: minus the minimum eigenvalue")


@dataclass(frozen=True)
class PureState(Checked):
    """Bipartite pure state vector of length dA*dB, unit norm."""

    dims: tuple[int, int]
    vec: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims, vec = bipartite_array(self.vec, self.dims, 1, "vector")
        object.__setattr__(self, "dims", dims)
        require(abs(np.linalg.norm(vec) - 1.0), UNIT_NORM_TOL, "norm: | ||psi|| - 1 |")
        object.__setattr__(self, "vec", read_only(vec))

    def projector(self) -> DensityMatrix:
        return DensityMatrix(dims=self.dims, mat=np.outer(self.vec, self.vec.conj()))


@dataclass(frozen=True)
class SchmidtVector(Checked):
    """Schmidt coefficients (squared singular values), descending, summing to 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = as_array(self.coeffs, 1, "coefficients", float)
        require(-c.min(), 1e-15, "positivity: minus the smallest coefficient")
        require(abs(c.sum() - 1.0), UNIT_NORM_TOL, "normalization: |sum of coefficients - 1|")
        require(np.max(np.diff(c), initial=0.0), 1e-12, "order: largest rise between coefficients")
        object.__setattr__(self, "coeffs", read_only(np.maximum(c, 0.0)))

    @property
    def largest(self) -> float:
        return float(self.coeffs[0])


def schmidt(psi: PureState) -> tuple[SchmidtVector, np.ndarray, np.ndarray]:
    """Schmidt decomposition of a bipartite pure state.

    Returns ``(lam, basis_a, basis_b)`` with the coefficients descending and
    unitary local bases whose columns satisfy
    ``psi = sum_k sqrt(lam_k) basis_a[:, k] (x) basis_b[:, k]``.
    Basis vectors inside a degenerate coefficient block are
    algorithm-dependent; only the coefficients and the reconstruction are
    promised.
    """
    da, db = psi.dims
    coeff = psi.vec.reshape(da, db)
    u, s, v = svd(coeff)
    # psi_ij = sum_k U_ik s_k conj(V_jk)  =>  B side carries conj(V).
    lam = s * s
    lam = lam / lam.sum()
    return SchmidtVector(coeffs=lam), u, v.conj()


def bell_state(d: int) -> PureState:
    """Maximally entangled state (1/sqrt(d)) sum_i |ii> on d x d."""
    d = as_integer(d, "dimension", 2)
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[np.arange(d) * d + np.arange(d)] = 1 / np.sqrt(d)
    return PureState(dims=(d, d), vec=vec)


def singlet_state() -> PureState:
    vec = np.zeros(4, dtype=np.complex128)
    vec[1] = 1 / np.sqrt(2)
    vec[2] = -1 / np.sqrt(2)
    return PureState(dims=(2, 2), vec=vec)
