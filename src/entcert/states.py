"""Bipartite state types and the Schmidt decomposition.

``DensityMatrix`` and ``PureState`` validate on construction, also when
copied or unpickled, and hold read-only arrays; ``schmidt`` splits a
pure state into its coefficients and local bases.  ``bell_state`` and
``singlet_state`` build the standard maximally entangled states.  File
I/O and named fixtures live in ``entcert.io``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TOLS
from .errors import DimensionMismatch, InvariantViolation
from .linalg import Checked, as_matrix, bipartite_dims, bipartite_operator, require, svd


@dataclass
class DensityMatrix(Checked):
    """Bipartite mixed state: Hermitian, unit trace, PSD within tolerance."""

    dims: tuple[int, int]
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.dims, self.mat = bipartite_operator(self.dims, self.mat, "matrix")
        require(abs(np.trace(self.mat) - 1.0), TOLS.trace, "trace: |Tr(rho) - 1|")
        lo = np.linalg.eigvalsh((self.mat + self.mat.conj().T) / 2)[0]
        require(-lo, TOLS.psd, "positivity: minus the minimum eigenvalue")


@dataclass
class PureState(Checked):
    """Bipartite pure state vector of length dA*dB, unit norm."""

    dims: tuple[int, int]
    vec: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.dims = bipartite_dims(self.dims)
        vec = as_matrix(np.reshape(self.vec, (1, -1)))[0]
        d = self.dims[0] * self.dims[1]
        if vec.shape != (d,):
            raise DimensionMismatch(
                f"dims: vector has length {vec.shape[0]}, dims {self.dims} require {d}"
            )
        require(abs(np.linalg.norm(vec) - 1.0), TOLS.unit_norm, "norm: | ||psi|| - 1 |")
        self.vec = vec.copy()
        self.vec.setflags(write=False)

    def projector(self) -> DensityMatrix:
        return DensityMatrix(dims=self.dims, mat=np.outer(self.vec, self.vec.conj()))


@dataclass
class SchmidtVector:
    """Schmidt coefficients (squared singular values), descending, summing to 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if c.size == 0:
            raise InvariantViolation("shape: empty coefficient vector")
        # positivity first, so the sum and differences below meet no -inf or NaN
        require(-c.min(), 1e-15, "positivity: minus the smallest coefficient")
        require(abs(c.sum() - 1.0), TOLS.unit_norm, "normalization: |sum of coefficients - 1|")
        require(np.max(np.diff(c), initial=0.0), 1e-12, "order: largest rise between coefficients")
        self.coeffs = np.maximum(c, 0.0)

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
    if d < 2:
        raise InvariantViolation(f"dimension: d must be >= 2, got {d}")
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[np.arange(d) * d + np.arange(d)] = 1 / np.sqrt(d)
    return PureState(dims=(d, d), vec=vec)


def singlet_state() -> PureState:
    vec = np.zeros(4, dtype=np.complex128)
    vec[1] = 1 / np.sqrt(2)
    vec[2] = -1 / np.sqrt(2)
    return PureState(dims=(2, 2), vec=vec)
