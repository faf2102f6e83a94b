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

from .config import TOLS
from .linalg import Checked, as_array, as_integer, bipartite_array, bipartite_operator, read_only, require, svd


@dataclass(frozen=True)
class DensityMatrix(Checked):
    """Bipartite mixed state: Hermitian, unit trace, PSD within tolerance."""

    dims: tuple[int, int]
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims, mat = bipartite_operator(self.dims, self.mat, "matrix")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)
        require(abs(np.trace(self.mat) - 1.0), TOLS.trace, "trace: |Tr(rho) - 1|")
        lo = np.linalg.eigvalsh((self.mat + self.mat.conj().T) / 2)[0]
        require(-lo, TOLS.psd, "positivity: minus the minimum eigenvalue")


@dataclass(frozen=True)
class PureState(Checked):
    """Bipartite pure state vector of length dA*dB, unit norm."""

    dims: tuple[int, int]
    vec: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims, vec = bipartite_array(self.vec, self.dims, 1, "vector")
        object.__setattr__(self, "dims", dims)
        require(abs(np.linalg.norm(vec) - 1.0), TOLS.unit_norm, "norm: | ||psi|| - 1 |")
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
        require(abs(c.sum() - 1.0), TOLS.unit_norm, "normalization: |sum of coefficients - 1|")
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
