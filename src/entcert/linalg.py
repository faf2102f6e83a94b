"""Dense complex-matrix kernel.

Hilbert-Schmidt inner products and norms, Kronecker products, partial
trace/transpose over a bipartite splitting, Hermitian eigendecomposition
and SVD, plus the dims and Hermiticity checks and the ``Checked`` base
shared by the bipartite types, and ``require``, the one tolerance check
that every constructor invariant goes through.  Matrices are plain
``numpy`` arrays of ``complex128``; the eigen/SVD work is delegated to
LAPACK, the contract here is the residual bound, not the algorithm.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

from .config import TOLS
from .errors import DimensionMismatch, InvariantViolation, NumericalError


def require(defect: float, tol: float, what: str) -> None:
    """Raise unless ``defect <= tol``; a NaN defect always fails."""
    if not defect <= tol:
        raise InvariantViolation(f"{what} = {defect:.3e} exceeds {tol:.1e}")


def require_hermitian(mats: np.ndarray, what: str) -> None:
    """Refuse a matrix, or a stack of them, further than ``TOLS.hermiticity`` from Hermitian."""
    defect = np.abs(mats - mats.conj().swapaxes(-1, -2)).max()
    require(defect, TOLS.hermiticity, f"hermiticity: {what} has max |A - A^dag|")


class Checked:
    """Base of the checked dataclasses: a copy or an unpickled object is rebuilt by the constructor."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))


def as_matrix(entries) -> np.ndarray:
    """Coerce to a finite complex128 2-d array."""
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2:
        raise InvariantViolation(f"shape: expected a 2-d matrix, got ndim={mat.ndim}")
    if not np.all(np.isfinite(mat)):
        raise InvariantViolation("finiteness: matrix contains NaN or Inf entries")
    return mat


def as_stack(entries, dtype, what: str) -> np.ndarray:
    """Coerce to a finite ``(L, d, d)`` stack of square matrices with L >= 1.

    A real ``dtype`` refuses entries with a nonzero imaginary part rather
    than drop it.
    """
    try:
        stack = np.asarray(entries)
    except ValueError as exc:  # ragged or mixed-size nesting
        raise InvariantViolation(f"shape: {what} are not equal-size square matrices") from exc
    if np.iscomplexobj(stack) and not np.issubdtype(dtype, np.complexfloating):
        if np.any(stack.imag):
            raise InvariantViolation(f"realness: {what} have entries with a nonzero imaginary part")
        stack = stack.real
    try:
        stack = stack.astype(dtype, copy=False)
    except (TypeError, ValueError) as exc:  # non-numeric entries
        raise InvariantViolation(f"type: {what} are not numeric matrices") from exc
    if stack.ndim != 3 or not stack.shape[0] or stack.shape[1] != stack.shape[2]:
        raise InvariantViolation(
            f"shape: {what} must be a nonempty stack of square matrices, got {stack.shape}"
        )
    if not np.all(np.isfinite(stack)):
        raise InvariantViolation(f"finiteness: {what} contain NaN or Inf entries")
    return stack


def bipartite_dims(dims) -> tuple[int, int]:
    """Coerce to ``(dA, dB)``, two positive integers; bools are refused."""
    try:
        da, db = dims
        if not isinstance(da, bool) and not isinstance(db, bool):  # operator.index takes True as 1
            da, db = operator.index(da), operator.index(db)
            if da >= 1 and db >= 1:
                return da, db
    except (TypeError, ValueError):
        pass
    raise InvariantViolation(f"dims: expected two positive integers, got {dims!r}")


def bipartite_operator(dims, entries, what: str) -> tuple[tuple[int, int], np.ndarray]:
    """Checked dims and a read-only Hermitian copy of the dA*dB matrix named ``what``."""
    dims = bipartite_dims(dims)
    mat = as_matrix(entries)
    d = dims[0] * dims[1]
    if mat.shape != (d, d):
        raise DimensionMismatch(f"dims: {what} is {mat.shape}, dims {dims} require {(d, d)}")
    require_hermitian(mat, what)
    mat = mat.copy()
    mat.setflags(write=False)  # safe to share across concurrent readers
    return dims, mat


def _require_square(mat: np.ndarray, what: str = "matrix") -> None:
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"shape: {what} must be square, got {mat.shape}")


def frobenius_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(A^dag B)."""
    a = as_matrix(a)
    b = as_matrix(b)
    _require_square(a)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape: operands differ, {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def frobenius_norm(a) -> float:
    """sqrt(Tr(A^dag A)); zero iff A = 0."""
    a = as_matrix(a)
    _require_square(a)
    return float(np.linalg.norm(a))


def kron(a, b) -> np.ndarray:
    """Kronecker product A (x) B."""
    return np.kron(as_matrix(a), as_matrix(b))


def _bipartite_tensor(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    da, db = bipartite_dims(dims)
    if rho.shape != (da * db, da * db):
        raise DimensionMismatch(
            f"dims: matrix is {rho.shape}, dims {dims} require {(da * db, da * db)}"
        )
    return rho.reshape(da, db, da, db)


def partial_trace(rho, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one subsystem of a (dA*dB)x(dA*dB) matrix, keeping ``"A"`` or ``"B"``."""
    t = _bipartite_tensor(as_matrix(rho), dims)
    if keep == "A":
        return np.einsum("ijkj->ik", t)
    if keep == "B":
        return np.einsum("ijil->jl", t)
    raise InvariantViolation(f"keep: subsystem label must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho, dims: tuple[int, int], on: str) -> np.ndarray:
    """Transpose the indices of one subsystem; involutive, trace preserving."""
    t = _bipartite_tensor(as_matrix(rho), dims)
    if on == "A":
        t = t.transpose(2, 1, 0, 3)
    elif on == "B":
        t = t.transpose(0, 3, 2, 1)
    else:
        raise InvariantViolation(f"on: subsystem label must be 'A' or 'B', got {on!r}")
    d = dims[0] * dims[1]
    return t.reshape(d, d)


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and unitary ``v``
    such that ``a = v @ diag(w) @ v^dag`` up to the residual tolerance.
    The input is symmetrized before factorization; inputs further than
    ``TOLS.hermiticity`` from Hermitian are rejected.
    """
    a = as_matrix(a)
    _require_square(a)
    require_hermitian(a, "matrix")
    try:
        w, v = np.linalg.eigh((a + a.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    return w, v


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``m = u @ diag(s) @ v^dag``, s descending."""
    m = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return u, s, vh.conj().T
