"""Dense complex-matrix kernel.

Hilbert-Schmidt inner products and norms, Kronecker products, partial
trace/transpose over a bipartite splitting, Hermitian eigendecomposition
and SVD, plus the one checking path: ``as_integer``, ``as_real`` and
``as_array`` coerce integers, real scalars and arrays of every rank,
``bipartite_array`` is the one comparison of an array's shape with
``dims``, ``require`` is the one tolerance check of every invariant,
Hermiticity has its own check, and ``Checked`` rebuilds copies and
unpickled objects of the frozen types through their constructors.
Matrices are ``complex128`` arrays; LAPACK does the eigen/SVD work, and
the contract here is the residual bound, not the algorithm.
"""

from __future__ import annotations

import dataclasses
import numbers
import sys

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


def as_integer(value, what: str, least: int) -> int:
    """Coerce to an ``int`` no smaller than ``least``; bools and non-integers are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvariantViolation(f"{what}: must be an integer >= {least}, got {value!r}")
    return int(value)


def as_real(value, what: str) -> float:
    """Coerce to a finite ``float``; bools, strings, arrays and NaN/Inf are refused."""
    # the comparison fails for NaN, the infinities and integers beyond the float range
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise InvariantViolation(f"{what}: must be a finite real number, got {value!r}")
    return float(value)


def _holds_bool(entries) -> bool:
    """Whether nested lists and tuples hold a bool or an array of bools; other leaves are not walked."""
    if isinstance(entries, (list, tuple)):
        return any(_holds_bool(x) for x in entries)
    return isinstance(entries, (bool, np.bool_)) or isinstance(entries, np.ndarray) and entries.dtype == bool


def as_array(entries, ndim: int, what: str, dtype=np.complex128) -> np.ndarray:
    """Coerce to a finite, nonempty ``ndim``-d array of ``dtype``.

    A real ``dtype`` refuses entries with a nonzero imaginary part rather
    than drop it; arrays of bools, strings or other non-numbers are refused,
    and so is a bool among numbers in list or tuple input.
    """
    try:
        arr = np.asarray(entries)
    except ValueError as exc:  # ragged or mixed-size nesting
        raise InvariantViolation(f"shape: ragged nesting in {what}") from exc
    if arr.dtype.kind not in "iufc":
        raise InvariantViolation(f"type: non-numeric entries ({arr.dtype}) in {what}")
    # np.asarray reads a bool beside a number as 0 or 1
    if isinstance(entries, (list, tuple)) and _holds_bool(entries):
        raise InvariantViolation(f"type: bool entries in {what}")
    if arr.ndim != ndim or arr.size == 0:
        raise InvariantViolation(f"shape: {what} must be a nonempty {ndim}-d array, got {arr.shape}")
    if arr.dtype.kind == "c" and not np.issubdtype(dtype, np.complexfloating):
        if np.any(arr.imag):
            raise InvariantViolation(f"realness: entries with a nonzero imaginary part in {what}")
        arr = arr.real
    arr = arr.astype(dtype, copy=False)
    if not np.all(np.isfinite(arr)):
        raise InvariantViolation(f"finiteness: NaN or Inf entries in {what}")
    return arr


def read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only copy, safe to share across concurrent readers."""
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def bipartite_dims(dims) -> tuple[int, int]:
    """Coerce to ``(dA, dB)``, two positive integers."""
    try:
        da, db = dims
    except (TypeError, ValueError):
        raise InvariantViolation(f"dims: expected two positive integers, got {dims!r}") from None
    return as_integer(da, "dims", 1), as_integer(db, "dims", 1)


def bipartite_array(entries, dims, ndim: int, what: str) -> tuple[tuple[int, int], np.ndarray]:
    """Checked dims and the array named ``what``, which must have shape ``(dA*dB,) * ndim``."""
    dims = bipartite_dims(dims)
    arr = as_array(entries, ndim, what)
    shape = (dims[0] * dims[1],) * ndim
    if arr.shape != shape:
        raise DimensionMismatch(f"dims: {what} is {arr.shape}, dims {dims} require {shape}")
    return dims, arr


def bipartite_operator(dims, entries, what: str) -> tuple[tuple[int, int], np.ndarray]:
    """Checked dims and a read-only Hermitian copy of the dA*dB matrix named ``what``."""
    dims, mat = bipartite_array(entries, dims, 2, what)
    require_hermitian(mat, what)
    return dims, read_only(mat)


def _require_square(mat: np.ndarray, what: str = "matrix") -> None:
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"shape: {what} must be square, got {mat.shape}")


def frobenius_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(A^dag B)."""
    a = as_array(a, 2, "matrix")
    b = as_array(b, 2, "matrix")
    _require_square(a)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape: operands differ, {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def frobenius_norm(a) -> float:
    """sqrt(Tr(A^dag A)); zero iff A = 0."""
    a = as_array(a, 2, "matrix")
    _require_square(a)
    return float(np.linalg.norm(a))


def kron(a, b) -> np.ndarray:
    """Kronecker product A (x) B."""
    return np.kron(as_array(a, 2, "matrix"), as_array(b, 2, "matrix"))


def partial_trace(rho, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one subsystem of a (dA*dB)x(dA*dB) matrix, keeping ``"A"`` or ``"B"``."""
    dims, rho = bipartite_array(rho, dims, 2, "matrix")
    t = rho.reshape(dims * 2)  # axes (dA, dB, dA, dB)
    if keep == "A":
        return np.einsum("ijkj->ik", t)
    if keep == "B":
        return np.einsum("ijil->jl", t)
    raise InvariantViolation(f"keep: subsystem label must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho, dims: tuple[int, int], on: str) -> np.ndarray:
    """Transpose the indices of one subsystem; involutive, trace preserving."""
    dims, rho = bipartite_array(rho, dims, 2, "matrix")
    t = rho.reshape(dims * 2)  # axes (dA, dB, dA, dB)
    if on == "A":
        t = t.transpose(2, 1, 0, 3)
    elif on == "B":
        t = t.transpose(0, 3, 2, 1)
    else:
        raise InvariantViolation(f"on: subsystem label must be 'A' or 'B', got {on!r}")
    return t.reshape(rho.shape)


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and unitary ``v``
    such that ``a = v @ diag(w) @ v^dag`` up to the residual tolerance.
    The input is symmetrized before factorization; inputs further than
    ``TOLS.hermiticity`` from Hermitian are rejected.
    """
    a = as_array(a, 2, "matrix")
    _require_square(a)
    require_hermitian(a, "matrix")
    try:
        w, v = np.linalg.eigh((a + a.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    return w, v


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``m = u @ diag(s) @ v^dag``, s descending."""
    m = as_array(m, 2, "matrix")
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return u, s, vh.conj().T
