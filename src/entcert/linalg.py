"""Dense complex-matrix kernel.

Hilbert-Schmidt inner products and norms, Kronecker products (columnwise
too, ``product_columns``), partial trace/transpose over a bipartite
splitting, Hermitian eigendecomposition and SVD, plus the one checking path: ``require_type`` refuses an
object of the wrong class, ``as_integer``, ``as_real`` and
``as_array`` coerce integers, real scalars and arrays of every rank (file
matrices too, which ``io`` hands over as arrays), every array through one
``np.asarray``, ``bipartite_array`` is the one comparison of an array's
shape with ``dims``, ``require`` is the tolerance check of every
invariant but one ratio, beside the four tolerances checks share
(``HERMITICITY_TOL``, ``TRACE_TOL``, ``PSD_TOL``, ``UNIT_NORM_TOL``; any
other check keeps its literal), Hermiticity has its own check,
``hermitian_part`` symmetrizes a matrix before it is factorized, and
``Checked`` rebuilds copies and unpickled objects of the frozen types
through their constructors.
Matrices are ``complex128`` arrays; LAPACK does the eigen/SVD work, and
the contract here is the residual bound, not the algorithm.
"""

from __future__ import annotations

import dataclasses
import numbers
import sys
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NumericalError

HERMITICITY_TOL = 1e-10  # max |A - A^dag| entry admitted as Hermitian
TRACE_TOL = 1e-10        # |Tr(rho) - 1| admitted for states
PSD_TOL = 1e-10          # eigenvalues >= -PSD_TOL count as positive
UNIT_NORM_TOL = 1e-10    # | ||v|| - 1 | of state vectors, Gram defects of bases and generators


def require(defect: float, tol: float, what: str) -> None:
    """Raise unless ``defect <= tol``; a NaN defect always fails."""
    if not defect <= tol:
        raise InvariantViolation(f"{what} = {defect:.3e} exceeds {tol:.1e}")


def require_hermitian(mats: np.ndarray, what: str) -> None:
    """Refuse a matrix, or a stack of them, further than ``HERMITICITY_TOL`` from Hermitian."""
    # quartered, so neither a difference nor the modulus of a complex one overflows; scaled back as a Python
    # float, which reads an overflow as inf
    q = mats * 0.25
    defect = 4 * float(np.abs(q - q.conj().swapaxes(-1, -2)).max())
    require(defect, HERMITICITY_TOL, f"hermiticity: {what} has max |A - A^dag|")


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag)/2 of a matrix or a stack of them; no entry overflows.

    Halving is exact above the subnormal range, so there this is
    bit-identical to ``(a + a^dag) / 2`` wherever that does not overflow.
    """
    h = a * 0.5
    return h + h.conj().swapaxes(-1, -2)


class Checked:
    """Base of the checked dataclasses: a copy or an unpickled object is rebuilt by the constructor."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))


def require_type(value, cls: type, what: str) -> None:
    """Refuse a ``value`` that is not a ``cls``, such as a witness passed where a state goes."""
    if not isinstance(value, cls):
        raise InvariantViolation(f"type: {what} must be a {cls.__name__}, got {type(value).__name__}")


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


def _holds_bool(entries, depth: int) -> bool:
    """Whether the leaves of sequences nested ``depth`` deep include a bool, a numpy bool or a bool array."""
    for _ in range(depth - 1):
        entries = chain.from_iterable(entries)  # flattens in C; an array met on the way yields its items
    leaves = list(entries)
    kinds = set(map(type, leaves))
    # a 0-d array is a leaf whose type does not tell its dtype
    return bool in kinds or np.bool_ in kinds or any(issubclass(k, np.ndarray) for k in kinds) and any(
        x.dtype == bool for x in leaves if isinstance(x, np.ndarray)
    )


def as_array(entries, ndim: int, what: str, dtype=np.complex128) -> np.ndarray:
    """Coerce to a finite, nonempty ``ndim``-d array of ``dtype``.

    A real ``dtype`` refuses entries with a nonzero imaginary part rather
    than drop it; arrays of bools, strings or other non-numbers are refused,
    and so is a bool among numbers in list or tuple input.  Every input,
    an array or any nesting of sequences, goes through one ``np.asarray``.
    """
    try:
        arr = np.asarray(entries)
    except ValueError as exc:  # ragged or mixed-size nesting
        raise InvariantViolation(f"shape: ragged nesting in {what}") from exc
    if arr.dtype.kind not in "iufc":
        raise InvariantViolation(f"type: non-numeric entries ({arr.dtype}) in {what}")
    # np.asarray reads a bool beside a number as 0 or 1
    if isinstance(entries, (list, tuple)) and _holds_bool(entries, arr.ndim):
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


def product_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker products: column k is ``a[:, k] (x) b[:, k]``."""
    return (a[:, None, :] * b[None, :, :]).reshape(-1, a.shape[1])


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
    The input is symmetrized by ``hermitian_part`` before factorization;
    inputs further than ``HERMITICITY_TOL`` from Hermitian are rejected.
    """
    a = as_array(a, 2, "matrix")
    _require_square(a)
    require_hermitian(a, "matrix")
    try:
        w, v = np.linalg.eigh(hermitian_part(a))
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
