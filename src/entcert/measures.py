"""Pure-state entanglement measures and distance-based lower bounds.

For a pure state with Schmidt coefficients ``lam`` the dephasing distance
``sqrt(1 - sum lam_i^2)`` is the Frobenius distance to the mixture of
Schmidt product projectors.  That mixture is separable, so the dephasing
distance is an achieved upper bound on the distance D_sep to the
separable set, not D_sep itself: every entangled pure state has strictly
closer separable states (for the two-qubit maximally entangled state
D_sep is 1/sqrt(3), the dephasing distance 1/sqrt(2)).

The distance-to-measure conversions stay sound because the inequality
runs the right way.  The pure-state concurrence is C(psi) = sqrt(2) *
dsep_pure(psi) >= sqrt(2) * D_sep(psi), and the entanglement of
formation (base 2) obeys E(psi) >= -log2(sum lam_i^2) = -log2(1 -
dsep_pure(psi)^2) >= -log2(1 - D_sep(psi)^2).  Both right-hand sides are
convex and increasing in D_sep, which is convex in the state, so they
survive the convex roof: a certified lower bound on D_sep gives lower
bounds on concurrence and entanglement of formation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .linalg import as_integer, as_real, bipartite_array
from .states import DensityMatrix, PureState, SchmidtVector, schmidt


@dataclass(frozen=True)
class MeasureBounds:
    """Lower bounds on the three measures derived from one distance bound."""

    dsep_lower: float
    concurrence_lower: float
    eof_lower: float       # bits
    geometric_lower: float

    def to_json(self) -> dict:
        return asdict(self)


def dsep_pure(lam: SchmidtVector) -> float:
    """Dephasing distance of a pure state: sqrt(1 - sum lam_i^2).

    This is the distance to the Schmidt-dephased mixture (see
    ``closest_separable_pure``), an achieved upper bound on the distance to
    the separable set; for every entangled pure state the true distance is
    strictly smaller.
    """
    return math.sqrt(max(0.0, 1.0 - float(np.sum(lam.coeffs**2))))


def closest_separable_pure(psi: PureState) -> DensityMatrix:
    """The Schmidt-dephased mixture, which achieves the dephasing distance.

    Dephasing the projector in its Schmidt bases leaves the separable
    mixture sum_k lam_k |a_k b_k><a_k b_k|, whose distance to the projector
    is exactly ``dsep_pure``.  It shows that upper bound is attained; it
    is not the closest separable state, since for an entangled pure state
    strictly closer separable states exist.
    """
    lam, basis_a, basis_b = schmidt(psi)
    d = psi.dims[0] * psi.dims[1]
    sigma = np.zeros((d, d), dtype=np.complex128)
    for k, weight in enumerate(lam.coeffs):
        if weight == 0.0:
            continue
        prod = np.kron(basis_a[:, k], basis_b[:, k])
        sigma += weight * np.outer(prod, prod.conj())
    return DensityMatrix(dims=psi.dims, mat=sigma)


def diagonal_twirl_matrix(mat: np.ndarray, d: int) -> np.ndarray:
    """Average of (U (x) conj(U)) M (U (x) conj(U))^dag over diagonal unitaries U.

    Keeps exactly the entries <ij|M|kl> with i=j,k=l or with i=k,j=l and
    zeroes the rest; linear, trace preserving, Hermiticity preserving and
    idempotent.
    """
    d = as_integer(d, "dimension", 1)
    _, mat = bipartite_array(mat, (d, d), 2, "matrix")
    i, j, k, l = np.indices((d, d, d, d))
    mask = ((i == j) & (k == l)) | ((i == k) & (j == l))
    out = mat.reshape(d, d, d, d) * mask
    return out.reshape(d * d, d * d)


def diagonal_twirl(rho: DensityMatrix) -> DensityMatrix:
    da, db = rho.dims
    if da != db:
        raise DimensionMismatch(f"dims: twirl requires equal local dimensions, got {rho.dims}")
    return DensityMatrix(dims=rho.dims, mat=diagonal_twirl_matrix(rho.mat, da))


def concurrence_pure(lam: SchmidtVector) -> float:
    """sqrt(2 (1 - sum lam_i^2))."""
    return math.sqrt(max(0.0, 2.0 * (1.0 - float(np.sum(lam.coeffs**2)))))


def eof_pure(lam: SchmidtVector) -> float:
    """Entropy of entanglement - sum lam_i log2 lam_i in bits (0 log 0 = 0)."""
    c = lam.coeffs[lam.coeffs > 0.0]
    return float(-np.sum(c * np.log2(c)))


def geometric_pure(lam: SchmidtVector) -> float:
    """One minus the largest Schmidt coefficient."""
    return 1.0 - lam.largest


def bounds_from_dsep(dsep_lower: float) -> MeasureBounds:
    """Measure bounds implied by a distance lower bound.

    concurrence >= sqrt(2) * dsep and EoF >= -log2(1 - dsep^2) bits are
    sound certificates.  The geometric value dsep^2 is reported for
    completeness but is NOT a sound lower bound: 1 - lam_0 can fall below
    the squared distance for non-flat Schmidt spectra (equality holds at
    maximally entangled states), so treat ``geometric_lower`` as a
    heuristic.  Requires 0 <= dsep < 1.
    """
    dsep_lower = as_real(dsep_lower, "range")
    if not 0.0 <= dsep_lower < 1.0:
        raise InvariantViolation(
            f"range: distance bound must lie in [0, 1), got {dsep_lower:.6g}"
        )
    d_sq = dsep_lower * dsep_lower
    return MeasureBounds(
        dsep_lower=dsep_lower,
        concurrence_lower=math.sqrt(2.0) * dsep_lower,
        eof_lower=-math.log1p(-d_sq) / math.log(2.0),
        geometric_lower=d_sq,
    )
