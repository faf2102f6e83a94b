import math

import numpy as np
import pytest

from entcert import (
    DensityMatrix,
    DimensionMismatch,
    InvariantViolation,
    PureState,
    RotationSet,
    SchmidtVector,
    bell_state,
    bounds_from_dsep,
    closest_separable_pure,
    concurrence_pure,
    diagonal_twirl,
    diagonal_twirl_matrix,
    dsep_pure,
    eof_pure,
    fixture,
    frobenius_norm,
    geometric_pure,
    mub_bound,
    mub_family,
    mub_witness,
    partial_transpose,
    schmidt,
    spin_bound,
)

from conftest import haar_vector, random_density, two_qubit_exact


def sv(*coeffs):
    return SchmidtVector(coeffs=np.array(coeffs))


def test_dsep_pure_examples():
    assert dsep_pure(sv(1.0)) == 0.0
    assert dsep_pure(sv(0.5, 0.5)) == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert dsep_pure(sv(1 / 3, 1 / 3, 1 / 3)) == pytest.approx(np.sqrt(2 / 3), abs=1e-15)


def test_closest_separable_product_state():
    vec = np.zeros(4)
    vec[1] = 1.0
    psi = PureState(dims=(2, 2), vec=vec)
    sigma = closest_separable_pure(psi)
    assert np.abs(sigma.mat - np.outer(vec, vec)).max() < 1e-15


def test_closest_separable_bell():
    psi = bell_state(2)
    sigma = closest_separable_pure(psi)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.abs(sigma.mat - expected).max() < 1e-12
    # direct norm of the explicit 4x4 difference
    diff = psi.projector().mat - expected
    assert np.linalg.norm(diff) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert frobenius_norm(psi.projector().mat - sigma.mat) == pytest.approx(
        1 / np.sqrt(2), abs=1e-12
    )


def test_closest_separable_two_term_superposition():
    vec = np.zeros(4)
    vec[0], vec[3] = 0.8, 0.6
    psi = PureState(dims=(2, 2), vec=vec)
    sigma = closest_separable_pure(psi)
    dist = frobenius_norm(psi.projector().mat - sigma.mat)
    assert dist == pytest.approx(math.sqrt(1 - 0.64**2 - 0.36**2), abs=1e-12)
    assert dist == pytest.approx(math.sqrt(0.4608), abs=1e-12)


def test_closest_separable_achieves_formula_and_is_ppt(rng):
    for dims in [(2, 2), (3, 3), (2, 3)]:
        psi = PureState(dims=dims, vec=haar_vector(rng, dims[0] * dims[1]))
        lam, basis_a, basis_b = schmidt(psi)
        sigma = closest_separable_pure(psi)
        dist = frobenius_norm(psi.projector().mat - sigma.mat)
        assert abs(dist - dsep_pure(lam)) < 1e-9
        # the mixture sum_k lam_k |a_k b_k><a_k b_k| term by term, as one outer product each
        reference = np.zeros_like(sigma.mat)
        for k, weight in enumerate(lam.coeffs):
            prod = np.kron(basis_a[:, k], basis_b[:, k])
            reference += weight * np.outer(prod, prod.conj())
        assert np.abs(sigma.mat - reference).max() <= 1e-15
        pt = partial_transpose(sigma.mat, dims, "B")
        assert np.linalg.eigvalsh(pt).min() > -1e-12


def test_twirl_keeps_bell_projector():
    for d in (2, 3):
        rho = fixture(f"bell({d})")
        out = diagonal_twirl(rho)
        assert np.abs(out.mat - rho.mat).max() < 1e-15


def test_twirl_keeps_maximally_mixed():
    rho = DensityMatrix(dims=(3, 3), mat=np.eye(9) / 9)
    assert np.array_equal(diagonal_twirl(rho).mat, rho.mat)


def test_twirl_kills_single_coherence():
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 2] = 1.0  # |01><10|
    assert not np.any(diagonal_twirl_matrix(mat, 2))


def test_twirl_idempotent_exactly(rng):
    rho = DensityMatrix(dims=(3, 3), mat=random_density(rng, 9))
    once = diagonal_twirl(rho)
    twice = diagonal_twirl(once)
    assert np.array_equal(once.mat, twice.mat)


def test_twirl_preserves_trace_and_hermiticity(rng):
    rho = DensityMatrix(dims=(3, 3), mat=random_density(rng, 9))
    out = diagonal_twirl(rho)
    assert abs(np.trace(out.mat) - 1) < 1e-14
    assert np.abs(out.mat - out.mat.conj().T).max() < 1e-14


def test_twirl_is_contraction(rng):
    for _ in range(50):
        a = random_density(rng, 9)
        b = random_density(rng, 9)
        lhs = np.linalg.norm(diagonal_twirl_matrix(a - b, 3))
        assert lhs <= np.linalg.norm(a - b) + 1e-9


def test_twirl_requires_square_split():
    rho = DensityMatrix(dims=(2, 3), mat=np.eye(6) / 6)
    with pytest.raises(DimensionMismatch):
        diagonal_twirl(rho)


def test_pure_measures_bell():
    lam = sv(0.5, 0.5)
    assert concurrence_pure(lam) == pytest.approx(1.0, abs=1e-15)
    assert eof_pure(lam) == pytest.approx(1.0, abs=1e-15)
    assert geometric_pure(lam) == pytest.approx(0.5, abs=1e-15)


def test_pure_measures_product():
    lam = sv(1.0)
    assert concurrence_pure(lam) == 0.0
    assert eof_pure(lam) == 0.0
    assert geometric_pure(lam) == 0.0


def test_pure_measures_two_term():
    lam = sv(0.64, 0.36)
    assert concurrence_pure(lam) == pytest.approx(2 * 0.8 * 0.6, abs=1e-12)
    expected_e = -(0.64 * math.log2(0.64) + 0.36 * math.log2(0.36))
    assert eof_pure(lam) == pytest.approx(expected_e, abs=1e-15)
    assert expected_e == pytest.approx(0.942683, abs=1e-6)
    assert geometric_pure(lam) == pytest.approx(0.36, abs=1e-15)


def test_bounds_from_dsep_paper_value():
    bounds = bounds_from_dsep(math.sqrt(2) / 30)
    assert abs(bounds.concurrence_lower - 1 / 15) <= 1e-12
    assert abs(bounds.eof_lower - (-math.log2(449 / 450))) <= 1e-12
    assert abs(bounds.geometric_lower - 1 / 450) <= 1e-12


def test_bounds_from_dsep_zero():
    bounds = bounds_from_dsep(0.0)
    assert bounds.concurrence_lower == 0.0
    assert bounds.eof_lower == 0.0
    assert bounds.geometric_lower == 0.0


def test_bounds_from_dsep_bell_equalities():
    bounds = bounds_from_dsep(1 / math.sqrt(2))
    assert abs(bounds.concurrence_lower - 1.0) <= 1e-12
    assert abs(bounds.eof_lower - 1.0) <= 1e-12
    assert abs(bounds.geometric_lower - 0.5) <= 1e-12


def test_bounds_from_dsep_domain():
    with pytest.raises(InvariantViolation, match="range"):
        bounds_from_dsep(1.0)
    with pytest.raises(InvariantViolation, match="range"):
        bounds_from_dsep(-0.1)


def test_pure_state_tightness(rng):
    for dims in [(2, 2), (3, 3), (4, 4)]:
        for _ in range(10):
            psi = PureState(dims=dims, vec=haar_vector(rng, dims[0] * dims[1]))
            lam, _, _ = schmidt(psi)
            d = dsep_pure(lam)
            assert abs(concurrence_pure(lam) - math.sqrt(2) * d) < 1e-12
            assert eof_pure(lam) >= -math.log2(1 - d * d) - 1e-12
            # the geometric value sits BELOW d^2 for non-flat spectra
            # (sum lam_i^2 <= lam_0), with equality at flat spectra
            assert geometric_pure(lam) <= d * d + 1e-12


def test_geometric_equals_squared_distance_only_for_flat_spectra():
    flat = sv(0.5, 0.5)
    assert geometric_pure(flat) == pytest.approx(dsep_pure(flat) ** 2, abs=1e-15)
    skew = sv(0.8, 0.2)
    assert geometric_pure(skew) < dsep_pure(skew) ** 2


def test_two_qubit_exact_reference():
    c, eof, eg = two_qubit_exact(fixture("bell(2)").mat)
    assert abs(c - 1.0) <= 1e-12 and abs(eof - 1.0) <= 1e-12
    assert abs(eg - 0.5) <= 1e-12
    product = np.kron(np.outer([0.6, 0.8], [0.6, 0.8]), np.diag([1.0, 0.0]))
    assert max(two_qubit_exact(product)) <= 1e-12
    for p in (0.2, 0.5, 0.8):
        isotropic = p * fixture("bell(2)").mat + (1 - p) * np.eye(4) / 4
        c, _, eg = two_qubit_exact(isotropic)
        exact_c = max(0.0, (3 * p - 1) / 2)
        assert abs(c - exact_c) <= 1e-12
        assert abs(eg - (1 - math.sqrt(1 - exact_c**2)) / 2) <= 1e-12


def test_two_qubit_certificates_stay_below_the_exact_measures():
    # geometric_lower is left out, and so is the exact E_G: dsep^2 is a heuristic on mixed states, not a bound
    rng = np.random.default_rng(4)
    witnesses = {count: mub_witness(mub_family(2, count), RotationSet.identity(2, count)) for count in (2, 3)}
    certified = 0
    for i in range(2000):
        g = rng.standard_normal((4, 1 + i % 4)) + 1j * rng.standard_normal((4, 1 + i % 4))
        rho = DensityMatrix(dims=(2, 2), mat=g @ g.conj().T / np.vdot(g, g).real)
        c, eof, _ = two_qubit_exact(rho.mat)
        certs = [spin_bound(rho)] + [mub_bound(w, count, rho) for count, w in witnesses.items()]
        for cert in certs:
            assert cert.concurrence_lower <= c + 1e-12, (i, cert)
            assert cert.eof_lower <= eof + 1e-12, (i, cert)
            certified += cert.certified
    assert certified > 0
