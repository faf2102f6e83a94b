import dataclasses
import math

import numpy as np
import pytest

from entcert import (
    DensityMatrix,
    DimensionMismatch,
    GeneratorSet,
    InvariantViolation,
    MubFamily,
    RotationSet,
    Witness,
    bell_state,
    bounds_from_dsep,
    collective,
    fixture,
    frobenius_inner,
    gellmann,
    generic_bound,
    mub_bound,
    mub_family,
    mub_witness,
    normalize_witness,
    spin_bound,
    spin_radius_bound,
    spin_witness,
)

from conftest import (
    CERTIFICATE_KEYS,
    EXTREME_WITNESSES,
    PAPER_MUB_WITNESS_THIRDS,
    mub_witness_reference,
    random_density,
    random_product_batch,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def product_expectations(w, da, db, rng, n=1000):
    cols = random_product_batch(rng, da, db, n)
    return np.einsum("di,di->i", cols.conj(), w.mat @ cols).real


def test_witness_type_invariants():
    with pytest.raises(InvariantViolation, match="hermiticity"):
        Witness(dims=(2, 2), mat=np.triu(np.ones((4, 4))))
    with pytest.raises(InvariantViolation, match="nonzero"):
        Witness(dims=(2, 2), mat=np.zeros((4, 4)))
    with pytest.raises(DimensionMismatch):
        Witness(dims=(2, 2), mat=np.eye(6))


def test_normalize_pauli_product():
    w = Witness(dims=(2, 2), mat=np.kron(SZ, SZ))
    norm = normalize_witness(w)
    assert norm.a == pytest.approx(0.0, abs=1e-15)
    assert norm.b == pytest.approx(2.0, abs=1e-12)


def test_normalize_mub_witness_closed_form():
    fam = mub_family(3, 4)
    w = mub_witness(fam, RotationSet.identity(3, 4))
    assert normalize_witness(w).b == pytest.approx(2 * np.sqrt(2), abs=1e-9)


def test_normalize_rejects_identity():
    with pytest.raises(InvariantViolation, match="direction"):
        normalize_witness(Witness(dims=(2, 2), mat=np.eye(4)))


def test_normalized_direction_properties(rng):
    mat = rng.standard_normal((9, 9))
    mat = mat + mat.T
    w = Witness(dims=(3, 3), mat=mat)
    norm = normalize_witness(w)
    w1 = (w.mat - norm.a * np.eye(9)) / norm.b
    assert abs(np.trace(w1)) < 1e-10
    assert np.linalg.norm(w1) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e12])
def test_normalize_witness_is_the_textbook_split_bit_for_bit(rng, scale):
    mat = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    mat = (mat + mat.conj().T) * scale
    tr = np.trace(mat).real
    norm = normalize_witness(Witness(dims=(3, 3), mat=mat))
    assert (norm.a, norm.b) == (tr / 9, np.sqrt(np.vdot(mat, mat).real - tr * tr / 9))


@pytest.mark.parametrize("case", EXTREME_WITNESSES)
def test_extreme_witnesses_give_a_finite_certificate_or_an_invariant(case):
    mat, invariant, radius = EXTREME_WITNESSES[case]
    w = Witness(dims=(2, 2), mat=mat)
    if invariant:
        with pytest.raises(InvariantViolation, match=f"^{invariant}: "):
            generic_bound(w, fixture("bell(2)"))
        return
    assert normalize_witness(w).b == pytest.approx(radius, rel=1e-15)
    cert = generic_bound(w, fixture("bell(2)"))
    assert np.isfinite([cert.witness_value, cert.b_used]).all() and not cert.certified


def test_generic_bound_paper_pair():
    cert = generic_bound(fixture("paper_mub_witness"), fixture("paper_ppt_state"))
    assert abs(cert.witness_value - (-2 / 15)) <= 1e-12
    assert abs(cert.dsep_lower - np.sqrt(2) / 30) <= 1e-12
    assert cert.certified


def test_generic_bound_no_detection():
    w = fixture("paper_mub_witness")
    mixed = DensityMatrix(dims=(3, 3), mat=np.eye(9) / 9)
    cert = generic_bound(w, mixed)
    # Tr W = 6, so the expectation on the maximally mixed state is 6/9
    assert cert.witness_value == pytest.approx(6 / 9, abs=1e-12)
    assert cert.dsep_lower == 0.0
    assert not cert.certified


def test_generic_bound_override_semantics():
    w = fixture("paper_mub_witness")
    rho = fixture("paper_ppt_state")
    weaker = generic_bound(w, rho, b_override=10.0)
    assert weaker.dsep_lower == pytest.approx((2 / 15) / 10.0, abs=1e-15)
    with pytest.raises(InvariantViolation, match="radius"):
        generic_bound(w, rho, b_override=1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvariantViolation, match="^radius:"):
            generic_bound(w, rho, b_override=bad)


def test_generic_bound_dimension_mismatch():
    w = Witness(dims=(2, 2), mat=np.kron(SZ, SZ))
    with pytest.raises(DimensionMismatch):
        generic_bound(w, fixture("paper_ppt_state"))


def test_certificate_serialization():
    cert = generic_bound(fixture("paper_mub_witness"), fixture("paper_ppt_state"))
    assert list(cert.to_json()) == CERTIFICATE_KEYS  # the order `entcert bound` prints
    bounds = bounds_from_dsep(cert.dsep_lower)
    assert cert.to_json() == {**cert.to_json(), **bounds.to_json()}
    assert cert.concurrence_lower == bounds.concurrence_lower == pytest.approx(1 / 15, abs=1e-12)


def test_to_json_is_asdict_in_its_key_order():
    cert = generic_bound(fixture("paper_mub_witness"), fixture("paper_ppt_state"))
    for obj in (cert, bounds_from_dsep(cert.dsep_lower)):
        payload, reference = obj.to_json(), dataclasses.asdict(obj)
        assert payload == reference and list(payload) == list(reference)


def test_generic_bound_refuses_an_impossible_distance():
    # -I + 0.1 Z(x)Z is negative on every state, so it is no witness: the bound would read 1.1 / 0.2 = 5.5,
    # but no state is as far as sqrt(1 - 1/D) < 1 from the separable set
    w = Witness(dims=(2, 2), mat=-np.eye(4) + 0.1 * np.kron(SZ, SZ))
    ket01 = DensityMatrix(dims=(2, 2), mat=np.diag([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(InvariantViolation, match=r"^range: distance bound must lie in \[0, 1\), got 5.5$"):
        generic_bound(w, ket01)


def test_mub_family_qubit():
    fam = mub_family(2, 3)
    for i in range(3):
        for j in range(i + 1, 3):
            overlaps = np.abs(fam.bases[i].conj().T @ fam.bases[j])
            assert np.abs(overlaps - 1 / np.sqrt(2)).max() < 1e-12


def test_mub_family_qutrit_overlaps():
    fam = mub_family(3, 4)
    assert len(fam.bases) == 4
    for i in range(4):
        for j in range(4):
            overlaps = np.abs(fam.bases[i].conj().T @ fam.bases[j])
            if i == j:
                assert np.abs(overlaps - np.eye(3)).max() < 1e-12
            else:
                assert np.abs(overlaps - 1 / np.sqrt(3)).max() < 1e-9


def quadratic_phase_bases_by_column(d):
    """The d quadratic-phase bases of an odd prime d, one column at a time: the reference for ``mub_family``."""
    omega = np.exp(2j * np.pi / d)
    j = np.arange(d)
    return [np.stack([omega ** ((a * j * j + k * j) % d) / np.sqrt(d) for k in range(d)], axis=1) for a in range(d)]


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_mub_family_is_a_prefix_of_the_full_family(d):
    full = mub_family(d, d + 1).bases
    for count in range(2, d + 2):
        bases = mub_family(d, count).bases
        assert bases.shape == (count, d, d) and bases.tobytes() == full[:count].tobytes()
    if d > 2:
        want = np.stack([np.eye(d, dtype=np.complex128), *quadratic_phase_bases_by_column(d)])
        assert full.tobytes() == want.tobytes()


def test_mub_family_validation():
    eye = np.eye(2)
    plus = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert len(MubFamily(bases=[eye, plus]).bases) == 2
    assert MubFamily(bases=[np.eye(3)]).d == 3  # one basis is a family; d comes from its shape
    with pytest.raises(InvariantViolation, match="^orthonormality:"):
        MubFamily(bases=[eye, np.ones((2, 2))])
    with pytest.raises(InvariantViolation, match="^unbiasedness:"):
        MubFamily(bases=[eye, plus, eye[:, ::-1]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvariantViolation, match="^finiteness:"):
            MubFamily(bases=[eye, np.full((2, 2), bad)])
    for bases in ([], [eye, np.eye(3)], [eye[0]], [eye[:1]]):
        with pytest.raises(InvariantViolation, match="^shape:"):
            MubFamily(bases=bases)


def test_mub_family_rejects_composite():
    with pytest.raises(InvariantViolation, match="prime"):
        mub_family(4, 2)


def test_mub_family_rejects_bad_count():
    with pytest.raises(InvariantViolation, match="count"):
        mub_family(3, 5)
    with pytest.raises(InvariantViolation, match="count"):
        mub_family(3, 1)


def test_mub_witness_trace_identities():
    for d in (2, 3, 5):
        for count in range(2, d + 2):
            w = mub_witness(mub_family(d, count), RotationSet.identity(d, count))
            assert np.abs(w.mat - w.mat.conj().T).max() < 1e-12
            assert np.trace(w.mat).real == pytest.approx(d * (d - 1), abs=1e-9)
            assert np.vdot(w.mat, w.mat).real == pytest.approx(
                (d - 1) * (d + count - 1), abs=1e-9
            )


def test_mub_witness_qubit_example():
    w = mub_witness(mub_family(2, 3), RotationSet.identity(2, 3))
    assert np.trace(w.mat).real == pytest.approx(2.0, abs=1e-12)
    assert np.vdot(w.mat, w.mat).real == pytest.approx(4.0, abs=1e-12)


def test_mub_witness_with_nontrivial_rotation(rng):
    # the permutation exchanging the two basis labels is orthogonal and
    # fixes the uniform axis
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    rot = RotationSet(mats=[np.eye(2), flip, flip])
    w = mub_witness(mub_family(2, 3), rot)
    assert np.abs(w.mat - w.mat.conj().T).max() < 1e-12
    assert np.trace(w.mat).real == pytest.approx(2.0, abs=1e-12)
    vals = product_expectations(w, 2, 2, rng, n=500)
    assert vals.min() >= -1e-9


def axis_rotations(rng, d, count):
    """``count`` seeded rotations u u^T + V G V^T, with V an orthonormal basis of u-perp and G in SO(d - 1)."""
    u = np.full((d, 1), 1 / np.sqrt(d))
    v = np.linalg.qr(np.hstack([u, rng.standard_normal((d, d - 1))]))[0][:, 1:]
    mats = []
    for _ in range(count):
        q, r = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))
        g = q * np.sign(np.diag(r))
        g[:, 0] *= np.sign(np.linalg.det(g))
        mats.append(u @ u.T + v @ g @ v.T)
    return RotationSet(mats)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_mub_witness_matches_the_basis_by_basis_reference(d):
    rng = np.random.default_rng(d)
    for count in range(2, d + 2):
        fam, turned = mub_family(d, count), axis_rotations(rng, d, count)
        if d >= 3:
            # a symmetric O cannot tell O from O^T, so only these rotations check its orientation
            assert np.abs(turned.mats - turned.mats.swapaxes(1, 2)).max() > 0.1
        for rotations in (RotationSet.identity(d, count), turned):
            gap = np.abs(mub_witness(fam, rotations).mat - mub_witness_reference(fam, rotations)).max()
            assert gap <= 1e-14, f"d={d} L={count}"


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_full_identity_witness_is_identity_minus_d_bell(d):
    w = mub_witness(mub_family(d, d + 1), RotationSet.identity(d, d + 1))
    assert np.linalg.norm(w.mat - (np.eye(d * d) - d * bell_state(d).projector().mat)) <= 1e-13


def test_rotation_validation():
    with pytest.raises(InvariantViolation, match="orthogonality"):
        RotationSet(mats=[np.array([[1.0, 1.0], [0.0, 1.0]])])
    # orthogonal but moves the uniform axis
    with pytest.raises(InvariantViolation, match="axis"):
        RotationSet(mats=[np.diag([1.0, -1.0])])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvariantViolation, match="^finiteness:"):
            RotationSet(mats=[np.eye(2), np.full((2, 2), bad)])
    # a nonzero imaginary part is refused, not dropped (an ndarray) or a TypeError (a list)
    for mats in (np.array([[[1, 0.5j], [0.5j, 1]]]), [[[1, 0.5j], [0.5j, 1]]]):
        with pytest.raises(InvariantViolation, match="^realness:"):
            RotationSet(mats=mats)
    assert RotationSet(mats=np.eye(2, dtype=complex)[None]).mats[0].dtype == float
    with pytest.raises(InvariantViolation, match="^type:"):
        RotationSet(mats=[[["1", "0"], ["0", "x"]]])
    ragged = [[[1.0, 0.0], [0.0]]]
    for mats in ([], [np.eye(2), np.eye(3)], ragged, [np.ones((2, 3))], [np.ones(2)]):
        with pytest.raises(InvariantViolation, match="^shape:"):
            RotationSet(mats=mats)


def test_mub_witness_rotation_count_mismatch():
    with pytest.raises(DimensionMismatch):
        mub_witness(mub_family(2, 3), RotationSet.identity(2, 2))
    with pytest.raises(DimensionMismatch, match="^shape:"):
        mub_witness(mub_family(2, 3), RotationSet.identity(3, 3))


def test_mub_bound_paper_values():
    w = fixture("paper_mub_witness")
    rho = fixture("paper_ppt_state")
    cert = mub_bound(w, 4, rho)
    assert abs(cert.b_used - np.sqrt(8)) < 1e-12
    assert abs(cert.dsep_lower - np.sqrt(2) / 30) <= 1e-12


def test_paper_witness_from_the_constructors():
    # R = 2|u><u| - I reflects through the uniform axis u, so RotationSet accepts it
    reflection, eye = (2 / 3) * np.ones((3, 3)) - np.eye(3), np.eye(3)
    fam, rho = mub_family(3, 4), fixture("paper_ppt_state")
    w = mub_witness(fam, RotationSet([reflection, reflection, eye, eye]))
    assert np.abs(w.mat - PAPER_MUB_WITNESS_THIRDS / 3).max() <= 1e-15
    assert abs(generic_bound(w, rho).dsep_lower - np.sqrt(2) / 30) <= 1e-15
    assert abs(mub_bound(w, 4, rho).dsep_lower - np.sqrt(2) / 30) <= 1e-15
    # only reflecting the first two bases detects the state
    values = {}
    for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        rotations = RotationSet([reflection if a in pair else eye for a in range(4)])
        values[pair] = frobenius_inner(mub_witness(fam, rotations).mat, rho.mat).real
    assert abs(values.pop((0, 1)) + 2 / 15) <= 1e-12
    assert all(min(abs(v - 2 / 3), abs(v - 22 / 15)) <= 1e-12 for v in values.values())


def test_mub_bound_detects_maximally_entangled():
    for d in (2, 3):
        w = mub_witness(mub_family(d, d + 1), RotationSet.identity(d, d + 1))
        cert = mub_bound(w, d + 1, fixture(f"bell({d})"))
        assert cert.certified
        assert cert.dsep_lower > 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
@pytest.mark.parametrize("d", [3, 7])
def test_mub_bound_never_exceeds_the_exact_bell_distance(d):
    # D_sep(bell(d)) = sqrt((d - 1)/(d + 1)); the certificate subtracts no rounding error, and at
    # L = d + 1 it prints a few ulps above that distance
    w = mub_witness(mub_family(d, d + 1), RotationSet.identity(d, d + 1))
    assert mub_bound(w, d + 1, fixture(f"bell({d})")).dsep_lower <= math.sqrt((d - 1) / (d + 1))


def test_mub_bound_separable_state():
    w = mub_witness(mub_family(2, 3), RotationSet.identity(2, 3))
    vec = np.zeros(4)
    vec[0] = 1.0
    rho = DensityMatrix(dims=(2, 2), mat=np.outer(vec, vec))
    cert = mub_bound(w, 3, rho)
    assert cert.dsep_lower == 0.0


def test_mub_witness_nonnegative_on_products(rng):
    for d in (2, 3, 5):
        for count in range(2, d + 2):
            w = mub_witness(mub_family(d, count), RotationSet.identity(d, count))
            vals = product_expectations(w, d, d, rng, n=1000)
            assert vals.min() >= -1e-9, f"d={d} L={count}"


def test_spin_witness_singlet():
    rho = fixture("singlet")
    w = spin_witness(rho, gellmann(2))
    assert frobenius_inner(w.mat, rho.mat).real == pytest.approx(-4.0, abs=1e-10)


def test_spin_witness_product_state_at_floor():
    vec = np.zeros(4)
    vec[0] = 1.0
    rho = DensityMatrix(dims=(2, 2), mat=np.outer(vec, vec))
    w = spin_witness(rho, gellmann(2))
    val = frobenius_inner(w.mat, rho.mat).real
    assert val >= -1e-10
    assert val == pytest.approx(0.0, abs=1e-9)


def test_spin_witness_maximally_mixed():
    rho = DensityMatrix(dims=(2, 2), mat=np.eye(4) / 4)
    w = spin_witness(rho, gellmann(2))
    assert frobenius_inner(w.mat, rho.mat).real == pytest.approx(2.0, abs=1e-10)


def test_spin_bound_singlet():
    cert = spin_bound(fixture("singlet"), gellmann(2))
    assert cert.b_used == pytest.approx(np.sqrt(240), abs=1e-12)
    assert cert.dsep_lower == pytest.approx(4 / np.sqrt(240), abs=1e-10)
    assert cert.certified


def test_spin_bound_maximally_mixed():
    rho = DensityMatrix(dims=(2, 2), mat=np.eye(4) / 4)
    cert = spin_bound(rho, gellmann(2))
    assert cert.dsep_lower == 0.0
    assert not cert.certified


def test_spin_bound_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        spin_bound(fixture("paper_ppt_state"), gellmann(2))
    with pytest.raises(DimensionMismatch, match="^dims:"):
        spin_bound(DensityMatrix(dims=(2, 3), mat=np.eye(6) / 6))
    with pytest.raises(InvariantViolation, match="^dimension:"):
        spin_bound(DensityMatrix(dims=(1, 1), mat=np.eye(1)))


def test_spin_bound_reads_d_from_the_state(rng):
    for d in (2, 3, 5):
        rho = DensityMatrix(dims=(d, d), mat=random_density(rng, d * d))
        assert np.array_equal(spin_witness(rho).mat, spin_witness(rho, gellmann(d)).mat)
        assert repr(spin_bound(rho)) == repr(spin_bound(rho, gellmann(d))), f"d={d}"  # float reprs round-trip


def test_spin_witness_nonnegative_on_products_and_mixtures(rng):
    for d in (2, 3):
        gens = gellmann(d)
        anchors = [fixture(f"bell({d})")]
        anchors.append(DensityMatrix(dims=(d, d), mat=random_density(rng, d * d)))
        for anchor in anchors:
            w = spin_witness(anchor, gens)
            vals = product_expectations(w, d, d, rng, n=1000)
            assert vals.min() >= -1e-9
            # random convex mixtures of product states
            for _ in range(50):
                cols = random_product_batch(rng, d, d, 6)
                weights = rng.random(6)
                weights /= weights.sum()
                sigma = (cols * weights) @ cols.conj().T
                assert frobenius_inner(w.mat, sigma).real >= -1e-9


def test_spin_radius_constant_upper_bounds_witness_radius(rng):
    for d in (2, 3):
        gens = gellmann(d)
        cap = spin_radius_bound(d) ** 2
        for _ in range(1000):
            rho = DensityMatrix(dims=(d, d), mat=random_density(rng, d * d))
            w = spin_witness(rho, gens)
            tr = np.trace(w.mat).real
            b_sq = np.vdot(w.mat, w.mat).real - tr * tr / (d * d)
            assert b_sq <= cap + 1e-6


def _brute_force_spin_witness(rho, gens):
    """sum_k (G_k - m_k I)^2 - 4(d-1) I from the d^2 - 1 collective operators."""
    d = gens.d
    eye = np.eye(d * d)
    acc = -4.0 * (d - 1) * eye
    for g in collective(gens):
        shifted = g - np.vdot(g, rho.mat).real * eye
        acc = acc + shifted @ shifted
    return acc


def test_spin_witness_matches_collective_operator_sum():
    rng = np.random.default_rng(7)
    for d in range(2, 8):
        ref = gellmann(d)
        n = d * d - 1
        rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rotated = GeneratorSet(gens=np.einsum("kl,lab->kab", rot, ref.gens))
        for _ in range(2):
            rho = DensityMatrix(dims=(d, d), mat=random_density(rng, d * d))
            for gens in (ref, rotated):
                expected = _brute_force_spin_witness(rho, gens)
                assert np.abs(spin_witness(rho, gens).mat - expected).max() <= 1e-12, f"d={d}"
