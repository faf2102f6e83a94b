import numpy as np
import pytest

from entcert import (
    DimensionMismatch,
    GeneratorSet,
    InvariantViolation,
    collective,
    gellmann,
    singlet_state,
    swap_operator,
    verify_generator_identities,
)

from conftest import haar_vector, random_density

PAULIS = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def test_gellmann_d2_is_pauli_family():
    gens = gellmann(2).gens
    assert gens.shape == (3, 2, 2)
    for pauli in PAULIS:
        assert any(np.abs(g - pauli).max() < 1e-15 for g in gens)


def test_gellmann_rejects_small_dimension():
    with pytest.raises(InvariantViolation):
        gellmann(1)


def test_generator_set_rejects_non_hermitian():
    # traceless, with Tr(g_k^dag g_l) = 2 delta_kl, but g_0 and g_1 are not Hermitian
    raising = np.sqrt(2) * np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(InvariantViolation, match="hermiticity"):
        GeneratorSet(d=2, gens=[raising, raising.T, PAULIS[2]])


def test_generator_set_validation():
    with pytest.raises(InvariantViolation, match="^tracelessness:"):
        GeneratorSet(d=2, gens=[PAULIS[0], PAULIS[1], np.eye(2)])
    with pytest.raises(InvariantViolation, match="^orthogonality:"):
        GeneratorSet(d=2, gens=[PAULIS[0], PAULIS[1], PAULIS[0]])
    with pytest.raises(InvariantViolation, match="^orthogonality:"):
        GeneratorSet(d=2, gens=[PAULIS[0], PAULIS[1], 2 * PAULIS[2]])
    for bad in (np.nan, np.inf, -np.inf):
        gens = np.array(PAULIS)
        gens[2, 0, 0] = bad
        with pytest.raises(InvariantViolation, match="^finiteness:"):
            GeneratorSet(d=2, gens=gens)
    with pytest.raises(InvariantViolation, match="^finiteness:"):
        GeneratorSet(d=2, gens=np.full((3, 2, 2), np.nan))
    for d, gens in ((2, PAULIS[:2]), (2, []), (1, np.zeros((0, 1, 1)))):
        with pytest.raises(InvariantViolation, match="^shape:"):
            GeneratorSet(d=d, gens=gens)


def test_gellmann_sum_of_squares():
    sq2 = np.einsum("kab,kbc->ac", gellmann(2).gens, gellmann(2).gens)
    assert np.abs(sq2 - 3 * np.eye(2)).max() < 1e-14
    sq3 = np.einsum("kab,kbc->ac", gellmann(3).gens, gellmann(3).gens)
    assert gellmann(3).gens.shape[0] == 8
    assert np.abs(sq3 - (16 / 3) * np.eye(3)).max() < 1e-14


def test_collective_diagonal_generator():
    ops = collective(gellmann(2)).ops
    # ordering: symmetric, antisymmetric, then diagonal; last one is the
    # two-site z operator
    assert np.allclose(np.diag(ops[2]), [2, 0, 0, -2])


def test_collective_annihilates_singlet():
    vec = singlet_state().vec
    for g in collective(gellmann(2)).ops:
        assert np.abs(g @ vec).max() < 1e-14


def test_collective_traceless_d3():
    for g in collective(gellmann(3)).ops:
        assert abs(np.trace(g)) < 1e-12
        assert np.abs(g - g.conj().T).max() < 1e-14


def test_swap_operator_properties(rng):
    for d in (2, 3, 4):
        f = swap_operator(d)
        assert np.array_equal(f @ f, np.eye(d * d))
        u = haar_vector(rng, d)
        v = haar_vector(rng, d)
        assert np.abs(f @ np.kron(u, v) - np.kron(v, u)).max() < 1e-15


def test_identities_maximally_mixed():
    gens = gellmann(2)
    report = verify_generator_identities(gens, np.eye(2) / 2)
    # purity identity: both sides vanish for the maximally mixed qubit
    expvals = [np.trace(g @ np.eye(2) / 2).real for g in gens.gens]
    assert abs(sum(x * x for x in expvals)) < 1e-15
    assert report.purity < 1e-12


def test_identities_pure_qubit():
    gens = gellmann(2)
    ground = np.diag([1.0, 0.0]).astype(complex)
    expvals = [np.trace(g @ ground).real for g in gens.gens]
    assert sum(x * x for x in expvals) == pytest.approx(1.0, abs=1e-15)
    report = verify_generator_identities(gens, ground)
    assert report.purity < 1e-12


def test_identities_random_states(rng):
    for d in (2, 3, 4, 5):
        gens = gellmann(d)
        for _ in range(20):
            report = verify_generator_identities(gens, random_density(rng, d))
            assert report.max_residual < 1e-9


def test_identities_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        verify_generator_identities(gellmann(2), np.eye(3) / 3)
