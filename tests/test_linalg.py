import json
import pickle

import numpy as np
import pytest

from entcert import (
    BoundCertificate,
    DensityMatrix,
    DimensionMismatch,
    GeneratorSet,
    InvariantViolation,
    MubFamily,
    OracleConfig,
    PureState,
    RotationSet,
    SchmidtVector,
    Witness,
    bell_state,
    bounds_from_dsep,
    diagonal_twirl_matrix,
    fixture,
    frobenius_inner,
    frobenius_norm,
    gellmann,
    generic_bound,
    hermitian_eig,
    kron,
    load_state,
    mub_bound,
    mub_family,
    partial_trace,
    partial_transpose,
    spin_radius_bound,
    svd,
    verify_generator_identities,
)
from entcert.generators import swap_operator
from entcert.linalg import _walked_array, as_array, bipartite_dims, hermitian_part

from conftest import HUGE_COHERENCE_STATE, OVERFLOWING_STATES, haar_unitary, random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

BELL2 = np.zeros((4, 4), dtype=complex)
BELL2[np.ix_([0, 3], [0, 3])] = 0.5


def test_inner_identity():
    assert frobenius_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0)


def test_inner_pauli_orthogonality():
    assert frobenius_inner(SX, SY) == pytest.approx(0.0, abs=1e-15)


def test_inner_paper_fixture_pair():
    w = fixture("paper_mub_witness")
    rho = fixture("paper_ppt_state")
    assert abs(frobenius_inner(w.mat, rho.mat) - (-2 / 15)) <= 1e-12


def test_inner_conjugate_symmetry(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert frobenius_inner(a, b) == pytest.approx(np.conj(frobenius_inner(b, a)))


def test_inner_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        frobenius_inner(np.eye(2), np.eye(3))


def test_norm_identity():
    assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)


def test_norm_zero():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_norm_bell_minus_maximally_mixed():
    # eigenvalues of Bell - I/4 are {3/4, -1/4, -1/4, -1/4}
    expected = np.sqrt((3 / 4) ** 2 + 3 * (1 / 4) ** 2)
    assert expected == pytest.approx(np.sqrt(3) / 2)
    assert frobenius_norm(BELL2 - np.eye(4) / 4) == pytest.approx(expected, abs=1e-12)


def test_constructor_rejects_nonfinite():
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = np.nan
    with pytest.raises(InvariantViolation, match="finite"):
        frobenius_norm(bad)


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))
    assert np.allclose(np.diag(kron(SZ, SZ)), [1, -1, -1, 1])


def test_kron_pauli_sum_is_swap_identity():
    total = sum(kron(g, g) for g in gellmann(2).gens)
    assert np.abs(total - (2 * swap_operator(2) - np.eye(4))).max() < 1e-14


def test_partial_trace_bell_marginal():
    assert np.abs(partial_trace(BELL2, (2, 2), "A") - np.eye(2) / 2).max() < 1e-15


def test_partial_trace_product_factorization(rng):
    sigma = random_hermitian(rng, 3)
    tau = random_hermitian(rng, 3)
    out = partial_trace(kron(sigma, tau), (3, 3), "A")
    assert np.abs(out - sigma * np.trace(tau)).max() < 1e-12
    out_b = partial_trace(kron(sigma, tau), (3, 3), "B")
    assert np.abs(out_b - tau * np.trace(sigma)).max() < 1e-12


def test_partial_trace_paper_state_golden():
    rho = fixture("paper_ppt_state")
    # independent index contraction
    expected = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for k in range(3):
            for j in range(3):
                expected[i, k] += rho.mat[3 * i + j, 3 * k + j]
    got = partial_trace(rho.mat, (3, 3), "A")
    assert np.abs(got - expected).max() < 1e-15
    # the marginal happens to be maximally mixed
    assert np.abs(got - np.eye(3) / 3).max() < 1e-15
    assert np.trace(got) == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_dims_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(6), (2, 2), "A")


def test_partial_transpose_product_state_spectrum(rng):
    a = random_hermitian(rng, 2)
    a = a @ a.conj().T
    b = random_hermitian(rng, 2)
    b = b @ b.conj().T
    rho = kron(a, b) / np.trace(kron(a, b)).real
    pt = partial_transpose(rho, (2, 2), "B")
    assert np.linalg.eigvalsh(pt).min() > -1e-12


def test_partial_transpose_bell_minimum_eigenvalue():
    # independent reindexing oracle: <ij|rho^T_B|kl> = <il|rho|kj>
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expected[2 * i + j, 2 * k + l] = BELL2[2 * i + l, 2 * k + j]
    pt = partial_transpose(BELL2, (2, 2), "B")
    assert np.abs(pt - expected).max() < 1e-15
    assert np.linalg.eigvalsh(pt).min() == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_paper_state_is_ppt():
    rho = fixture("paper_ppt_state")
    pt = partial_transpose(rho.mat, (3, 3), "B")
    assert np.linalg.eigvalsh(pt).min() >= -1e-12


def test_partial_transpose_involution(rng):
    mat = random_hermitian(rng, 6)
    again = partial_transpose(partial_transpose(mat, (2, 3), "A"), (2, 3), "A")
    assert np.array_equal(again, mat)


def test_hermitian_eig_diagonal():
    w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1, 2, 3])


def test_hermitian_eig_pauli_x():
    w, _ = hermitian_eig(SX)
    assert np.allclose(w, [-1, 1])


def test_hermitian_eig_paper_state_is_valid():
    rho = fixture("paper_ppt_state")
    w, _ = hermitian_eig(rho.mat)
    assert w.min() >= -1e-12
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(InvariantViolation, match="hermiticity"):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_eig_reconstruction(rng):
    for _ in range(20):
        a = random_hermitian(rng, 7)
        w, v = hermitian_eig(a)
        assert np.abs(v @ np.diag(w) @ v.conj().T - a).max() < 1e-9 * frobenius_norm(a)
        assert np.abs(v.conj().T @ v - np.eye(7)).max() < 1e-9


def test_hermitian_part_is_the_textbook_form_bit_for_bit(rng):
    for shape in [(1, 1), (2, 2), (7, 7), (49, 49), (5, 3, 3)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert hermitian_part(a).tobytes() == ((a + a.conj().swapaxes(-1, -2)) / 2).tobytes()


def test_hermitian_eig_of_a_huge_coherence_does_not_overflow():
    # (A + A^dag)/2 would overflow to inf, and LAPACK would not converge
    assert hermitian_part(HUGE_COHERENCE_STATE).tobytes() == HUGE_COHERENCE_STATE.tobytes()
    w, v = hermitian_eig(HUGE_COHERENCE_STATE)
    assert w == pytest.approx([-1.7e308, 0.25, 0.25, 1.7e308], rel=1e-12)
    assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-12


def test_svd_examples():
    _, s, _ = svd(np.eye(2) / np.sqrt(2))
    assert np.allclose(s, [1 / np.sqrt(2)] * 2)
    _, s, _ = svd(np.diag([0.8, 0.6]))
    assert np.allclose(s, [0.8, 0.6])
    coeff = np.eye(3) / np.sqrt(3)
    _, s, _ = svd(coeff)
    assert np.allclose(s, [1 / np.sqrt(3)] * 3)


def test_svd_reconstruction(rng):
    m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    u, s, v = svd(m)
    rebuilt = u[:, : s.size] @ np.diag(s) @ v.conj().T[: s.size]
    assert np.abs(rebuilt - m).max() < 1e-9 * np.linalg.norm(m)
    assert np.all(np.diff(s) <= 1e-12)
    assert s.min() >= 0


def test_triangle_inequality(rng):
    for _ in range(50):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        assert frobenius_norm(a + b) <= frobenius_norm(a) + frobenius_norm(b) + 1e-12


def test_pythagoras_for_orthogonal_pairs(rng):
    for _ in range(50):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        # project out the overlap so Tr(a^dag b) = 0
        b = b - (frobenius_inner(a, b).real / frobenius_norm(a) ** 2) * a
        lhs = frobenius_norm(a + b) ** 2
        rhs = frobenius_norm(a) ** 2 + frobenius_norm(b) ** 2
        assert abs(lhs - rhs) < 1e-10 * max(1.0, rhs)


def test_norm_unitary_invariance(rng):
    for _ in range(20):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u = haar_unitary(rng, 5)
        v = haar_unitary(rng, 5)
        assert abs(frobenius_norm(u @ a @ v) - frobenius_norm(a)) < 1e-10


PAPER_WITNESS, PAPER_STATE = fixture("paper_mub_witness"), fixture("paper_ppt_state")
# every public integer argument: its invariant name, its floor, a valid value and a call that passes it
INTEGER_ARGUMENTS = {
    "OracleConfig.restarts": ("restarts", 1, 2, lambda v: OracleConfig(restarts=v)),
    "OracleConfig.max_iters": ("max_iters", 1, 2, lambda v: OracleConfig(max_iters=v)),
    "OracleConfig.seed": ("seed", 0, 2, lambda v: OracleConfig(seed=v)),
    "bipartite_dims": ("dims", 1, 3, lambda v: bipartite_dims((2, v))),
    "DensityMatrix.dims": ("dims", 1, 2, lambda v: DensityMatrix(dims=(v, 2), mat=np.eye(4) / 4)),
    "gellmann": ("dimension", 2, 3, gellmann),
    "bell_state": ("dimension", 2, 3, bell_state),
    "mub_family.d": ("dimension", 2, 3, lambda v: mub_family(v, 2)),
    "mub_family.count": ("count", 2, 3, lambda v: mub_family(3, v)),
    "swap_operator": ("dimension", 1, 3, swap_operator),
    "RotationSet.identity.d": ("dimension", 1, 3, lambda v: RotationSet.identity(v, 2)),
    "RotationSet.identity.count": ("count", 1, 3, lambda v: RotationSet.identity(3, v)),
    "diagonal_twirl_matrix": ("dimension", 1, 3, lambda v: diagonal_twirl_matrix(np.eye(9), v)),
    "mub_bound.count": ("count", 1, 4, lambda v: mub_bound(PAPER_WITNESS, v, PAPER_STATE)),
    "spin_radius_bound": ("dimension", 1, 3, spin_radius_bound),
}


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None, "below"])
@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_integer_arguments_are_refused_by_name(entry, bad):
    name, least, _, call = INTEGER_ARGUMENTS[entry]
    value = least - 1 if bad == "below" else bad
    with pytest.raises(InvariantViolation, match=f"^{name}: "):
        call(value)


@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_integer_arguments_take_numpy_integers(entry):
    # the result is the one for a Python int, down to the type of every stored integer
    _, _, valid, call = INTEGER_ARGUMENTS[entry]
    assert pickle.dumps(call(np.int64(valid))) == pickle.dumps(call(valid))


# every public array argument: a valid value and a call that passes it
ARRAY_ARGUMENTS = {
    "DensityMatrix.mat": (np.eye(4) / 4, lambda v: DensityMatrix(dims=(2, 2), mat=v)),
    "Witness.mat": (np.diag([1.0, -1.0]), lambda v: Witness(dims=(1, 2), mat=v)),
    "PureState.vec": (bell_state(3).vec, lambda v: PureState(dims=(3, 3), vec=v)),
    "SchmidtVector.coeffs": (np.array([0.7, 0.3]), lambda v: SchmidtVector(coeffs=v)),
    "GeneratorSet.gens": (np.array([SX, SY, SZ]), GeneratorSet),
    "MubFamily.bases": (np.array(mub_family(3, 2).bases), MubFamily),
    "RotationSet.mats": (np.eye(3)[None], RotationSet),
    "frobenius_inner.a": (SX, lambda v: frobenius_inner(v, SY)),
    "frobenius_inner.b": (SX, lambda v: frobenius_inner(SY, v)),
    "frobenius_norm": (SX, frobenius_norm),
    "kron.a": (SX, lambda v: kron(v, SY)),
    "kron.b": (SX, lambda v: kron(SY, v)),
    "partial_trace": (BELL2, lambda v: partial_trace(v, (2, 2), "A")),
    "partial_transpose": (BELL2, lambda v: partial_transpose(v, (2, 2), "B")),
    "hermitian_eig": (SX, hermitian_eig),
    "svd": (SX, svd),
    "diagonal_twirl_matrix": (BELL2, lambda v: diagonal_twirl_matrix(v, 2)),
    "verify_generator_identities": (np.eye(2) / 2, lambda v: verify_generator_identities(gellmann(2), v)),
}


def _with_last_entry(array, entry):
    """``array`` as nested lists, its last entry replaced by ``entry``."""
    nested = array.tolist()
    inner = nested
    while isinstance(inner[-1], list):
        inner = inner[-1]
    inner[-1] = entry(inner[-1])
    return nested


# each stands in for the valid value, with the invariant that refuses it
ARRAY_CASES = {
    "ragged": ("shape", lambda v: _with_last_entry(v, lambda x: [x])),
    "non-numeric": ("type", lambda v: _with_last_entry(v, lambda x: "x")),
    "nan": ("finiteness", lambda v: _with_last_entry(v, lambda x: np.nan)),
    # np.asarray would read it as 1
    "bool-entry": ("type", lambda v: _with_last_entry(v, lambda x: True)),
    "empty": ("shape", lambda v: np.zeros((0,) * v.ndim)),
    # a trailing axis: a (d, 1) column in place of a state vector, a (d, d, 1) array in place of a matrix
    "extra-axis": ("shape", lambda v: v[..., None]),
    "scalar": ("shape", lambda v: v.flat[0]),
}


@pytest.mark.parametrize("bad", ARRAY_CASES)
@pytest.mark.parametrize("entry", ARRAY_ARGUMENTS)
def test_array_arguments_are_refused_by_invariant(entry, bad):
    valid, call = ARRAY_ARGUMENTS[entry]
    call(valid)
    invariant, make = ARRAY_CASES[bad]
    with pytest.raises(InvariantViolation, match=f"^{invariant}: "):
        call(make(valid))


def _replaced_by(mat):
    """A maker that puts ``mat`` in place of the valid matrix, as ``[re, im]`` pairs in place of pairs."""
    return lambda v: mat if v.ndim == 2 else np.stack([mat.real, mat.imag], -1)


# a state file's [re, im] pairs spoiled as ARRAY_CASES spoil a matrix, a matrix too big for its dims,
# and states whose checks would overflow
FILE_CASES = {
    **ARRAY_CASES,
    "9x9-under-2x2": ("dims", lambda v: np.zeros((9, 9) + v.shape[2:])),
    **{name: (invariant, _replaced_by(mat)) for name, (mat, invariant) in OVERFLOWING_STATES.items()},
}


@pytest.mark.parametrize("bad", FILE_CASES)
def test_a_file_names_a_fault_as_the_api_does(tmp_path, bad):
    invariant, make = FILE_CASES[bad]
    error = DimensionMismatch if invariant == "dims" else InvariantViolation
    valid, call = ARRAY_ARGUMENTS["DensityMatrix.mat"]
    path = tmp_path / "state.json"
    pairs = make(np.stack([valid.real, valid.imag], -1))
    path.write_text(json.dumps({"dims": [2, 2], "matrix": pairs}, default=np.ndarray.tolist), encoding="utf-8")
    with pytest.raises(error, match=f"^{invariant}: "):
        call(make(valid))
    with pytest.raises(error, match=f"^{invariant}: "):
        load_state(path)


@pytest.mark.parametrize("entries", [
    [np.bool_(True), 1.0],
    [[1.0, 0.0], np.array([True, False])],
    # a leaf whose type does not tell its dtype
    [np.array(True), 1.0],
    [[1.0, np.array(False)]],
], ids=["numpy-bool", "bool-sub-array", "0-d-bool-array", "nested-0-d-bool-array"])
def test_bool_leaves_are_refused(entries):
    with pytest.raises(InvariantViolation, match="^type: bool entries in x$"):
        as_array(entries, np.ndim(entries), "x", float)


# nested lists and tuples of Python numbers: each is read in one walk of its nesting
WALKED_ENTRIES = {
    "floats": [[0.5, -0.0], [1e-300, -2.5e300]],
    "ints": [[1, -2], [3, 2**62]],
    "uint64-range-int": [[2**63, 1], [2, 3]],
    "complex": [[1j, complex(-0.0, 2.0)], [complex(-0.0, -0.0), 3 + 0j]],
    "int-float": [[1, 2.5], [3, -0.0]],
    "int-complex": [[1, 2j], [3, 4]],
    "float-complex": [[0.5, 2j], [-0.0, 1.0]],
    "int-float-complex": [(1, 2.5), (3j, -0.0)],
    "tuples": ((1.0, 2.0), (3.0, 4.0)),
    "vector": [0.5, 1, -0.0],
    "[re, im]-pairs": [[[0.25, -0.0], [0.0, 1e-17]], [[0.0, -1e-17], [0.75, 0.0]]],
}


@pytest.mark.parametrize("name", WALKED_ENTRIES)
def test_the_walk_gives_what_np_asarray_gives(name):
    entries = WALKED_ENTRIES[name]
    ndim = np.ndim(entries)
    walked, reference = _walked_array(entries, ndim), np.asarray(entries)
    assert (walked.dtype, walked.shape, walked.tobytes()) == (reference.dtype, reference.shape, reference.tobytes())
    dtype = np.complex128 if reference.dtype.kind == "c" else np.float64
    assert as_array(entries, ndim, "x", dtype).tobytes() == reference.astype(dtype).tobytes()


@pytest.mark.parametrize("entries, ndim", [
    ([[1.0, 2.0], [3.0]], 2),
    ([[1.0, True]], 2),
    ([[1.0, np.float64(2.0)]], 2),
    ([[1.0, "2"]], 2),
    ([[1.0, 2.0]], 1),
    ([1.0, 2.0], 2),
    ([[]], 2),
    ([[1.0], (2.0,), np.array([3.0])], 2),
], ids=["ragged", "bool", "numpy-scalar", "string", "too-deep", "too-shallow", "empty", "array-row"])
def test_the_walk_leaves_every_other_input_to_np_asarray(entries, ndim):
    assert _walked_array(entries, ndim) is None


def test_ints_beyond_the_int_range_are_refused_on_the_walk():
    for entries in ([[2**70, 1]], [[2**70, 1.0]], [[-(2**63) - 1, 1j]]):
        with pytest.raises(InvariantViolation, match=r"^type: non-numeric entries \(object\) in x$"):
            as_array(entries, 2, "x")


# every public real argument: its invariant name, a valid value and a call that passes it
REAL_ARGUMENTS = {
    "OracleConfig.convergence_tol": ("convergence_tol", 1e-8, lambda v: OracleConfig(convergence_tol=v)),
    "generic_bound.b_override": ("radius", 10.0, lambda v: generic_bound(PAPER_WITNESS, PAPER_STATE, b_override=v)),
    "bounds_from_dsep": ("range", 0.5, bounds_from_dsep),
    "BoundCertificate.witness_value": (
        "witness value", -0.1, lambda v: BoundCertificate(witness_value=v, b_used=1.0, dsep_lower=0.1, certified=True)
    ),
    "BoundCertificate.b_used": (
        "radius", 1.0, lambda v: BoundCertificate(witness_value=-0.1, b_used=v, dsep_lower=0.1, certified=True)
    ),
}

# each stands in for the valid value; None is refused everywhere but as b_override, where it selects the radius
REAL_CASES = {
    "str": str,
    "bool": lambda v: True,
    "None": lambda v: None,
    "list": lambda v: [v],
    "0-d array": np.array,
    "nan": lambda v: np.nan,
    "inf": lambda v: np.inf,
}


@pytest.mark.parametrize("bad", REAL_CASES)
@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_real_arguments_are_refused_by_name(entry, bad):
    name, valid, call = REAL_ARGUMENTS[entry]
    value = REAL_CASES[bad](valid)
    if value is None and entry == "generic_bound.b_override":
        assert call(None).b_used < valid
        return
    with pytest.raises(InvariantViolation, match=f"^{name}: "):
        call(value)


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_real_arguments_take_numpy_floats(entry):
    # the result is the one for a Python float, down to the type of every stored number
    _, valid, call = REAL_ARGUMENTS[entry]
    assert pickle.dumps(call(np.float64(valid))) == pickle.dumps(call(valid))
