import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from entcert import (
    DensityMatrix,
    DimensionMismatch,
    InvariantViolation,
    PureState,
    RotationSet,
    SchmidtVector,
    Witness,
    bell_state,
    fixture,
    frobenius_inner,
    gellmann,
    load_state,
    load_witness,
    mub_family,
    partial_transpose,
    save_state,
    save_witness,
    schmidt,
    singlet_state,
)
from entcert.linalg import PSD_TOL

from conftest import (
    HUGE_COHERENCE_STATE, PAPER_MUB_WITNESS_THIRDS, PAPER_PPT_STATE_FIFTEENTHS, haar_unitary, haar_vector, random_density,
    symmetric_4x4,
)


def test_density_matrix_accepts_valid(rng):
    DensityMatrix(dims=(2, 3), mat=np.eye(6) / 6)
    DensityMatrix(dims=(3, 3), mat=random_density(rng, 9))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvariantViolation, match="trace"):
        DensityMatrix(dims=(2, 2), mat=np.eye(4) / 4 * 0.9)


def test_density_matrix_rejects_nonhermitian():
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = 0.1
    with pytest.raises(InvariantViolation, match="hermiticity"):
        DensityMatrix(dims=(2, 2), mat=mat)


def test_density_matrix_rejects_negative():
    mat = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(InvariantViolation, match="positivity"):
        DensityMatrix(dims=(2, 2), mat=mat)


def test_density_matrix_rejects_a_huge_coherence_by_name():
    # Hermitian with unit trace; its eigenvalues are 0.25 and 0.25 +- 1.7e308
    with pytest.raises(InvariantViolation, match=r"^positivity: minus the minimum eigenvalue = 1\.700e\+308 "):
        DensityMatrix(dims=(2, 2), mat=HUGE_COHERENCE_STATE)


def _spectrum_state(rng, spectrum):
    u = haar_unitary(rng, len(spectrum))
    return (u * spectrum) @ u.conj().T


def _counting(monkeypatch, name):
    """Patch ``np.linalg.<name>`` with a wrapper that counts its calls."""
    calls, real = [], getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_positivity_decision_at_the_tolerance(rng, monkeypatch):
    eigvalsh_calls = _counting(monkeypatch, "eigvalsh")
    # the screen fails on h + (PSD_TOL/2) I, and eigvalsh accepts
    DensityMatrix(dims=(2, 2), mat=_spectrum_state(rng, [-0.9 * PSD_TOL, 0.3, 0.3, 0.4 + 0.9 * PSD_TOL]))
    assert len(eigvalsh_calls) == 1
    with pytest.raises(InvariantViolation, match=r"^positivity: minus the minimum eigenvalue = 1\.100e-10 exceeds 1\.0e-10$"):
        DensityMatrix(dims=(2, 2), mat=_spectrum_state(rng, [-1.1 * PSD_TOL, 0.3, 0.3, 0.4 + 1.1 * PSD_TOL]))
    assert len(eigvalsh_calls) == 2


def test_positivity_screen_settles_a_valid_state(rng, tmp_path, monkeypatch):
    rho = DensityMatrix(dims=(3, 3), mat=random_density(rng, 9))
    save_state(rho, tmp_path / "rho.json")

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert load_state(tmp_path / "rho.json").mat.tobytes() == rho.mat.tobytes()


def test_positivity_of_an_entry_above_one_is_left_to_eigvalsh(monkeypatch):
    eigvalsh_calls, cholesky_calls = _counting(monkeypatch, "eigvalsh"), _counting(monkeypatch, "cholesky")
    # Hermitian with unit trace; its eigenvalues are 0.25 and 0.25 +- 1.5
    with pytest.raises(InvariantViolation, match=r"^positivity: minus the minimum eigenvalue = 1\.250e\+00 "):
        DensityMatrix(dims=(2, 2), mat=symmetric_4x4([0.25] * 4, [(0, 1, 1.5)]))
    assert (len(eigvalsh_calls), len(cholesky_calls)) == (1, 0)


def test_density_matrix_rejects_wrong_shape():
    with pytest.raises(InvariantViolation):
        DensityMatrix(dims=(2, 2), mat=np.eye(6) / 6)


@pytest.mark.parametrize("dims", [(0, 1), (-1, -1), (-2, -3)])
@pytest.mark.parametrize("kind", ["density", "pure", "witness"])
def test_constructors_reject_nonpositive_dims(kind, dims):
    # entries sized to |dA*dB| so that only the dims check can fail
    d = max(abs(dims[0] * dims[1]), 1)
    with pytest.raises(InvariantViolation, match="dims"):
        if kind == "density":
            DensityMatrix(dims=dims, mat=np.eye(d) / d)
        elif kind == "pure":
            PureState(dims=dims, vec=np.ones(d) / np.sqrt(d))
        else:
            Witness(dims=dims, mat=np.eye(d))


def checked_objects():
    """One object of each frozen type, its array field, and a field value that fails its checks with the given error."""
    return [
        (fixture("bell(2)"), "mat", "dims", (3, 2), DimensionMismatch, "^dims:"),
        (bell_state(3), "vec", "dims", (4, 3), DimensionMismatch, "^dims:"),
        (fixture("paper_mub_witness"), "mat", "dims", (4, 3), DimensionMismatch, "^dims:"),
        (SchmidtVector(coeffs=[0.7, 0.3]), "coeffs", "coeffs", np.array([0.3, 0.7]), InvariantViolation, "^order:"),
        (gellmann(2), "gens", "gens", gellmann(2).gens[[0, 1, 0]], InvariantViolation, "^orthogonality:"),
        (mub_family(3, 2), "bases", "bases", (np.eye(3), np.eye(3)), InvariantViolation, "^unbiasedness:"),
        (RotationSet.identity(3, 2), "mats", "mats", (np.diag([1.0, -1.0, 1.0]),), InvariantViolation, "^axis:"),
    ]


def test_copies_and_unpickled_objects_are_checked_again():
    for obj, name, bad_field, bad_value, error, message in checked_objects():
        want = getattr(obj, name)
        for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            got = getattr(copied, name)
            assert type(copied) is type(obj) and type(got) is type(want)
            for field in dataclasses.fields(obj):
                if field.name != name:
                    assert getattr(copied, field.name) == getattr(obj, field.name)
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 5
        object.__setattr__(obj, bad_field, bad_value)  # past the frozen guard, so only a copy's check can fail
        for copy_of in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))):
            with pytest.raises(error, match=message):
                copy_of(obj)


def test_checked_types_are_frozen():
    for obj, *_ in checked_objects():
        for field in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, getattr(obj, field.name))
    rho = fixture("bell(2)")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.dims = (2, 3)  # dims the 4x4 matrix does not have
    gens = gellmann(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gens.d = 5  # would make spin_witness(bell(2), gens) ask for dims (5, 5)
    fam = mub_family(3, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.bases = [np.zeros((3, 3))]
    assert rho.dims == (2, 2) and gens.d == 2 and len(fam.bases) == 2
    # d is read from the arrays, so it is no field that could disagree with them
    for obj in (gens, fam):
        assert "d" not in {f.name for f in dataclasses.fields(obj)}
    assert fam.d == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.d = 2


def test_pure_state_norm_invariant():
    with pytest.raises(InvariantViolation, match="norm"):
        PureState(dims=(2, 2), vec=np.array([1.0, 1.0, 0.0, 0.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvariantViolation, match="^finiteness:"):
            PureState(dims=(2, 2), vec=np.array([bad, 0.0, 0.0, 0.0]))


def test_schmidt_vector_invariants():
    with pytest.raises(InvariantViolation, match="order"):
        SchmidtVector(coeffs=[0.3, 0.7])
    with pytest.raises(InvariantViolation, match="normalization"):
        SchmidtVector(coeffs=[0.5, 0.4])
    sv = SchmidtVector(coeffs=[0.7, 0.3])
    assert sv.largest == 0.7
    with pytest.raises(InvariantViolation, match="^positivity:"):
        SchmidtVector(coeffs=[1.0, -0.01])
    nonfinite = ([np.nan], [1.0, np.nan], [np.nan, 1.0], [-np.inf], [np.inf, -np.inf], [np.inf], [np.inf, np.inf],
                 [np.inf, 0.5])
    for bad in nonfinite:
        with pytest.raises(InvariantViolation, match="^finiteness:"):
            SchmidtVector(coeffs=bad)


def test_schmidt_product_state():
    vec = np.zeros(4)
    vec[1] = 1.0  # |0>|1>
    lam, _, _ = schmidt(PureState(dims=(2, 2), vec=vec))
    assert lam.coeffs[0] == pytest.approx(1.0, abs=1e-15)


def test_schmidt_bell():
    lam, _, _ = schmidt(bell_state(2))
    assert np.allclose(lam.coeffs, [0.5, 0.5], atol=1e-15)


def test_schmidt_amplitudes_squared():
    vec = np.zeros(4)
    vec[0], vec[3] = 0.8, 0.6
    lam, _, _ = schmidt(PureState(dims=(2, 2), vec=vec))
    assert np.allclose(lam.coeffs, [0.64, 0.36], atol=1e-15)


def test_schmidt_reconstruction(rng):
    for dims in [(2, 2), (3, 3), (2, 3), (4, 2)]:
        psi = PureState(dims=dims, vec=haar_vector(rng, dims[0] * dims[1]))
        lam, ba, bb = schmidt(psi)
        rebuilt = sum(
            np.sqrt(lam.coeffs[k]) * np.kron(ba[:, k], bb[:, k])
            for k in range(lam.coeffs.size)
        )
        assert np.abs(rebuilt - psi.vec).max() < 1e-9
        assert np.abs(ba.conj().T @ ba - np.eye(dims[0])).max() < 1e-12
        assert np.abs(bb.conj().T @ bb - np.eye(dims[1])).max() < 1e-12


def test_schmidt_local_unitary_invariance(rng):
    psi = PureState(dims=(3, 3), vec=haar_vector(rng, 9))
    lam, _, _ = schmidt(psi)
    for _ in range(5):
        u = haar_unitary(rng, 3)
        v = haar_unitary(rng, 3)
        rotated = PureState(dims=(3, 3), vec=np.kron(u, v) @ psi.vec)
        lam2, _, _ = schmidt(rotated)
        assert np.abs(np.sort(lam.coeffs) - np.sort(lam2.coeffs)).max() < 1e-9


def test_save_load_round_trip_bit_exact(tmp_path, rng):
    rho = DensityMatrix(dims=(2, 3), mat=random_density(rng, 6))
    path = tmp_path / "state.json"
    save_state(rho, path)
    back = load_state(path)
    assert back.dims == rho.dims
    assert np.array_equal(back.mat, rho.mat)


def test_load_maximally_mixed(tmp_path):
    payload = {
        "dims": [2, 2],
        "matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    path = tmp_path / "mm.json"
    path.write_text(json.dumps(payload))
    rho = load_state(path)
    assert np.array_equal(rho.mat, np.eye(4) / 4)


def test_load_rejects_bad_trace(tmp_path):
    payload = {
        "dims": [2, 2],
        "matrix": [[[0.225 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InvariantViolation, match="trace"):
        load_state(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(InvariantViolation, match="parse"):
        load_state(path)


def test_load_rejects_deep_nesting(tmp_path):
    # json.loads raises RecursionError, not ValueError, past its nesting limit
    path = tmp_path / "deep.json"
    path.write_text('{"dims": [2, 2], "matrix": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(InvariantViolation, match="^parse: cannot read .*recursion"):
        load_state(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(InvariantViolation, match="parse"):
        load_state(tmp_path / "missing.json")


def test_load_rejects_malformed_rows(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": [[1, 2], [3, 4]]}))
    with pytest.raises(InvariantViolation):
        load_state(path)


def test_load_rejects_boolean_dims(tmp_path):
    # operator.index takes True as 1
    path = tmp_path / "bool_dims.json"
    path.write_text(json.dumps({"dims": [True, True], "matrix": [[[1.0, 0.0]]]}))
    with pytest.raises(InvariantViolation, match="^dims:"):
        load_state(path)
    with pytest.raises(InvariantViolation, match="^dims:"):
        DensityMatrix(dims=(True, 1), mat=np.eye(1))


def test_load_rejects_boolean_entries(tmp_path):
    path = tmp_path / "bool_entries.json"
    path.write_text(json.dumps({"dims": [1, 1], "matrix": [[[True, False]]]}))
    with pytest.raises(InvariantViolation, match=r"^type: non-numeric entries \(bool\) in matrix$"):
        load_state(path)
    # np.array casts a boolean beside a number to 1.0 or 0.0, which would load as the state 1
    for pair in ([True, 0.0], [1.0, False]):
        path.write_text(json.dumps({"dims": [1, 1], "matrix": [[pair]]}))
        with pytest.raises(InvariantViolation, match="^type: bool entries in matrix$"):
            load_state(path)


def test_witness_file_round_trip(tmp_path):
    w = fixture("paper_mub_witness")
    path = tmp_path / "w.json"
    save_witness(w, path)
    back = load_witness(path)
    assert isinstance(back, Witness)
    assert np.array_equal(back.mat, w.mat)
    # a witness file is not accepted as a state
    with pytest.raises(InvariantViolation, match="kind"):
        load_state(path)
    # and a state file is not accepted as a witness
    save_state(fixture("paper_ppt_state"), tmp_path / "s.json")
    with pytest.raises(InvariantViolation, match="kind"):
        load_witness(tmp_path / "s.json")


def test_fixture_exact_entries():
    rho = fixture("paper_ppt_state")
    assert rho.mat[0, 0] == 1 / 15
    assert rho.mat[1, 1] == 2 / 15
    assert rho.mat[1, 5] == -1 / 15
    w = fixture("paper_mub_witness")
    assert w.mat[0, 0] == 4 / 3
    assert w.mat[0, 4] == -1 / 3
    assert w.mat[1, 5] == 2 / 3
    # built by the constructors and rounded: exact thirds, the reference's, with no -0.0 left in either part
    thirds = 3 * w.mat
    assert np.array_equal(thirds.real, np.round(thirds.real))
    assert np.array_equal(thirds, PAPER_MUB_WITNESS_THIRDS)
    assert not np.any(w.mat.imag) and not np.signbit(w.mat.imag).any()
    assert not np.signbit(w.mat.real[w.mat.real == 0]).any()
    # the state likewise: exact fifteenths, the reference's, with imaginary parts +0.0
    assert np.array_equal(15 * rho.mat, PAPER_PPT_STATE_FIFTEENTHS)
    assert not np.any(rho.mat.imag) and not np.signbit(rho.mat.imag).any()
    assert not np.signbit(rho.mat.real[rho.mat.real == 0]).any()
    # and Bell-diagonal: <Phikl|rho|Phikl> is 1/5 on the five pairs of the mixture, 0 on the other four,
    # with |Phikl> = sum_j omega^(kj) |j, j+l> / sqrt(3)
    omega = np.exp(2j * np.pi / 3)
    for k in range(3):
        for l in range(3):
            phi = np.zeros(9, dtype=complex)
            for j in range(3):
                phi[3 * j + (j + l) % 3] = omega ** (k * j) / np.sqrt(3)
            weight = 1 / 5 if (k, l) in [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)] else 0.0
            assert abs(phi.conj() @ rho.mat @ phi - weight) <= 1e-15


def test_fixture_paper_state_is_ppt():
    rho = fixture("paper_ppt_state")
    pt = partial_transpose(rho.mat, (3, 3), "B")
    assert np.linalg.eigvalsh(pt).min() >= -1e-12


def test_fixture_witness_value():
    val = frobenius_inner(fixture("paper_mub_witness").mat, fixture("paper_ppt_state").mat)
    assert abs(val - (-2 / 15)) <= 1e-12


def test_fixture_bell():
    rho = fixture("bell(3)")
    vec = np.zeros(9)
    vec[[0, 4, 8]] = 1 / np.sqrt(3)
    assert np.abs(rho.mat - np.outer(vec, vec)).max() < 1e-15


def test_fixture_singlet_annihilated_by_collectives():
    from entcert import collective, gellmann

    vec = singlet_state().vec
    for g in collective(gellmann(2)):
        assert np.abs(g @ vec).max() < 1e-15


def test_fixture_unknown_name():
    with pytest.raises(InvariantViolation, match="unknown fixture"):
        fixture("nope")
