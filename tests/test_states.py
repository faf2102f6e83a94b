import copy
import dataclasses
import gc
import hashlib
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
    mub_witness,
    partial_transpose,
    save_state,
    save_witness,
    schmidt,
    singlet_state,
)
from entcert.cli import main
from entcert.io import _orjson_payload, _witness_from_text, complex_pairs, parse_matrix_payload, payload
from entcert.linalg import PSD_TOL, as_array

from conftest import (
    HUGE_COHERENCE_STATE, PAPER_MUB_WITNESS_THIRDS, PAPER_PPT_STATE_FIFTEENTHS, haar_unitary, haar_vector, random_density,
    counting_constructions, run_cli, symmetric_4x4,
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
    path.write_text(json.dumps(payload), encoding="utf-8")
    rho = load_state(path)
    assert np.array_equal(rho.mat, np.eye(4) / 4)


def test_load_rejects_bad_trace(tmp_path):
    payload = {
        "dims": [2, 2],
        "matrix": [[[0.225 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(InvariantViolation, match="trace"):
        load_state(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvariantViolation, match="parse"):
        load_state(path)


def test_load_rejects_deep_nesting(tmp_path):
    # json.loads raises RecursionError, not ValueError, past its nesting limit
    path = tmp_path / "deep.json"
    path.write_text('{"dims": [2, 2], "matrix": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    with pytest.raises(InvariantViolation, match="^parse: cannot read .*recursion"):
        load_state(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(InvariantViolation, match="parse"):
        load_state(tmp_path / "missing.json")


def test_load_rejects_malformed_rows(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": [[1, 2], [3, 4]]}), encoding="utf-8")
    with pytest.raises(InvariantViolation):
        load_state(path)


def test_load_rejects_boolean_dims(tmp_path):
    # operator.index takes True as 1
    path = tmp_path / "bool_dims.json"
    path.write_text(json.dumps({"dims": [True, True], "matrix": [[[1.0, 0.0]]]}), encoding="utf-8")
    with pytest.raises(InvariantViolation, match="^dims:"):
        load_state(path)
    with pytest.raises(InvariantViolation, match="^dims:"):
        DensityMatrix(dims=(True, 1), mat=np.eye(1))


def test_load_rejects_boolean_entries(tmp_path):
    path = tmp_path / "bool_entries.json"
    path.write_text(json.dumps({"dims": [1, 1], "matrix": [[[True, False]]]}), encoding="utf-8")
    with pytest.raises(InvariantViolation, match=r"^type: non-numeric entries \(bool\) in matrix$"):
        load_state(path)
    # np.array casts a boolean beside a number to 1.0 or 0.0, which would load as the state 1
    for pair in ([True, 0.0], [1.0, False]):
        path.write_text(json.dumps({"dims": [1, 1], "matrix": [[pair]]}), encoding="utf-8")
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


def test_rewritten_witness_file_gives_the_new_certificate(tmp_path, capsys):
    state, witness = tmp_path / "s.json", tmp_path / "w.json"
    save_state(fixture("paper_ppt_state"), state)
    argv = ["bound", "--state", str(state), "--witness-file", str(witness), "--quiet"]
    outs = []
    for w in (fixture("paper_mub_witness"), mub_witness(mub_family(3, 4), RotationSet.identity(3, 4))):
        save_witness(w, witness)
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout) == (0, outs[-1])
    assert outs[0] != outs[1]


def test_witness_text_is_parsed_once_at_any_path(tmp_path, monkeypatch):
    text = json.dumps(payload(fixture("paper_mub_witness")))
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(text, encoding="utf-8")
    _witness_from_text.cache_clear()
    built = counting_constructions(monkeypatch, Witness)
    first = load_witness(tmp_path / "a.json")
    assert load_witness(tmp_path / "b.json") is first
    assert load_witness(tmp_path / "a.json") is first
    assert len(built) == 1
    assert not first.mat.flags.writeable


def test_refused_witness_files_are_refused_alike_and_never_cached(tmp_path):
    w = np.eye(4)
    w[0, 1] = 0.5
    texts = {
        "kind": json.dumps(payload(fixture("bell(2)"))),
        "json": "{not json",
        "utf8": json.dumps(payload(fixture("paper_mub_witness"))) + "\udcff",
        "hermiticity": json.dumps({"dims": [2, 2], "kind": "witness", "matrix": complex_pairs(w)}),
    }
    _witness_from_text.cache_clear()
    for fault, text in texts.items():
        messages = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            with pytest.raises(InvariantViolation) as first:
                load_witness(path)
            with pytest.raises(InvariantViolation) as second:
                load_witness(path)
            assert str(first.value) == str(second.value)
            messages.append(str(first.value))
        if fault in ("json", "utf8"):
            # each message names its own file
            assert messages[0].startswith(f"parse: cannot read {tmp_path / 'a.json'}: ")
            assert messages[1] == messages[0].replace("a.json", "b.json")
        else:
            assert messages[0] == messages[1] and messages[0].startswith(f"{fault}: ")
    assert _witness_from_text.cache_info().currsize == 0


def test_seventeen_witness_texts_evict_the_first(tmp_path, monkeypatch):
    paths = [tmp_path / f"w{k}.json" for k in range(17)]
    for k, path in enumerate(paths):
        save_witness(Witness(dims=(2, 2), mat=(k + 1) * np.eye(4)), path)
    _witness_from_text.cache_clear()
    built = counting_constructions(monkeypatch, Witness)
    first = load_witness(paths[0])
    assert load_witness(paths[0]) is first
    for path in paths[1:]:
        load_witness(path)
    assert len(built) == 17
    assert load_witness(paths[-1]) is load_witness(paths[-1])
    again = load_witness(paths[0])
    assert again is not first and np.array_equal(again.mat, first.mat)
    assert len(built) == 18


def test_state_file_is_validated_on_every_load(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    save_state(fixture("paper_ppt_state"), path)
    validated = counting_constructions(monkeypatch, DensityMatrix)
    first, second = load_state(path), load_state(path)
    assert len(validated) == 2
    assert first is not second and np.array_equal(first.mat, second.mat)


def test_file_functions_start_no_collection(tmp_path):
    # a 7x7 file is a tree of about 2,450 lists; each function frees it before its collector pause ends
    rho, w = fixture("bell(7)"), mub_witness(mub_family(7, 8), RotationSet.identity(7, 8))
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    _witness_from_text.cache_clear()
    gc.collect()
    gc.callbacks.append(record)
    try:
        save_state(rho, tmp_path / "s.json")
        save_witness(w, tmp_path / "w.json")
        load_state(tmp_path / "s.json")
        load_witness(tmp_path / "w.json")
    finally:
        gc.callbacks.remove(record)
    assert started == []
    assert gc.isenabled()
    gc.disable()
    try:
        load_state(tmp_path / "s.json")
        assert not gc.isenabled()  # a caller that disabled the collector keeps it disabled
    finally:
        gc.enable()


def _reference_parse(text):
    """``parse_matrix_payload`` as it decoded every text with ``json.loads`` alone."""
    doc = json.loads(text)
    pairs = as_array(doc["matrix"], 3, "matrix", float)
    return doc["dims"], pairs.view(np.complex128)[..., 0], doc.get("kind")


def _parsed_or_refused(parse, text):
    try:
        dims, mat, kind = parse(text)
    except InvariantViolation as exc:
        return "refused", str(exc)
    return dims, kind, mat.dtype, mat.tobytes()


def _package_texts(tmp_path):
    """The texts the savers write for the paper's witness and, at d = 3, 5 and 7, for the Bell state, a
    Wishart state and the identity-rotation basis witness with d + 1 bases."""
    rng = np.random.default_rng(31)
    objects = [fixture("paper_mub_witness")]
    for d in (3, 5, 7):
        objects += [
            fixture(f"bell({d})"),
            DensityMatrix(dims=(d, d), mat=random_density(rng, d * d)),
            mub_witness(mub_family(d, d + 1), RotationSet.identity(d, d + 1)),
        ]
    path = tmp_path / "file.json"
    texts = []
    for obj in objects:
        (save_witness if isinstance(obj, Witness) else save_state)(obj, path)
        texts.append(path.read_text(encoding="utf-8"))
    return texts


def test_orjson_decode_equals_json_bit_for_bit(tmp_path):
    rng = np.random.default_rng(30)
    bits = rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        bits[np.isfinite(bits)],
        rng.standard_normal(4000) * 10.0 ** rng.uniform(-20, 20, 4000),
        rng.uniform(-1, 1, 2000),
    ])
    small = values[np.abs(values) < 2.0**63]
    large = values[np.abs(values) >= 2.0**63]
    texts, fast = [], 0
    for fmt in (repr, "%.17g".__mod__, "%.25e".__mod__, "%.40f".__mod__):
        for chunk in [*np.array_split(small, 40), *np.array_split(large, 10)]:
            pairs = chunk[: len(chunk) // 2 * 2].reshape(-1, 2).tolist()
            entries = ", ".join(f"[{fmt(x)}, {fmt(y)}]" for x, y in pairs)
            texts.append(f'{{"dims": [1, 1], "matrix": [[{entries}]]}}')
            fast += _orjson_payload(texts[-1]) is not None
    # the subnormal minimum, just above half of it, the normal minimum, the float maximum and past its
    # midpoint, both zeros, and integers at and beyond 64 bits, beside a float and beside an int
    edges = [
        "5e-324", "2.4703282292062328e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
        "1.7976931348623158e308", "-0.0", "-0", str(2**63 - 1), str(2**63), str(2**64), str(10**30),
    ]
    texts += [f'{{"dims": [1, 1], "matrix": [[[{edge}, {other}]]]}}' for edge in edges for other in ("0.5", "1")]
    package = _package_texts(tmp_path)
    for text in texts + package:
        assert _parsed_or_refused(parse_matrix_payload, text) == _parsed_or_refused(_reference_parse, text)
    # every chunk of entries below 2^63 in magnitude is decoded by orjson, none of the others
    assert fast == 4 * 40
    # so is every file the package writes, which json.loads and np.asarray would read far slower
    assert all(_orjson_payload(text) is not None for text in package)


# Files the loaders refuse, with every text that orjson decodes otherwise than json.loads or refuses where
# json.loads accepts: (exception, message, cause) or ("ok", dims, matrix digest) from load_state, then
# from load_witness, as recorded when json.loads decoded every file; {path} stands for the file's path
DEEP = 100_000
_ONE = '{"dims": [1, 1], "matrix": [[[%s, 0.0]]]}'
_KIND = "kind: expected a witness file (kind='witness'), got None"
_READ = "parse: cannot read {path}: "
_RECURSION = _READ + "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
LOADER_OUTCOMES = {
    "missing": 2 * [("InvariantViolation", _READ + "[Errno 2] No such file or directory: '{path}'", "FileNotFoundError")],
    "directory": 2 * [("InvariantViolation", _READ + "[Errno 21] Is a directory: '{path}'", "IsADirectoryError")],
    "non-utf8": 2 * [(
        "InvariantViolation", _READ + "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        "UnicodeDecodeError",
    )],
    "bad-json": 2 * [(
        "InvariantViolation", _READ + "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        "JSONDecodeError",
    )],
    "empty": 2 * [("InvariantViolation", _READ + "Expecting value: line 1 column 1 (char 0)", "JSONDecodeError")],
    "deep-100000": 2 * [("InvariantViolation", _RECURSION, "RecursionError")],
    "deep-900": 2 * [("InvariantViolation", "shape: ragged nesting in matrix", "ValueError")],
    "deep-beside-matrix": 2 * [("InvariantViolation", _RECURSION, "RecursionError")],
    "digits-5000": 2 * [(
        "InvariantViolation",
        _READ + "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
        "use sys.set_int_max_str_digits() to increase the limit",
        "ValueError",
    )],
    "digits-30-matrix": 2 * [("InvariantViolation", "type: non-numeric entries (object) in matrix", None)],
    "digits-30-dims": [
        (
            "DimensionMismatch",
            "dims: matrix is (1, 1), dims (123456789012345678901234567890, 1) require "
            "(123456789012345678901234567890, 123456789012345678901234567890)",
            None,
        ),
        ("InvariantViolation", _KIND, None),
    ],
    "digits-30-kind": [
        ("ok", [1, 1], "3239b05c38b825eb"),
        ("InvariantViolation", "kind: expected a witness file (kind='witness'), got 123456789012345678901234567890", None),
    ],
    "u64": [
        ("InvariantViolation", "trace: |Tr(rho) - 1| = 1.845e+19 exceeds 1.0e-10", None),
        ("InvariantViolation", _KIND, None),
    ],
    "non-object": 2 * [("InvariantViolation", "parse: payload must be an object with 'dims' and 'matrix'", None)],
    "pairs-3": 2 * [(
        "InvariantViolation", "shape: matrix entries must be [re, im] pairs, got shape (1, 1, 3)", None
    )],
    "bools": 2 * [("InvariantViolation", "type: non-numeric entries (bool) in matrix", None)],
    "strings": 2 * [("InvariantViolation", "type: non-numeric entries (<U1) in matrix", None)],
    "nan": 2 * [("InvariantViolation", "finiteness: NaN or Inf entries in matrix", None)],
    "infinity": 2 * [("InvariantViolation", "finiteness: NaN or Inf entries in matrix", None)],
    "1e400": 2 * [("InvariantViolation", "finiteness: NaN or Inf entries in matrix", None)],
    "1e99999999999": 2 * [("InvariantViolation", "finiteness: NaN or Inf entries in matrix", None)],
    "surrogate-kind": [
        ("ok", [1, 1], "3239b05c38b825eb"),
        ("InvariantViolation", "kind: expected a witness file (kind='witness'), got '\\ud800'", None),
    ],
    "bom": 2 * [(
        "InvariantViolation", _READ + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        "JSONDecodeError",
    )],
    "duplicate-keys": [("ok", [1, 1], "3239b05c38b825eb"), ("InvariantViolation", _KIND, None)],
    "wrong-dims": [
        ("DimensionMismatch", "dims: matrix is (3, 3), dims (2, 2) require (4, 4)", None),
        ("InvariantViolation", _KIND, None),
    ],
    "non-hermitian": [
        ("InvariantViolation", "kind: file holds a witness, not a state", None),
        ("InvariantViolation", "hermiticity: witness matrix has max |A - A^dag| = 2.500e-01 exceeds 1.0e-10", None),
    ],
    "zero": [
        ("InvariantViolation", "trace: |Tr(rho) - 1| = 1.000e+00 exceeds 1.0e-10", None),
        ("InvariantViolation", _KIND, None),
    ],
    "state": [("ok", [2, 2], "832850bd37d90567"), ("InvariantViolation", _KIND, None)],
    "witness": [("InvariantViolation", "kind: file holds a witness, not a state", None), ("ok", [3, 3], "d6594ff975c475c5")],
}


def _loader_corpus():
    """The content of each corpus file: its text, its bytes, ``...`` for a directory or None for no file."""
    state = json.dumps(payload(fixture("bell(2)")))
    skew = np.eye(2) / 2
    skew[0, 1] = 0.25
    return {
        "missing": None,
        "directory": ...,
        "non-utf8": b"\xff" + state.encode(),
        "bad-json": "{not json",
        "empty": "",
        "deep-100000": '{"dims": [2, 2], "matrix": ' + "[" * DEEP + "]" * DEEP + "}",
        "deep-900": '{"dims": [2, 2], "matrix": ' + "[" * 900 + "]" * 900 + "}",
        "deep-beside-matrix": state[:-1] + ', "extra": ' + "[" * DEEP + "]" * DEEP + "}",
        "digits-5000": _ONE % ("1" * 5000),
        "digits-30-matrix": _ONE % "123456789012345678901234567890",
        "digits-30-dims": '{"dims": [123456789012345678901234567890, 1], "matrix": [[[1.0, 0.0]]]}',
        "digits-30-kind": '{"dims": [1, 1], "kind": 123456789012345678901234567890, "matrix": [[[1.0, 0.0]]]}',
        "u64": _ONE % "18446744073709551615",
        "non-object": "[1, 2]",
        "pairs-3": '{"dims": [1, 1], "matrix": [[[1.0, 0.0, 0.0]]]}',
        "bools": '{"dims": [1, 1], "matrix": [[[true, false]]]}',
        "strings": '{"dims": [1, 1], "matrix": [[["1", "0"]]]}',
        "nan": _ONE % "NaN",
        "infinity": _ONE % "Infinity",
        "1e400": _ONE % "1e400",
        "1e99999999999": _ONE % "1e99999999999",
        "surrogate-kind": '{"dims": [1, 1], "kind": "\\ud800", "matrix": [[[1.0, 0.0]]]}',
        "bom": "﻿" + state,
        "duplicate-keys": '{"dims": [1, 1], "matrix": [[[2.0, 0.0]]], "matrix": [[[1.0, 0.0]]]}',
        "wrong-dims": json.dumps({"dims": [2, 2], "matrix": complex_pairs(np.eye(3) / 3)}),
        "non-hermitian": json.dumps({"dims": [1, 2], "kind": "witness", "matrix": complex_pairs(skew)}),
        "zero": json.dumps({"dims": [2, 2], "matrix": complex_pairs(np.zeros((4, 4)))}),
        "state": state,
        "witness": json.dumps(payload(fixture("paper_mub_witness"))),
    }


def _load_outcome(load, path):
    try:
        obj = load(path)
    except Exception as exc:
        cause = exc.__cause__
        return type(exc).__name__, str(exc).replace(str(path), "{path}"), cause and type(cause).__name__
    return "ok", list(obj.dims), hashlib.sha256(obj.mat.tobytes()).hexdigest()[:16]


def test_loaders_refuse_the_corpus_as_json_did(tmp_path):
    corpus = _loader_corpus()
    assert corpus.keys() == LOADER_OUTCOMES.keys()
    _witness_from_text.cache_clear()
    for name, content in corpus.items():
        path = tmp_path / f"{name}.json"
        if content is ...:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content, encoding="utf-8")
        outcomes = []
        for load in (load_state, load_witness):
            first = _load_outcome(load, path)
            assert _load_outcome(load, path) == first, name  # the second witness load hits the cache
            outcomes.append(first)
        assert outcomes == LOADER_OUTCOMES[name], name


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
