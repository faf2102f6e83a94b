import gc
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entcert import (
    DensityMatrix,
    GeneratorSet,
    NumericalError,
    OracleConfig,
    RotationSet,
    Witness,
    diagonal_twirl,
    fixture,
    load_state,
    mub_family,
    mub_witness,
    save_state,
    save_witness,
)
from entcert import cli
from entcert.cli import _build_parser, main
from entcert.io import complex_pairs

from conftest import CERTIFICATE_KEYS, EXTREME_WITNESSES, HUGE_COHERENCE_STATE, OVERFLOWING_STATES, random_density


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "entcert", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


@pytest.fixture(scope="module")
def paper_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("paper")
    state = root / "ppt.json"
    witness = root / "w.json"
    assert run_cli("fixtures", "--name", "paper_ppt_state", "--out", str(state)).returncode == 0
    assert run_cli("fixtures", "--name", "paper_mub_witness", "--out", str(witness)).returncode == 0
    return state, witness


def test_bound_with_witness_file(paper_files):
    state, witness = paper_files
    proc = run_cli("bound", "--state", str(state), "--witness-file", str(witness), "--quiet")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["certified"] is True
    assert abs(out["witness_value"] - (-2 / 15)) <= 1e-12
    assert abs(out["dsep_lower"] - np.sqrt(2) / 30) <= 1e-12
    assert abs(out["concurrence_lower"] - 1 / 15) <= 1e-12
    assert abs(out["eof_lower"] - (-np.log2(449 / 450))) <= 1e-12
    assert abs(out["geometric_lower"] - 1 / 450) <= 1e-12


def test_bound_reproducible_bit_for_bit(paper_files):
    state, witness = paper_files
    args = ("bound", "--state", str(state), "--witness-file", str(witness), "--quiet")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_bound_mub_construction_matches_fixture_witness(paper_files):
    state, _ = paper_files
    proc = run_cli("bound", "--state", str(state), "--mub", "3", "4", "--quiet")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    # the constructed witness differs from the shipped one, but both are
    # normalized to the same radius
    assert out["b_used"] == pytest.approx(np.sqrt(8), abs=1e-9)


def test_bound_rejects_composite_dimension(paper_files):
    state, _ = paper_files
    proc = run_cli("bound", "--state", str(state), "--mub", "4", "5")
    assert proc.returncode == 1
    assert "d must be prime" in proc.stderr


def test_bound_requires_witness_source(paper_files):
    state, _ = paper_files
    proc = run_cli("bound", "--state", str(state))
    assert proc.returncode == 1


def test_pure_bell_values(tmp_path):
    path = tmp_path / "bell2.json"
    save_state(fixture("bell(2)"), path)
    proc = run_cli("pure", "--state", str(path), "--quiet")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["dsep_pure"] == pytest.approx(0.70710678, abs=1e-8)
    assert out["concurrence"] == pytest.approx(1.0, abs=1e-12)
    assert out["eof"] == pytest.approx(1.0, abs=1e-12)
    assert out["geometric"] == pytest.approx(0.5, abs=1e-12)
    assert out["schmidt"] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_pure_rejects_mixed_state(paper_files):
    state, _ = paper_files
    proc = run_cli("pure", "--state", str(state))
    assert proc.returncode == 1
    assert "rank" in proc.stderr


def test_spin_bound_singlet(tmp_path):
    path = tmp_path / "singlet.json"
    save_state(fixture("singlet"), path)
    proc = run_cli("spin-bound", "--state", str(path), "--quiet")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["witness_value"] == pytest.approx(-4.0, abs=1e-10)
    assert out["dsep_lower"] == pytest.approx(4 / np.sqrt(240), abs=1e-10)


def test_spin_bound_rejects_unequal_dims(tmp_path):
    path = tmp_path / "mixed23.json"
    save_state(DensityMatrix(dims=(2, 3), mat=np.eye(6) / 6), path)
    proc = run_cli("bound", "--state", str(path), "--spin")
    assert proc.returncode == 1
    assert "dims:" in proc.stderr
    assert "variance witness" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_spin_bound_rejects_one_dimensional_sites(tmp_path, capsys):
    path = tmp_path / "one.json"
    save_state(DensityMatrix(dims=(1, 1), mat=np.eye(1)), path)
    assert main(["bound", "--state", str(path), "--spin"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("entcert: error: dimension:")


def test_bound_prints_the_certificate_keys_in_order(paper_files, capsys):
    state, witness = paper_files
    for flags in (["--witness-file", str(witness)], ["--mub", "3", "4"], ["--spin"]):
        assert main(["bound", "--state", str(state), *flags, "--quiet"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == CERTIFICATE_KEYS, flags  # json keeps the order


def test_bound_refuses_a_witness_file_that_is_no_witness(tmp_path, capsys):
    # -I + 0.1 Z(x)Z would put |01> at distance 5.5 from the separable set, farther than any state can be
    witness, state = tmp_path / "w.json", tmp_path / "ket01.json"
    save_witness(Witness(dims=(2, 2), mat=-np.eye(4) + 0.1 * np.diag([1.0, -1.0, -1.0, 1.0])), witness)
    save_state(DensityMatrix(dims=(2, 2), mat=np.diag([0.0, 1.0, 0.0, 0.0])), state)
    assert main(["bound", "--state", str(state), "--witness-file", str(witness)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "entcert: error: range: distance bound must lie in [0, 1), got 5.5\n"


def test_bound_refuses_a_huge_coherence_by_name(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": complex_pairs(HUGE_COHERENCE_STATE)}))
    assert main(["bound", "--state", str(path), "--spin"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("entcert: error: positivity: ")


@pytest.mark.parametrize("case", OVERFLOWING_STATES)
def test_twirl_refuses_an_overflowing_state_by_name(tmp_path, capsys, case):
    mat, invariant = OVERFLOWING_STATES[case]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": complex_pairs(mat)}))
    assert main(["twirl", "--state", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"entcert: error: {invariant}: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("case", EXTREME_WITNESSES)
def test_bound_on_an_extreme_witness_file_prints_json_or_names_the_invariant(tmp_path, capsys, case):
    mat, invariant, _ = EXTREME_WITNESSES[case]
    state, witness = tmp_path / "bell2.json", tmp_path / "w.json"
    save_state(fixture("bell(2)"), state)
    witness.write_text(json.dumps({"dims": [2, 2], "kind": "witness", "matrix": complex_pairs(mat)}))
    code = main(["bound", "--state", str(state), "--witness-file", str(witness), "--quiet"])
    out = capsys.readouterr()
    if invariant:
        assert (code, out.out) == (1, "")
        assert out.err.startswith(f"entcert: error: {invariant}: ")
        return
    assert (code, out.err) == (0, "")
    cert = json.loads(out.out, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
    assert list(cert) == CERTIFICATE_KEYS and cert["certified"] is False


def test_mub_witness_output(tmp_path):
    out_path = tmp_path / "w23.json"
    proc = run_cli("mub-witness", "--d", "2", "--L", "3", "--out", str(out_path), "--quiet")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["kind"] == "witness"
    assert payload["dims"] == [2, 2]
    assert json.loads(out_path.read_text()) == payload
    mat = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
    assert np.trace(mat).real == pytest.approx(2.0, abs=1e-12)


def test_twirl_bell_invariant(tmp_path):
    path = tmp_path / "bell3.json"
    save_state(fixture("bell(3)"), path)
    proc = run_cli("twirl", "--state", str(path), "--quiet")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    mat = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
    assert np.abs(mat - fixture("bell(3)").mat).max() < 1e-12


def test_oracle_subcommand(tmp_path):
    path = tmp_path / "product.json"
    vec = np.zeros(4)
    vec[0] = 1.0
    from entcert import DensityMatrix

    save_state(DensityMatrix(dims=(2, 2), mat=np.outer(vec, vec)), path)
    proc = run_cli("oracle", "--state", str(path), "--restarts", "2", "--seed", "7", "--quiet")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["dsep_upper"] <= 1e-6
    assert out["converged"] is True
    assert set(out["ensemble"]) == {"weights", "vectors_a", "vectors_b"}


def test_oracle_subcommand_defaults_are_the_config_defaults():
    args = _build_parser().parse_args(["oracle", "--state", "s.json"])
    assert (args.restarts, args.seed) == (OracleConfig().restarts, OracleConfig().seed) == (20, 0)
    args = _build_parser().parse_args(["oracle", "--state", "s.json", "--restarts", "7", "--seed", "3"])
    assert (args.restarts, args.seed) == (7, 3)


def test_quiet_silences_stderr(paper_files):
    state, witness = paper_files
    proc = run_cli("bound", "--state", str(state), "--witness-file", str(witness), "--quiet")
    assert proc.stderr == ""
    chatty = run_cli("bound", "--state", str(state), "--witness-file", str(witness))
    assert chatty.stderr != ""
    assert chatty.stdout == proc.stdout


def test_invalid_state_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": [2, 2], "matrix": [[[0.5, 0]] * 4] * 4}))
    proc = run_cli("pure", "--state", str(bad))
    assert proc.returncode == 1
    assert "trace" in proc.stderr or "hermiticity" in proc.stderr
    mixed = tmp_path / "bool.json"  # read as the state 1 if the boolean is taken for 1.0
    mixed.write_text(json.dumps({"dims": [1, 1], "matrix": [[[True, 0.0]]]}))
    proc = run_cli("twirl", "--state", str(mixed))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("entcert: error: type:")


def test_missing_file_is_input_error():
    proc = run_cli("twirl", "--state", "/nonexistent/state.json")
    assert proc.returncode == 1
    assert "parse" in proc.stderr


def test_undecodable_file_is_parse_error(tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + '{"dims": [2, 2]}'.encode("utf-16-le"))
    proc = run_cli("twirl", "--state", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("entcert: error: parse:")
    assert "Traceback" not in proc.stderr


def test_unwritable_out_is_an_input_error(tmp_path, paper_files, capsys):
    state, _ = paper_files
    out = str(tmp_path / "missing" / "x.json")
    for argv in (["fixtures", "--name", "singlet"], ["twirl", "--state", str(state)],
                 ["mub-witness", "--d", "2", "--L", "3"]):
        assert main([*argv, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"entcert: error: output: cannot write {out}: ")
        assert "Traceback" not in captured.err


def test_deeply_nested_file_is_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"dims": [2, 2], "matrix": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["bound", "--spin", "--state", str(deep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"entcert: error: parse: cannot read {deep}: ")
    assert "Traceback" not in captured.err


@pytest.fixture(scope="module")
def files7(tmp_path_factory):
    """A 7x7 Wishart state file and the d = 7, L = 8 basis witness file."""
    root = tmp_path_factory.mktemp("d7")
    state, witness = root / "f7.json", root / "w7.json"
    save_state(DensityMatrix(dims=(7, 7), mat=random_density(np.random.default_rng(7), 49)), state)
    save_witness(mub_witness(mub_family(7, 8), RotationSet.identity(7, 8)), witness)
    return str(state), str(witness)


def test_main_starts_no_collection(files7, capsys):
    state, witness = files7
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    # CPython's young threshold through 3.12, so that a 7x7 command run
    # without the pause starts collections whatever the version's default
    threshold = gc.get_threshold()
    gc.set_threshold(700, *threshold[1:])
    gc.callbacks.append(hook)
    try:
        for argv in (["twirl", "--state", state, "--quiet"],
                     ["bound", "--witness-file", witness, "--state", state, "--quiet"]):
            gc.collect()  # so that what ran before cannot start one
            started.clear()
            assert main(argv) == 0
            assert started == []
            assert capsys.readouterr().out.startswith("{")
    finally:
        gc.callbacks.remove(hook)
        gc.set_threshold(*threshold)
    assert gc.isenabled()


def test_main_restores_the_collector(files7, monkeypatch, capsys):
    state, _ = files7
    twirl = ["twirl", "--state", state, "--quiet"]
    assert main(twirl) == 0
    assert gc.isenabled()
    assert main(["twirl", "--state", state + ".missing"]) == 1
    assert gc.isenabled()
    # a caller that disabled the collector finds it still disabled
    gc.disable()
    try:
        assert main(twirl) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()

    def fail(rho):
        raise NumericalError("eigensolver did not converge")

    monkeypatch.setattr(cli, "diagonal_twirl", fail)
    assert main(twirl) == 2
    assert gc.isenabled()
    assert capsys.readouterr().err.endswith("entcert: numerical failure: eigensolver did not converge\n")


def test_main_reports_memory_error_as_size(monkeypatch, capsys):
    def too_large(name):  # as numpy fails for bell(1000), a 10^6 x 10^6 complex matrix
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape (1000000, 1000000)")

    monkeypatch.setattr(cli, "fixture", too_large)
    assert main(["fixtures", "--name", "bell(1000)"]) == 1
    assert gc.isenabled()
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "entcert: error: size: Unable to allocate 14.6 TiB for an array with shape (1000000, 1000000)\n"

    def out_of_memory(name):
        raise MemoryError

    monkeypatch.setattr(cli, "fixture", out_of_memory)
    assert main(["fixtures", "--name", "bell(1000)"]) == 1
    assert capsys.readouterr().err == "entcert: error: size: out of memory\n"


def test_bad_usage_exits_one():
    proc = run_cli("bound")
    assert proc.returncode == 1
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_help_shows_the_contract_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps the description
    assert "Exit codes: 0 on success" in text
    assert "garbage collector" not in text


def test_fixture_round_trip_via_files(tmp_path, paper_files):
    state, witness = paper_files
    # numbers must reproduce across independent runs and via re-saved files
    first = run_cli("bound", "--state", str(state), "--witness-file", str(witness), "--quiet")
    second = run_cli("bound", "--state", str(state), "--witness-file", str(witness), "--quiet")
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["dsep_lower"] == json.loads(second.stdout)["dsep_lower"]


def test_twirl_stdout_is_the_out_file_and_keeps_float_signs(tmp_path, paper_files):
    state, _ = paper_files
    out = tmp_path / "twirled.json"
    proc = run_cli("twirl", "--state", str(state), "--out", str(out), "--quiet")
    assert proc.returncode == 0
    assert proc.stdout == out.read_text()
    entries = [x for row in json.loads(proc.stdout)["matrix"] for pair in row for x in pair]
    assert all(isinstance(x, float) for x in entries)
    expected = diagonal_twirl(fixture("paper_ppt_state")).mat
    signs = [math.copysign(1.0, x) for x in expected.view(float).ravel()]
    assert sum(x == 0.0 and s < 0 for x, s in zip(entries, signs)) == 12
    assert [math.copysign(1.0, x) for x in entries] == signs
    assert load_state(out).mat.tobytes() == expected.tobytes()


def test_main_reuses_parser_across_calls(paper_files, capsys):
    state, _ = paper_files
    calls = (["bound", "--state", str(state), "--spin", "--quiet"], ["twirl", "--state", str(state), "--quiet"])

    def stdout_of(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    before = [stdout_of(argv) for argv in calls]
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--state", str(state)])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: entcert bound")
    assert [stdout_of(argv) for argv in calls] == before
    assert _build_parser() is _build_parser()


def test_main_builds_each_witness_once(paper_files, monkeypatch, capsys):
    state, _ = paper_files
    built = []

    def counted(name):
        real = getattr(cli, name)

        def call(*args):
            built.append((name, args))
            return real(*args)
        return call

    monkeypatch.setattr(cli, "mub_family", counted("mub_family"))
    check = GeneratorSet.__post_init__
    monkeypatch.setattr(GeneratorSet, "__post_init__", lambda gens: (built.append("GeneratorSet"), check(gens)))
    cli._basis_witness.cache_clear()

    def stdout_of(*flags):
        assert main(["bound", "--state", str(state), *flags, "--quiet"]) == 0
        return capsys.readouterr().out

    assert stdout_of("--mub", "3", "4") == stdout_of("--mub", "3", "4")
    assert built == [("mub_family", (3, 4))]
    stdout_of("--mub", "3", "2")
    assert built == [("mub_family", (3, 4)), ("mub_family", (3, 2))]
    built.clear()
    assert stdout_of("--spin") == stdout_of("--spin")
    assert built == []  # the variance witness needs only d, read from the state: no Gell-Mann set is built
    assert not cli._basis_witness(3, 4).mat.flags.writeable
    assert built == []


def test_console_script_runs_in_process(capsys):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
    module, _, attr = project["project"]["scripts"]["entcert"].partition(":")
    assert (module, attr) == ("entcert.cli", "main")
    assert getattr(importlib.import_module(module), attr)(["fixtures", "--name", "singlet", "--quiet"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [2, 2]
