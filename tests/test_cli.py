import json
import math
import subprocess
import sys

import numpy as np
import pytest

from entcert import DensityMatrix, OracleConfig, diagonal_twirl, fixture, load_state, save_state
from entcert.cli import _build_parser, main


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


def test_bad_usage_exits_one():
    proc = run_cli("bound")
    assert proc.returncode == 1
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


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
