"""The benchmark's workloads: seeded inputs, one op each, and its gate.

Each workload builds its inputs from the seed alone, yields them as
rounds (one round holds one op per input class, so every prefix of whole
rounds has the same mix), runs an op with spans around every call into
entcert, and checks the op's output.  Only top-level ``entcert`` exports
and ``entcert.cli.main`` are called.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import entcert as ec
from entcert.cli import main as cli_main
from tracing import NullTracer

DIMS = ((2, 2), (2, 3), (3, 3), (2, 4))
# One oracle round: 2x2 and 2x3 twice each, so the median op falls in the
# middle of the 2x3 class, a third of the ops, rather than on the gap between
# the 2x3 and the slower 3x3/2x4 classes.
ROUND_DIMS = ((2, 2), (2, 2), (2, 3), (2, 3), (3, 3), (2, 4))
# Acceptance criterion 8's oracle settings (mixed targets) and criterion 5's
# (pure targets); the default config takes about a minute per 3x3 state.
MIXED_ORACLE = dict(restarts=2, max_iters=80, convergence_tol=1e-8)
PURE_ORACLE = dict(restarts=3, max_iters=250, convergence_tol=1e-9)
PURE_FIXTURES = ("bell(2)", "bell(3)", "singlet")
CLI_DIMS = (3, 5, 7)
CLI_WISHART = 3
PREBUILT_ROUNDS = 24  # oracle rounds built at set-up; a longer run cycles them
SANDWICH_TOL = 1e-9
PAPER_DSEP = math.sqrt(2) / 30
PAPER_TOL = 1e-12


def dims_label(dims) -> str:
    return f"{dims[0]}x{dims[1]}"


def wishart_state(rng: np.random.Generator, dims) -> ec.DensityMatrix:
    """Full-rank Wishart state G G^dag / Tr, G a square complex Ginibre matrix."""
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return ec.DensityMatrix(dims=dims, mat=m / np.trace(m).real)


def haar_pure_state(rng: np.random.Generator, dims) -> ec.DensityMatrix:
    d = dims[0] * dims[1]
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return ec.PureState(dims=dims, vec=v / np.linalg.norm(v)).projector()


def paper_check() -> list[str]:
    """The paper's example: paper_mub_witness on paper_ppt_state gives sqrt(2)/30."""
    cert = ec.generic_bound(ec.fixture("paper_mub_witness"), ec.fixture("paper_ppt_state"))
    if abs(cert.dsep_lower - PAPER_DSEP) > PAPER_TOL:
        return [f"paper example: dsep_lower {cert.dsep_lower!r} != sqrt(2)/30"]
    return []


# ---------------------------------------------------------------------------
# Oracle workloads: one op is one state's full sandwich
# ---------------------------------------------------------------------------


@dataclass
class Case:
    label: str
    rho: ec.DensityMatrix
    oracle_seed: int


@dataclass
class Sandwich:
    certs: list  # (kind, BoundCertificate)
    lower: float
    result: ec.OracleResult


@dataclass
class OracleInputs:
    rounds: list[list[Case]]
    gens: dict = field(default_factory=dict)  # d -> GeneratorSet
    mub: dict = field(default_factory=dict)   # d -> [(L, Witness)]
    paper: ec.Witness | None = None


class OracleWorkload:
    """ppt_check, every applicable certificate, bounds_from_dsep, dsep_upper."""

    def __init__(self, name: str, min_rounds: int, oracle: dict, pure: bool):
        self.name = name
        self.min_rounds = min_rounds
        self.oracle = oracle
        self.pure = pure
        self.dsep_upper = ec.dsep_upper  # a test swaps in a faulty oracle

    def build(self, seed: int, workdir: Path) -> OracleInputs:
        rng = np.random.default_rng(seed)
        make = haar_pure_state if self.pure else wishart_state
        rounds = []
        for _ in range(PREBUILT_ROUNDS):
            cases = [Case(dims_label(dims), make(rng, dims), 0) for dims in ROUND_DIMS]
            if self.pure:
                cases += [Case(name, ec.fixture(name), 0) for name in PURE_FIXTURES]
            for case in cases:
                case.oracle_seed = int(rng.integers(2**31))
            rounds.append(cases)
        inputs = OracleInputs(rounds=rounds, paper=ec.fixture("paper_mub_witness"))
        for d in sorted({da for da, db in DIMS if da == db}):
            inputs.gens[d] = ec.gellmann(d)
            inputs.mub[d] = [
                (count, ec.mub_witness(ec.mub_family(d, count), ec.RotationSet.identity(d, count)))
                for count in range(2, d + 2)
            ]
        return inputs

    def prepare(self, inputs: OracleInputs) -> None:
        pass

    def round(self, inputs: OracleInputs, index: int) -> list[Case]:
        return inputs.rounds[index % len(inputs.rounds)]

    def run_op(self, inputs: OracleInputs, case: Case, tr) -> Sandwich:
        rho = case.rho
        da, db = rho.dims
        certs = []
        with tr.span("oracle.ppt_check"):
            ec.ppt_check(rho)
        if da == db:
            with tr.span("witnesses.spin_bound"):
                certs.append(("spin", ec.spin_bound(rho, inputs.gens[da])))
            for count, w in inputs.mub[da]:
                with tr.span("witnesses.mub_bound"):
                    certs.append(("mub", ec.mub_bound(w, count, rho)))
        if rho.dims == inputs.paper.dims:
            with tr.span("witnesses.generic_bound"):
                certs.append(("file", ec.generic_bound(inputs.paper, rho)))
        lower = max((c.dsep_lower for _, c in certs if c.certified), default=0.0)
        with tr.span("measures.bounds_from_dsep"):
            ec.bounds_from_dsep(lower)
        cfg = ec.OracleConfig(seed=case.oracle_seed, **self.oracle)
        with tr.span("oracle.dsep_upper", tag=dims_label(rho.dims)):
            result = self.dsep_upper(rho, cfg)
        if tr.enabled:
            tr.add("oracle.dsep_upper.iterations", result.iterations_used)
            tr.add("oracle.dsep_upper.converged", result.converged)
            for kind, c in certs:
                tr.add(f"witnesses.tried.{kind}", 1)
                tr.add(f"witnesses.certified.{kind}", c.certified)
        return Sandwich(certs=certs, lower=lower, result=result)

    def check(self, inputs: OracleInputs, case: Case, out: Sandwich) -> list[str]:
        errors = []
        upper = out.result.dsep_upper
        for kind, c in out.certs:
            if c.certified and c.dsep_lower > upper + SANDWICH_TOL:
                errors.append(f"{case.label}: {kind} lower {c.dsep_lower!r} > upper {upper!r}")
        dist = ec.frobenius_norm(case.rho.mat - out.result.sigma.mat)
        if not abs(dist - upper) <= SANDWICH_TOL:
            errors.append(f"{case.label}: ||rho - sigma|| = {dist!r} != dsep_upper {upper!r}")
        try:
            ec.DensityMatrix(dims=out.result.sigma.dims, mat=out.result.sigma.mat)
        except (ec.InvariantViolation, ec.DimensionMismatch) as exc:
            errors.append(f"{case.label}: sigma is not a density matrix: {exc}")
        return errors

    def quality(self, inputs: OracleInputs, outcomes: list[Sandwich]) -> dict:
        """Sandwich gap and certified share over the fixed panel."""
        gaps = [o.result.dsep_upper - o.lower for o in outcomes]
        certified = [any(c.certified for _, c in o.certs) for o in outcomes]
        return {
            "gap_mean": sum(gaps) / len(gaps) if gaps else None,
            "certified_ratio": sum(certified) / len(certified) if certified else None,
        }


# ---------------------------------------------------------------------------
# certify_cli: one op is one in-process ``entcert`` invocation
# ---------------------------------------------------------------------------


@dataclass
class Command:
    kind: str         # spin | mub | file | twirl | pure
    d: int
    state: Path
    argv: list[str]
    count: int = 0            # L for kind "mub"
    witness: Path | None = None
    paper: bool = False       # the paper's state with the paper's witness
    expected: dict | None = None

    @property
    def label(self) -> str:
        return f"{self.kind}/{self.d}"


@dataclass
class CliInputs:
    commands: list[Command]
    files: list[tuple[Path, list[Command]]]  # state file -> its bound commands
    seed: int


def _pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def replay(cmd: Command, tr) -> dict:
    """The public calls ``cli.main`` makes for ``cmd``, in its order; the payload it prints."""
    with tr.span("states.load_state"):
        rho = ec.load_state(cmd.state)
    if cmd.kind == "twirl":
        with tr.span("measures.diagonal_twirl"):
            out = ec.diagonal_twirl(rho)
        return {"dims": list(out.dims), "matrix": _pairs(out.mat)}
    if cmd.kind == "pure":
        with tr.span("linalg.hermitian_eig"):
            _, v = ec.hermitian_eig(rho.mat)
        with tr.span("measures.pure"):
            lam, _, _ = ec.schmidt(ec.PureState(dims=rho.dims, vec=v[:, -1]))
            return {
                "schmidt": [float(x) for x in lam.coeffs],
                "dsep_pure": ec.dsep_pure(lam),
                "concurrence": ec.concurrence_pure(lam),
                "eof": ec.eof_pure(lam),
                "geometric": ec.geometric_pure(lam),
            }
    if cmd.kind == "spin":
        with tr.span("generators.gellmann"):
            gens = ec.gellmann(cmd.d)
        with tr.span("witnesses.spin_bound"):
            cert = ec.spin_bound(rho, gens)
    elif cmd.kind == "mub":
        with tr.span("witnesses.mub_family"):
            fam = ec.mub_family(cmd.d, cmd.count)
        with tr.span("witnesses.mub_witness"):
            w = ec.mub_witness(fam, ec.RotationSet.identity(cmd.d, cmd.count))
        with tr.span("witnesses.mub_bound"):
            cert = ec.mub_bound(w, cmd.count, rho)
    else:
        with tr.span("states.load_witness"):
            w = ec.load_witness(cmd.witness)
        with tr.span("witnesses.generic_bound"):
            cert = ec.generic_bound(w, rho)
    if tr.enabled:
        tr.add(f"witnesses.tried.{cmd.kind}", 1)
        tr.add(f"witnesses.certified.{cmd.kind}", cert.certified)
    with tr.span("measures.bounds_from_dsep"):
        bounds = ec.bounds_from_dsep(cert.dsep_lower).to_json()
    payload = cert.to_json()
    payload.update((k, v) for k, v in bounds.items() if k != "dsep_lower")
    return payload


def same_value(a, b) -> bool:
    """Equality as the CLI's 17-digit format sees it (bit-exact for doubles)."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return format(float(a), ".17g") == format(float(b), ".17g")
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    return a == b


@dataclass
class CliOutcome:
    code: int
    stdout: str


class CliWorkload:
    name = "certify_cli"

    def __init__(self, min_rounds: int):
        self.min_rounds = min_rounds

    def build(self, seed: int, workdir: Path) -> CliInputs:
        rng = np.random.default_rng(seed)
        commands, files = [], []
        for d in CLI_DIMS:
            if d == 3:
                witness = ec.fixture("paper_mub_witness")
            else:
                witness = ec.mub_witness(ec.mub_family(d, d + 1), ec.RotationSet.identity(d, d + 1))
            wpath = workdir / f"witness_{d}.json"
            ec.save_witness(witness, wpath)
            states = [(f"wishart{i}", wishart_state(rng, (d, d)), False) for i in range(CLI_WISHART)]
            states.append(("bell", ec.fixture(f"bell({d})"), True))
            states.append(("haar", haar_pure_state(rng, (d, d)), True))
            if d == 3:
                states.append(("paper", ec.fixture("paper_ppt_state"), False))
            for label, rho, rank1 in states:
                path = workdir / f"{label}_{d}.json"
                ec.save_state(rho, path)
                state = ["--state", str(path), "--quiet"]
                bound = [
                    Command("spin", d, path, ["bound", "--spin", *state]),
                    Command("mub", d, path, ["bound", "--mub", str(d), "2", *state], count=2),
                    Command("mub", d, path, ["bound", "--mub", str(d), str(d + 1), *state], count=d + 1),
                    Command("file", d, path, ["bound", "--witness-file", str(wpath), *state],
                            witness=wpath, paper=label == "paper"),
                ]
                files.append((path, bound))
                commands += bound
                commands.append(Command("twirl", d, path, ["twirl", *state]))
                if rank1:
                    commands.append(Command("pure", d, path, ["pure", *state]))
        return CliInputs(commands=commands, files=files, seed=seed)

    def prepare(self, inputs: CliInputs) -> None:
        """Reference payloads from the library, and one untimed call of each command kind."""
        warmed = set()
        for cmd in inputs.commands:
            cmd.expected = replay(cmd, NullTracer())
            if (cmd.kind, cmd.d) not in warmed:
                warmed.add((cmd.kind, cmd.d))
                self.invoke(cmd)

    def round(self, inputs: CliInputs, index: int) -> list[Command]:
        order = np.random.default_rng([inputs.seed, index]).permutation(len(inputs.commands))
        return [inputs.commands[i] for i in order]

    @staticmethod
    def invoke(cmd: Command) -> CliOutcome:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(cmd.argv)
        return CliOutcome(code=code, stdout=buf.getvalue())

    def run_op(self, inputs: CliInputs, cmd: Command, tr) -> CliOutcome:
        if not tr.enabled:
            return self.invoke(cmd)
        with tr.span("cli.main"):
            out = self.invoke(cmd)
        *_, start, end = tr.spans[-1]
        main_s = end - start
        first = len(tr.spans)
        replay(cmd, tr)
        tr.add("cli.glue_s", main_s - sum(end - start for *_, start, end in tr.spans[first:]))
        return out

    def check(self, inputs: CliInputs, cmd: Command, out: CliOutcome) -> list[str]:
        where = " ".join(cmd.argv[:-3])
        if out.code != 0:
            return [f"{where}: exit code {out.code}"]
        try:
            got = json.loads(out.stdout, parse_int=float)  # keeps the sign of "-0"
        except json.JSONDecodeError as exc:
            return [f"{where}: stdout is not JSON: {exc}"]
        if not isinstance(got, dict) or set(got) != set(cmd.expected):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else type(got)}"
                    f" != {sorted(cmd.expected)}"]
        errors = [f"{where}: {k} = {got[k]!r}, library gives {v!r}"
                  for k, v in cmd.expected.items() if not same_value(got[k], v)]
        if cmd.paper and not abs(got["dsep_lower"] - PAPER_DSEP) <= PAPER_TOL:
            errors.append(f"{where}: paper example dsep_lower {got['dsep_lower']!r} != sqrt(2)/30")
        return errors

    def quality(self, inputs: CliInputs, outcomes) -> dict:
        """Share of state files with a certified bound; no upper bound is computed."""
        certified = [any(c.expected["certified"] for c in bound) for _, bound in inputs.files]
        return {"gap_mean": None, "certified_ratio": sum(certified) / len(certified)}


WORKLOADS = {
    "oracle_mixed": lambda: OracleWorkload("oracle_mixed", 3, MIXED_ORACLE, pure=False),
    "oracle_pure": lambda: OracleWorkload("oracle_pure", 2, PURE_ORACLE, pure=True),
    "certify_cli": lambda: CliWorkload(10),
}
