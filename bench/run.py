"""Closed-loop benchmark of entcert's certify-and-bracket pipeline.

    python3 bench/run.py --workload oracle_mixed --seed 1 --seconds 30 --trace 0

One client in one process runs whole rounds of ops, back to back, until
``--seconds`` have passed (and at least the workload's fixed panel of
rounds has run).  Every op's output is checked.  A fixed reference kernel
runs between ops; each op's time is scaled by the kernel's time around it,
so the timings read in seconds at one nominal machine speed.  The
second-to-last line of stdout is a report with every metric, the
environment and the first failures; the last line is the result:
``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 7
SETUP_REF_SAMPLES = 3
TAIL_BEYOND = 10
# The reference kernel: small complex products and eigensolves driven from a
# Python loop, then a pure Python loop -- the mix the workloads' ops are made
# of.  REF_NOMINAL_S is its time at the nominal speed that the scaled timings
# are reported at (its median on a 2-core x86-64 VM, numpy 2.4 and OpenBLAS).
REF_NUMPY_STEPS = 100
REF_PYTHON_STEPS = 20000
REF_NOMINAL_S = 0.005
MAX_ERRORS = 20

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MiB",
}
# Reported on the report line only: fail_ratio is 0 on correct code, and the
# two quality figures are fixed by the seed (gap_mean has no CLI value).
REPORT_ONLY = {"gap_mean": "frobenius", "certified_ratio": "fraction", "fail_ratio": "fraction"}

SPAN_LAYERS = (
    "oracle.dsep_upper",
    "oracle.ppt_check",
    "witnesses.mub_family",
    "witnesses.mub_witness",
    "witnesses.spin_bound",
    "witnesses.mub_bound",
    "witnesses.generic_bound",
    "generators.gellmann",
    "states.load_state",
    "states.load_witness",
    "measures.bounds_from_dsep",
    "measures.diagonal_twirl",
    "measures.pure",
    "linalg.hermitian_eig",
    "cli.main",
)
ORACLE_DIMS = ("2x2", "2x3", "3x3", "2x4")
CERT_KINDS = ("spin", "mub", "file")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_LAYERS:
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.calls"] = "count"
    for dims in ORACLE_DIMS:
        units[f"oracle.dsep_upper.busy_s.{dims}"] = "s"
    units["oracle.dsep_upper.iterations"] = "count"
    units["oracle.dsep_upper.converged_ratio"] = "fraction"
    for kind in CERT_KINDS:
        units[f"witnesses.certified_ratio.{kind}"] = "fraction"
    units["cli.glue_s"] = "s"
    units["trace.op_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = per_layer_units()

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import entcert; "
    "print(time.perf_counter() - t, entcert.__file__)"
)


def load_package() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "entcert" / "__init__.py").is_file():
        sys.exit(f"bench: no entcert sources at {SRC}")
    sys.path.insert(0, str(SRC))


def import_seconds() -> float:
    """Time of ``import entcert`` in a fresh interpreter, from the checkout's sources."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported entcert from {path}")
    return float(seconds)


def blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded (numpy has no query of its own)."""
    import ctypes

    libdir = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(loadavg: str | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "loadavg": loadavg,
    }


class Speedometer:
    """Times the reference kernel; its time over REF_NOMINAL_S is the machine's slowness.

    The machine is shared: the same op's time swings by a factor of two over
    a few seconds, and the kernel's time swings with it (README.md, Noise).
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the kernel once; return its slowness factor (1.0 at nominal speed)."""
        np = self.np
        t0 = time.perf_counter()
        x = self.mat
        for _ in range(REF_NUMPY_STEPS):
            x = (x @ self.mat) / np.linalg.norm(x)
            np.linalg.eigh(x + x.conj().T)
        acc = 0
        for i in range(REF_PYTHON_STEPS):
            acc += i * i % 7
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed / REF_NOMINAL_S


class Tally:
    """Latencies, failures and the fixed panel's outcomes of one phase.

    ``latencies`` are scaled to nominal machine speed; ``raw`` are wall times.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.by_class: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.panel: list = []
        self.rounds = 0

    def fail(self, messages: list[str]) -> None:
        self.failed += 1
        self.errors.extend(messages[: MAX_ERRORS - len(self.errors)])
        for message in messages:
            print(f"bench: failed op: {message}", file=sys.stderr)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_phase(wl, inputs, tracer, speed: Speedometer, min_rounds: int, seconds: float) -> Tally:
    """Whole rounds of ops until ``seconds`` have passed and ``min_rounds`` are done.

    The reference kernel runs before every op; an op's scaled latency is its
    wall time over the geometric mean of the slowness just before and after it.
    """
    tally = Tally()
    start = time.perf_counter()
    before = speed.sample()
    while tally.rounds < min_rounds or time.perf_counter() - start < seconds:
        for case in wl.round(inputs, tally.rounds):
            tally.attempted += 1
            tracer.begin_op()
            t0 = time.perf_counter()
            try:
                out = wl.run_op(inputs, case, tracer)
            except Exception:  # an op that raises is a failed op; the loop goes on
                tally.fail([traceback.format_exc(limit=-3)])
                before = speed.sample()
                continue
            raw = time.perf_counter() - t0
            after = speed.sample()
            latency = raw / (before * after) ** 0.5
            before = after
            tally.raw.append(raw)
            tally.latencies.append(latency)
            tally.by_class.setdefault(case.label, []).append(latency)
            errors = wl.check(inputs, case, out)
            if errors:
                tally.fail(errors)
            if tally.rounds < min_rounds:
                tally.panel.append(out)
        tally.rounds += 1
    return tally


def tail(tally: Tally) -> dict:
    """Highest percentile with TAIL_BEYOND samples beyond it, and the classes of those samples."""
    ordered = sorted((lat, label) for label, lats in tally.by_class.items() for lat in lats)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n  # a short run reports its maximum
    classes: dict[str, int] = {}
    for _, label in ordered[rank - 1:]:
        classes[label] = classes.get(label, 0) + 1
    return {"value": ordered[rank - 1][0], "percentile": 100.0 * rank / n, "samples": n,
            "classes": classes}


def layer_metrics(tracer, traced: Tally, untraced: Tally) -> dict[str, float]:
    busy, calls = tracer.layer_metrics()
    counters = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for name in SPAN_LAYERS:
        values[f"{name}.busy_s"] = busy.get(name, 0.0)
        values[f"{name}.calls"] = calls.get(name, 0)
    for dims in ORACLE_DIMS:
        values[f"oracle.dsep_upper.busy_s.{dims}"] = busy.get(f"oracle.dsep_upper.{dims}", 0.0)
    values["oracle.dsep_upper.iterations"] = counters.get("oracle.dsep_upper.iterations", 0)
    values["oracle.dsep_upper.converged_ratio"] = ratio(
        counters.get("oracle.dsep_upper.converged", 0), calls.get("oracle.dsep_upper", 0)
    )
    for kind in CERT_KINDS:
        values[f"witnesses.certified_ratio.{kind}"] = ratio(
            counters.get(f"witnesses.certified.{kind}", 0), counters.get(f"witnesses.tried.{kind}", 0)
        )
    values["cli.glue_s"] = counters.get("cli.glue_s", 0.0)
    values["trace.op_s"] = sum(traced.raw)
    values["trace.overhead_ratio"] = traced.ops_per_s / untraced.ops_per_s
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, wl=None, min_rounds=None) -> dict:
    """One benchmark run; returns the report with the result under ``"result"``."""
    try:
        loadavg = " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        loadavg = None
    import workloads
    from tracing import NullTracer, Tracer

    wl = wl or workloads.WORKLOADS[workload]()
    min_rounds = wl.min_rounds if min_rounds is None else min_rounds
    speed = Speedometer()
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        raw_setups, slowness = [], [speed.sample()]
        for _ in range(SETUP_REPS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            inputs = wl.build(seed, workdir)
            raw_setups.append(t_import + time.perf_counter() - t0)
            slowness += [speed.sample() for _ in range(SETUP_REF_SAMPLES)]
        # One kernel time next to a child interpreter is noisy; the set-up
        # phase's median slowness scales every repetition.
        setups = [raw / statistics.median(slowness) for raw in raw_setups]
        wl.prepare(inputs)
        paper_errors = workloads.paper_check()
        if trace:
            phase = run_phase(wl, inputs, NullTracer(), speed, min_rounds, 0.0)
            tracer = Tracer()
            traced = run_phase(wl, inputs, tracer, speed, min_rounds, 0.0)
        else:
            phase = run_phase(wl, inputs, NullTracer(), speed, min_rounds, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = phase.attempted + (traced.attempted if trace else 0)
    failed = phase.failed + (traced.failed if trace else 0)
    tail_stats = tail(phase)
    quality = wl.quality(inputs, phase.panel)
    everything = {
        "setup_s": statistics.median(setups),
        "ops_per_s": phase.ops_per_s,
        "latency_p50_s": statistics.median(phase.latencies),
        "latency_tail_s": tail_stats.pop("value"),
        "gap_mean": quality["gap_mean"],
        "certified_ratio": quality["certified_ratio"],
        "fail_ratio": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {**END_TO_END, **REPORT_ONLY}
    if trace:
        chosen, chosen_units = layer_metrics(tracer, traced, phase), PER_LAYER
    else:
        chosen, chosen_units = {k: everything[k] for k in END_TO_END}, END_TO_END
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "env": environment(loadavg),
        "rounds": phase.rounds,
        "setup_s_samples": setups,
        "wall": {
            "setup_s": statistics.median(raw_setups),
            "ops_per_s": len(phase.raw) / sum(phase.raw),
            "latency_p50_s": statistics.median(phase.raw),
            "ref_s_p50": statistics.median(speed.samples),
            "ref_s_quartiles": statistics.quantiles(speed.samples, n=4),
        },
        "latency_tail": tail_stats,
        "latency_p50_by_class": {k: statistics.median(v) for k, v in phase.by_class.items()},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in everything.items()},
        "errors": (paper_errors + phase.errors + (traced.errors if trace else []))[:MAX_ERRORS],
        "result": {
            "correct": failed == 0 and not paper_errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": chosen_units[k]} for k, v in chosen.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("oracle_mixed", "oracle_pure", "certify_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    load_package()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report.pop("result")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
