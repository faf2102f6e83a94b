import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from entcert import (
    DensityMatrix,
    InvariantViolation,
    OracleConfig,
    PureState,
    RotationSet,
    dsep_upper,
    fixture,
    gellmann,
    mub_bound,
    mub_family,
    mub_witness,
    ppt_check,
    spin_bound,
)
from entcert import oracle
from entcert.oracle import _simplex_lsq

from conftest import haar_vector, product_columns, random_density

FAST = OracleConfig(restarts=3, max_iters=250, convergence_tol=1e-9, seed=11)


def test_ppt_check_product_state():
    vec = np.zeros(4)
    vec[0] = 1.0
    ok, lo = ppt_check(DensityMatrix(dims=(2, 2), mat=np.outer(vec, vec)))
    assert ok
    assert lo == pytest.approx(0.0, abs=1e-12)


def test_ppt_check_bell():
    ok, lo = ppt_check(fixture("bell(2)"))
    assert not ok
    assert lo == pytest.approx(-0.5, abs=1e-12)


def test_ppt_check_paper_state():
    ok, lo = ppt_check(fixture("paper_ppt_state"))
    assert ok
    assert lo >= -1e-12


def test_config_validation():
    with pytest.raises(InvariantViolation):
        OracleConfig(restarts=0)
    with pytest.raises(InvariantViolation):
        OracleConfig(max_iters=0)
    with pytest.raises(InvariantViolation):
        OracleConfig(convergence_tol=0.0)
    with pytest.raises(InvariantViolation):
        OracleConfig(seed=-1)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvariantViolation, match="^convergence_tol:"):
            OracleConfig(convergence_tol=bad)
    for name in ("restarts", "max_iters", "seed"):
        for bad in (2.5, 3.0, True, "3", None):
            with pytest.raises(InvariantViolation, match=f"^{name}:"):
                OracleConfig(**{name: bad})
    assert OracleConfig(restarts=np.int64(2), seed=np.int64(5)).restarts == 2


def _gram_problem(rng, dims, m, repeat=False):
    """Weight problem of m Haar product atoms against a Wishart state."""
    da, db = dims
    a = np.stack([haar_vector(rng, da) for _ in range(m)], axis=1)
    b = np.stack([haar_vector(rng, db) for _ in range(m)], axis=1)
    if repeat:  # the last atom repeats the first: a singular KKT system
        a[:, -1], b[:, -1] = a[:, 0], b[:, 0]
    x = product_columns(a, b)
    rho = random_density(rng, da * db)
    q = np.abs(a.conj().T @ a) ** 2 * np.abs(b.conj().T @ b) ** 2
    c = np.einsum("di,di->i", x.conj(), rho @ x).real
    return q, c


def _assert_kkt_point(q, c, p0):
    m = q.shape[0]
    start = p0 if p0.any() else np.full(m, 1.0 / m)
    p = _simplex_lsq(q, c, p0)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-12
    objective = lambda v: v @ q @ v - 2 * c @ v
    assert objective(p) <= objective(start) + 1e-15
    grad = 2 * q @ p - 2 * c
    on = p > 0
    nu = -grad[on].mean()
    assert np.abs(grad[on] + nu).max() <= 1e-9
    assert (grad[~on] + nu).min(initial=0.0) >= -1e-9


def test_simplex_lsq_returns_kkt_point(rng, monkeypatch):
    for dims in [(2, 2), (2, 3), (3, 3)]:
        m = 3 * dims[0] * dims[1]
        q, c = _gram_problem(rng, dims, m)
        warm = np.zeros(m)
        warm[: m // 2] = rng.random(m // 2)
        _assert_kkt_point(q, c, np.zeros(m))
        _assert_kkt_point(q, c, warm / warm.sum())
    lstsq_calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: lstsq_calls.append(1) or lstsq(*a, **k))
    q, c = _gram_problem(rng, (2, 2), 8, repeat=True)
    _assert_kkt_point(q, c, np.zeros(8))  # the uniform start holds both copies
    assert lstsq_calls


def test_oracle_separable_state_reaches_zero():
    vec = np.zeros(4)
    vec[0] = 1.0
    rho = DensityMatrix(dims=(2, 2), mat=np.outer(vec, vec))
    res = dsep_upper(rho, FAST)
    assert res.dsep_upper <= 1e-6


def test_oracle_bell2_matches_tight_witness_bound():
    # the three-basis witness bound 1/sqrt(3) is tight for the Bell state;
    # the optimizer must land on it from above
    rho = fixture("bell(2)")
    res = dsep_upper(rho, OracleConfig(restarts=5, max_iters=400, convergence_tol=1e-10, seed=2))
    w = mub_witness(mub_family(2, 3), RotationSet.identity(2, 3))
    lower = mub_bound(w, 3, rho).dsep_lower
    assert lower == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    assert res.dsep_upper >= lower - 1e-9
    assert res.dsep_upper == pytest.approx(lower, abs=1e-4)


def test_oracle_bell3_matches_tight_witness_bound():
    rho = fixture("bell(3)")
    res = dsep_upper(rho, OracleConfig(restarts=4, max_iters=400, convergence_tol=1e-10, seed=2))
    w = mub_witness(mub_family(3, 4), RotationSet.identity(3, 4))
    lower = mub_bound(w, 4, rho).dsep_lower
    assert res.dsep_upper >= lower - 1e-9
    assert res.dsep_upper == pytest.approx(lower, abs=1e-4)


def test_oracle_paper_state_brackets_lower_bound():
    rho = fixture("paper_ppt_state")
    res = dsep_upper(rho, OracleConfig(restarts=3, max_iters=300, convergence_tol=1e-9, seed=5))
    assert res.dsep_upper >= np.sqrt(2) / 30 - 1e-9
    # the published bound is nearly tight for this state
    assert res.dsep_upper <= np.sqrt(2) / 30 + 1e-3


def test_oracle_never_exceeds_dephasing_distance(rng):
    # the Schmidt-dephased mixture is a feasible point, so a converged run
    # must do at least as well
    for dims in [(2, 2), (3, 3)]:
        for k in range(3):
            vec = haar_vector(rng, dims[0] * dims[1])
            psi = PureState(dims=dims, vec=vec)
            lam = np.linalg.svd(vec.reshape(dims), compute_uv=False) ** 2
            formula = np.sqrt(1 - np.sum(lam**2))
            res = dsep_upper(psi.projector(), FAST)
            assert res.dsep_upper <= formula + 1e-3


def test_oracle_separable_mixtures_unequal_dims(rng):
    # the local reshapes must keep dA and dB apart
    for da, db in [(2, 3), (3, 2), (2, 4), (4, 2)]:
        n = da * db + 2
        a = np.stack([haar_vector(rng, da) for _ in range(n)], axis=1)
        b = np.stack([haar_vector(rng, db) for _ in range(n)], axis=1)
        p = rng.random(n)
        cols = product_columns(a, b)
        rho = DensityMatrix(dims=(da, db), mat=(cols * (p / p.sum())) @ cols.conj().T)
        res = dsep_upper(rho, FAST)
        assert res.dsep_upper <= 1e-6
        assert res.converged


def test_oracle_monotone_in_restarts():
    rho = fixture("bell(2)")
    values = [
        dsep_upper(rho, OracleConfig(restarts=r, max_iters=120, convergence_tol=1e-9, seed=3)).dsep_upper
        for r in (1, 2, 3, 4)
    ]
    assert all(values[i + 1] <= values[i] + 1e-15 for i in range(3))


def _serial_reference(rho, cfg):
    """Every restart in this process, in order, and the winner by dsep_upper's rule."""
    outcomes = [
        oracle._run_restart(
            rho.mat, rho.dims, np.random.default_rng([cfg.seed, r]), cfg.max_iters, cfg.convergence_tol
        )
        for r in range(cfg.restarts)
    ]
    best = None
    for outcome in outcomes:
        if best is None or outcome[0] < best[0]:
            best = outcome
    return outcomes, best


def _assert_same_bytes(res, outcome):
    obj, sigma, weights, avecs, bvecs, iters, converged = outcome
    assert np.float64(res.dsep_upper).tobytes() == np.float64(obj).tobytes()
    assert (res.iterations_used, res.converged) == (iters, converged)
    for got, want in ((res.sigma.mat, sigma), (res.weights, weights),
                      (res.vectors_a, avecs), (res.vectors_b, bvecs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_oracle_deterministic(rng):
    rho = fixture("bell(2)")
    cfg = OracleConfig(restarts=2, max_iters=100, convergence_tol=1e-9, seed=9)
    a = dsep_upper(rho, cfg)
    b = dsep_upper(rho, cfg)
    assert a.dsep_upper == b.dsep_upper
    assert np.array_equal(a.sigma.mat, b.sigma.mat)
    # pooled or inline, the result is the serial loop's winner, byte for byte
    wishart = DensityMatrix(dims=(2, 3), mat=random_density(rng, 6))
    for state in (wishart, rho):
        for restarts in (1, 2, 3):
            cfg = OracleConfig(restarts=restarts, max_iters=100, convergence_tol=1e-9, seed=9)
            outcomes, best = _serial_reference(state, cfg)
            _assert_same_bytes(dsep_upper(state, cfg), best)
        assert len({o[0] for o in outcomes}) == 3  # tie-free, so the winner is unique
        assert best is not outcomes[0]  # and it is not simply the first restart


def test_oracle_worker_error_reaches_caller():
    rho = DensityMatrix(dims=(2, 2), mat=np.eye(4) / 4)
    rho.dims = (2, 3)  # a 4x4 matrix the restarts cannot reshape
    with pytest.raises(ValueError, match="reshape"):
        dsep_upper(rho, OracleConfig(restarts=3, max_iters=5))
    pool = oracle._POOL
    rho.dims = (2, 2)
    assert dsep_upper(rho, FAST).dsep_upper <= 1e-6
    assert oracle._POOL is pool  # an error in a restart leaves the workers alive


INLINE = "restarts run inline: one usable core, not Linux, Python 3.12+ or no OpenBLAS setter"
POOLED = OracleConfig(restarts=3, max_iters=100, convergence_tol=1e-9, seed=9)
# these tests fork a process that has BLAS threads, which Python 3.12+ warns about
forks = pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")


def test_oracle_replaces_a_broken_pool():
    rho = fixture("bell(2)")
    pool = oracle._restart_pool(POOLED.restarts)
    if pool is None:
        pytest.skip(INLINE)
    dsep_upper(rho, POOLED)  # every worker forked and idle
    for worker in multiprocessing.active_children():  # the pool's workers are our only children
        worker.kill()
    _assert_same_bytes(dsep_upper(rho, POOLED), _serial_reference(rho, POOLED)[1])
    assert oracle._POOL is not pool
    _assert_same_bytes(dsep_upper(rho, POOLED), _serial_reference(rho, POOLED)[1])


@forks
def test_oracle_in_a_daemonic_worker():
    # a multiprocessing.Pool worker may not start children, so its restarts run inline
    rho = fixture("bell(2)")
    with multiprocessing.get_context("fork").Pool(1) as workers:
        res = workers.apply_async(dsep_upper, (rho, POOLED)).get(timeout=60)
    _assert_same_bytes(res, _serial_reference(rho, POOLED)[1])


def _oracle_to_queue(rho, cfg, out):
    out.put(dsep_upper(rho, cfg))


@forks
def test_oracle_in_a_process_child_after_a_pooled_call():
    # the child runs inline: a pool of its own would keep it from exiting
    rho = fixture("bell(2)")
    dsep_upper(rho, POOLED)
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=_oracle_to_queue, args=(rho, POOLED, out))
    child.start()
    try:
        res = out.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0, "the child did not exit"
    finally:
        child.kill()
        child.join()
    _assert_same_bytes(res, _serial_reference(rho, POOLED)[1])


@forks
def test_oracle_in_a_bare_fork_after_a_pooled_call():
    # the child drops the parent's pool, whose manager thread it lacks, and builds its own
    rho = fixture("bell(2)")
    dsep_upper(rho, POOLED)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports through the pipe and never returns into pytest
        try:
            os.close(read_end)
            res = dsep_upper(rho, POOLED)
            if oracle._POOL is not None:
                oracle._POOL.shutdown()
            with os.fdopen(write_end, "wb") as out:
                pickle.dump(res, out)
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as report:
            assert select.select([report], [], [], 60)[0], "the forked child hung"
            res = pickle.load(report)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    _assert_same_bytes(res, _serial_reference(rho, POOLED)[1])


def test_bare_fork_after_a_pooled_call_exits_cleanly():
    # the child must not inherit the parent's workers as its own children, or the exit
    # handler of multiprocessing tries to join them and prints a traceback
    probe = (
        f"import os, sys; from entcert import *; dsep_upper(fixture('bell(2)'), {POOLED!r})\n"
        "pid = os.fork()\n"
        "if pid == 0: sys.exit(0)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))"
    )
    # on Python 3.12+ the probe's fork of a process with BLAS threads warns
    cmd = [sys.executable, "-W", "ignore::DeprecationWarning", "-c", probe]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def _python(code, *flags):
    """stdout of ``code`` run in a fresh interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_oracle_under_warnings_as_errors():
    probe = f"from entcert import *; print(repr(dsep_upper(fixture('bell(2)'), {POOLED!r}).dsep_upper))"
    assert _python(probe, "-W", "error") == f"{dsep_upper(fixture('bell(2)'), POOLED).dsep_upper!r}\n"


def test_pool_workers_follow_restarts():
    # a pool forks one worker per restart of the largest call so far, at most one per core
    # and the smaller pool it replaces lets its workers go
    probe = (
        "import multiprocessing, time; from entcert import *; from entcert import oracle\n"
        "for restarts in (1, 3, 2):\n"
        "    dsep_upper(fixture('bell(2)'), OracleConfig(restarts=restarts, max_iters=20))\n"
        "    deadline = time.monotonic() + 30\n"
        "    while len(multiprocessing.active_children()) > oracle._POOL_WORKERS and time.monotonic() < deadline:\n"
        "        time.sleep(0.05)\n"
        "    print(oracle._POOL_WORKERS, len(multiprocessing.active_children()))"
    )
    one, three = oracle._pool_workers(1), oracle._pool_workers(3)
    assert one in (0, 1) and three <= 3
    assert _python(probe) == f"{one} {one}\n{three} {three}\n{three} {three}\n"


def test_no_pool_from_python_3_12(monkeypatch):
    # fork warns there in a process with threads, and numpy's OpenBLAS always has some
    monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    assert oracle._pool_workers(3) == 0


def test_no_pool_without_openblas(monkeypatch):
    # without a thread setter the workers' BLAS threads would spin against each other
    monkeypatch.setattr(oracle, "_openblas_function", lambda verb: None)
    assert oracle._pool_workers(3) == 0
    rho = fixture("bell(2)")
    _assert_same_bytes(dsep_upper(rho, POOLED), _serial_reference(rho, POOLED)[1])


def _blas_threads():
    """Thread count of numpy's OpenBLAS in this process."""
    return oracle._openblas_function("get")()


def test_pool_workers_run_one_blas_thread():
    pool = oracle._restart_pool(2)
    if pool is None:
        pytest.skip(INLINE)
    caller = _blas_threads()
    assert [f.result(timeout=60) for f in [pool.submit(_blas_threads) for _ in range(8)]] == [1] * 8
    assert _blas_threads() == caller  # the caller's own setting is left alone


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_pool_workers_exit_with_their_parent():
    if oracle._pool_workers(POOLED.restarts) == 0:
        pytest.skip(INLINE)
    probe = (
        f"import multiprocessing, time; from entcert import *; dsep_upper(fixture('bell(2)'), {POOLED!r})\n"
        "print(*[p.pid for p in multiprocessing.active_children()], flush=True); time.sleep(120)"
    )
    with subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True) as parent:
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.kill()  # no cleanup runs in the parent
    assert len(workers) == oracle._pool_workers(POOLED.restarts)
    deadline = time.monotonic() + 30
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = [pid for pid in workers if _alive(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert alive == []


def test_import_builds_no_pool():
    # the pool modules take about 20 ms to import (2-core x86); only the first oracle call pays
    probe = "import sys, entcert; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    assert _python(probe) == "[]\n"


def test_oracle_ensemble_reconstructs_sigma(rng):
    rho = DensityMatrix(dims=(2, 2), mat=random_density(rng, 4))
    res = dsep_upper(rho, FAST)
    assert abs(np.linalg.norm(rho.mat - res.sigma.mat) - res.dsep_upper) < 1e-9
    assert np.abs(np.linalg.norm(res.vectors_a, axis=0) - 1).max() < 1e-12
    assert np.abs(np.linalg.norm(res.vectors_b, axis=0) - 1).max() < 1e-12
    assert res.weights.min() > 0
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)
    cols = product_columns(res.vectors_a, res.vectors_b)
    rebuilt = (cols * res.weights) @ cols.conj().T
    assert np.abs(rebuilt - res.sigma.mat).max() < 1e-12
    ok, _ = ppt_check(res.sigma)
    assert ok  # 2x2: PPT iff separable, so the output really is separable


def test_oracle_nonconvergence_still_valid():
    rho = fixture("bell(3)")
    res = dsep_upper(rho, OracleConfig(restarts=1, max_iters=2, convergence_tol=1e-12, seed=0))
    assert not res.converged
    assert res.iterations_used == 2
    # still a distance to an explicit separable state
    assert abs(np.linalg.norm(rho.mat - res.sigma.mat) - res.dsep_upper) < 1e-9
    assert res.dsep_upper >= 1 / np.sqrt(2) - 1e-9  # true distance for bell(3)


def test_oracle_sandwich_random_states(rng):
    cheap = OracleConfig(restarts=2, max_iters=60, convergence_tol=1e-8, seed=1)
    for d in (2, 3):
        gens = gellmann(d)
        witnesses = [
            (count, mub_witness(mub_family(d, count), RotationSet.identity(d, count)))
            for count in range(2, d + 2)
        ]
        for _ in range(5):
            rho = DensityMatrix(dims=(d, d), mat=random_density(rng, d * d))
            upper = dsep_upper(rho, cheap).dsep_upper
            for count, w in witnesses:
                assert mub_bound(w, count, rho).dsep_lower <= upper + 1e-9
            assert spin_bound(rho, gens).dsep_lower <= upper + 1e-9


def test_oracle_result_json():
    res = dsep_upper(fixture("bell(2)"), OracleConfig(restarts=1, max_iters=50, convergence_tol=1e-8, seed=0))
    payload = res.to_json()
    assert set(payload) == {"dsep_upper", "iterations_used", "converged", "ensemble", "sigma"}
    assert len(payload["ensemble"]["weights"]) == len(payload["ensemble"]["vectors_a"])
