import errno
import gc
import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from entcert import (
    DensityMatrix,
    InvariantViolation,
    NumericalError,
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
from entcert import oracle, save_state
from entcert.cli import main
from entcert.oracle import _simplex_lsq

from conftest import haar_vector, product_columns, random_density, random_hermitian

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
    # the integer fields are checked with every other integer argument, in test_linalg.py
    with pytest.raises(InvariantViolation, match="^convergence_tol:"):
        OracleConfig(convergence_tol=0.0)
    for bad in (float("nan"), float("inf"), -float("inf"), True, np.True_, "1e-9", None, [1e-9]):
        with pytest.raises(InvariantViolation, match="^convergence_tol:"):
            OracleConfig(convergence_tol=bad)


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


def _weight_problems(rng):
    """(q, c, p0): zero and warm starts at three dims, then a repeated atom, whose KKT system is singular."""
    for dims in [(2, 2), (2, 3), (3, 3)]:
        m = 3 * dims[0] * dims[1]
        q, c = _gram_problem(rng, dims, m)
        warm = np.zeros(m)
        warm[: m // 2] = rng.random(m // 2)
        yield q, c, np.zeros(m)
        yield q, c, warm / warm.sum()
    q, c = _gram_problem(rng, (2, 2), 8, repeat=True)
    yield q, c, np.zeros(8)  # the uniform start holds both copies


def test_simplex_lsq_returns_kkt_point(rng, monkeypatch):
    *regular, repeated = _weight_problems(rng)
    for problem in regular:
        _assert_kkt_point(*problem)
    lstsq_calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: lstsq_calls.append(1) or lstsq(*a, **k))
    _assert_kkt_point(*repeated)
    assert lstsq_calls


def _simplex_lsq_reference(q, c, p0):
    """``_simplex_lsq`` through the public ``np.linalg.solve``, whose ``LinAlgError`` marks a singular system."""
    m = q.shape[0]
    q2, c2 = 2.0 * q, 2.0 * c
    kkt_all = np.ones((m + 1, m + 1))
    kkt_all[:m, :m] = q2
    kkt_all[m, m] = 0.0
    rhs_all = np.append(c2, 1.0)
    p = p0.copy() if p0.any() else np.full(m, 1.0 / m)
    rows = np.append(p > oracle._WEIGHT_FLOOR, True)
    support = rows[:m]
    for _ in range(4 * m + 16):
        r = rows.nonzero()[0]
        s, k = r[:-1], r.size - 1
        kkt = kkt_all.take(r, 0).take(r, 1)
        rhs = rhs_all.take(r)
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        if not np.isfinite(sol).all():
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        z, nu = sol[:k], sol[k]
        if z.min() < -1e-12:
            neg = (z < 0).nonzero()[0]
            ps = p[s]
            pn = ps[neg]
            ratios = pn / (pn - z[neg])
            first = ratios.argmin()
            p[s] = ps + ratios[first] * (z - ps)
            p[s[neg[first]]] = 0.0
            support &= p > oracle._WEIGHT_FLOOR
            p[~support] = 0.0
            continue
        p[s] = np.maximum(z, 0.0)
        excluded = (~support).nonzero()[0]
        if excluded.size:
            reduced = (q2 @ p - c2)[excluded] + nu
            worst = reduced.argmin()
            if reduced[worst] < -1e-9:
                support[excluded[worst]] = True
                continue
        return p
    return p


def test_simplex_lsq_matches_the_public_solve_bytes(rng):
    # numpy's private gesv kernel gives the bits of np.linalg.solve, the singular system included
    for q, c, p0 in _weight_problems(rng):
        assert _simplex_lsq(q, c, p0).tobytes() == _simplex_lsq_reference(q, c, p0).tobytes()


@pytest.mark.parametrize("d", [3, 4])
def test_top_vectors_match_the_public_eigh_bytes(rng, d):
    # numpy's private heevd kernel gives the bits of np.linalg.eigh
    stack = np.array([random_hermitian(rng, d) for _ in range(5 * d * d)])
    assert oracle._top_vectors(stack).tobytes() == np.linalg.eigh(stack)[1][:, :, -1].T.tobytes()


def _top_products_reference(r4, a, b):
    """The refinement kernel by three-operand einsums, Hermitian parts and batched eigh."""
    for _ in range(oracle._REFINE_ROUNDS):
        ma = np.einsum("ijkl,jn,ln->nik", r4, b.conj(), b)
        ma = (ma + np.conj(np.swapaxes(ma, 1, 2))) / 2
        a = np.linalg.eigh(ma)[1][:, :, -1].T
        mb = np.einsum("ijkl,in,kn->njl", r4, a.conj(), a)
        mb = (mb + np.conj(np.swapaxes(mb, 1, 2))) / 2
        b = np.linalg.eigh(mb)[1][:, :, -1].T
    return a, b


@pytest.mark.parametrize("dims", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)])
def test_top_products_matches_the_einsum_reference(rng, dims):
    da, db = dims
    d = da * db
    resid = random_density(rng, d) - random_density(rng, d)  # Hermitian and traceless, as rho - sigma
    r4 = resid.reshape(da, db, da, db)
    n = 3 * d
    a = np.stack([haar_vector(rng, da) for _ in range(n)], axis=1)
    b = np.stack([haar_vector(rng, db) for _ in range(n)], axis=1)
    want_a, want_b = _top_products_reference(r4, a, b)
    got_a, got_b = oracle._top_products(r4, a, b)
    for got, want in ((got_a, want_a), (got_b, want_b)):
        assert got.shape == want.shape
        assert np.abs(np.linalg.norm(got, axis=0) - 1).max() <= 1e-12
        # the same vectors up to a phase
        assert np.abs(np.abs(np.einsum("dn,dn->n", want.conj(), got)) - 1).max() <= 1e-12
    value = lambda a, b: np.einsum("dn,dn->n", product_columns(a, b).conj(), resid @ product_columns(a, b)).real
    assert np.abs(value(got_a, got_b) - value(want_a, want_b)).max() <= 1e-12


def test_qubit_top_vectors_on_degenerate_stacks(rng):
    g = random_hermitian(rng, 2)
    stack = np.array([
        np.diag([0.7, -0.2]),  # beta = 0, alpha > gamma
        np.diag([-0.2, 0.7]),  # beta = 0, alpha < gamma
        0.3 * np.eye(2),  # beta = 0, alpha = gamma: c*I
        np.zeros((2, 2)),
        -g @ g.conj().T - 1e-3 * np.eye(2),  # negative definite
        g,
    ], dtype=complex)
    v = oracle._top_vectors(stack)
    assert v.shape == (2, len(stack))
    assert np.abs(np.linalg.norm(v, axis=0) - 1).max() <= 1e-14
    rayleigh = np.einsum("in,nij,jn->n", v.conj(), stack, v).real
    assert np.abs(rayleigh - np.linalg.eigvalsh(stack)[:, -1]).max() <= 1e-14


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
    # the published bound is nearly tight for this state: the oracle lands about 2e-8 above it here
    assert res.dsep_upper <= np.sqrt(2) / 30 + 1e-6


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
    """Every restart's result in this process, in order, and the winner by dsep_upper's rule."""
    results = [oracle._run_restart(rho, cfg, restart) for restart in range(cfg.restarts)]
    best = None
    for res in results:
        if best is None or res.dsep_upper < best.dsep_upper:
            best = res
    return results, best


def _assert_same_bytes(res, want):
    """Two oracle results are equal byte for byte, and ``res.sigma`` is read-only."""
    assert np.float64(res.dsep_upper).tobytes() == np.float64(want.dsep_upper).tobytes()
    assert (res.iterations_used, res.converged) == (want.iterations_used, want.converged)
    assert res.sigma.dims == want.sigma.dims and not res.sigma.mat.flags.writeable
    for got, expected in ((res.sigma.mat, want.sigma.mat), (res.weights, want.weights),
                          (res.vectors_a, want.vectors_a), (res.vectors_b, want.vectors_b)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_oracle_deterministic(rng):
    rho = fixture("bell(2)")
    cfg = OracleConfig(restarts=2, max_iters=100, convergence_tol=1e-9, seed=9)
    a = dsep_upper(rho, cfg)
    b = dsep_upper(rho, cfg)
    assert a.dsep_upper == b.dsep_upper
    assert np.array_equal(a.sigma.mat, b.sigma.mat)
    # shared out between processes or not, the result is the serial loop's winner, byte for byte;
    # with more restarts than two per process, the strided shares come back in restart order
    wishart = DensityMatrix(dims=(2, 3), mat=random_density(rng, 6))
    for state in (wishart, rho):
        for restarts in (1, 2, 3, 5):
            cfg = OracleConfig(restarts=restarts, max_iters=100, convergence_tol=1e-9, seed=9)
            results, best = _serial_reference(state, cfg)
            _assert_same_bytes(dsep_upper(state, cfg), best)
            merged = oracle._run_restarts(state, cfg)
            assert len(merged) == len(results)
            for got, want in zip(merged, results):
                _assert_same_bytes(got, want)
        assert len({res.dsep_upper for res in results}) == 5  # tie-free, so the winner is unique
        assert best is not results[0]  # and it is not simply the first restart


def _spoil_restart(monkeypatch, restart, spoil):
    """Runs ``spoil()`` at the start of that restart; with two processes its share is ``restart % 2``."""
    run = oracle._run_restart

    def spoiled(rho, cfg, r):
        if r == restart:
            spoil()
        return run(rho, cfg, r)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(oracle, "_run_restart", spoiled)


def _fail():
    raise ValueError("restart failed")


def test_oracle_worker_error_reaches_caller(monkeypatch):
    rho = DensityMatrix(dims=(2, 2), mat=np.eye(4) / 4)
    # an error in the caller's share, restart 0
    _spoil_restart(monkeypatch, 0, _fail)
    with pytest.raises(ValueError, match="^restart failed$"):
        dsep_upper(rho, OracleConfig(restarts=3, max_iters=5))
    monkeypatch.undo()
    assert dsep_upper(rho, FAST).dsep_upper <= 1e-6
    # an error in the child's share, after the child has sent restart 1
    _spoil_restart(monkeypatch, 3, _fail)
    with pytest.raises(ValueError, match="^restart failed$"):
        dsep_upper(rho, OracleConfig(restarts=5, max_iters=5))
    monkeypatch.undo()
    assert dsep_upper(rho, FAST).dsep_upper <= 1e-6


UNFORKED = "nothing is forked: one usable core, not Linux, Python 3.12+, no memfd_create or no OpenBLAS setter"
FORKED = OracleConfig(restarts=3, max_iters=100, convergence_tol=1e-9, seed=9)
# these tests fork a process that has BLAS threads, which Python 3.12+ warns about
forks = pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")


def test_oracle_reports_a_killed_restart(monkeypatch, tmp_path, capsys):
    if oracle._fork_workers(FORKED.restarts) == 0:
        pytest.skip(UNFORKED)  # the patched restart below would kill this process
    # the caller runs the even restarts, so only the child is killed
    rho = fixture("bell(2)")
    _spoil_restart(monkeypatch, 1, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(NumericalError, match=r"^oracle restart 1: .*signal 9 "):
        dsep_upper(rho, FORKED)
    save_state(rho, tmp_path / "bell2.json")
    assert main(["oracle", "--state", str(tmp_path / "bell2.json"), "--restarts", "3"]) == 2
    assert "numerical failure: oracle restart 1: " in capsys.readouterr().err
    # the child sends restart 1 before it dies in restart 3
    monkeypatch.undo()
    _spoil_restart(monkeypatch, 3, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(NumericalError, match=r"^oracle restart 3: .*signal 9 "):
        dsep_upper(rho, OracleConfig(restarts=5, max_iters=5))
    monkeypatch.undo()
    _assert_same_bytes(dsep_upper(rho, FORKED), _serial_reference(rho, FORKED)[1])


def _nan_eigh(m, signature):
    """``eigh_lo``'s output for a stack whose every entry failed to converge."""
    return np.full(m.shape[:-1], np.nan), np.full(m.shape, np.nan, dtype=complex)


def _nan_solve(a, b, signature):
    """``solve1``'s output for a singular system."""
    return np.full(b.shape, np.nan)


def _failed_lstsq(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


@pytest.mark.parametrize("kernels", [
    {"eigh_lo": _nan_eigh},  # the eigenvectors' heevd
    {"solve1": _nan_solve, "lstsq": _failed_lstsq},  # the weight solve's gesv, then its fallback
], ids=["eigh", "lstsq"])
def test_oracle_kernel_failure_is_a_numerical_error(monkeypatch, tmp_path, capsys, kernels):
    rho = fixture("bell(3)")  # 3x3, so the eigenvectors come from eigh_lo
    save_state(rho, tmp_path / "bell3.json")
    caller = os.getpid()

    def failing_in(fails):
        """Each kernel, made to fail in the processes whose pid ``fails`` accepts."""
        for name, fake in kernels.items():
            owner = np.linalg if name == "lstsq" else oracle
            real = getattr(owner, name)
            patched = lambda *a, real=real, fake=fake, **k: (fake if fails(os.getpid()) else real)(*a, **k)
            monkeypatch.setattr(owner, name, patched)

    failing_in(lambda pid: True)
    with pytest.raises(NumericalError, match=r"^oracle restart 0: "):
        dsep_upper(rho, OracleConfig(restarts=1, max_iters=5))
    assert main(["oracle", "--state", str(tmp_path / "bell3.json"), "--restarts", "1", "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("entcert: numerical failure: oracle restart 0: ")
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    if oracle._fork_workers(2) == 0:
        return  # UNFORKED: the caller's restarts were checked above
    failing_in(lambda pid: pid != caller)  # only the forked child fails, in restart 1
    with pytest.raises(NumericalError, match=r"^oracle restart 1: "):
        dsep_upper(rho, OracleConfig(restarts=2, max_iters=5))


@forks
def test_oracle_in_a_daemonic_worker():
    # os.fork is allowed in a daemonic multiprocessing.Pool worker, so its restarts fork too
    rho = fixture("bell(2)")
    with multiprocessing.get_context("fork").Pool(1) as workers:
        res = workers.apply_async(dsep_upper, (rho, FORKED)).get(timeout=60)
    _assert_same_bytes(res, _serial_reference(rho, FORKED)[1])


def _oracle_to_queue(rho, cfg, out):
    out.put(dsep_upper(rho, cfg))


@forks
def test_oracle_in_a_process_child_after_a_forked_call():
    # the child forks its own restarts and still exits: it leaves no children to join
    rho = fixture("bell(2)")
    dsep_upper(rho, FORKED)
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=_oracle_to_queue, args=(rho, FORKED, out))
    child.start()
    try:
        res = out.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0, "the child did not exit"
    finally:
        child.kill()
        child.join()
    _assert_same_bytes(res, _serial_reference(rho, FORKED)[1])


@forks
def test_oracle_in_a_bare_fork_after_a_forked_call():
    # the parent's call left nothing behind that the child's own call could trip over
    rho = fixture("bell(2)")
    dsep_upper(rho, FORKED)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports through the pipe and never returns into pytest
        try:
            os.close(read_end)
            res = dsep_upper(rho, FORKED)
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
    _assert_same_bytes(res, _serial_reference(rho, FORKED)[1])


def test_bare_fork_after_a_forked_call_exits_cleanly():
    # the parent's call leaves no children that the exit handler of multiprocessing
    # could take for the child's and try to join, printing a traceback
    probe = (
        f"import os, sys; from entcert import *; dsep_upper(fixture('bell(2)'), {FORKED!r})\n"
        "pid = os.fork()\n"
        "if pid == 0: sys.exit(0)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))"
    )
    # on Python 3.12+ the probe's fork of a process with BLAS threads warns
    cmd = [sys.executable, "-W", "ignore::DeprecationWarning", "-c", probe]
    proc = subprocess.run(cmd, capture_output=True, encoding="utf-8", timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def _python(code, *flags):
    """stdout of ``code`` run in a fresh interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_oracle_under_warnings_as_errors():
    probe = f"from entcert import *; print(repr(dsep_upper(fixture('bell(2)'), {FORKED!r}).dsep_upper))"
    assert _python(probe, "-W", "error") == f"{dsep_upper(fixture('bell(2)'), FORKED).dsep_upper!r}\n"


def test_fork_while_another_thread_runs_the_oracle():
    # the pin lock held by the parent's other thread, which the child lacks, is free in the child
    probe = textwrap.dedent(f"""
        import os, select, signal, threading
        from entcert import *
        from entcert import oracle
        inside, leave, run = threading.Event(), threading.Event(), oracle._run_restart

        def held(*args):  # the thread's call stays in its restart, under the pin lock, until told to leave
            if threading.current_thread() is not threading.main_thread():
                inside.set()
                leave.wait()
            return run(*args)

        oracle._run_restart = held
        cfg = OracleConfig(restarts=1, max_iters=5)
        thread = threading.Thread(target=dsep_upper, args=(fixture('paper_ppt_state'), cfg))
        thread.start()
        inside.wait()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.write(write_end, repr(dsep_upper(fixture('bell(2)'), {FORKED!r}).dsep_upper).encode())
            finally:
                os._exit(0)
        print(os.read(read_end, 100).decode() if select.select([read_end], [], [], 30)[0] else "hung")
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        leave.set()
        thread.join()
    """)
    # on Python 3.12+ the probe's fork of a process with threads warns
    want = f"{dsep_upper(fixture('bell(2)'), FORKED).dsep_upper!r}\n"
    assert _python(probe, "-W", "ignore::DeprecationWarning") == want


def test_no_fork_from_python_3_12(monkeypatch):
    # fork warns there in a process with threads, and numpy's OpenBLAS always has some
    monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    assert oracle._fork_workers(3) == 0


def test_no_fork_without_openblas(monkeypatch):
    # without a thread setter the children's BLAS threads would spin against each other
    monkeypatch.setattr(oracle, "_openblas_function", lambda verb: None)
    assert oracle._fork_workers(3) == 0
    rho = fixture("bell(2)")
    _assert_same_bytes(dsep_upper(rho, FORKED), _serial_reference(rho, FORKED)[1])


def _blas_threads():
    """Thread count of numpy's OpenBLAS in this process, None without one."""
    get = oracle._openblas_function("get")
    return get and get()


def test_restarts_run_one_blas_thread(monkeypatch):
    set_threads = oracle._openblas_function("set")
    if set_threads is None:
        pytest.skip("no OpenBLAS thread setter")
    caller = _blas_threads()
    set_threads(2)  # a count neither the caller's restarts nor the children may run with
    try:
        monkeypatch.setattr(oracle, "_run_restart", lambda *args: _blas_threads())
        state, cfg = fixture("bell(2)"), OracleConfig(restarts=8)
        assert oracle._run_restarts(state, cfg) == [1] * 8  # the patch is forked with the process
        assert _blas_threads() == 2  # the caller's own setting is restored
        # one usable core: the caller runs every restart itself, still on one thread
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert oracle._fork_workers(8) == 0
        assert oracle._run_restarts(state, cfg) == [1] * 8
        assert _blas_threads() == 2
    finally:
        set_threads(caller)


def test_a_call_forks_one_child_per_further_core(monkeypatch):
    if oracle._fork_workers(FORKED.restarts) == 0:
        pytest.skip(UNFORKED)
    fork, forked = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forked.append(os.getpid()) or fork())
    cores = len(os.sched_getaffinity(0))
    for restarts in (2, 20):
        forked.clear()
        dsep_upper(fixture("bell(2)"), OracleConfig(restarts=restarts, max_iters=5))
        assert len(forked) == min(cores, restarts) - 1


def _restart_files():
    """Links of this process's open descriptors that name a restart file."""
    links = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the descriptor of the listing itself, closed by now
            pass
    return [link for link in links if "entcert-restarts" in link]


def test_a_failed_fork_closes_its_file(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    if oracle._fork_workers(FORKED.restarts) == 0:
        pytest.skip(UNFORKED)

    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    set_threads = oracle._openblas_function("set")
    caller = _blas_threads()
    set_threads(2)
    try:
        with pytest.raises(BlockingIOError) as failed:
            dsep_upper(fixture("bell(2)"), FORKED)
        # the held exception's traceback keeps the frame that opened the file, so only a close ends it
        assert _restart_files() == []
        assert _blas_threads() == 2
    finally:
        set_threads(caller)


def test_concurrent_calls_keep_the_callers_blas_threads(rng):
    # one call at a time pins OpenBLAS, so no call takes another's pin for the caller's count
    states = [fixture("bell(2)"), DensityMatrix(dims=(2, 3), mat=random_density(rng, 6))] * 2
    caller = _blas_threads()
    results = [None] * len(states)

    def call(i):
        results[i] = dsep_upper(states[i], FORKED)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(states))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for state, res in zip(states, results):
        _assert_same_bytes(res, _serial_reference(state, FORKED)[1])
    assert _blas_threads() == caller


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_restart_children_exit_with_their_parent():
    # a caller killed in the middle of a call takes its restart children with it
    children = oracle._fork_workers(FORKED.restarts)
    if children == 0:
        pytest.skip(UNFORKED)
    probe = (
        "import os, time; from entcert import *; from entcert import oracle\n"
        "oracle._run_restart = lambda *args: os.write(1, b'%d\\n' % os.getpid()) and time.sleep(120)\n"
        f"dsep_upper(fixture('bell(2)'), {FORKED!r})"
    )
    with subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE, encoding="utf-8") as parent:
        try:
            # every process of the call reports once: the caller, running its share, and each child
            pids = {int(parent.stdout.readline()) for _ in range(children + 1)}
        finally:
            parent.kill()  # no cleanup runs in the parent
    workers = sorted(pids - {parent.pid})
    assert len(workers) == children
    deadline = time.monotonic() + 30
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = [pid for pid in workers if _alive(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert alive == []


def test_import_and_forked_call_load_no_multiprocessing():
    # multiprocessing and concurrent.futures take about 20 ms to import (2-core x86); neither import nor a call pays
    imported = "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    probe = f"import sys; from entcert import *\n{imported}\ndsep_upper(fixture('bell(2)'), {FORKED!r})\n{imported}"
    assert _python(probe) == "[]\n[]\n"


def test_forked_calls_leave_no_cyclic_garbage():
    if oracle._fork_workers(FORKED.restarts) == 0:
        pytest.skip(UNFORKED)
    rho = fixture("bell(2)")
    dsep_upper(rho, FORKED)  # what a process resolves once, such as the OpenBLAS functions, is kept
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it finds unreachable in gc.garbage
    try:
        for _ in range(3):
            dsep_upper(rho, FORKED)
        gc.collect()
        left = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert left == []


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
