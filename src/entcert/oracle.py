"""Independent brute-force machinery for cross-checking witness bounds.

``ppt_check`` tests positivity of the partial transpose.  ``dsep_upper``
numerically minimizes || rho - sum_i p_i |a_i b_i><a_i b_i| ||_F over
explicit product ensembles with fully-corrective Frank-Wolfe (Gilbert's
algorithm): product states aligned with the residual join the ensemble
and a simplex-constrained solve re-fits all weights.  Whatever the
optimizer reaches, the returned value is a distance to an explicitly
separable state, hence always a valid upper bound on the true distance.

The restarts are independent.  On Linux, on Python before 3.12, with more
than one usable core and the OpenBLAS that numpy bundles, they run on a
pool of forked worker processes, at most one per core, each pinned to one
BLAS thread; elsewhere, and in ``multiprocessing`` children, they run one
after another in the calling process.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .config import TOLS
from .errors import InvariantViolation
from .io import complex_pairs, payload
from .linalg import hermitian_eig, partial_transpose
from .states import DensityMatrix

_WEIGHT_FLOOR = 1e-14
_REFINE_ROUNDS = 3  # alternating eigenvector rounds per candidate in _top_products
_POOL = None  # the restart pool, built by the first call that can use one
_POOL_WORKERS = 0  # its worker count
_POOL_LOCK = threading.Lock()  # guards building and replacing _POOL


def ppt_check(rho: DensityMatrix) -> tuple[bool, float]:
    """Whether the partial transpose is PSD, plus its minimum eigenvalue."""
    pt = partial_transpose(rho.mat, rho.dims, on="B")
    lo = float(hermitian_eig(pt)[0][0])
    return lo >= -TOLS.psd, lo


@dataclass(frozen=True)
class OracleConfig:
    """Settings for the ensemble minimization.

    Each of ``restarts`` Frank-Wolfe runs stops after ``max_iters``
    iterations, or earlier once its gap falls below ``convergence_tol``.
    """

    restarts: int = 20
    max_iters: int = 2000
    seed: int = 0
    convergence_tol: float = 1e-7

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvariantViolation(f"{name}: must be an integer, got {value!r}")
        if self.restarts < 1:
            raise InvariantViolation(f"restarts: must be positive, got {self.restarts}")
        if self.max_iters < 1:
            raise InvariantViolation(f"max_iters: must be positive, got {self.max_iters}")
        if self.seed < 0:
            raise InvariantViolation(f"seed: must be nonnegative, got {self.seed}")
        if not 0 < self.convergence_tol < math.inf:
            raise InvariantViolation(
                f"convergence_tol: must be positive and finite, got {self.convergence_tol}"
            )


@dataclass
class OracleResult:
    """Best separable approximation found, with its achieving ensemble."""

    dsep_upper: float
    sigma: DensityMatrix
    iterations_used: int
    converged: bool
    weights: np.ndarray = field(repr=False)
    vectors_a: np.ndarray = field(repr=False)  # (dA, k) unit columns
    vectors_b: np.ndarray = field(repr=False)  # (dB, k) unit columns

    def to_json(self) -> dict:
        return {
            "dsep_upper": self.dsep_upper,
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "ensemble": {
                "weights": self.weights.tolist(),
                "vectors_a": complex_pairs(self.vectors_a.T),
                "vectors_b": complex_pairs(self.vectors_b.T),
            },
            "sigma": payload(self.sigma),
        }


def _simplex_lsq(q: np.ndarray, c: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """Minimize p^T Q p - 2 c^T p over the probability simplex.

    Primal active-set iteration from the feasible start ``p0`` (uniform
    when ``p0`` is zero): solve the equality-constrained system on the
    current support and step towards its solution only as far as the
    weights stay nonnegative, dropping the atom that reaches zero; once
    the support is optimal, admit the excluded atom with the most
    negative reduced cost.  No step leaves the simplex or raises the
    objective, so the iteration cap returns a point no worse than ``p0``.

    Each pivot solves the KKT system of its support, in sorted index
    order, from scratch.  The system of the full index set, bordered by
    the unit-sum row, is built once per call, so a pivot gathers its own
    with one ``take`` per axis; ``2Q`` and ``2c`` are exact doublings.
    """
    m = q.shape[0]
    q2, c2 = 2.0 * q, 2.0 * c
    kkt_all = np.ones((m + 1, m + 1))
    kkt_all[:m, :m] = q2
    kkt_all[m, m] = 0.0
    rhs_all = np.append(c2, 1.0)
    p = p0.copy() if p0.any() else np.full(m, 1.0 / m)
    rows = np.append(p > _WEIGHT_FLOOR, True)  # the unit-sum row stays
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
            support &= p > _WEIGHT_FLOOR
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


def _haar_columns(rng: np.random.Generator, d: int, m: int) -> np.ndarray:
    z = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    return z / np.linalg.norm(z, axis=0, keepdims=True)


def _product_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    da, m = a.shape
    db = b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(da * db, m)


def _top_products(r4: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Alternating top-eigenvector search for the best product directions.

    ``a`` and ``b`` hold one candidate per column; all columns are refined
    against the same matrix in a few batched eigendecompositions.
    """
    for _ in range(_REFINE_ROUNDS):
        ma = np.einsum("ijkl,jn,ln->nik", r4, b.conj(), b)
        ma = (ma + np.conj(np.swapaxes(ma, 1, 2))) / 2
        a = np.linalg.eigh(ma)[1][:, :, -1].T
        mb = np.einsum("ijkl,in,kn->njl", r4, a.conj(), a)
        mb = (mb + np.conj(np.swapaxes(mb, 1, 2))) / 2
        b = np.linalg.eigh(mb)[1][:, :, -1].T
    return a, b


def _run_restart(
    rho: np.ndarray,
    dims: tuple[int, int],
    rng: np.random.Generator,
    max_iters: int,
    tol: float,
):
    """One fully-corrective Frank-Wolfe run (Gilbert's algorithm).

    Each iteration refines the active atoms and ``dA*dB`` fresh Haar
    product states against the residual ``R = rho - sigma``, adds every
    refined candidate to the ensemble, re-solves all weights on the
    simplex (warm-started, so the objective never rises) and drops the
    atoms left without weight.  Adding every candidate rather than the
    best few is what lets the atoms move: an old atom and its refined
    copy sit side by side and the weight solve picks between them.  The
    run stops once the Frank-Wolfe gap ``max_x <x|R|x> - Tr(R sigma)``
    over the candidates falls below ``tol``.
    """
    da, db = dims
    avecs = np.empty((da, 0), dtype=complex)
    bvecs = np.empty((db, 0), dtype=complex)
    weights = np.empty(0)
    sigma = np.zeros_like(rho)
    converged = False
    for iters in range(1, max_iters + 1):
        resid = rho - sigma
        cand_a, cand_b = _top_products(
            resid.reshape(da, db, da, db),
            np.concatenate([avecs, _haar_columns(rng, da, da * db)], axis=1),
            np.concatenate([bvecs, _haar_columns(rng, db, da * db)], axis=1),
        )
        cands = _product_columns(cand_a, cand_b)
        top = np.einsum("di,di->i", cands.conj(), resid @ cands).real.max()
        if weights.size and top - np.vdot(sigma, resid).real < tol:
            converged = True
            break
        avecs = np.concatenate([avecs, cand_a], axis=1)
        bvecs = np.concatenate([bvecs, cand_b], axis=1)
        prods = _product_columns(avecs, bvecs)
        q = np.abs(avecs.conj().T @ avecs) ** 2 * np.abs(bvecs.conj().T @ bvecs) ** 2
        c = np.einsum("di,di->i", prods.conj(), rho @ prods).real
        weights = _simplex_lsq(q, c, np.pad(weights, (0, cands.shape[1])))
        keep = weights > _WEIGHT_FLOOR
        weights, avecs, bvecs = weights[keep], avecs[:, keep], bvecs[:, keep]
        prods = prods[:, keep]
        sigma = (prods * weights) @ prods.conj().T
    return float(np.linalg.norm(rho - sigma)), sigma, weights, avecs, bvecs, iters, converged


# argtypes and restype of openblas_{verb}_num_threads
_OPENBLAS_SIGNATURES = {"set": ([ctypes.c_int], None), "get": ([], ctypes.c_int)}


@cache
def _openblas_function(verb: str):
    """``{verb}_num_threads`` of the OpenBLAS bundled with numpy, or None without one."""
    libdir = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (f"scipy_openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads64_",
                       f"openblas_{verb}_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.argtypes, function.restype = _OPENBLAS_SIGNATURES[verb]
                return function
    return None


def _forget_pool():
    """Drop the parent's pool in a forked child: its manager thread was not forked.

    Its workers also leave ``multiprocessing``'s record of this process's
    children, whose exit handler would otherwise try to join them and fail:
    they are the parent's children, not this process's.
    """
    global _POOL, _POOL_WORKERS, _POOL_LOCK
    if _POOL is not None:
        from multiprocessing import process

        process._children.difference_update(_POOL._processes.values())
    _POOL, _POOL_WORKERS, _POOL_LOCK = None, 0, threading.Lock()


if sys.platform == "linux":
    os.register_at_fork(after_in_child=_forget_pool)


def _pool_workers(restarts: int) -> int:
    """Workers a pool for ``restarts`` restarts gets; 0 where the restarts run inline.

    Inline off Linux; on Python 3.12+, whose ``fork`` warns in a process
    with threads, as numpy's OpenBLAS threads always make it; on one usable
    core; without numpy's OpenBLAS; and in a ``multiprocessing`` child.  A
    daemonic child (a ``multiprocessing.Pool`` worker) may not start
    processes, and any other child would hang at exit: ``multiprocessing``
    joins its children there before the pool is shut down.
    """
    if sys.platform != "linux" or sys.version_info >= (3, 12):
        return 0
    cores = len(os.sched_getaffinity(0))
    if cores < 2 or _openblas_function("set") is None:
        return 0
    mp = sys.modules.get("multiprocessing")  # a multiprocessing child has imported it
    if mp is not None and mp.parent_process() is not None:
        return 0
    return min(cores, restarts)


def _init_worker():
    """Pin a pool worker's OpenBLAS to one thread, and end the worker with its parent.

    A worker whose parent is killed (SIGKILL, the out-of-memory killer)
    would otherwise wait on its task queue for good.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    def exit_with_parent(sentinel=multiprocessing.parent_process().sentinel):
        wait([sentinel])
        os._exit(1)

    _openblas_function("set")(1)
    threading.Thread(target=exit_with_parent, daemon=True).start()


def _restart_pool(restarts: int):
    """The process-wide restart pool, built or grown on demand; None where restarts run inline.

    It has one worker per restart of the largest call so far, at most one
    per usable core.  ``fork``, not ``spawn`` or ``forkserver``: those
    re-import ``__main__`` in each worker, which crashes a caller's script
    that lacks an ``if __name__ == "__main__"`` guard.  Each worker pins its
    OpenBLAS to one thread (``_init_worker``).  Unpinned, every worker
    starts one thread per core and the workers' threads spin against each
    other: on a 2-core machine the (4,4) oracle ran 2.3-4.8x slower than in
    one process.  One thread per worker also makes every product round the
    same way on any machine.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        workers = _pool_workers(restarts)
        if not workers:
            return None
        if workers > _POOL_WORKERS:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # a smaller pool left behind shuts down once no caller holds it
            _POOL = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
            )
            _POOL_WORKERS = workers
        return _POOL


def _run_restarts(runs: list[tuple]) -> list[tuple]:
    """``_run_restart(*args)`` for each tuple in ``runs``, in order.

    A pool whose workers died (killed, or out of memory) is replaced once,
    so one lost worker does not fail every later call in the process.
    """
    global _POOL, _POOL_WORKERS
    for attempt in range(2):
        pool = _restart_pool(len(runs))
        if pool is None:
            return [_run_restart(*args) for args in runs]
        from concurrent.futures.process import BrokenProcessPool

        try:
            return list(pool.map(_run_restart, *zip(*runs)))
        except BrokenProcessPool:
            if attempt:
                raise
            with _POOL_LOCK:
                if _POOL is pool:
                    _POOL, _POOL_WORKERS = None, 0
            pool.shutdown()


def dsep_upper(rho: DensityMatrix, cfg: OracleConfig | None = None) -> OracleResult:
    """Upper bound on the Frobenius distance to the separable set.

    Runs ``cfg.restarts`` independently seeded Frank-Wolfe minimizations,
    each capped at ``max_iters`` iterations, and keeps the best, the
    earliest restart on a tie.  On the worker pool each restart runs with
    one BLAS thread, so the output does not depend on the core count or
    on the caller's BLAS thread count; run inline, it uses the caller's
    BLAS, whose threads may round large products differently.
    ``converged`` means the Frank-Wolfe gap over the refined candidates
    fell below ``convergence_tol``.  The candidate search is a heuristic,
    so this is a stall test, not a proof of optimality.  Converged or
    capped, the value is the exact distance to the returned explicit
    ensemble, hence always a valid upper bound.
    """
    cfg = cfg or OracleConfig()
    runs = [
        (rho.mat, rho.dims, np.random.default_rng([cfg.seed, r]), cfg.max_iters, cfg.convergence_tol)
        for r in range(cfg.restarts)
    ]
    # min keeps the first of equal values: the earliest restart wins a tie
    obj, sigma, weights, avecs, bvecs, iters, converged = min(_run_restarts(runs), key=lambda o: o[0])
    return OracleResult(
        dsep_upper=obj,
        sigma=DensityMatrix(dims=rho.dims, mat=sigma),
        iterations_used=iters,
        converged=converged,
        weights=weights,
        vectors_a=avecs,
        vectors_b=bvecs,
    )
