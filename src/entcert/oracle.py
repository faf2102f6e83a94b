"""Independent brute-force machinery for cross-checking witness bounds.

``ppt_check`` tests positivity of the partial transpose.  ``dsep_upper``
numerically minimizes || rho - sum_i p_i |a_i b_i><a_i b_i| ||_F over
explicit product ensembles with fully-corrective Frank-Wolfe (Gilbert's
algorithm): product states aligned with the residual join the ensemble
and a simplex-constrained solve re-fits all weights.  The candidates are
aligned with the residual in alternating rounds of local top
eigenvectors: each half-round builds every candidate's local matrix in
one matrix product and takes their top eigenvectors in one batch, in
closed form on a qubit.  Whatever the optimizer reaches, the returned
value is a distance to an explicitly separable state, hence always a
valid upper bound on the true distance.

The weight solves and the eigenvectors call ``solve1`` and ``eigh_lo``,
the LAPACK gufuncs behind ``np.linalg.solve`` and ``np.linalg.eigh``, from
numpy's private ``numpy.linalg._umath_linalg``: the same bits without the
wrappers' per-call dispatch, which costs about as much as a small solve.
A kernel that fails raises ``NumericalError``.

The restarts are independent and, wherever numpy's OpenBLAS is found, run
on one BLAS thread.  On Linux before Python 3.12 the caller runs its share
and forks a child for each further usable core; elsewhere it runs them all.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, solve1

from .errors import InvariantViolation, NumericalError
from .io import complex_pairs, payload
from .linalg import PSD_TOL, as_integer, as_real, hermitian_eig, partial_transpose, product_columns
from .states import DensityMatrix

_WEIGHT_FLOOR = 1e-14
_REFINE_ROUNDS = 3  # alternating eigenvector rounds per candidate in _top_products


def ppt_check(rho: DensityMatrix) -> tuple[bool, float]:
    """Whether the partial transpose is PSD, plus its minimum eigenvalue."""
    pt = partial_transpose(rho.mat, rho.dims, on="B")
    lo = float(hermitian_eig(pt)[0][0])
    return lo >= -PSD_TOL, lo


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
        for name, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, least))
        tol = as_real(self.convergence_tol, "convergence_tol")
        if tol <= 0:
            raise InvariantViolation(f"convergence_tol: must be positive, got {tol!r}")
        object.__setattr__(self, "convergence_tol", tol)


@dataclass
class OracleResult:
    """A separable approximation and its ensemble, from one restart or the best of ``dsep_upper``'s."""

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
    order, from scratch, with one LU solve (``gesv``, through ``solve1``).
    The system of the full index set, bordered by the unit-sum row, is
    built once per call, so a pivot gathers its own with one ``take`` per
    axis; ``2Q`` and ``2c`` are exact doublings.  A singular system comes
    back as NaN, and a non-finite solution of any cause is replaced by the
    least-squares one, the only fallback.
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
    # np.linalg.solve's errstate, less the callback that turns the invalid
    # flag of a singular system into LinAlgError: solve1 returns it as NaN
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(4 * m + 16):
            r = rows.nonzero()[0]
            s, k = r[:-1], r.size - 1
            kkt = kkt_all.take(r, 0).take(r, 1)
            rhs = rhs_all.take(r)
            sol = solve1(kkt, rhs, signature="dd->d")
            if not np.isfinite(sol).all():  # singular, or overflowed
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


def _top_vectors(m: np.ndarray) -> np.ndarray:
    """Unit top eigenvectors, one column per matrix, of a Hermitian stack read from its lower triangles.

    2x2 matrices ``[[alpha, *], [beta, gamma]]`` take the closed form: with
    ``h = (alpha - gamma)/2`` and ``r = hypot(h, |beta|)``, the vector
    ``(h + r, beta)`` for ``h >= 0``, else ``(conj(beta), r - h)``, so its
    real entry adds two nonnegative terms and never cancels; ``c*I``
    (``r = 0``) gets ``e0``.  Other sizes go to ``eigh_lo``, the heevd kernel
    of ``np.linalg.eigh``, which also reads only the lower triangle; an entry
    it cannot converge comes back as NaN and raises ``NumericalError``.
    """
    if m.shape[1] != 2:
        top = eigh_lo(m, signature="D->dD")[1][:, :, -1].T
        if not np.isfinite(top).all():  # eigh_lo's NaN for a stack entry that did not converge
            raise NumericalError("eigendecomposition did not converge")
        return top
    h = (m[:, 0, 0].real - m[:, 1, 1].real) / 2
    beta = m[:, 1, 0]
    beta_abs = np.abs(beta)
    r = np.hypot(h, beta_abs)
    s = np.where(r > 0, r + np.abs(h), 1.0)  # h + r or r - h
    lead = h >= 0
    v = np.stack([np.where(lead, s, beta.conj()), np.where(lead, beta, s)])
    return v / np.hypot(s, beta_abs)


def _top_products(r4: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Alternating top-eigenvector search for the best product directions.

    ``a`` and ``b`` hold one candidate per column; all columns are refined
    against the same residual ``r4[i, j, k, l] = R[(i, j), (k, l)]``.  It is
    laid out once as ``R_A[(i, k), (j, l)]`` and ``R_B[(j, l), (i, k)]``, so
    the local matrices ``<b|R|b>`` of every column come from one product of
    the rows ``conj(b_j) b_l`` with ``R_B``, and ``<a|R|a>`` likewise from
    ``R_A``; each half-round ends in one batched ``_top_vectors``.
    """
    da, db = r4.shape[:2]
    r_a = r4.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    r_b = r4.transpose(1, 3, 0, 2).reshape(db * db, da * da)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):  # as np.linalg.eigh's, less its callback
        for _ in range(_REFINE_ROUNDS):
            a = _top_vectors((product_columns(b.conj(), b).T @ r_b).reshape(-1, da, da))
            b = _top_vectors((product_columns(a.conj(), a).T @ r_a).reshape(-1, db, db))
    return a, b


def _run_restart(rho: DensityMatrix, cfg: OracleConfig, restart: int) -> OracleResult:
    """One fully-corrective Frank-Wolfe run (Gilbert's algorithm), seeded ``[cfg.seed, restart]``.

    Each iteration refines the active atoms and ``dA*dB`` fresh Haar
    product states against the residual ``R = rho - sigma``, adds every
    refined candidate to the ensemble, re-solves all weights on the
    simplex (warm-started, so the objective never rises) and drops the
    atoms left without weight.  Adding every candidate rather than the
    best few is what lets the atoms move: an old atom and its refined
    copy sit side by side and the weight solve picks between them.  The
    run stops once the Frank-Wolfe gap ``max_x <x|R|x> - Tr(R sigma)``
    over the candidates falls below ``cfg.convergence_tol``.  A kernel that
    fails raises ``NumericalError`` naming the restart.
    """
    rng = np.random.default_rng([cfg.seed, restart])
    da, db = rho.dims
    avecs = np.empty((da, 0), dtype=complex)
    bvecs = np.empty((db, 0), dtype=complex)
    weights = np.empty(0)
    sigma = np.zeros_like(rho.mat)
    converged = False
    try:
        for iters in range(1, cfg.max_iters + 1):
            resid = rho.mat - sigma
            cand_a, cand_b = _top_products(
                resid.reshape(da, db, da, db),
                np.concatenate([avecs, _haar_columns(rng, da, da * db)], axis=1),
                np.concatenate([bvecs, _haar_columns(rng, db, da * db)], axis=1),
            )
            cands = product_columns(cand_a, cand_b)
            top = np.einsum("di,di->i", cands.conj(), resid @ cands).real.max()
            if weights.size and top - np.vdot(sigma, resid).real < cfg.convergence_tol:
                converged = True
                break
            avecs = np.concatenate([avecs, cand_a], axis=1)
            bvecs = np.concatenate([bvecs, cand_b], axis=1)
            prods = product_columns(avecs, bvecs)
            q = np.abs(avecs.conj().T @ avecs) ** 2 * np.abs(bvecs.conj().T @ bvecs) ** 2
            c = np.einsum("di,di->i", prods.conj(), rho.mat @ prods).real
            weights = _simplex_lsq(q, c, np.concatenate([weights, np.zeros(cands.shape[1])]))
            keep = weights > _WEIGHT_FLOOR
            weights, avecs, bvecs = weights[keep], avecs[:, keep], bvecs[:, keep]
            prods = prods[:, keep]
            sigma = (prods * weights) @ prods.conj().T
    except (np.linalg.LinAlgError, NumericalError) as exc:  # from lstsq or _top_vectors
        raise NumericalError(f"oracle restart {restart}: {exc}") from exc
    return OracleResult(dsep_upper=float(np.linalg.norm(rho.mat - sigma)),
                        sigma=DensityMatrix(dims=rho.dims, mat=sigma), iterations_used=iters,
                        converged=converged, weights=weights, vectors_a=avecs, vectors_b=bvecs)


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


@cache
def _prctl():
    """libc's ``prctl``; a ``ctypes`` handle holds reference cycles, so one is made per process."""
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    return prctl


def _fork_workers(restarts: int) -> int:
    """Children forked to share the restarts with the caller: one per further core and restart.

    None off Linux; on Python 3.12+, whose ``fork`` warns in a process with threads, as numpy's
    OpenBLAS makes it; without ``memfd_create``; and without numpy's OpenBLAS, which the caller pins.
    """
    if (sys.platform != "linux" or sys.version_info >= (3, 12) or not hasattr(os, "memfd_create")
            or _openblas_function("set") is None):
        return 0
    return min(len(os.sched_getaffinity(0)), restarts) - 1


def _fork_share(rho: DensityMatrix, cfg: OracleConfig, restarts: range):
    """Pid and file of a forked child that pickles into it the result of each restart in ``restarts``."""
    parent = os.getpid()
    prctl = _prctl()  # resolved before the fork, so the child only calls it
    report = os.fdopen(os.memfd_create("entcert-restarts"), "w+b")  # unlike a pipe, never full
    try:
        pid = os.fork()
    except BaseException:
        report.close()
        raise
    if pid:
        return pid, report
    try:
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG: die with the parent, even a killed one
        if os.getppid() == parent:  # else the parent died before the line above
            try:
                for restart in restarts:
                    pickle.dump(_run_restart(rho, cfg, restart), report)
                    report.flush()
            except Exception as exc:
                pickle.dump(exc, report)
                report.flush()
            os._exit(0)
    finally:
        os._exit(1)


_PIN_LOCK = threading.Lock()  # held by the call that has pinned OpenBLAS to one thread
if hasattr(os, "register_at_fork"):  # a forked child gets it free: a thread holding it is not copied
    os.register_at_fork(after_in_child=_PIN_LOCK._at_fork_reinit)  # as concurrent.futures does


def _run_restarts(rho: DensityMatrix, cfg: OracleConfig) -> list[OracleResult]:
    """``_run_restart(rho, cfg, r)`` for each of the ``cfg.restarts`` restarts, in order.

    With ``n = _fork_workers + 1`` processes, share ``s`` holds the
    restarts ``range(cfg.restarts)[s::n]``: the caller runs share 0 and a
    child forked for each other share, which inherits ``rho`` and ``cfg``,
    sends back its results or error; each is reaped before this returns.
    ``fork``: ``spawn`` and ``forkserver`` re-import ``__main__``, which
    crashes a script without a ``__main__`` guard.

    The call runs on one OpenBLAS thread, pinned under the lock and then
    restored to the caller's count, so products round alike under any
    caller's setting.  Unpinned, the processes' threads spin against each
    other (the (4,4) oracle ran 2.3-4.8x slower on 2 cores); pinned in a
    fresh child, OpenBLAS restarts its thread server, which doubled the
    CPU time of short 3x3 restarts.
    """
    n = _fork_workers(cfg.restarts) + 1
    shares = [range(cfg.restarts)[s::n] for s in range(n)]
    set_threads = _openblas_function("set") or (lambda count: None)  # no-ops without numpy's OpenBLAS
    get_threads = _openblas_function("get") or (lambda: None)
    results = [None] * cfg.restarts
    children = []  # (share, pid, file) of each child not yet reaped
    with _PIN_LOCK:
        caller_threads = get_threads()
        set_threads(1)
        try:
            children.extend((share, *_fork_share(rho, cfg, share)) for share in shares[1:])
            results[::n] = [_run_restart(rho, cfg, restart) for restart in shares[0]]
            while children:
                share, pid, report = children[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                children.pop(0)
                with report:
                    report.seek(0)
                    for restart in share:
                        try:
                            results[restart] = pickle.load(report)
                        except (EOFError, pickle.UnpicklingError):  # the child died in this restart
                            end = f"signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exit code {code}"
                            raise NumericalError(f"oracle restart {restart}: its process ended with {end}") from None
                        if isinstance(results[restart], Exception):
                            raise results[restart]
            return results
        finally:
            for _, pid, report in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                report.close()
            set_threads(caller_threads)


def dsep_upper(rho: DensityMatrix, cfg: OracleConfig | None = None) -> OracleResult:
    """Upper bound on the Frobenius distance to the separable set.

    Runs ``cfg.restarts`` independently seeded Frank-Wolfe minimizations,
    each capped at ``max_iters`` iterations, and returns the result of the
    best, the earliest restart on a tie.  Wherever numpy's OpenBLAS is
    found, every restart runs on one BLAS thread, so the output depends
    neither on the core count nor on the caller's BLAS thread count.
    ``converged`` means the Frank-Wolfe gap over the refined candidates
    fell below ``convergence_tol``.  The candidate search is a heuristic,
    so this is a stall test, not a proof of optimality.  Converged or
    capped, the value is the exact distance to the returned explicit
    ensemble, hence always a valid upper bound.
    """
    # min keeps the first of equal values: the earliest restart wins a tie
    return min(_run_restarts(rho, cfg or OracleConfig()), key=lambda res: res.dsep_upper)
