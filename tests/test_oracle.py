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


def test_oracle_deterministic():
    rho = fixture("bell(2)")
    cfg = OracleConfig(restarts=2, max_iters=100, convergence_tol=1e-9, seed=9)
    a = dsep_upper(rho, cfg)
    b = dsep_upper(rho, cfg)
    assert a.dsep_upper == b.dsep_upper
    assert np.array_equal(a.sigma.mat, b.sigma.mat)


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
