import math

import numpy as np
import pytest

from surrogate_dfl import surrogate
from surrogate_dfl.errors import HypothesisViolated, Infeasible, InvalidInputs
from surrogate_dfl.optlayer import simplex_base
from surrogate_dfl.theory import (
    BoundInputs,
    check_convexity_preservation,
    check_dr_preservation,
    coordinate_quasiconvexity_probe,
    counterexample_matrices,
    counterexample_opt,
    full_matrix_segment_probe,
    rademacher_bound,
    run_theory_checks,
)


def test_convexity_gram_case():
    # H = 2I: the reparameterized Hessian is a Gram matrix, PSD for any P
    rng = np.random.default_rng(0)
    for _ in range(50):
        P = rng.normal(size=(5, 3))
        res = check_convexity_preservation(lambda x: 2 * np.eye(5), P, [np.zeros(5)])
        assert res.passed and res.worst >= -1e-12


def test_convexity_linear_boundary_case():
    res = check_convexity_preservation(
        lambda x: np.zeros((4, 4)), np.random.default_rng(1).normal(size=(4, 2)),
        [np.zeros(4)],
    )
    assert res.passed


def test_convexity_portfolio_minimization_form():
    # maximization Hessian is -4Q at lambda = 2; the negated form must pass
    rng = np.random.default_rng(2)
    M = rng.normal(size=(5, 5))
    Q = M @ M.T / 5 + 1e-3 * np.eye(5)
    for _ in range(50):
        P = rng.normal(size=(5, 2))
        res = check_convexity_preservation(lambda x: 4.0 * Q, P, [rng.uniform(0, 1, 5)])
        assert res.passed


def test_convexity_detects_violation():
    H = np.diag([1.0, -2.0])
    res = check_convexity_preservation(lambda x: H, np.eye(2), [np.zeros(2)])
    assert not res.passed and res.worst < -1


def test_dr_rank_one_expansion():
    # H = -ones: P^T H P = -(colsum outer colsum), entrywise nonpositive
    H = -np.ones((3, 3))
    P = np.abs(np.random.default_rng(3).normal(size=(3, 2)))
    res = check_dr_preservation(lambda x: H, P, [np.zeros(3)])
    assert res.passed
    expected = -np.outer(P.sum(axis=0), P.sum(axis=0))
    G = P.T @ H @ P
    assert np.allclose(G, expected)


def test_dr_zero_hessian():
    res = check_dr_preservation(
        lambda x: np.zeros((3, 3)), np.abs(np.random.default_rng(4).normal(size=(3, 2))),
        [np.zeros(3)],
    )
    assert res.passed


def test_dr_random_nonpositive_hessians():
    rng = np.random.default_rng(5)
    for _ in range(50):
        H = -np.abs(rng.normal(size=(4, 4)))
        H = 0.5 * (H + H.T)
        P = np.abs(rng.normal(size=(4, 2)))
        assert check_dr_preservation(lambda x: H, P, [np.zeros(4)]).passed


def test_dr_hypothesis_guard():
    P = np.array([[0.5, 0.2], [-0.1, 0.3]])
    with pytest.raises(HypothesisViolated):
        check_dr_preservation(lambda x: -np.ones((2, 2)), P, [np.zeros(2)])


def test_counterexample_triple():
    P, Pp = counterexample_matrices()
    assert counterexample_opt(P) <= 1e-9
    assert counterexample_opt(Pp) <= 1e-9
    mid = counterexample_opt(0.5 * P + 0.5 * Pp)
    # closed-form oracle: both midpoint columns equal (.5,.5,1); projecting
    # (1,1,1) on span gives t = 4/3 and residual 3 * (1/3)^2 = 1/3
    c = np.array([0.5, 0.5, 1.0])
    t = (c @ np.ones(3)) / (c @ c)
    expected = float(np.sum((t * c - 1.0) ** 2))
    assert expected == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert mid == pytest.approx(expected, abs=1e-9)


def test_quasiconvexity_probe_no_violations():
    rng = np.random.default_rng(6)
    n = 6
    M = rng.normal(size=(n, n))
    Q = M @ M.T / n + 1e-3 * np.eye(n)
    report = coordinate_quasiconvexity_probe(
        H=4.0 * Q, c=rng.uniform(-0.1, 0.1, n), base=simplex_base(n),
        P=rng.uniform(0.05, 1.0, (n, 3)), column_index=0, trials=200, seed=7,
    )
    assert report.trials == 200
    assert report.violations == 0
    assert report.errors == 0


def _small_probe():
    rng = np.random.default_rng(6)
    n = 4
    return coordinate_quasiconvexity_probe(
        H=np.eye(n), c=rng.uniform(-0.1, 0.1, n), base=simplex_base(n),
        P=rng.uniform(0.05, 1.0, (n, 2)), column_index=0, trials=5,
    )


def test_quasiconvexity_probe_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a solver failure")

    monkeypatch.setattr(surrogate, "solve_qp", broken)
    with pytest.raises(TypeError):
        _small_probe()


def test_quasiconvexity_probe_counts_solver_errors(monkeypatch):
    def infeasible(*args, **kwargs):
        raise Infeasible("no feasible point")

    monkeypatch.setattr(surrogate, "solve_qp", infeasible)
    report = _small_probe()
    assert (report.errors, report.violations, report.passed) == (5, 0, False)


def test_quasiconvexity_probe_degenerate_segment():
    # a = b makes every segment point identical: zero gap by construction
    rng = np.random.default_rng(8)
    n = 4
    M = rng.normal(size=(n, n))
    Q = M @ M.T / n + 1e-2 * np.eye(n)
    base = simplex_base(n)
    from surrogate_dfl.theory import _surrogate_opt

    P = rng.uniform(0.1, 1.0, (n, 2))
    a = rng.uniform(0.1, 1.0, n)
    vals = []
    for col in (a, a, 0.5 * a + 0.5 * a):
        Pt = P.copy()
        Pt[:, 0] = col
        vals.append(_surrogate_opt(4.0 * Q, np.zeros(n), base, Pt))
    assert abs(vals[2] - max(vals[0], vals[1])) <= 1e-8


def test_full_matrix_segment_violates():
    P, Pp = counterexample_matrices()
    report = full_matrix_segment_probe(P, Pp)
    assert report.violations >= 1
    assert report.worst_gap == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_rademacher_worked_value():
    # independent evaluation of the formula at the worked inputs
    expected = 4.0 * math.sqrt(6.0 * math.log(400.0 * math.sqrt(2.0)) / 100.0)
    val = rademacher_bound(
        BoundInputs(m=2, C=1.0, p_dim=3, t=100, pinv_norm=1.0, diameter=math.sqrt(2.0))
    )
    assert val == pytest.approx(expected, abs=1e-12)
    assert abs(val - 2.4668) <= 1e-3


def test_rademacher_t_scaling():
    base = BoundInputs(m=2, C=1.0, p_dim=3, t=100, pinv_norm=1.0, diameter=math.sqrt(2.0))
    v1 = rademacher_bound(base)
    v4 = rademacher_bound(
        BoundInputs(m=2, C=1.0, p_dim=3, t=400, pinv_norm=1.0, diameter=math.sqrt(2.0))
    )
    # sqrt(1/t) halves the bound, the growing log pulls it slightly back up
    assert v1 / 2.0 < v4 < 0.62 * v1


def test_rademacher_m_doubling():
    base = BoundInputs(m=2, C=1.0, p_dim=3, t=100, pinv_norm=1.0, diameter=math.sqrt(2.0))
    v1 = rademacher_bound(base)
    v2 = rademacher_bound(
        BoundInputs(m=4, C=1.0, p_dim=3, t=100, pinv_norm=1.0, diameter=math.sqrt(2.0))
    )
    assert v2 > 2.0 * v1  # linear factor plus log growth


def test_rademacher_monotonicity():
    # sampled within ranges keeping the log argument comfortably above e
    rng = np.random.default_rng(9)
    for _ in range(20):
        args = dict(
            m=int(rng.integers(1, 8)),
            C=float(rng.uniform(0.5, 4.0)),
            p_dim=int(rng.integers(1, 10)),
            t=int(rng.integers(20, 2000)),
            pinv_norm=float(rng.uniform(0.5, 4.0)),
            diameter=float(rng.uniform(0.5, 4.0)),
        )
        v0 = rademacher_bound(BoundInputs(**args))
        for key, up in [("m", args["m"] + 1), ("C", args["C"] * 1.1),
                        ("p_dim", args["p_dim"] + 1), ("pinv_norm", args["pinv_norm"] * 1.1),
                        ("diameter", args["diameter"] * 1.1)]:
            bumped = dict(args)
            bumped[key] = up
            assert rademacher_bound(BoundInputs(**bumped)) > v0, key
        shrunk = dict(args)
        shrunk["t"] = args["t"] * 2
        assert rademacher_bound(BoundInputs(**shrunk)) < v0, "t"


def test_rademacher_invalid_inputs():
    with pytest.raises(InvalidInputs):
        rademacher_bound(BoundInputs(m=0, C=1, p_dim=1, t=10, pinv_norm=1, diameter=1))
    with pytest.raises(InvalidInputs):
        rademacher_bound(BoundInputs(m=1, C=1, p_dim=1, t=1, pinv_norm=0.1, diameter=0.1))


def test_run_theory_checks_all_pass():
    rows = run_theory_checks()
    assert all(r["passed"] for r in rows), [r["check"] for r in rows if not r["passed"]]
    probe = next(r for r in rows if r["check"] == "column_quasiconvexity_probe")
    assert probe["value"]["errors"] == 0
