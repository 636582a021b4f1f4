"""Property tests: bound elimination reproduces the dense full-KKT answers.

Each dense reference below is the plain formulation the solver used before
simple-bound rows were taken out of its linear algebra: full working-set KKT
solves in the pivot loop, a Gram-Schmidt row filter, and one dense solve of
the whole frozen KKT matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrogate_dfl import optlayer
from surrogate_dfl.errors import MaxIterations, NumericalBreakdown
from surrogate_dfl.optlayer import (
    PrimalDualSolution,
    QuadraticProgram,
    box_budget_qp,
    kkt_adjoint,
    solve_box_budget_qp,
    solve_qp,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def mixed_qp(seed, n, n_bounds, n_general, degenerate):
    """Strictly convex QP with one equality row, scaled simple bounds and
    general rows, and a feasible point of it.  With `degenerate`, a general
    row equal to a bound row plus the equality row sits between the others,
    tight wherever that bound is."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    H = M @ M.T + 0.1 * np.eye(n)
    x_feas = rng.uniform(-1.0, 1.0, n)
    Aeq = rng.uniform(0.5, 1.5, (1, n))
    coords = rng.permutation(n)[:n_bounds]
    n_bounds = len(coords)
    bounds = np.zeros((n_bounds, n))
    bounds[np.arange(n_bounds), coords] = rng.choice([-1.0, 1.0], n_bounds) * rng.uniform(
        0.5, 2.0, n_bounds
    )
    general = rng.normal(size=(n_general, n))
    blocks = [general[:1], bounds]
    if degenerate and n_bounds:
        blocks.append(bounds[:1] + Aeq)
    blocks.append(general[1:])
    G = np.vstack(blocks)
    slack = rng.uniform(0.0, 0.5, len(G)) * (rng.uniform(size=len(G)) < 0.6)
    if degenerate and n_bounds:
        first = len(general[:1])  # the row of bounds[0]
        slack[first + n_bounds] = slack[first]
    qp = QuadraticProgram(
        H=H, c=3.0 * rng.normal(size=n), Aeq=Aeq, beq=Aeq @ x_feas,
        Gineq=G, hineq=G @ x_feas + slack,
    )
    return qp, x_feas


qp_args = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 9),
    n_bounds=st.integers(0, 6),
    n_general=st.integers(0, 3),
    degenerate=st.booleans(),
)


def dense_active_set(qp, x, max_iter=2000):
    """Primal active-set loop that factorizes the full working-set KKT system."""
    n, me = qp.n, qp.Aeq.shape[0]
    G, h = qp.Gineq, qp.hineq
    work = []
    for _ in range(max_iter):
        A = np.vstack([qp.Aeq, G[work]])
        k = A.shape[0]
        K = np.block([[qp.H, A.T], [A, np.zeros((k, k))]])
        z = np.linalg.solve(K, np.concatenate([-qp.c, qp.beq, h[work]]))
        p = z[:n] - x
        if np.max(np.abs(p)) <= 1e-11 * (1.0 + np.max(np.abs(x))):
            lam = z[n + me :]
            if lam.size == 0 or lam.min() >= -1e-11:
                return x
            work.pop(int(np.argmax(lam < -1e-11)))
            continue
        d, room = G @ p, h - G @ x
        cand = ~np.isin(np.arange(len(h)), work) & (d > 1e-13 * (1.0 + np.abs(h)))
        alpha, blocking = 1.0, -1
        if cand.any():
            ratios = np.where(cand, np.maximum(room, 0.0) / np.where(cand, d, 1.0), np.inf)
            j = int(np.argmin(ratios))
            if ratios[j] < alpha - 1e-12:
                alpha, blocking = ratios[j], j
        x = x + alpha * p
        if blocking >= 0:
            work = sorted(work + [blocking])
    raise AssertionError("reference loop did not converge")


def gram_schmidt_filter(Aeq, rows):
    """In-order independence test by two-pass Gram-Schmidt."""
    basis = []

    def residual(v):
        r = v.astype(float).copy()
        for _ in range(2):
            for b in basis:
                r -= (b @ r) * b
        return r

    for row in Aeq:
        r = residual(row)
        if np.linalg.norm(r) > 1e-12:
            basis.append(r / np.linalg.norm(r))
    keep = []
    for pos, row in enumerate(rows):
        r = residual(row)
        if np.linalg.norm(r) > 1e-10 * max(1.0, np.linalg.norm(row)):
            keep.append(pos)
            basis.append(r / np.linalg.norm(r))
    return np.array(keep, dtype=int)


@SETTINGS
@given(**qp_args)
def test_reduced_pivots_match_dense_reference(seed, n, n_bounds, n_general, degenerate):
    # both loops start from the constructed feasible point (phase one is not
    # under test here)
    qp, x_feas = mixed_qp(seed, n, n_bounds, n_general, degenerate)
    x, _, _ = optlayer._active_set_loop(
        qp.H, qp.c, qp.Aeq, qp.beq, qp.Gineq, qp.hineq, x_feas, 2000
    )
    x_ref = dense_active_set(qp, x_feas)
    assert np.max(np.abs(x - x_ref)) <= 1e-9

    def active(y):
        return np.nonzero(np.abs(qp.Gineq @ y - qp.hineq) <= optlayer.ACTIVE_TOL)[0]

    assert np.array_equal(active(x), active(x_ref))


@SETTINGS
@given(**qp_args, drop=st.integers(0, 5))
def test_adjoint_matches_dense_frozen_kkt(seed, n, n_bounds, n_general, degenerate, drop):
    # multipliers are drawn, not solved for: every row with lam > 0 is frozen,
    # so dependent rows reach the filter wherever they sit in index order
    qp, _ = mixed_qp(seed, n, n_bounds, n_general, degenerate)
    rng = np.random.default_rng(seed + 1)
    lam = rng.uniform(0.1, 1.0, qp.Gineq.shape[0])
    lam[rng.permutation(len(lam))[:drop]] = 0.0
    sol = PrimalDualSolution(y=rng.normal(size=n), nu=rng.normal(size=1), lam=lam,
                             active_set=np.nonzero(lam)[0], kkt_residual=0.0)
    w = rng.normal(size=n)
    z_y, z_nu, z_lam, act = kkt_adjoint(qp, sol, w)

    strong = np.nonzero(lam > optlayer.STRICT_COMPLEMENTARITY_TOL)[0]
    act_ref = strong[gram_schmidt_filter(qp.Aeq, qp.Gineq[strong])]
    assert np.array_equal(act, act_ref)
    A = np.vstack([qp.Aeq, qp.Gineq[act_ref]])
    k = A.shape[0]
    M = np.block([[qp.H, A.T], [A, np.zeros((k, k))]])
    z = np.linalg.solve(M, np.concatenate([w, np.zeros(k)]))
    scale = 1.0 + np.max(np.abs(z))
    assert np.max(np.abs(z_y - z[:n])) <= 1e-9 * scale
    assert np.max(np.abs(z_nu - z[n : n + 1])) <= 1e-9 * scale
    assert np.max(np.abs(z_lam - z[n + 1 :]), initial=0.0) <= 1e-9 * scale


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    n_rows=st.integers(1, 12),
    n_dependent=st.integers(0, 4),
    with_eq=st.booleans(),
)
def test_row_filter_matches_gram_schmidt(seed, n, n_rows, n_dependent, with_eq):
    # unit rows, random rows and combinations of earlier rows, in mixed order
    rng = np.random.default_rng(seed)
    Aeq = rng.normal(size=(1, n)) if with_eq else np.zeros((0, n))
    rows = []
    for _ in range(n_rows):
        if rng.uniform() < 0.5:
            rows.append(np.eye(n)[rng.integers(n)] * rng.choice([-1.0, 1.0]))
        else:
            rows.append(rng.normal(size=n))
    for _ in range(n_dependent):
        pool = np.vstack([Aeq] + rows)
        combo = rng.normal(size=len(pool)) * (rng.uniform(size=len(pool)) < 0.5)
        rows.insert(int(rng.integers(len(rows) + 1)), combo @ pool)
    rows = np.vstack(rows)
    assert np.array_equal(
        optlayer._independent_row_filter(Aeq, rows), gram_schmidt_filter(Aeq, rows)
    )


def test_row_filter_keeps_rows_after_a_dependent_one():
    # unpivoted QR alone reports R_33 = 0 for columns e1, e1, e2
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert optlayer._independent_row_filter(np.zeros((0, 2)), rows).tolist() == [0, 2]


def test_solve_qp_raises_on_uncertified_result(monkeypatch):
    loop = optlayer._active_set_loop

    def off_by_a_bit(*args, **kwargs):
        x, nu, lam = loop(*args, **kwargs)
        return x + 1e-4, nu, lam

    monkeypatch.setattr(optlayer, "_active_set_loop", off_by_a_bit)
    qp, _ = mixed_qp(0, 4, 2, 1, False)
    with pytest.raises(NumericalBreakdown, match="KKT residual"):
        solve_qp(qp)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    k_over=st.integers(-11, 3),
    half_k=st.booleans(),
    ties=st.booleans(),
)
def test_box_budget_matches_solve_qp(seed, n, k_over, half_k, ties):
    # the water-filling solve against the active-set solver on the same QP;
    # k runs past n, and ties put several coordinates on one breakpoint
    rng = np.random.default_rng(seed)
    gamma = rng.choice([0.125, 0.25, 0.5]) if ties else rng.uniform(0.05, 2.0)
    if ties:
        c = 0.25 * rng.integers(-4, 9, n)
    else:
        c = rng.normal(rng.uniform(-1.0, 2.0), rng.uniform(0.3, 3.0), n)
    k = max(1, n + k_over) - 0.5 * half_k
    fast = solve_box_budget_qp(c, gamma, k)
    slow = solve_qp(box_budget_qp(c, gamma, k))
    assert np.max(np.abs(fast.y - slow.y)) <= 1e-9
    assert fast.active_set.tolist() == slow.active_set.tolist()


def test_box_budget_raises_on_uncertified_result(monkeypatch):
    build = optlayer.box_budget_qp
    monkeypatch.setattr(optlayer, "box_budget_qp", lambda c, g, k: build(c + 1e-3, g, k))
    with pytest.raises(NumericalBreakdown, match="KKT residual"):
        solve_box_budget_qp(np.linspace(-1.0, 2.0, 8), 0.2, 3)


def test_default_pivot_cap_scales_with_size():
    # every coordinate of min 0.5|x|^2 - 2 sum(x), x <= 1 blocks in turn:
    # n + 1 pivots, over the old fixed cap of 200
    n = 250
    qp = QuadraticProgram(H=np.eye(n), c=-2.0 * np.ones(n), Gineq=np.eye(n), hineq=np.ones(n))
    assert np.allclose(solve_qp(qp).y, 1.0)
    with pytest.raises(MaxIterations):
        solve_qp(qp, max_iter=200)
