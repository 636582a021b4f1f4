"""Property tests: the solver's fast paths reproduce plain reference ones.

Each dense reference below is the plain formulation the solver used before
simple-bound rows were taken out of its linear algebra: full working-set KKT
solves in the pivot loop and one dense solve of the whole frozen KKT matrix.
reference_active_set_loop is the pivot loop before it gathered its systems
from one assembled matrix.  gram_schmidt_filter is the reference for linear
independence: kkt_adjoint freezes the strongly active rows unfiltered, so
the solvers must return them independent, and a dependent set must raise.
"""

import numpy as np
import pytest
from helpers import dense_audit_kkt, scan_box_budget_qp, tight_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from surrogate_dfl import domains, optlayer, pipelines, surrogate
from surrogate_dfl.errors import MaxIterations, NumericalBreakdown, SingularKKT
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


def solve_fixing_bounds(H, A, cols, s, r, b, f, solve):
    """Solve [[H, A^T, E^T], [A, 0, 0], [E, 0, 0]] [x; mu; lam] = [r; b; f]
    where row i of E is s_i e_{cols_i}^T (simple bounds on distinct coordinates).

    The bound rows fix x[cols] = f / s.  solve(H_FF, A_F, [r'; b']) returns
    [x_F; mu] for what is left over the free coordinates F, and lam_i is read
    back from the stationarity row of coordinate cols_i; two bound rows on
    one coordinate raise SingularKKT.  This is the bound elimination as the
    solver did it before it gathered its systems from one assembled KKT
    matrix."""
    free = np.ones(H.shape[0], dtype=bool)
    free[cols] = False
    free = np.flatnonzero(free)
    if free.size + len(cols) > H.shape[0]:
        raise SingularKKT("two bound rows fix one coordinate")
    x = np.zeros(H.shape[0])
    x[cols] = f / s
    # x is still zero off the bounds, so H x and A x carry only their terms
    rhs = np.concatenate([(r - H @ x)[free], b - A @ x])
    X = solve(H[free[:, None], free], A[:, free], rhs)
    x[free], mu = X[: free.size], X[free.size :]
    lam = (r - H @ x - A.T @ mu)[cols] / s
    return x, mu, lam


def reference_active_set_loop(H, c, Aeq, beq, G, h, x0, max_iter, solve, working=None):
    """The pivot loop as it was before the gathered systems, with the same
    pivot rules (the most negative multiplier leaves the working set, the
    lowest-index negative one after a zero-length step): rows are classified
    as they enter the working set, one at a time, and every pivot builds its
    system anew, fixing the bound rows' coordinates through
    solve_fixing_bounds.  solve(H, A, rhs) solves [[H, A^T], [A, 0]] z = rhs.
    Starts from the working rows of the boolean mask working (none when None).
    Returns (x, nu, lam) with lam zero off the working set."""
    x = x0.copy()
    work = []
    bound = {}
    for r in [] if working is None else np.flatnonzero(working):
        work.append(int(r))
        nonzero = np.flatnonzero(G[r])
        if nonzero.size == 1:
            bound[int(r)] = int(nonzero[0])
    stalled = False
    n, me, mi = x.shape[0], Aeq.shape[0], G.shape[0]
    for _ in range(max_iter):
        general = [r for r in work if r not in bound] if bound else work
        A_work = np.vstack([Aeq, G[general]]) if general else Aeq
        b_work = np.concatenate([beq, h[general]]) if general else beq
        if bound:
            rows, cols = list(bound), list(bound.values())
            x_hat, mult, lam_fixed = solve_fixing_bounds(
                H, A_work, cols, G[rows, cols], -c, b_work, h[rows], solve
            )
        else:
            sol = solve(H, A_work, np.concatenate([-c, b_work]))
            x_hat, mult = sol[:n], sol[n:]
        p = x_hat - x
        step_tol = optlayer.STEP_TOL * (1.0 + np.max(np.abs(x), initial=0.0))
        if np.max(np.abs(p), initial=0.0) <= step_tol:
            lam = dict(zip(general, mult[me:]))
            if bound:
                lam.update(zip(rows, lam_fixed))
            negative = [r for r in work if lam[r] < -optlayer.MULT_TOL]
            if not negative:
                lam_all = np.zeros(mi)
                lam_all[list(lam)] = list(lam.values())
                return x, mult[:me], lam_all
            drop = negative[0] if stalled else min(negative, key=lambda r: (lam[r], r))
            work.remove(drop)
            bound.pop(drop, None)
            continue
        alpha = 1.0
        blocking = -1
        if mi:
            in_work = np.zeros(mi, dtype=bool)
            in_work[work] = True
            d = G @ p
            room = h - G @ x
            tol = 1e-13 * (1.0 + np.abs(h)) + 1e-12 * np.max(np.abs(G), axis=1) * np.max(
                np.abs(p)
            )
            cand = ~in_work & (d > tol)
            if np.any(cand):
                ratios = np.full(mi, np.inf)
                ratios[cand] = np.maximum(room[cand], 0.0) / d[cand]
                j = int(np.argmin(ratios))
                if ratios[j] < alpha - 1e-12:
                    alpha = ratios[j]
                    blocking = j
        x = x + alpha * p
        stalled = alpha * np.max(np.abs(p)) <= step_tol
        if blocking >= 0:
            work.append(blocking)
            work.sort()
            nonzero = np.flatnonzero(G[blocking])
            if nonzero.size == 1:
                bound[blocking] = int(nonzero[0])
    raise MaxIterations(f"active-set pivot cap {max_iter} reached")


def skewed_hessian(qp, seed):
    """(skewed, symmetric): qp with an antisymmetric perturbation of H inside
    the 1e-10 symmetry tolerance, and the QP of that H's symmetric part."""
    S = np.random.default_rng(seed + 4).normal(size=(qp.n, qp.n))
    E = (S - S.T) / np.abs(S - S.T).max()
    H = qp.H + 2e-11 * max(1.0, np.abs(qp.H).max()) * E
    assert np.abs(H - H.T).max() > 0.0
    rows = dict(c=qp.c, Aeq=qp.Aeq, beq=qp.beq, Gineq=qp.Gineq, hineq=qp.hineq)
    return QuadraticProgram(H=H, **rows), QuadraticProgram(H=0.5 * (H + H.T), **rows)


@SETTINGS
@given(**qp_args, skewed=st.booleans())
def test_reduced_pivots_match_dense_reference(seed, n, n_bounds, n_general, degenerate,
                                              skewed):
    # solve_qp starts from phase one, the dense loop from the constructed
    # feasible point; the QP is strictly convex, so both reach its optimum.
    # A skewed H, asymmetric within tolerance, gives an exactly symmetric
    # KKT matrix, and solves and differentiates bitwise as its symmetric part
    qp, x_feas = mixed_qp(seed, n, n_bounds, n_general, degenerate)
    sol = solve_qp(qp)
    if skewed:
        qp, symmetric = skewed_hessian(qp, seed)
        K = qp._rows().K
        assert np.array_equal(K, K.T)
        sol, ref = solve_qp(qp), solve_qp(symmetric)
        for field in ("y", "nu", "lam"):
            assert np.array_equal(getattr(sol, field), getattr(ref, field)), field
        w = np.random.default_rng(seed).normal(size=n)
        for got, want in zip(kkt_adjoint(qp, sol, w), kkt_adjoint(symmetric, ref, w)):
            assert np.array_equal(got, want)
    x_ref = dense_active_set(qp, x_feas)
    assert np.max(np.abs(sol.y - x_ref)) <= 1e-9
    assert np.array_equal(tight_rows(qp, sol.y), tight_rows(qp, x_ref))


def twin_bound_qp(seed, n, n_bounds, n_general, degenerate):
    """mixed_qp with one coordinate held by two bound rows, x_j <= u and
    -x_j <= -u, at its feasible value u."""
    qp, x_feas = mixed_qp(seed, n, n_bounds, n_general, degenerate)
    j = seed % n
    pair = np.zeros((2, n))
    pair[:, j] = [1.0, -1.0]
    qp.Gineq = np.vstack([qp.Gineq, pair])
    qp.hineq = np.concatenate([qp.hineq, [x_feas[j], -x_feas[j]]])
    return qp, x_feas


def simplex_portfolio_qp(seed, n, n_bounds, n_general, degenerate):
    """A random Markowitz QP over the simplex, as the portfolio domain builds it."""
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, 3))
    Q = F @ F.T / 3 + 0.01 * np.eye(n)
    p, risk = rng.normal(0.0, 0.5, n), rng.uniform(0.1, 5.0)
    return domains.SimplexStart(2.0 * risk * Q).qp(p), None


def assert_pivots_match_reference(qp, start=None):
    """solve_qp from start (phase one without one), once with the production
    loop and once with the reference loop: the same pivots and the same
    primal-dual answer.

    The reference solves one working-set system per iteration.  After a full
    step (alpha = 1, no blocking row) its working set is unchanged, so its
    next system equals its last; production reuses that solution instead.
    So the reference's systems, less each one equal to its predecessor, must
    equal production's entry for entry, and production never solves one
    system twice in a row.  Both solve through _equality_solve, so only how
    each builds its systems is compared: on degenerate draws a one-ulp
    difference in the solve can break a tie.  The reused iterations still
    count toward the pivot cap: with k the iterations of the reference's
    longest loop (phase one or the pivots), solve_qp raises MaxIterations
    at max_iter = k - 1 and not at k."""
    equality_solve = optlayer._equality_solve
    systems, ref_systems, ref_iterations = [], [], []

    def recorded(K, rhs):
        systems.append((K.copy(), rhs.copy()))
        return equality_solve(K, rhs)

    def reference_solve(H, A, rhs):
        K = optlayer._kkt_matrix(H, A)
        ref_systems.append((K.copy(), rhs.copy()))
        return equality_solve(K, rhs)

    def reference_loop(qp, x0, max_iter, working=None):
        first = len(ref_systems)
        out = reference_active_set_loop(qp.H, qp.c, qp.Aeq, qp.beq, qp.Gineq, qp.hineq,
                                        x0, max_iter, reference_solve, working)
        ref_iterations.append(len(ref_systems) - first)
        return out

    def same(a, b):
        return all(np.array_equal(u, v) for u, v in zip(a, b))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optlayer, "_equality_solve", recorded)
        sol = solve_qp(qp, start=start)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optlayer, "_active_set_loop", reference_loop)
        ref = solve_qp(qp, start=start)

    assert not any(same(a, b) for a, b in zip(systems, systems[1:]))
    ref_systems = ref_systems[:1] + [
        b for a, b in zip(ref_systems, ref_systems[1:]) if not same(a, b)
    ]
    assert len(systems) == len(ref_systems)
    assert all(np.array_equal(K, K_ref) for (K, _), (K_ref, _) in zip(systems, ref_systems))
    for got, want in ((sol.y, ref.y), (sol.nu, ref.nu), (sol.lam, ref.lam)):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * (
            1.0 + np.max(np.abs(want), initial=0.0)
        )
    assert np.array_equal(tight_rows(qp, sol.y), tight_rows(qp, ref.y))
    k = max(ref_iterations)
    if k > 1:  # max_iter = 0 means the default cap
        with pytest.raises(MaxIterations):
            solve_qp(qp, max_iter=k - 1, start=start)
    assert np.array_equal(solve_qp(qp, max_iter=k, start=start).y, sol.y)


@settings(SETTINGS, max_examples=300)  # a pivot rule slip shows in ~5% of draws
@given(
    **qp_args,
    build=st.sampled_from([mixed_qp, twin_bound_qp, simplex_portfolio_qp]),
    n_portfolio=st.integers(2, 30),
)
def test_gathered_pivots_match_reference_loop(
    seed, n, n_bounds, n_general, degenerate, build, n_portfolio
):
    if build is simplex_portfolio_qp:
        n = n_portfolio
    assert_pivots_match_reference(build(seed, n, n_bounds, n_general, degenerate)[0])


@settings(SETTINGS, max_examples=150)
@given(
    **qp_args,
    build=st.sampled_from([mixed_qp, twin_bound_qp, simplex_portfolio_qp]),
    n_portfolio=st.integers(2, 30),
    t=st.floats(0.05, 0.95),
)
def test_seeded_pivots_match_reference_loop(
    seed, n, n_bounds, n_general, degenerate, build, n_portfolio, t
):
    # the working set a start seeds all at once gives the systems the
    # reference builds by adding its rows one at a time
    if build is simplex_portfolio_qp:
        n = n_portfolio
    qp, x_feas = build(seed, n, n_bounds, n_general, degenerate)
    _, starts = started_solves(qp, x_feas, t, seed)
    if build is simplex_portfolio_qp:
        starts.append(("simplex", domains.SimplexStart(qp.H)(qp), False))
    for _, start, runs_phase_one in starts:
        if not runs_phase_one:
            assert_pivots_match_reference(qp, start)


def first_pass(cfg, count):
    """(adapter, thetas, sp) of seed 0's first training pass under cfg: the
    first count training instances predicted by the initial models, and the
    y-space set of the initial P."""
    adapter = pipelines.get_adapter(cfg)
    dataset = adapter.generate(pipelines.subseed(0, 0))
    models, rep = pipelines.init_method(cfg, adapter, "surrogate", 0)
    instances = [dataset.instances[i] for i in dataset.train_idx[:count]]
    thetas, _ = adapter.predict(models, instances)
    return adapter, thetas, surrogate.transform_problem(adapter.base, surrogate.materialize(rep))


@pytest.mark.parametrize("cfg, decide", [
    (pipelines.TrainConfig(domain="portfolio", n_securities=100, n_days=60, surrogate_m=10),
     "decision_full"),
    (pipelines.TrainConfig(domain="portfolio", n_securities=100, n_days=60, surrogate_m=10),
     "decision_surrogate"),
    (pipelines.TrainConfig(domain="movierec", p_learning_rate=0.1), "decision_surrogate"),
], ids=["n100-crash", "n100-y-chained", "movie-y-chained"])
def test_pass_pivots_match_reference_loop(monkeypatch, cfg, decide):
    # the traffic the loop is tuned for, each solve_qp of a pass checked
    # against the reference from its own start: predicted-Q simplex QPs at
    # n = 100 (a rank-32 cosine Q plus a ridge) from the SimplexStart crash,
    # and y-space QPs on one set, the first from phase one (no start) and
    # each later one started at the last one's optimum
    adapter, thetas, sp = first_pass(cfg, 12)
    starts = []

    def checked(qp, max_iter=0, start=None):
        assert_pivots_match_reference(qp, start)
        starts.append(start is not None and start[1].any())
        return solve_qp(qp, max_iter, start)

    for module in (pipelines, surrogate):  # the full and the y-space solves
        monkeypatch.setattr(module, "solve_qp", checked)
    for theta in thetas:
        if decide == "decision_full":
            adapter.decision_full(theta)
        else:
            adapter.decision_surrogate(theta, sp)
    assert len(starts) >= len(thetas) and sum(starts) >= len(thetas) - 1


def started_solves(qp, x_feas, t, seed):
    """The cold solution of qp and a list of (name, start, phase one expected)
    to solve it from: the optimum with its working rows (those with a nonzero
    multiplier), a feasible point between it and x_feas tight on some of
    them, the optimum of the same rows under another objective, an x0 off
    the equality row, an x0 on it past an inequality row, and a feasible x0
    with a working row that is not tight.  x_feas is a feasible point (the
    barycenter when None)."""
    cold = solve_qp(qp)
    if x_feas is None:
        x_feas = np.full(qp.n, 1.0 / qp.n)
    working = cold.lam != 0.0
    x_mid = cold.y + t * (x_feas - cold.y)
    slack = qp.Gineq @ x_mid - qp.hineq
    other = QuadraticProgram(
        H=qp.H, c=np.random.default_rng(seed + 2).normal(size=qp.n) * np.abs(qp.c).max(),
        Aeq=qp.Aeq, beq=qp.beq, Gineq=qp.Gineq, hineq=qp.hineq,
    )
    stale = solve_qp(other)
    starts = [
        ("optimum", (cold.y, working), False),
        ("feasible", (x_mid, working & (np.abs(slack) <= optlayer.FEAS_TOL)), False),
        ("stale", (stale.y, stale.lam != 0.0), False),
        ("infeasible", (cold.y + 1.0, working), True),
    ]
    if slack.size:
        # along row 0 within the equality row, one unit past its bound
        g = qp.Gineq[0] - qp.Aeq.T @ np.linalg.lstsq(qp.Aeq.T, qp.Gineq[0], rcond=None)[0]
        if g @ g > 1e-6:
            past = cold.y + (qp.hineq[0] - qp.Gineq[0] @ cold.y + 1.0) / (g @ g) * g
            starts.append(("outside", (past, np.zeros(slack.size, dtype=bool)), True))
    if slack.size and slack.min() < -optlayer.FEAS_TOL:
        loose = np.zeros(slack.size, dtype=bool)
        loose[slack.argmin()] = True
        starts.append(("not tight", (x_mid, loose), True))
    return cold, starts


@settings(SETTINGS, max_examples=150)
@given(
    **qp_args,
    build=st.sampled_from([mixed_qp, twin_bound_qp, simplex_portfolio_qp]),
    n_portfolio=st.integers(1, 30),
    t=st.floats(0.05, 0.95),
)
def test_started_solve_matches_cold(seed, n, n_bounds, n_general, degenerate, build,
                                    n_portfolio, t):
    # the QPs are strictly convex, so every start reaches the cold optimum;
    # a start that is infeasible or not tight on a working row runs phase one,
    # and the optimum with its working rows takes a single pivot.  The
    # multipliers are unique, and compared, only when the active rows are
    # linearly independent of each other and of Aeq (not so on degenerate
    # draws or the twin bounds); solve_qp certifies them either way
    if build is simplex_portfolio_qp:
        n = n_portfolio
    qp, x_feas = build(seed, n, n_bounds, n_general, degenerate)
    cold, starts = started_solves(qp, x_feas, t, seed)
    if build is simplex_portfolio_qp:
        starts.append(("simplex", domains.SimplexStart(qp.H)(qp), False))
    active = tight_rows(qp, cold.y)
    unique = len(gram_schmidt_filter(qp.Aeq, qp.Gineq[active])) == len(active)
    fields = ("y", "nu", "lam") if unique else ("y",)
    phase_one, equality_solve = optlayer._phase_one, optlayer._equality_solve
    for name, start, runs_phase_one in starts:
        calls, pivots = [], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                optlayer, "_phase_one", lambda *args: calls.append(1) or phase_one(*args)
            )
            patch.setattr(
                optlayer, "_equality_solve",
                lambda K, rhs: pivots.append(1) or equality_solve(K, rhs),
            )
            sol = solve_qp(qp, start=start)
        assert len(calls) == runs_phase_one, name
        if name == "optimum":
            assert len(pivots) == 1
        for field in fields:
            got, want = getattr(sol, field), getattr(cold, field)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * (
                1.0 + np.max(np.abs(want), initial=0.0)
            ), (name, field)
        assert np.array_equal(tight_rows(qp, sol.y), active), name


def test_drop_takes_the_most_negative_multiplier_lowest_index_on_ties(monkeypatch):
    # min 0.5 x'Hx + c'x, x >= 0, started at 0 with every bound working: the
    # multipliers are c, so rows 1 and 2 tie as most negative and row 1 leaves
    # first (Bland's rule would drop row 0); the second system is H_11
    qp = QuadraticProgram(H=np.diag([1.0, 2.0, 3.0]), c=[-0.5, -1.0, -1.0],
                          Gineq=-np.eye(3), hineq=np.zeros(3))
    systems = []
    equality_solve = optlayer._equality_solve
    monkeypatch.setattr(optlayer, "_equality_solve",
                        lambda K, rhs: systems.append(K.copy()) or equality_solve(K, rhs))
    sol = solve_qp(qp, start=(np.zeros(3), np.ones(3, dtype=bool)))
    assert np.array_equal(systems[1], [[2.0]])
    assert np.allclose(sol.y, [0.5, 0.5, 1.0 / 3.0])


def test_degenerate_draws_solve_under_the_drop_rule():
    # 1,000 fixed degenerate draws, phase one included: none raises
    # MaxIterations or NumericalBreakdown, and each takes the reference
    # loop's pivots.  About one in nine takes a zero-length step and about
    # one in forty drops a row by the lowest-index rule after one
    for n in (3, 5):
        for seed in range(500):
            assert_pivots_match_reference(mixed_qp(seed, n, 3, 3, True)[0])


def with_diagonal_hessian(qp, seed):
    """qp's rows and c with H replaced by a positive diagonal, which
    kkt_adjoint solves by its Schur complement."""
    d = np.random.default_rng(seed + 3).uniform(0.2, 5.0, qp.n)
    diag_qp = QuadraticProgram(H=np.diag(d), c=qp.c, Aeq=qp.Aeq, beq=qp.beq,
                               Gineq=qp.Gineq, hineq=qp.hineq)
    assert np.array_equal(diag_qp._rows().diag, d)
    return diag_qp


@SETTINGS
@given(**qp_args, drop=st.integers(0, 5), diagonal=st.booleans())
def test_adjoint_matches_dense_frozen_kkt(seed, n, n_bounds, n_general, degenerate, drop,
                                          diagonal):
    # multipliers are drawn, not solved for, on the rows gram_schmidt_filter
    # keeps (every other row gets 0): kkt_adjoint freezes every row with
    # lam > 0, so the dependent rows of degenerate draws must not reach it.
    # A diagonal H takes the Schur complement route, a dense one the whole
    # frozen system; both against one dense solve of it
    qp, _ = mixed_qp(seed, n, n_bounds, n_general, degenerate)
    if diagonal:
        qp = with_diagonal_hessian(qp, seed)
    else:
        assert qp._rows().diag is None
    rng = np.random.default_rng(seed + 1)
    lam = rng.uniform(0.1, 1.0, qp.Gineq.shape[0])
    lam[rng.permutation(len(lam))[:drop]] = 0.0
    strong = np.nonzero(lam > optlayer.STRICT_COMPLEMENTARITY_TOL)[0]
    act_ref = strong[gram_schmidt_filter(qp.Aeq, qp.Gineq[strong])]
    lam[np.setdiff1d(strong, act_ref)] = 0.0
    sol = PrimalDualSolution(y=rng.normal(size=n), nu=rng.normal(size=1), lam=lam,
                             kkt_residual=0.0)
    w = rng.normal(size=n)
    z_y, z_nu, z_lam, act = kkt_adjoint(qp, sol, w)

    assert np.array_equal(act, act_ref)
    A = np.vstack([qp.Aeq, qp.Gineq[act_ref]])
    k = A.shape[0]
    M = np.block([[qp.H, A.T], [A, np.zeros((k, k))]])
    z = np.linalg.solve(M, np.concatenate([w, np.zeros(k)]))
    scale = 1.0 + np.max(np.abs(z))
    assert np.max(np.abs(z_y - z[:n])) <= 1e-9 * scale
    assert np.max(np.abs(z_nu - z[n : n + 1])) <= 1e-9 * scale
    assert np.max(np.abs(z_lam - z[n + 1 :]), initial=0.0) <= 1e-9 * scale


def box_budget_draw(seed, n, k_over, half_k, ties):
    """(c, gamma, k) for solve_box_budget_qp: k runs past n, and ties put
    several coordinates on one breakpoint."""
    rng = np.random.default_rng(seed)
    gamma = rng.choice([0.125, 0.25, 0.5]) if ties else rng.uniform(0.05, 2.0)
    if ties:
        c = 0.25 * rng.integers(-4, 9, n)
    else:
        c = rng.normal(rng.uniform(-1.0, 2.0), rng.uniform(0.3, 3.0), n)
    return c, gamma, max(1, n + k_over) - 0.5 * half_k


box_budget_args = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    k_over=st.integers(-11, 3),
    half_k=st.booleans(),
    ties=st.booleans(),
)


def assert_strongly_active_rows_independent(qp, sol):
    strong = np.nonzero(sol.lam > optlayer.STRICT_COMPLEMENTARITY_TOL)[0]
    kept = gram_schmidt_filter(qp.Aeq, qp.Gineq[strong])
    assert len(kept) == len(strong), strong[np.setdiff1d(np.arange(len(strong)), kept)]


@settings(SETTINGS, max_examples=200)
@given(
    **qp_args,
    build=st.sampled_from([mixed_qp, twin_bound_qp, simplex_portfolio_qp]),
    n_portfolio=st.integers(1, 30),
)
def test_solve_qp_strongly_active_rows_are_independent(seed, n, n_bounds, n_general,
                                                       degenerate, build, n_portfolio):
    # kkt_adjoint freezes these rows unfiltered; degenerate draws and twin
    # bounds put dependent rows among the tight ones
    if build is simplex_portfolio_qp:
        n = n_portfolio
    qp, _ = build(seed, n, n_bounds, n_general, degenerate)
    assert_strongly_active_rows_independent(qp, solve_qp(qp))


@settings(SETTINGS, max_examples=200)
@given(**box_budget_args)
def test_box_budget_strongly_active_rows_are_independent(seed, n, k_over, half_k, ties):
    # the closed form never freezes the budget row beside a bound on every
    # coordinate, ties and k past n included
    c, gamma, k = box_budget_draw(seed, n, k_over, half_k, ties)
    assert_strongly_active_rows_independent(box_budget_qp(c, gamma, k),
                                            solve_box_budget_qp(c, gamma, k))


@pytest.mark.parametrize("seed", range(20))
def test_dependent_frozen_set_raises_singular_kkt(seed):
    # multipliers by hand on a degenerate draw's dependent triple (bound row
    # b, general row b + Aeq, and Aeq) or on twin bounds x_j <= u, -x_j <= -u:
    # the frozen system is singular and kkt_adjoint raises, it filters
    # nothing; with the draw's dense H and with a diagonal one, whose Schur
    # complement is singular
    n = 3 + seed % 4
    qp, x_feas = (twin_bound_qp if seed % 2 else mixed_qp)(seed, n, 2, 2, True)
    lam = np.zeros(qp.Gineq.shape[0])
    if seed % 2:
        lam[-2:] = 1.0
    else:
        lam[[1, 3]] = 1.0  # bounds[0] and bounds[0] + Aeq, after general[:1]
    assert len(gram_schmidt_filter(qp.Aeq, qp.Gineq[lam > 0])) < 2
    sol = PrimalDualSolution(y=x_feas, nu=np.ones(1), lam=lam, kkt_residual=0.0)
    for each in (qp, with_diagonal_hessian(qp, seed)):
        with pytest.raises(SingularKKT):
            kkt_adjoint(each, sol, np.random.default_rng(seed).normal(size=n))


def assert_audit_matches_dense(qp, sol):
    # the structured products sum their terms in another order, so each block
    # agrees to round-off on the largest term a block adds up or multiplies
    y, lam = sol.y, sol.lam
    slack_terms = np.abs(qp.Gineq @ y) + np.abs(qp.hineq)
    terms = (qp.H @ y, qp.c, qp.Aeq.T @ sol.nu, qp.Gineq.T @ lam, slack_terms,
             lam * slack_terms)
    scale = max(np.max(np.abs(t), initial=0.0) for t in terms)
    got, want = optlayer.audit_kkt(qp, sol), dense_audit_kkt(qp, sol)
    assert got.keys() == want.keys()
    for block in want:
        assert abs(got[block] - want[block]) <= 1e-15 * (1.0 + scale), block


@SETTINGS
@given(**qp_args)
def test_audit_kkt_matches_dense_products_on_mixed_qps(seed, n, n_bounds, n_general, degenerate):
    # at the optimum and at a point off it, where every block is nonzero
    qp, x_feas = mixed_qp(seed, n, n_bounds, n_general, degenerate)
    sol = solve_qp(qp)
    assert_audit_matches_dense(qp, sol)
    rng = np.random.default_rng(seed)
    off = PrimalDualSolution(y=x_feas + rng.normal(size=n), nu=rng.normal(size=1),
                             lam=rng.normal(size=qp.Gineq.shape[0]), kkt_residual=0.0)
    assert_audit_matches_dense(qp, off)


@SETTINGS
@given(**box_budget_args)
def test_audit_kkt_matches_dense_products_on_box_budget_qps(seed, n, k_over, half_k, ties):
    c, gamma, k = box_budget_draw(seed, n, k_over, half_k, ties)
    qp, sol = box_budget_qp(c, gamma, k), solve_box_budget_qp(c, gamma, k)
    assert_audit_matches_dense(qp, sol)
    rng = np.random.default_rng(seed)
    off = PrimalDualSolution(y=sol.y + rng.normal(size=n), nu=np.zeros(0),
                             lam=sol.lam + rng.normal(size=sol.lam.shape), kkt_residual=0.0)
    assert_audit_matches_dense(qp, off)


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
@given(**box_budget_args)
def test_box_budget_matches_solve_qp(seed, n, k_over, half_k, ties):
    # the water-filling solve against the active-set solver on the same QP
    c, gamma, k = box_budget_draw(seed, n, k_over, half_k, ties)
    fast = solve_box_budget_qp(c, gamma, k)
    qp = box_budget_qp(c, gamma, k)
    slow = solve_qp(qp)
    assert np.max(np.abs(fast.y - slow.y)) <= 1e-9
    assert np.array_equal(tight_rows(qp, fast.y), tight_rows(qp, slow.y))


def assert_box_budget_matches_scan(c, gamma, k):
    fast, scan = solve_box_budget_qp(c, gamma, k), scan_box_budget_qp(c, gamma, k)
    assert np.array_equal(fast.y, scan.y) and np.array_equal(fast.lam, scan.lam)
    assert fast.kkt_residual == scan.kkt_residual


@settings(SETTINGS, max_examples=300)
@given(**box_budget_args)
def test_box_budget_search_matches_the_scan_bitwise(seed, n, k_over, half_k, ties):
    # the bisection over the breakpoints ends on the segment the linear scan
    # picks, so mu, x and lam are the same floats
    assert_box_budget_matches_scan(*box_budget_draw(seed, n, k_over, half_k, ties))


def test_box_budget_search_with_k_on_a_breakpoint():
    # c = (3, 2, 1), 2 gamma = 1: total(1) = 1 + 1 + 0 = k exactly, so mu = 1
    # closes the first segment, (0, 1)
    c = np.array([3.0, 2.0, 1.0])
    assert_box_budget_matches_scan(c, 0.5, 2.0)
    assert solve_box_budget_qp(c, 0.5, 2.0).lam[-1] == 1.0


def test_box_budget_raises_on_uncertified_result(monkeypatch):
    build = optlayer.box_budget_qp
    monkeypatch.setattr(optlayer, "box_budget_qp", lambda c, g, k: build(c + 1e-3, g, k))
    with pytest.raises(NumericalBreakdown, match="KKT residual"):
        solve_box_budget_qp(np.linspace(-1.0, 2.0, 8), 0.2, 3)


def test_default_pivot_cap_scales_with_size(monkeypatch):
    # every coordinate of min 0.5|x|^2 - 2 sum(x), x <= 1 blocks in turn:
    # n + 1 pivots, over the old fixed cap of 200, each one _equality_solve
    # call (the benchmark counts pivots by those calls)
    n = 250
    qp = QuadraticProgram(H=np.eye(n), c=-2.0 * np.ones(n), Gineq=np.eye(n), hineq=np.ones(n))
    calls = []
    equality_solve = optlayer._equality_solve
    monkeypatch.setattr(
        optlayer, "_equality_solve", lambda K, rhs: calls.append(1) or equality_solve(K, rhs)
    )
    assert np.allclose(solve_qp(qp).y, 1.0)
    assert len(calls) == n + 1
    with pytest.raises(MaxIterations):
        solve_qp(qp, max_iter=200)
