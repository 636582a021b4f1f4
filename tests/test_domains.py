import numpy as np
import pytest
from helpers import reference_objective, reference_selection, reference_supergradient
from hypothesis import given, settings
from hypothesis import strategies as st

from surrogate_dfl import domains, optlayer
from surrogate_dfl.errors import BadDimensions, DimensionMismatch
from surrogate_dfl.optlayer import QuadraticProgram, box_budget_qp, solve_qp
from surrogate_dfl.pipelines import TrainConfig, get_adapter


def portfolio_qp(p, Q, risk):
    """The QP whose solution maximizes p.x - risk x'Qx on the simplex."""
    return domains.SimplexStart(2.0 * risk * np.asarray(Q, dtype=float)).qp(p)


def own_start(qp):
    """The crash start of a SimplexStart built for qp alone."""
    return domains.SimplexStart(qp.H)(qp)


def test_portfolio_objective_values():
    # 0 - 2 * 0.5 = -1
    assert domains.portfolio_objective(
        np.array([0.5, 0.5]), np.zeros(2), np.eye(2), 2.0
    ) == pytest.approx(-1.0)
    # lambda = 0 reduces to p.x
    assert domains.portfolio_objective(
        np.array([1.0, 0.0]), np.array([0.1, 0.2]), np.eye(2), 0.0
    ) == pytest.approx(0.1)
    assert domains.portfolio_objective(np.zeros(2), np.array([0.1, 0.2]), np.eye(2), 2.0) == 0.0


def test_portfolio_objective_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        domains.portfolio_objective(np.zeros(2), np.zeros(3), np.eye(3), 2.0)


def test_portfolio_hessian_is_minus_2_lambda_Q():
    rng = np.random.default_rng(0)
    n = 4
    M = rng.normal(size=(n, n))
    Q = M @ M.T / n + np.eye(n)
    p = rng.normal(size=n)
    lam = 2.0
    x0 = rng.normal(size=n)
    f = lambda x: domains.portfolio_objective(x, p, Q, lam)
    hess_fd = np.zeros((n, n))
    h = 1e-4
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            hess_fd[i, j] = (f(x0 + ei + ej) - f(x0 + ei - ej)
                             - f(x0 - ei + ej) + f(x0 - ei - ej)) / (4 * h * h)
    assert np.max(np.abs(hess_fd - (-2.0 * lam * Q))) <= 1e-6


def test_gen_portfolio_deterministic():
    a = domains.gen_portfolio_data(5, 30, seed=3)
    b = domains.gen_portfolio_data(5, 30, seed=3)
    assert np.array_equal(a.meta["prices"], b.meta["prices"])
    for ia, ib in zip(a.instances, b.instances):
        assert np.array_equal(ia.features, ib.features)
        assert np.array_equal(ia.true_returns, ib.true_returns)
        assert np.array_equal(ia.true_covariance, ib.true_covariance)


def test_gen_portfolio_split_arithmetic():
    ds = domains.gen_portfolio_data(4, 100, seed=1)
    assert len(ds.instances) == 100
    assert len(ds.train_idx) == 70
    assert len(ds.val_idx) == 10
    assert len(ds.test_idx) == 20
    # chronological: contiguous and ordered
    assert ds.train_idx[-1] < ds.val_idx[0] < ds.test_idx[0]


def test_gen_portfolio_too_few_days():
    with pytest.raises(BadDimensions):
        domains.gen_portfolio_data(5, 20, seed=0)


def test_portfolio_covariance_spd():
    ds = domains.gen_portfolio_data(6, 25, seed=2)
    for inst in ds.instances[:5]:
        Q = inst.true_covariance
        assert np.allclose(Q, Q.T)
        assert np.linalg.eigvalsh(Q)[0] > 0


def test_constant_prices_degenerate_convention(tmp_path):
    # ingestion path with constant prices: zero returns, zero features,
    # covariance falls back to the identity-with-zero-off-diagonal convention
    path = tmp_path / "flat.csv"
    n_days = 25
    with open(path, "w") as fh:
        fh.write("day,security,price\n")
        for d in range(n_days):
            for s in range(3):
                fh.write(f"{d},{s},100.0\n")
    ds = domains.ingest_portfolio_csv(path)
    inst = ds.instances[0]
    assert np.allclose(inst.features, 0.0)
    assert np.allclose(inst.true_returns, 0.0)
    expected_Q = np.eye(3) + domains.COV_RIDGE * np.eye(3)
    assert np.allclose(inst.true_covariance, expected_Q)


def test_portfolio_csv_roundtrip(tmp_path):
    ds = domains.gen_portfolio_data(4, 25, seed=4)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    domains.export_portfolio_csv(ds, p1)
    back = domains.ingest_portfolio_csv(p1)
    domains.export_portfolio_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()  # bit-exact at 12 significant digits
    # returns divide two 12-digit prices, so absolute error sits near 1e-11
    for ia, ib in zip(ds.instances, back.instances):
        assert np.allclose(ia.features, ib.features, atol=1e-9)
        assert np.allclose(ia.true_returns, ib.true_returns, atol=1e-9)


def test_gen_movierec_deterministic_and_split():
    a = domains.gen_movierec_data(12, 5, 10, 6, seed=5)
    b = domains.gen_movierec_data(12, 5, 10, 6, seed=5)
    for ia, ib in zip(a.instances, b.instances):
        assert np.array_equal(ia.preferences, ib.preferences)
        assert np.array_equal(ia.user_features, ib.user_features)
    assert len(a.train_idx) == 7 and len(a.val_idx) == 1 and len(a.test_idx) == 2


def test_gen_movierec_zero_factors():
    ds = domains.gen_movierec_data(
        6, 4, 2, 3, seed=6,
        latent_scale=0.0, noise_scale=0.0, popularity_scale=0.0, spread_max=0.0,
    )
    for inst in ds.instances:
        assert np.allclose(inst.preferences, 0.5)


def test_gen_movierec_theta_in_unit_interval():
    ds = domains.gen_movierec_data(20, 6, 3, 5, seed=7, spread_max=4.0, popularity_scale=1.0)
    for inst in ds.instances:
        assert inst.preferences.min() >= 0.0 and inst.preferences.max() <= 1.0


def test_gen_movierec_bad_dimensions():
    with pytest.raises(BadDimensions):
        get_adapter(TrainConfig(domain="movierec", n_movies=5, budget_k=9))


def test_movierec_csv_roundtrip(tmp_path):
    ds = domains.gen_movierec_data(8, 4, 3, 5, seed=8)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    domains.export_movierec_csv(ds, p1)
    back = domains.ingest_movierec_csv(p1, n_movies=8, users_per_group=4)
    domains.export_movierec_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for ia, ib in zip(ds.instances, back.instances):
        assert np.allclose(ia.preferences, ib.preferences, atol=1e-11)
        assert np.allclose(ia.user_features, ib.user_features, atol=1e-11)


def _ingest_edited(tmp_path, edit):
    """Ingest the ratings file of a small movie-rec dataset (8 movies, 5
    feature movies) after edit(rows) rewrites its data rows ([user, movie,
    rating] strings)."""
    path = tmp_path / "ratings.csv"
    domains.export_movierec_csv(domains.gen_movierec_data(8, 4, 3, 5, seed=8), path)
    header, *rows = path.read_text().splitlines()
    rows = edit([row.split(",") for row in rows])
    path.write_text("\n".join([header, *(",".join(row) for row in rows)]) + "\n")
    return domains.ingest_movierec_csv(path, n_movies=8, users_per_group=4)


def test_movierec_csv_rejects_a_missing_cell(tmp_path):
    # one (user, movie) row gone: its preference must not read as 0
    with pytest.raises(BadDimensions, match="missing"):
        _ingest_edited(tmp_path, lambda rows: rows[:3] + rows[4:])


def test_movierec_csv_rejects_a_negative_movie_id(tmp_path):
    # an extra row for movie -1 must not overwrite the last movie's rating
    with pytest.raises(BadDimensions, match="nonnegative"):
        _ingest_edited(tmp_path, lambda rows: rows + [["0", "-1", "0.5"]])


def test_movierec_csv_rejects_a_gap_in_the_feature_movie_ids(tmp_path):
    # feature movies are 8..12; renumbering 12 as 13 leaves a gap at 12
    with pytest.raises(BadDimensions, match="consecutively from 8"):
        _ingest_edited(tmp_path, lambda rows: [
            [u, "13" if m == "12" else m, r] for u, m, r in rows
        ])


def test_domain_qps_have_their_adapter_sets_rows():
    # the rows are written once: a pass's QPs carry the adapter's feasible set
    port = get_adapter(TrainConfig(domain="portfolio", n_securities=6))
    movie = get_adapter(TrainConfig(domain="movierec", n_movies=7, budget_k=3))
    for base, qp in [(port.base, domains.SimplexStart(np.eye(6)).qp(np.arange(6.0))),
                     (movie.base, box_budget_qp(np.arange(7.0), 0.1, 3))]:
        assert qp.n == base.n
        for got, want in ((qp.Aeq, base.Aeq), (qp.beq, base.beq), (qp.Gineq, base.G),
                          (qp.hineq, base.h)):
            assert got.shape == want.shape and np.array_equal(got, want)


def test_movierec_objective_enumerated():
    # single user, one pick: max(0.5 * 0.8, 1.0 * 0.3) = 0.4
    theta = np.array([[0.8], [0.3]])
    x = np.array([0.5, 1.0])
    assert domains.movierec_objective(x, theta, 1) == pytest.approx(0.4)


def test_movierec_objective_saturated():
    rng = np.random.default_rng(9)
    theta = rng.uniform(0, 1, (4, 3))
    x = rng.uniform(0, 1, 4)
    assert domains.movierec_objective(x, theta, 4) == pytest.approx(float((x[:, None] * theta).sum()))
    assert domains.movierec_objective(np.zeros(4), theta, 2) == 0.0


def test_movierec_supergradient_selected_entries():
    theta = np.array([[0.8], [0.3]])
    value, g = domains.movierec_objective_supergradient(np.array([0.5, 1.0]), theta, 1)
    assert value == pytest.approx(0.4) and np.allclose(g, [0.8, 0.0])


def test_movierec_supergradient_full_selection():
    rng = np.random.default_rng(10)
    theta = rng.uniform(0, 1, (5, 4))
    g = domains.movierec_objective_supergradient(np.ones(5), theta, 5)[1]
    assert np.allclose(g, theta.sum(axis=1))


def test_movierec_tie_break_lowest_index():
    # all products tied: exactly picks-many entries selected, lowest indices
    theta = np.full((4, 1), 0.5)
    sel = domains.movierec_selection(np.ones(4), theta, 2)
    assert np.array_equal(sel[:, 0], [1.0, 1.0, 0.0, 0.0])
    g = domains.movierec_objective_supergradient(np.ones(4), theta, 2)[1]
    assert np.allclose(g, [0.5, 0.5, 0.0, 0.0])


@st.composite
def selection_cases(draw):
    """x and theta on coarse grids, so products tie exactly (x has zeros and
    theta negative entries, whose products are -0.0, equal to 0.0), or
    continuous, so they tie only by chance."""
    n = draw(st.integers(1, 8))
    users = draw(st.integers(1, 5))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x, theta = rng.uniform(0.0, 1.0, n), rng.normal(size=(n, users))
    else:
        x = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                   min_size=n, max_size=n)))
        cells = draw(st.lists(st.integers(-3, 4), min_size=n * users, max_size=n * users))
        theta = 0.5 * np.array(cells, dtype=float).reshape(n, users)
    return x, theta, draw(st.integers(1, n))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(selection_cases())
def test_selection_matches_sorted_reference(case):
    x, theta, picks = case
    for p in (picks, len(x)):
        assert np.array_equal(
            domains.movierec_selection(x, theta, p), reference_selection(x, theta, p)
        )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(selection_cases())
def test_one_partition_loss_matches_reference_pair_bitwise(case):
    # the value and supergradient of one partition are the floats that the
    # objective's own partition and the sorted selection give
    x, theta, picks = case
    for p in (picks, len(x)):
        value, g = domains.movierec_objective_supergradient(x, theta, p)
        want = reference_objective(x, theta, p)
        assert np.float64(value).tobytes() == np.float64(want).tobytes()
        assert g.tobytes() == reference_supergradient(x, theta, p).tobytes()


def test_movierec_monotone_in_x():
    rng = np.random.default_rng(11)
    theta = rng.uniform(0, 1, (8, 5))
    for _ in range(100):
        x = rng.uniform(0, 1, 8)
        i = int(rng.integers(8))
        bumped = x.copy()
        bumped[i] = min(1.0, bumped[i] + rng.uniform(0, 0.2))
        assert (
            domains.movierec_objective(bumped, theta, 3)
            >= domains.movierec_objective(x, theta, 3) - 1e-12
        )


def test_movierec_supergradient_upper_bounds_increases():
    # concavity along coordinate increases away from selection changes
    rng = np.random.default_rng(12)
    theta = rng.uniform(0, 1, (6, 4))
    checked = 0
    for _ in range(200):
        x = rng.uniform(0.05, 0.95, 6)
        g = domains.movierec_objective_supergradient(x, theta, 2)[1]
        i = int(rng.integers(6))
        delta = 1e-4
        before = domains.movierec_selection(x, theta, 2)
        bumped = x.copy()
        bumped[i] += delta
        after = domains.movierec_selection(bumped, theta, 2)
        if not np.array_equal(before, after):
            continue  # selection change point
        checked += 1
        lhs = domains.movierec_objective(bumped, theta, 2) - domains.movierec_objective(x, theta, 2)
        assert lhs <= g[i] * delta + 1e-9
    assert checked > 100


def test_regret_zero_for_oracle_decision():
    ds = domains.gen_portfolio_data(5, 25, seed=13)
    inst = ds.instances[0]
    oracle = lambda theta: domains.portfolio_oracle_decision(
        theta["p"], theta["Q"], 2.0
    )
    objective = lambda x, theta: domains.portfolio_objective(
        x, theta["p"], theta["Q"], 2.0
    )
    theta = {"p": inst.true_returns, "Q": inst.true_covariance}
    x = oracle(theta)  # the decision under test is the oracle's own
    x_star = oracle(theta)
    assert abs(objective(x_star, theta) - objective(x, theta)) <= 1e-8


def test_regret_two_asset_values():
    # regret of the all-in decision on the worked two-asset instance
    p = np.array([0.1, 0.2])
    Q = np.eye(2)
    oracle = lambda theta: domains.portfolio_oracle_decision(theta, Q, 2.0)
    objective = lambda x, theta: domains.portfolio_objective(x, theta, Q, 2.0)
    x_star = oracle(p)
    assert np.allclose(x_star, [0.4875, 0.5125], atol=1e-9)
    value = objective(x_star, p) - objective(np.array([1.0, 0.0]), p)
    # direct evaluation: f(x*) = -0.849375, f([1,0]) = 0.1 - 2 = -1.9
    assert objective(np.array([1.0, 0.0]), p) == pytest.approx(-1.9)
    assert objective(x_star, p) == pytest.approx(-0.849375)
    assert value == pytest.approx(1.050625)


def test_regret_nonnegative_for_feasible_decisions():
    rng = np.random.default_rng(14)
    ds = domains.gen_portfolio_data(5, 25, seed=15)
    inst = ds.instances[0]
    oracle = lambda p: domains.portfolio_oracle_decision(p, inst.true_covariance, 2.0)
    objective = lambda x, p: domains.portfolio_objective(x, p, inst.true_covariance, 2.0)
    x_star = oracle(inst.true_returns)
    for _ in range(20):
        x = rng.dirichlet(np.ones(5))
        assert objective(x_star, inst.true_returns) - objective(x, inst.true_returns) >= -1e-6


@st.composite
def simplex_start_qps(draw):
    """Portfolio QPs whose equality-row minimizer u is generic, has tied
    entries (H a multiple of I, returns on a grid), lies on the simplex with
    a coordinate near zero, or comes from an unconstrained minimizer -H^-1 c
    with every entry negative."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["generic", "ties", "tiny", "negative"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    risk = rng.uniform(0.1, 5.0)
    if kind == "ties":
        return portfolio_qp(0.5 * rng.integers(-3, 4, n), np.eye(n), risk)
    if kind == "tiny":  # u = w, on the simplex, with w_0 down to 1e-9
        w = rng.dirichlet(np.ones(n))
        w[0] = 10.0 ** -rng.integers(4, 10)
        return portfolio_qp(2.0 * risk * w / w.sum(), np.eye(n), risk)
    F = rng.normal(size=(n, 3))
    Q = F @ F.T / 3 + 0.01 * np.eye(n)
    if kind == "negative":  # c = H w with w > 0
        return portfolio_qp(-2.0 * risk * Q @ rng.uniform(0.1, 2.0, n), Q, risk)
    return portfolio_qp(rng.normal(0.0, 0.5, n), Q, risk)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(simplex_start_qps())
def test_simplex_start_is_the_projected_equality_minimizer(qp):
    # the projection of u, the minimizer of the objective with H + delta I
    # over the equality row, delta = START_RIDGE tr(H) / n
    x0, working = own_start(qp)
    assert abs(x0.sum() - 1.0) <= 1e-12 and x0.min() >= 0.0
    assert np.array_equal(working, x0 == 0.0)
    n = qp.n
    H = qp.H + domains.START_RIDGE * np.trace(qp.H) / n * np.eye(n)
    K = np.block([[H, np.ones((n, 1))], [np.ones((1, n)), np.zeros((1, 1))]])
    u = np.linalg.solve(K, np.append(-qp.c, 1.0))[:n]
    projection = QuadraticProgram(
        H=np.eye(n), c=-u, Aeq=np.ones((1, n)), beq=[1.0], Gineq=-np.eye(n), hineq=np.zeros(n)
    )
    assert np.max(np.abs(x0 - solve_qp(projection).y)) <= 1e-12 * (1.0 + np.abs(u).max())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), dim=st.integers(1, 32), count=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_shared_simplex_start_matches_simplex_start(n, dim, count, seed):
    # the QPs of one prediction pass share H = 2 lam Q, Q a cosine matrix of
    # random embeddings plus COV_RIDGE as PortfolioAdapter.predict builds it;
    # one SimplexStart, factored once, serves each as a SimplexStart of its own does
    rng = np.random.default_rng(seed)
    Q = domains.cosine_similarity_matrix(rng.normal(size=(n, dim)))
    Q += domains.COV_RIDGE * np.eye(n)
    risk = rng.uniform(0.1, 5.0)
    shared = domains.SimplexStart(2.0 * risk * Q)
    for _ in range(count):
        qp = portfolio_qp(rng.normal(0.0, 0.05, n), Q, risk)
        x0, working = shared(qp)
        x0_alone, working_alone = own_start(qp)
        assert np.max(np.abs(x0 - x0_alone)) <= 1e-12
        assert np.array_equal(working, working_alone)


def unregularized_simplex_start(qp):
    """The simplex crash start as first written: the projection of the minimizer of
    the objective itself over the equality row."""
    n = qp.n
    K = np.block([[qp.H, np.ones((n, 1))], [np.ones((1, n)), np.zeros((1, 1))]])
    u = np.linalg.solve(K, np.append(-qp.c, 1.0))[:n]
    v = np.sort(u)[::-1]
    excess = np.cumsum(v) - 1.0
    rho = np.count_nonzero(v * np.arange(1, n + 1) > excess)
    x0 = np.maximum(u - excess[rho - 1] / rho, 0.0)
    return x0, x0 == 0.0


def test_simplex_start_takes_no_more_pivots_than_the_unregularized_start(monkeypatch):
    # fixed QPs shaped like the models' predictions (cosine H of 32-dimensional
    # embeddings plus COV_RIDGE, small returns) at n = 50 and 100, and
    # true-covariance QPs: the ridge must not cost pivots in total, and both
    # starts reach one optimum
    rng = np.random.default_rng(17)
    qps = []
    for n in (50, 100):
        for _ in range(8):
            Q = domains.cosine_similarity_matrix(rng.normal(size=(n, 32)))
            qps.append(portfolio_qp(
                rng.normal(0.0, 0.01, n), Q + domains.COV_RIDGE * np.eye(n), 2.0
            ))
        for inst in domains.gen_portfolio_data(n, 60, seed=18).instances[:8]:
            qps.append(portfolio_qp(inst.true_returns, inst.true_covariance, 2.0))
    calls = []
    equality_solve = optlayer._equality_solve
    monkeypatch.setattr(
        optlayer, "_equality_solve", lambda K, rhs: calls.append(1) or equality_solve(K, rhs)
    )

    def solve_all(start):
        del calls[:]
        ys = [solve_qp(qp, max_iter=2000, start=start(qp)).y for qp in qps]
        return len(calls), ys

    old_calls, old_ys = solve_all(unregularized_simplex_start)
    new_calls, new_ys = solve_all(own_start)
    assert new_calls <= old_calls, (new_calls, old_calls)
    for y_new, y_old in zip(new_ys, old_ys):
        assert np.max(np.abs(y_new - y_old)) <= 1e-9


def test_movierec_oracle_beats_relaxed_rounding():
    ds = domains.gen_movierec_data(15, 6, 2, 5, seed=16, spread_max=2.0)
    inst = ds.instances[0]
    x = domains.movierec_oracle_decision(inst.preferences, 4, 2)
    assert x.sum() == pytest.approx(4.0)
    assert set(np.unique(x)) <= {0.0, 1.0}
    greedy = domains.movierec_greedy_set(inst.preferences, 4, 2)
    f = lambda v: domains.movierec_objective(v, inst.preferences, 2)
    assert f(x) >= f(greedy) - 1e-12


def reference_greedy_set(theta, budget_k, picks):
    """The greedy as first written: every candidate's gain is a full
    objective evaluation of the set with it added."""
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    chosen = np.zeros(n)
    current = 0.0
    for _ in range(min(budget_k, n)):
        best_gain, best_i = 0.0, -1
        for i in range(n):
            if chosen[i]:
                continue
            trial = chosen.copy()
            trial[i] = 1.0
            gain = domains.movierec_objective(trial, theta, picks) - current
            if gain > best_gain + 1e-15:
                best_gain, best_i = gain, i
        if best_i < 0:
            break
        chosen[best_i] = 1.0
        current += best_gain
    return chosen


@st.composite
def greedy_cases(draw):
    """Preferences on an integer or half-integer grid, so gains tie exactly,
    with negative entries, all-zero rows, budgets past n and picks up to n
    (few unchosen movies left once the set grows)."""
    n = draw(st.integers(1, 8))
    users = draw(st.integers(1, 5))
    step = draw(st.sampled_from([1.0, 0.5]))
    cells = draw(st.lists(st.integers(-3, 4), min_size=n * users, max_size=n * users))
    theta = step * np.array(cells, dtype=float).reshape(n, users)
    theta[draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    budget_k = draw(st.integers(1, n + 1))
    near_n = draw(st.booleans())
    picks = n - draw(st.integers(0, min(1, n - 1))) if near_n else draw(st.integers(1, n))
    return theta, budget_k, picks


@settings(max_examples=400, deadline=None, derandomize=True)
@given(greedy_cases())
def test_greedy_set_matches_reference(case):
    theta, budget_k, picks = case
    expected = reference_greedy_set(theta, budget_k, picks)
    assert domains.movierec_greedy_set(theta, budget_k, picks).tolist() == expected.tolist()


def test_greedy_set_matches_reference_at_generator_defaults():
    ds = domains.gen_movierec_data(100, 30, 2, 20, seed=18, spread_max=3.5)
    for inst in ds.instances:
        expected = reference_greedy_set(inst.preferences, 10, 3)
        assert np.array_equal(domains.movierec_greedy_set(inst.preferences, 10, 3), expected)


def test_round_top_k():
    x = np.array([0.1, 0.9, 0.5, 0.9])
    out = domains.round_top_k(x, 2)
    assert np.array_equal(out, [0.0, 1.0, 0.0, 1.0])

