"""Benchmark decision problems: Markowitz portfolio and movie broadcast.

Both ship synthetic generators plus CSV ingestion through the same
featurization (a table with a missing column, or a cell missing or not a
number, raises BadDimensions),
objective/gradient oracles, and oracle decisions under the true parameters;
regret is the oracle's objective minus the decision's.  The feasible sets
are optlayer's simplex_base and box_budget_base.
"""

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import BadDimensions, DimensionMismatch, SingularMatrix
from .optlayer import QuadraticProgram, _kkt_matrix, simplex_base, solve_box_budget_qp, solve_qp

RETURN_LAGS = 5
ROLLING_SHORT = 5
ROLLING_LONG = 10
FORWARD_WINDOW = 10
N_FEATURES = RETURN_LAGS + 2
COSINE_NORM_FLOOR = 1e-12
COV_RIDGE = 1e-6
N_FACTORS = 3  # common factors behind the synthetic portfolio noise
# SimplexStart's ridge, relative to the mean eigenvalue of H.  Of 0.003-0.1,
# 0.01 took the fewest pivots on true-covariance QPs, and 29-40% fewer than
# no ridge on predicted ones (39.0 against 54.8 per solve at n=100, 20.9
# against 34.8 at n=50); larger values cost pivots on true-covariance QPs
START_RIDGE = 0.01
ALTERNATION_ROUNDS = 10  # cap on movie-rec selection-freeze rounds per decision


@dataclass
class PortfolioInstance:
    features: np.ndarray  # (n_securities, N_FEATURES)
    true_returns: np.ndarray
    true_covariance: np.ndarray


@dataclass
class MovieRecInstance:
    preferences: np.ndarray  # (n_movies, n_users), entries in [0, 1]
    user_features: np.ndarray  # (n_users, n_feature_movies)


@dataclass
class Dataset:
    domain: str
    instances: list
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    meta: dict = field(default_factory=dict)


def split_indices(count: int):
    """70/10/20 split; portfolio uses it chronologically, movie-rec by group."""
    n_train = int(np.floor(0.7 * count))
    n_val = int(np.floor(0.1 * count))
    idx = np.arange(count)
    return idx[:n_train], idx[n_train : n_train + n_val], idx[n_train + n_val :]


def cosine_similarity_matrix(rows) -> np.ndarray:
    """Pairwise cosine of the rows; zero rows use the convention of 0
    off-diagonal and 1 on the diagonal."""
    rows = np.asarray(rows, dtype=float)
    norms = np.linalg.norm(rows, axis=1)
    safe = np.where(norms < COSINE_NORM_FLOOR, 1.0, norms)
    U = rows / safe[:, None]
    Q = U @ U.T
    np.fill_diagonal(Q, 1.0)
    return Q


# ---------------------------------------------------------------------------
# portfolio


def _portfolio_dataset(prices: np.ndarray) -> Dataset:
    """Featurize a price matrix (n_securities x n_price_days) and split the
    instances chronologically 70/10/20.

    Day t yields features from the trailing ten returns, the next-day return
    as the ground-truth p, and the cosine of the next ten returns (plus a
    small ridge) as the ground-truth covariance.
    """
    n, n_prices = prices.shape
    if n_prices < ROLLING_LONG + FORWARD_WINDOW + 1:
        raise BadDimensions("price history too short for the feature windows")
    returns = prices[:, 1:] / prices[:, :-1] - 1.0  # returns[:, t-1] is r_t
    last_r = returns.shape[1]

    def r(t):
        return returns[:, t - 1]

    instances = []
    for t in range(ROLLING_LONG, last_r - FORWARD_WINDOW + 1):
        lags = np.stack([r(t - i) for i in range(RETURN_LAGS - 1, -1, -1)], axis=1)
        short = np.stack([r(t - i) for i in range(ROLLING_SHORT)], axis=1).mean(axis=1)
        long = np.stack([r(t - i) for i in range(ROLLING_LONG)], axis=1).mean(axis=1)
        feats = np.column_stack([lags, short, long])
        fwd = np.stack([r(t + 1 + i) for i in range(FORWARD_WINDOW)], axis=1)
        Q = cosine_similarity_matrix(fwd) + COV_RIDGE * np.eye(n)
        instances.append(
            PortfolioInstance(features=feats, true_returns=r(t + 1).copy(), true_covariance=Q)
        )
    train, val, test = split_indices(len(instances))
    return Dataset(
        domain="portfolio",
        instances=instances,
        train_idx=train,
        val_idx=val,
        test_idx=test,
        meta={"prices": prices},
    )


def gen_portfolio_data(
    n_securities: int,
    n_days: int,
    seed: int,
) -> Dataset:
    """Synthetic daily prices from a mean-reverting multiplicative process
    with factor-correlated noise; yields exactly n_days instances split
    chronologically 70/10/20."""
    if n_days <= 20:
        raise BadDimensions("n_days must exceed 20")
    if n_securities < 1:
        raise BadDimensions("need at least one security")
    rng = np.random.default_rng(seed)
    n_prices = n_days + ROLLING_LONG + FORWARD_WINDOW
    mu = np.log(100.0) + rng.normal(0.0, 0.2, n_securities)
    loadings = rng.normal(0.0, 0.01, size=(n_securities, N_FACTORS))
    kappa = 0.1
    idio = 0.005
    s = mu + rng.normal(0.0, 0.05, n_securities)
    log_prices = [s.copy()]
    for _ in range(n_prices - 1):
        shock = loadings @ rng.normal(size=N_FACTORS) + idio * rng.normal(size=n_securities)
        s = s + kappa * (mu - s) + shock
        log_prices.append(s.copy())
    return _portfolio_dataset(np.exp(np.array(log_prices).T))


def export_portfolio_csv(dataset: Dataset, path) -> None:
    """Write the underlying prices as `day,security,price` rows."""
    prices = dataset.meta["prices"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["day", "security", "price"])
        for day in range(prices.shape[1]):
            for sec in range(prices.shape[0]):
                w.writerow([day, sec, format(prices[sec, day], ".12g")])


def _read_table(path, columns) -> list:
    """(int, int, float) per data row of the CSV at path, read from its
    three named columns.  A missing column, or a cell that is missing or
    does not parse, raises BadDimensions naming the file and line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in columns if name not in (reader.fieldnames or ())]
        if missing:
            raise BadDimensions(f"{path}, line 1: no {missing[0]!r} column")
        entries = []
        for row in reader:
            cells = [row[name] for name in columns]
            try:
                entries.append((int(cells[0]), int(cells[1]), float(cells[2])))
            except (TypeError, ValueError):
                raise BadDimensions(f"{path}, line {reader.line_num}: cannot read "
                                    f"{', '.join(columns)} from {cells}") from None
    return entries


def ingest_portfolio_csv(path) -> Dataset:
    """Rebuild a portfolio Dataset from `day,security,price` rows through the
    same featurization as the generator."""
    entries = _read_table(path, ("day", "security", "price"))
    day_pos = {d: i for i, d in enumerate(sorted({d for d, _, _ in entries}))}
    sec_pos = {s: i for i, s in enumerate(sorted({s for _, s, _ in entries}))}
    prices = np.full((len(sec_pos), len(day_pos)), np.nan)
    for d, s, v in entries:
        prices[sec_pos[s], day_pos[d]] = v
    if np.any(np.isnan(prices)):
        raise BadDimensions("price table has missing (day, security) cells")
    return _portfolio_dataset(prices)


def portfolio_objective(x, p, Q, risk_aversion: float) -> float:
    """Penalized immediate return p.x - lambda x^T Q x (maximization form)."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if x.shape != p.shape or Q.shape != (x.shape[0], x.shape[0]):
        raise DimensionMismatch("objective pieces do not chain")
    if risk_aversion < 0:
        raise ValueError("risk aversion must be nonnegative")
    return float(p @ x - risk_aversion * x @ Q @ x)


def portfolio_grad(x, p, Q, risk_aversion: float) -> np.ndarray:
    return np.asarray(p, dtype=float) - 2.0 * risk_aversion * np.asarray(Q) @ np.asarray(x)


class SimplexStart:
    """The portfolio QPs with Hessian H, such as every decision of one
    prediction pass, which share the pass's predicted Q, and crash starts
    (x0, working) for solve_qp on them.

    qp(p) is the QP of returns p: minimizing 0.5 x^T H x - p^T x on the
    simplex maximizes the penalized return when H = 2 lambda Q.  Each is a
    sibling (QuadraticProgram.with_c) of one pass QP on optlayer.simplex_base,
    built at the first call, so a pass checks H and the simplex rows once and
    classifies and assembles them once.

    u minimizes the objective with H + delta I, delta = START_RIDGE tr(H) / n,
    over the equality row alone.  The ridge keeps u near the simplex: a
    predicted H is a rank-32 cosine matrix plus COV_RIDGE, whose
    unregularized minimizer reaches |u| ~ 6e3 and projects to a one-asset
    vertex.  The ridge KKT matrix depends on H alone, so it is LU-factored
    (LAPACK dgetrf) at the first call and each call solves against it.  The
    equality row and its total are the QP's.  x0 is u projected onto the
    simplex by the sort rule: x0 = max(u - tau, 0) with tau set so that x0
    meets the total.  The working rows are the bounds -x_j <= 0 of x0's zero
    coordinates.
    """

    def __init__(self, H):
        self.H = H
        self._lu = None
        self._qp = None

    def qp(self, p) -> QuadraticProgram:
        if self._qp is None:
            self._qp = simplex_base(self.H.shape[0]).qp(self.H)
        return self._qp.with_c(-np.asarray(p, dtype=float))

    def __call__(self, qp):
        n = qp.n
        if self._lu is None:
            K = _kkt_matrix(self.H, qp.Aeq)
            K[np.arange(n), np.arange(n)] += START_RIDGE * np.trace(self.H) / n
            lu, piv, info = lapack.dgetrf(K, overwrite_a=True)
            if info > 0:
                raise SingularMatrix(f"dgetrf: U[{info - 1}, {info - 1}] is exactly zero")
            self._lu = lu, piv
        u = lapack.dgetrs(*self._lu, np.concatenate([-qp.c, qp.beq]))[0][:n]
        v = np.sort(u)[::-1]
        excess = np.cumsum(v) - qp.beq[0]
        rho = np.count_nonzero(v * np.arange(1, n + 1) > excess)  # coordinates left positive
        x0 = np.maximum(u - excess[rho - 1] / rho, 0.0)
        return x0, x0 == 0.0


def portfolio_oracle_decision(p, Q, risk_aversion: float, max_iter: int = 0) -> np.ndarray:
    """The decision maximizing the penalized return under (p, Q), from its
    SimplexStart's crash start as a pass's decisions start."""
    start = SimplexStart(2.0 * risk_aversion * np.asarray(Q, dtype=float))
    qp = start.qp(p)
    return solve_qp(qp, max_iter=max_iter, start=start(qp)).y


# ---------------------------------------------------------------------------
# movie broadcast


def gen_movierec_data(
    n_movies: int,
    users_per_group: int,
    n_groups: int,
    n_feature_movies: int,
    seed: int,
    latent_dim: int = 6,
    latent_scale: float = 1.0,
    noise_scale: float = 0.1,
    feature_noise: float = 0.05,
    popularity_scale: float = 0.0,
    spread_max: float = 0.0,
) -> Dataset:
    """Low-rank latent factors generate preferences in [0, 1]; user features
    are noisy ratings on held-out movies from the same factors; groups split
    70/10/20.

    popularity_scale adds a per-movie logit bias shared across users, giving
    the preference matrix a global quality axis.  spread_max draws a
    per-movie noise scale in [0.1 * spread_max, spread_max]: high-spread
    movies are loved by some users and ignored by others, which matters for
    top-picks selection but is invisible to a conditional-mean predictor."""
    for name, v in [
        ("n_movies", n_movies),
        ("users_per_group", users_per_group),
        ("n_groups", n_groups),
        ("n_feature_movies", n_feature_movies),
    ]:
        if v < 1:
            raise BadDimensions(f"{name} must be >= 1")
    rng = np.random.default_rng(seed)
    n_users = users_per_group * n_groups
    U = latent_scale * rng.normal(size=(n_users, latent_dim))
    V = latent_scale * rng.normal(size=(n_movies, latent_dim))
    V_feat = latent_scale * rng.normal(size=(n_feature_movies, latent_dim))
    popularity = popularity_scale * rng.normal(size=(n_movies, 1))
    spread = (
        rng.uniform(0.1 * spread_max, spread_max, size=(n_movies, 1))
        if spread_max > 0
        else np.zeros((n_movies, 1))
    )
    noise = noise_scale * rng.normal(size=(n_movies, n_users))
    idio = spread * rng.normal(size=(n_movies, n_users))
    theta = np.clip(_sigmoid(V @ U.T + popularity + idio + noise), 0.0, 1.0)
    features = _sigmoid(U @ V_feat.T) + feature_noise * rng.normal(
        size=(n_users, n_feature_movies)
    )
    return _movierec_dataset(theta, features, users_per_group)


def _movierec_dataset(theta, features, users_per_group: int) -> Dataset:
    """One instance per group of users_per_group consecutive users (columns of
    theta, rows of features); groups split 70/10/20."""
    n_movies, n_users = theta.shape
    n_groups = n_users // users_per_group
    instances = []
    for g in range(n_groups):
        cols = slice(g * users_per_group, (g + 1) * users_per_group)
        instances.append(
            MovieRecInstance(preferences=theta[:, cols].copy(), user_features=features[cols].copy())
        )
    train, val, test = split_indices(n_groups)
    return Dataset(
        domain="movierec",
        instances=instances,
        train_idx=train,
        val_idx=val,
        test_idx=test,
        meta={"n_movies": n_movies},
    )


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def export_movierec_csv(dataset: Dataset, path) -> None:
    """`user,movie,rating` rows; movie ids below n_movies carry the true
    preferences, ids above carry the feature-movie ratings."""
    n_movies = dataset.meta["n_movies"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "movie", "rating"])
        user_base = 0
        for inst in dataset.instances:
            n_users = inst.preferences.shape[1]
            for j in range(n_users):
                uid = user_base + j
                for i in range(n_movies):
                    w.writerow([uid, i, format(inst.preferences[i, j], ".12g")])
                for hidx in range(inst.user_features.shape[1]):
                    w.writerow(
                        [uid, n_movies + hidx, format(inst.user_features[j, hidx], ".12g")]
                    )
            user_base += n_users


def ingest_movierec_csv(path, n_movies: int, users_per_group: int) -> Dataset:
    """Rebuild a movie-rec Dataset from `user,movie,rating` rows; users are
    grouped in consecutive blocks of users_per_group.  Raises BadDimensions
    when a (user, movie) cell is missing, a movie id is negative or the
    feature-movie ids do not run consecutively from n_movies."""
    entries = _read_table(path, ("user", "movie", "rating"))
    user_ids = sorted({u for u, _, _ in entries})
    if any(m < 0 for _, m, _ in entries):
        raise BadDimensions("movie ids must be nonnegative")
    feature_ids = sorted({m for _, m, _ in entries if m >= n_movies})
    if feature_ids != list(range(n_movies, n_movies + len(feature_ids))):
        raise BadDimensions(f"feature-movie ids do not run consecutively from {n_movies}")
    user_pos = {u: i for i, u in enumerate(user_ids)}
    n_users = len(user_ids)
    if n_users % users_per_group:
        raise BadDimensions("user count is not a multiple of users_per_group")
    theta = np.full((n_movies, n_users), np.nan)
    features = np.full((n_users, len(feature_ids)), np.nan)
    for u, m, r in entries:
        if m < n_movies:
            theta[m, user_pos[u]] = np.clip(r, 0.0, 1.0)
        else:
            features[user_pos[u], m - n_movies] = r
    if np.isnan(theta).any() or np.isnan(features).any():
        raise BadDimensions("rating table has missing (user, movie) cells")
    return _movierec_dataset(theta, features, users_per_group)


def _top_picks(x, theta, picks: int):
    """(vals, part, value) of vals = x_i * theta_ij: part is vals partitioned
    along each user's column at n - picks, so row n - picks holds each user's
    picks-th largest value, and value is the sum of part's top picks rows
    (the sum of vals when picks = n)."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n = x.shape[0]
    if theta.shape[0] != n:
        raise DimensionMismatch("theta rows must match len(x)")
    if picks > n:
        raise DimensionMismatch("picks cannot exceed the number of movies")
    vals = x[:, None] * theta
    part = np.partition(vals, n - picks, axis=0)
    return vals, part, float(vals.sum() if picks == n else part[n - picks :].sum())


def movierec_objective(x, theta, picks: int) -> float:
    """Each user gets the sum of their picks largest x_i * theta_ij values."""
    return _top_picks(x, theta, picks)[2]


def movierec_objective_supergradient(x, theta, picks: int):
    """(movierec_objective, g) from one partition of x_i * theta_ij, with
    g_i = sum_j theta_ij over the users whose top-picks set (movierec_selection)
    contains movie i: the movie-rec loss's value and supergradient."""
    theta = np.asarray(theta, dtype=float)
    vals, part, value = _top_picks(x, theta, picks)
    return value, (_select(vals, part[-picks], picks) * theta).sum(axis=1)


def movierec_selection(x, theta, picks: int) -> np.ndarray:
    """0/1 matrix of each user's top-`picks` movies by x_i * theta_ij, for
    finite x and theta.

    Ties break toward the lowest movie index, as a stable sort on descending
    value would.  One partition finds each user's picks-th largest value t,
    and every value at or above t is picked; only when some user has more
    than picks of them does the tie-fill run: every value above t, and the
    lowest-index values equal to t for the picks left."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    vals = x[:, None] * theta
    return _select(vals, np.partition(vals, vals.shape[0] - picks, axis=0)[-picks], picks)


def _select(vals, t, picks: int) -> np.ndarray:
    """movierec_selection of the products vals, given each column's picks-th
    largest value t."""
    sel = vals >= t
    # each column holds at least picks values >= t, so a larger total is a tie at t
    if np.count_nonzero(sel) > picks * vals.shape[1]:
        above = vals > t
        at = vals == t
        left = picks - np.count_nonzero(above, axis=0)
        sel = above | (at & (np.cumsum(at, axis=0) <= left))
    return sel.astype(float)


def movierec_alternate(theta, budget_k: int, picks: int, solve, x0=None):
    """Alternate selection freezes with exact solves of the frozen problem.

    Freezing each user's top picks at x turns the objective into c^T x with
    c_i = sum_j sel_ij theta_ij; solve(c) returns (x, result) for that frozen
    problem.  Rounds stop when the selection at the new x equals the frozen
    one, or after ALTERNATION_ROUNDS.  x0 seeds the first selection (uniform
    budget spread when omitted).  Returns (x, result, c, sel) of the last
    round; at the round cap sel is the selection at x, not the one c was
    frozen at.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    x = np.full(n, min(1.0, budget_k / n)) if x0 is None else np.asarray(x0, dtype=float)
    sel = movierec_selection(x, theta, picks)
    for _ in range(ALTERNATION_ROUNDS):
        c = (sel * theta).sum(axis=1)
        x, result = solve(c)
        new_sel = movierec_selection(x, theta, picks)
        if np.array_equal(new_sel, sel):
            break
        sel = new_sel
    return x, result, c, sel


def movierec_solve_relaxed(theta, budget_k: int, picks: int, gamma: float = 0.1, x0=None):
    """Continuous broadcast decision by movierec_alternate with exact solves
    of the strictly concave box-budget QP max c^T x - gamma ||x||^2; each
    alternation cannot decrease the regularized objective.  Returns
    (x, sol, c_frozen, sel).
    """

    def solve(c):
        sol = solve_box_budget_qp(c, gamma, budget_k)
        return sol.y, sol

    return movierec_alternate(theta, budget_k, picks, solve, x0=x0)


def movierec_greedy_set(theta, budget_k: int, picks: int) -> np.ndarray:
    """Standard greedy for the binary broadcast problem: repeatedly add the
    movie with the largest objective gain.

    Every candidate's gain comes from one n x U pass per step.  User u's
    values are theta_iu for chosen movies and 0 for the rest; let t_u and b_u
    be the picks-th and (picks+1)-th largest of them (b_u = -inf when
    picks = n).  Choosing movie i swaps one of u's zeros for theta_iu, which
    adds max(0, theta_iu - t_u) when t_u > 0 and max(theta_iu, b_u) when
    t_u <= 0.  While at least picks + 1 movies are unchosen, b_u >= 0, so
    both read max(0, theta_iu - t_u); the second form matters only near the
    end of small instances with negative entries.  Candidates are scanned in
    index order and a later one wins only by more than 1e-15, so ties go to
    the lowest index; the greedy stops when no gain clears 1e-15.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    if picks > n:
        raise DimensionMismatch("picks cannot exceed the number of movies")
    chosen = np.zeros(n)
    # rows 0..n-1 hold the current values; the -inf row is b_u when picks = n
    vals = np.zeros((n + 1, theta.shape[1]))
    vals[n] = -np.inf
    for _ in range(min(budget_k, n)):
        part = np.partition(vals, (n - picks, n + 1 - picks), axis=0)
        below, t = part[n - picks], part[n + 1 - picks]
        gains = np.where(
            t > 0, np.maximum(theta - t, 0.0), np.maximum(theta, below)
        ).sum(axis=1)
        best_gain, best_i = 0.0, -1
        for i, gain in enumerate(gains.tolist()):
            if not chosen[i] and gain > best_gain + 1e-15:
                best_gain, best_i = gain, i
        if best_i < 0:
            break
        chosen[best_i] = 1.0
        vals[best_i] = theta[best_i]
    return chosen


def round_top_k(x, k: int) -> np.ndarray:
    """Greedy rounding of a relaxed decision to its k largest coordinates."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[np.argsort(-x, kind="stable")[:k]] = 1.0
    return out


def movierec_oracle_decision(theta, budget_k: int, picks: int, gamma: float = 0.1) -> np.ndarray:
    """Best decision under the true preferences with the same solver family:
    the rounded relaxed alternation solve or the greedy set, whichever scores
    higher."""
    x_relaxed, _, _, _ = movierec_solve_relaxed(theta, budget_k, picks, gamma=gamma)
    candidates = [round_top_k(x_relaxed, budget_k), movierec_greedy_set(theta, budget_k, picks)]
    scores = [movierec_objective(c, theta, picks) for c in candidates]
    return candidates[int(np.argmax(scores))]

