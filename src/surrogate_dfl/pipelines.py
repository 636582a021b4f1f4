"""Training regimes (two-stage, decision-focused, surrogate), evaluation with
regret and wall-clock metrics, and the multi-seed experiment runner.

One loop (_train) trains every method; a method is a per-instance step and a
validation score.  Two-stage steps on and scores the squared prediction
error; the end-to-end methods step through the optimization layer and score
the regret they optimize, as evaluate scores the test split (_regrets).  The
loop keeps one best checkpoint (parameters and P_raw) and writes no file.

A pass (a training epoch, a validation score or one timed test pass of
evaluate) predicts once: one adapter.predict call over all of its
instances.  A training epoch then steps per instance and backpropagates
once, through backprop_models on the pass's theta-gradients summed.  What
depends only on a pass's shared data is built once per pass.  In portfolio
every theta of a pass holds the same predicted Q and the same
domains.SimplexStart, so the pass's full QPs are siblings of one pass QP
(their checks, row classes and KKT matrix are shared) and its cold
decisions share one factorization of the crash start's KKT matrix.
Movie-rec's frozen QPs are siblings of the one box-budget QP that optlayer
holds per (n, gamma, k).  What depends only on P is built once per P in
training: the y-space constraint set (surrogate.SurrogateProblem), which an
epoch's validation and the next epoch's training share.  The set makes
every y-space solve on it (SurrogateProblem.solve), so it holds their
starts and the y-space QP of the pass Hessian, which a pass's solves share.
Each of evaluate's timed passes builds a new set inside its timing, since
inference builds it too, and so every repeat makes the same solves.

Decision-focused training solves the full problem per instance and chains
df/dw = df/dx . dx*/dtheta . dtheta/dw through the frozen KKT system.  The
surrogate regime is that regime composed with x = P y: it solves only the
m-dimensional reparameterized problem, lifts the answer, and takes the full
theta-gradient at (P z_y, P y*).  Each instance's dL/dP comes from the same
adjoint (kkt_jacobian_P); an epoch chains their mean to P_raw once (grad_wrt_P).

The adapters share one base (_Adapter): the size checks, the parameter list
in checkpoint order, the oracle memo and the identity test decision; a
subclass holds only domain math, the decision loss among it.  The training
loop owns the start store (each training instance's last decision seeds its
next solve; validation and evaluation start cold), so a job depends only on
its (method, seed).  A run builds one adapter and one dataset per seed and
shares them across the seed's methods (run_single's seed store): the seed's
data is generated once, and each validation or test instance's oracle is
solved once, for every method.  No job changes the shared dataset.
"""

import copy
import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import domains
from .diff import (
    adam_step,
    embedding_cosine_backward,
    embedding_cosine_matrix,
    init_adam,
    init_embeddings,
    init_mlp,
    mlp_backward_batch,
    mlp_forward_batch,
)
from .errors import (
    BadDimensions,
    EmptySplit,
    Infeasible,
    MaxIterations,
    NumericalBreakdown,
    SingularKKT,
    SingularMatrix,
)
from .optlayer import (
    box_budget_base,
    box_budget_qp,
    kkt_adjoint,
    kkt_jacobian_P,
    simplex_base,
    solve_qp,
)
from .surrogate import (
    MODES,
    Reparameterization,
    default_m,
    grad_wrt_P,
    init_reparam,
    materialize,
    transform_problem,
)

METHODS = ("two-stage", "decision-focused", "surrogate")


def subseed(seed, tag: int):
    """Composite rng seed; keeps entropy flat for numpy's SeedSequence."""
    if isinstance(seed, (tuple, list)):
        return tuple(seed) + (tag,)
    return (seed, tag)


@dataclass
class TrainConfig:
    domain: str = "portfolio"
    methods: tuple = METHODS
    learning_rate: float = 0.01
    p_learning_rate: float = 0.01
    max_epochs: int = 100
    patience: int = 3
    n_seeds: int = 30
    surrogate_m: int = 0  # 0 -> ceil(0.1 n)
    surrogate_mode: str = "auto"  # auto -> column-simplex; see make_reparam
    # portfolio sizes
    n_securities: int = 50
    n_days: int = 100
    risk_aversion: float = 2.0
    # movie-rec sizes
    n_movies: int = 100
    users_per_group: int = 30
    n_groups: int = 10
    n_feature_movies: int = 20
    budget_k: int = 10
    picks_per_user: int = 3
    movie_latent_dim: int = 6
    movie_latent_scale: float = 0.4
    movie_noise: float = 0.1
    movie_feature_noise: float = 0.2
    movie_popularity: float = 0.3
    movie_spread: float = 3.5
    # predictive models
    hidden_size: int = 100
    embedding_dim: int = 32
    # solver knobs
    qp_max_iter: int = 0  # 0 -> max(200, 10 (n + rows)) per QP
    gamma: float = 0.1
    # run control
    timing_repeats: int = 1
    max_workers: int = 0  # 0 -> min(n_seeds, usable cpus)
    data_in: str = ""

    def __post_init__(self):
        """Rejects an unknown domain, method or surrogate mode (ValueError)."""
        if self.domain not in ADAPTERS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if not self.methods:
            raise ValueError("methods is empty")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method}")
        if self.surrogate_mode != "auto" and self.surrogate_mode not in MODES:
            raise ValueError(f"unknown mode {self.surrogate_mode!r}")

    def seeds(self):
        return list(range(self.n_seeds))


@dataclass
class ReportRow:
    method: str
    seed: int
    mean_regret: float
    train_sec_per_epoch: float
    inference_sec: float
    epochs_run: int
    status: str = "ok"


@dataclass
class RegretReport:
    rows: list
    aggregates: dict = field(default_factory=dict)

    def aggregate(self):
        self.aggregates = {}
        by_method = {}
        for row in self.rows:
            if row.status == "ok":
                by_method.setdefault(row.method, []).append(row)
        for method, rows in by_method.items():
            regrets = np.array([r.mean_regret for r in rows])
            stderr = (
                float(np.std(regrets, ddof=1) / np.sqrt(len(regrets)))
                if len(regrets) > 1
                else 0.0
            )
            self.aggregates[method] = {
                "mean_regret": float(np.mean(regrets)),
                "stderr_regret": stderr,
                "mean_train_sec": float(np.mean([r.train_sec_per_epoch for r in rows])),
                "mean_inference_sec": float(np.mean([r.inference_sec for r in rows])),
            }
        return self.aggregates


# ---------------------------------------------------------------------------
# domain adapters


class _Adapter:
    """The size checks (BadDimensions), parameters, oracle memo and test
    decision every adapter shares; a subclass adds its domain math."""

    def __init__(self, config: TrainConfig):
        if config.hidden_size < 1:
            raise BadDimensions(f"hidden_size must be at least 1, got {config.hidden_size}")
        if config.qp_max_iter < 0:
            raise BadDimensions(f"qp_max_iter must be 0 (the default cap) or more, "
                                f"got {config.qp_max_iter}")
        self.config = config
        self._oracle_cache = {}

    def params(self, models):
        """The models' parameter arrays in models' order, the checkpoint order."""
        return [p for model in models.values() for p in model.parameters()]

    def set_params(self, models, params):
        arrays = iter(params)
        for model in models.values():
            model.set_parameters([next(arrays) for _ in model.parameters()])

    def oracle(self, inst):
        """objective of inst's oracle_decision, solved once per instance."""
        hit = self._oracle_cache.get(id(inst))
        if hit is None:
            # the entry holds inst, so no other instance can take its id
            hit = self._oracle_cache[id(inst)] = (
                inst, self.objective(self.oracle_decision(inst), inst))
        return hit[1]

    def test_decision(self, x):
        return x


class PortfolioAdapter(_Adapter):
    """Markowitz portfolio: MLP predicts per-security returns, a learned
    embedding table predicts the covariance as cosine similarities."""

    def __init__(self, config: TrainConfig):
        super().__init__(config)
        self.lam = config.risk_aversion
        self.n = config.n_securities
        self.base = simplex_base(self.n)

    def generate(self, seed):
        return domains.gen_portfolio_data(self.n, self.config.n_days, seed)

    def ingest(self, path):
        dataset = domains.ingest_portfolio_csv(path)
        n = dataset.meta["prices"].shape[0]
        if n != self.n:
            raise BadDimensions(f"{path} has {n} securities, but n_securities is {self.n}")
        return dataset

    def init_models(self, seed):
        h = self.config.hidden_size
        return {
            "mlp": init_mlp([domains.N_FEATURES, h, h, 1], seed),
            "emb": init_embeddings(self.n, self.config.embedding_dim, subseed(seed, 1)),
        }

    def predict(self, models, instances):
        """(thetas, cache) of one pass: one MLP forward over every instance's
        feature rows and one cosine matrix, so every theta holds the same Q
        and the same SimplexStart, whose factorization its cold decisions share."""
        p_hat, mlp_cache = mlp_forward_batch(
            models["mlp"], np.vstack([inst.features for inst in instances])
        )
        Q_cos, emb_cache = embedding_cosine_matrix(models["emb"])
        Q_hat = Q_cos + domains.COV_RIDGE * np.eye(self.n)
        start = domains.SimplexStart(2.0 * self.lam * Q_hat)
        thetas = [{"p": p, "Q": Q_hat, "start": start}
                  for p in p_hat[:, 0].reshape(len(instances), self.n)]
        return thetas, (mlp_cache, emb_cache)

    def prediction_loss(self, theta, inst):
        """Squared prediction error of theta and its theta-gradient."""
        dp = theta["p"] - inst.true_returns
        dQ = theta["Q"] - inst.true_covariance
        return float(dp @ dp + np.sum(dQ * dQ)), {"p": 2.0 * dp, "Q": 2.0 * dQ}

    def decision_full(self, theta, x0=None):
        """(x, sol, ctx) of the full QP, started at x0 with the bounds of its
        zero coordinates working, or at theta's SimplexStart without x0.
        x0, the instance's previous decision, stays feasible: the constraints
        do not depend on theta."""
        qp = theta["start"].qp(theta["p"])
        start = theta["start"](qp) if x0 is None else (x0, x0 == 0.0)
        sol = solve_qp(qp, max_iter=self.config.qp_max_iter, start=start)
        return sol.y, sol, (qp,)

    def decision_surrogate(self, theta, sp, x0=None):
        """(x = P y*, sol, sqp, ctx) of the y-space QP; x0 is ignored."""
        x, (sqp, qp, sol) = sp.solve(theta["start"].H, -theta["p"],
                                     max_iter=self.config.qp_max_iter)
        return x, sol, sqp, (qp,)

    def objective(self, x, inst):
        return domains.portfolio_objective(
            x, inst.true_returns, inst.true_covariance, self.lam
        )

    def loss_grad_x(self, x, inst):
        """The decision loss, the negated achieved quality, and its x-gradient."""
        return -self.objective(x, inst), -domains.portfolio_grad(
            x, inst.true_returns, inst.true_covariance, self.lam)

    def theta_grads(self, ctx, z_x, x):
        """dL/dtheta at the x-space adjoint z_x and decision x: c = -p and
        H = 2 lam Q give dL/dp = z_x, dL/dQ = -2 lam z_x x^T."""
        return {"p": z_x, "Q": -2.0 * self.lam * np.outer(z_x, x)}

    def backprop_models(self, models, cache, dthetas):
        """Parameter gradients, in params order, of the sum over a pass of
        its instances' theta-gradients dthetas: one backward through the
        stacked MLP rows and one through the shared Q, of the summed dL/dQ."""
        mlp_cache, emb_cache = cache
        dp = np.concatenate([d["p"] for d in dthetas])[:, None]
        mlp_grads = mlp_backward_batch(models["mlp"], mlp_cache, dp)
        dQ = sum(d["Q"] for d in dthetas)
        return mlp_grads + [embedding_cosine_backward(emb_cache, dQ)]

    def oracle_decision(self, inst):
        """The optimal decision under the true parameters."""
        return domains.portfolio_oracle_decision(
            inst.true_returns, inst.true_covariance, self.lam, max_iter=self.config.qp_max_iter)


class MovieRecAdapter(_Adapter):
    """Movie broadcast: an MLP maps user feature ratings to per-movie
    preference scores; decisions come from the selection-frozen concave QP."""

    def __init__(self, config: TrainConfig):
        super().__init__(config)
        self.n = config.n_movies
        self.k = config.budget_k
        self.picks = config.picks_per_user
        self.gamma = config.gamma
        if self.picks < 1 or self.k < 1:
            raise BadDimensions("picks_per_user and budget_k must be at least 1")
        if self.picks > self.n or self.k > self.n:
            raise BadDimensions("picks_per_user and budget_k cannot exceed n_movies")
        if not self.gamma > 0:
            raise BadDimensions(f"gamma must be positive, got {self.gamma}")
        self.base = box_budget_base(self.n, self.k)
        # the same arrays for every decision, so a pass's y-space QPs share
        # one (SurrogateProblem.qp)
        self._H_x = np.zeros((self.n, self.n))
        self._H_extra = {}  # m -> 2 gamma I_m

    def generate(self, seed):
        return domains.gen_movierec_data(
            self.n,
            self.config.users_per_group,
            self.config.n_groups,
            self.config.n_feature_movies,
            seed,
            latent_dim=self.config.movie_latent_dim,
            latent_scale=self.config.movie_latent_scale,
            noise_scale=self.config.movie_noise,
            feature_noise=self.config.movie_feature_noise,
            popularity_scale=self.config.movie_popularity,
            spread_max=self.config.movie_spread,
        )

    def ingest(self, path):
        dataset = domains.ingest_movierec_csv(path, self.n, self.config.users_per_group)
        n_feat = dataset.instances[0].user_features.shape[1] if dataset.instances else 0
        if n_feat != self.config.n_feature_movies:
            raise BadDimensions(f"{path} has {n_feat} feature movies, "
                                f"but n_feature_movies is {self.config.n_feature_movies}")
        return dataset

    def init_models(self, seed):
        h = self.config.hidden_size
        return {"mlp": init_mlp([self.config.n_feature_movies, h, h, self.n], seed)}

    def predict(self, models, instances):
        """(thetas, cache) of one pass: one MLP forward over every instance's
        user rows; each theta is (n_movies, n_users)."""
        scores, cache = mlp_forward_batch(
            models["mlp"], np.vstack([inst.user_features for inst in instances])
        )
        return np.split(scores.T, len(instances), axis=1), cache

    def prediction_loss(self, theta, inst):
        """Squared prediction error of theta and its theta-gradient."""
        d = theta - inst.preferences
        return float(np.sum(d * d)), 2.0 * d

    def decision_full(self, theta, x0=None):
        """(x, sol, ctx) of the selection-frozen QP; x0 seeds the first selection."""
        x, sol, c_frozen, sel = domains.movierec_solve_relaxed(
            theta, self.k, self.picks, gamma=self.gamma, x0=x0
        )
        return x, sol, (box_budget_qp(c_frozen, self.gamma, self.k), sel)

    def decision_surrogate(self, theta, sp, x0=None):
        """(x = P y*, sol, sqp, ctx): decision_full's alternation with exact
        y-space solves; x0, the previous lifted decision, seeds the first selection."""
        H_extra = self._H_extra.get(sp.m)
        if H_extra is None:
            H_extra = self._H_extra[sp.m] = 2.0 * self.gamma * np.eye(sp.m)
        x, (sqp, qp, sol), _, sel = domains.movierec_alternate(
            theta, self.k, self.picks,
            lambda c: sp.solve(self._H_x, -c, H_extra, self.config.qp_max_iter),
            x0=x0,
        )
        return x, sol, sqp, (qp, sel)

    def objective(self, x, inst):
        return domains.movierec_objective(x, inst.preferences, self.picks)

    def loss_grad_x(self, x, inst):
        """The decision loss, the negated achieved quality, and its
        x-supergradient, from one partition of x_i theta_ij."""
        value, g = domains.movierec_objective_supergradient(x, inst.preferences, self.picks)
        return -value, -g

    def theta_grads(self, ctx, z_x, x):
        """dL/dtheta at the x-space adjoint z_x: the frozen c_i is
        sum_j sel_ij theta_ij, so dL/dtheta_ij = z_x_i sel_ij."""
        _, sel = ctx
        return z_x[:, None] * sel

    def backprop_models(self, models, cache, dthetas):
        """Parameter gradients, in params order, of the sum over a pass of
        its instances' theta-gradients dthetas (one backward)."""
        return mlp_backward_batch(models["mlp"], cache, np.hstack(dthetas).T)

    def oracle_decision(self, inst):
        """The rounded optimal decision under the true parameters."""
        return domains.movierec_oracle_decision(inst.preferences, self.k, self.picks,
                                                gamma=self.gamma)

    def test_decision(self, x):
        return domains.round_top_k(x, self.k)


ADAPTERS = {"portfolio": PortfolioAdapter, "movierec": MovieRecAdapter}


def get_adapter(config: TrainConfig):
    return ADAPTERS[config.domain](config)


def load_dataset(config: TrainConfig, adapter, seed):
    """The dataset in config.data_in, or without one the synthetic dataset of seed."""
    if config.data_in:
        return adapter.ingest(config.data_in)
    return adapter.generate(subseed(seed, 0))


# ---------------------------------------------------------------------------
# training regimes


@dataclass
class TrainResult:
    models: dict
    epochs_run: int
    train_sec_per_epoch: float
    history: list
    p_history: list  # P_raw after each epoch's update; empty without a rep


def _split(dataset, idx):
    return [dataset.instances[i] for i in idx]


def _prediction_step(adapter, theta, sp, inst, x0=None):
    """The two-stage step: (loss, dtheta, None, None) of the squared prediction error."""
    loss, dtheta = adapter.prediction_loss(theta, inst)
    return loss, dtheta, None, None


def _prediction_error_on(adapter, models, sp, instances):
    """Mean squared prediction error on instances, predicted in one pass; sp is unused."""
    thetas, _ = adapter.predict(models, instances)
    return float(np.mean([adapter.prediction_loss(theta, inst)[0]
                          for theta, inst in zip(thetas, instances)]))


def _decision_and_grads(adapter, theta, sp, inst, x0=None):
    """One end-to-end decision and its backward pass down to theta, from
    start x0: (loss, dtheta, dL_dP, x), dL_dP None without sp."""
    if sp is None:
        x, sol, ctx = adapter.decision_full(theta, x0=x0)
        loss, dL_dx = adapter.loss_grad_x(x, inst)
        z_x = kkt_adjoint(ctx[0], sol, dL_dx)[0]
        return loss, adapter.theta_grads(ctx, z_x, x), None, x
    x, sol, sqp, ctx = adapter.decision_surrogate(theta, sp, x0=x0)
    loss, dL_dx = adapter.loss_grad_x(x, inst)
    adjoint = kkt_adjoint(ctx[0], sol, sp.P.T @ dL_dx)
    z_x = sp.P @ adjoint[0]  # x = P y, so the x-space adjoint is P z_y
    dL_dP = kkt_jacobian_P(sqp, sol, adjoint, dL_dx)
    return loss, adapter.theta_grads(ctx, z_x, x), dL_dP, x


def _decide_pass(adapter, models, sp, instances):
    """The decisions of instances, predicted in one pass: full, or given sp
    the surrogate's lifted x = P y."""
    thetas, _ = adapter.predict(models, instances)
    if sp is None:
        return [adapter.decision_full(theta)[0] for theta in thetas]
    return [adapter.decision_surrogate(theta, sp)[0] for theta in thetas]


def _regrets(adapter, instances, decisions):
    """(regrets, xs): the decisions as tested (test_decision) and their regrets."""
    xs = [adapter.test_decision(x) for x in decisions]
    return [adapter.oracle(inst) - adapter.objective(x, inst)
            for inst, x in zip(instances, xs)], xs


def _regret_on(adapter, models, sp, instances):
    """Mean regret on instances, decided and scored as evaluate does."""
    regrets, _ = _regrets(adapter, instances, _decide_pass(adapter, models, sp, instances))
    return float(np.mean(regrets))


def _train(models, rep, dataset, config, adapter, step, score):
    """Full-batch Adam on step's mean loss, stopped once config.patience epochs
    in a row score no lower on the validation split than the best (a tie or a
    NaN is not lower); models and rep return to the best score's checkpoint,
    the initial one until a score is below inf.  An epoch predicts in one pass,
    steps per instance (a solver error gains the epoch and instance index) and
    backpropagates once; P trains on its mean dL/dP, one y-space set per P."""
    train_set = _split(dataset, dataset.train_idx)
    val_set = _split(dataset, dataset.val_idx)
    if not train_set or not val_set:
        raise EmptySplit("training needs nonempty train and validation splits")
    params = adapter.params(models)
    state = init_adam(params, config.learning_rate)
    p_state = init_adam([rep.P_raw], config.p_learning_rate) if rep is not None else None
    # adam_step makes fresh arrays, so the checkpoint holds them by reference
    best = (params, rep and rep.P_raw)
    best_score, bad = np.inf, 0
    history, p_history = [], []
    starts = {}  # training index -> the instance's last decision (lifted for the surrogate)
    train_time = 0.0
    sp = _surrogate_problem(adapter, rep)
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        thetas, cache = adapter.predict(models, train_set)
        dthetas, dL_dPs = [], []
        epoch_loss = 0.0
        for idx, inst, theta in zip(dataset.train_idx, train_set, thetas):
            try:
                loss, dtheta, dL_dP, starts[idx] = step(adapter, theta, sp, inst,
                                                        x0=starts.get(idx))
            except (Infeasible, MaxIterations, NumericalBreakdown, SingularKKT,
                    SingularMatrix) as exc:
                raise type(exc)(f"epoch {epoch}, instance {idx}: {exc}") from exc
            epoch_loss += loss
            dthetas.append(dtheta)
            dL_dPs.append(dL_dP)
        grads = [g / len(train_set) for g in adapter.backprop_models(models, cache, dthetas)]
        params, state = adam_step(params, grads, state)
        adapter.set_params(models, params)
        if rep is not None:
            p_grad = grad_wrt_P(sum(dL_dPs) / len(train_set), rep)
            new_raw, p_state = adam_step([rep.P_raw], [p_grad], p_state)
            rep.P_raw = new_raw[0]
            p_history.append(rep.P_raw)
            sp = _surrogate_problem(adapter, rep)
        train_time += time.perf_counter() - t0
        val_score = score(adapter, models, sp, val_set)
        history.append((epoch, epoch_loss / len(train_set), val_score))
        if val_score < best_score:
            best_score, bad = val_score, 0
            best = (params, rep and rep.P_raw)
        else:
            bad += 1
        if bad >= config.patience:
            break
    adapter.set_params(models, best[0])
    if rep is not None:
        rep.P_raw = best[1]
    per_epoch = train_time / len(history) if history else 0.0
    return TrainResult(models, len(history), per_epoch, history, p_history)


def _surrogate_problem(adapter, rep):
    """The y-space constraint set of rep's current P, or None without a rep."""
    if rep is None:
        return None
    return transform_problem(adapter.base, materialize(rep))


def train_two_stage(models, dataset, config: TrainConfig, adapter) -> TrainResult:
    """Training on the squared prediction error, validated on the same error."""
    return _train(models, None, dataset, config, adapter,
                  _prediction_step, _prediction_error_on)


def train_decision_focused(models, dataset, config: TrainConfig, adapter) -> TrainResult:
    """End-to-end training through the full optimization layer (x-space)."""
    return _train(models, None, dataset, config, adapter,
                  _decision_and_grads, _regret_on)


def train_surrogate(models, rep, dataset, config: TrainConfig, adapter) -> TrainResult:
    """Joint training of the predictive model and the reparameterization by
    solving only the m-dimensional surrogate problem."""
    return _train(models, rep, dataset, config, adapter,
                  _decision_and_grads, _regret_on)


def make_reparam(config: TrainConfig, adapter, seed) -> Reparameterization:
    n = adapter.base.n
    m = config.surrogate_m or default_m(n)
    # softmax columns keep P >= 0 (the DR-submodularity hypothesis) and
    # concentrate much faster than the softplus floor during training
    mode = "column-simplex" if config.surrogate_mode == "auto" else config.surrogate_mode
    return init_reparam(n, m, mode, seed)


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalResult:
    regrets: np.ndarray
    inference_sec: float
    max_violation: float


def evaluate(models, rep, dataset, config: TrainConfig, adapter) -> EvalResult:
    """Timed decisions plus regret for every test instance.

    The surrogate path (rep given) solves only the m-dimensional problem and
    lifts; the other paths solve the full problem.  Inference seconds are the
    median over config.timing_repeats runs of the whole test pass, each of
    which builds the surrogate's y-space set and predicts the test split in
    one pass of its own.
    """
    test_set = _split(dataset, dataset.test_idx)
    if not test_set:
        raise EmptySplit("test split is empty")
    times = []
    for _ in range(max(1, config.timing_repeats)):
        # the set build is inference work; a new set per pass also starts every
        # repeat at the same phase-one point, so the repeats make the same solves
        t0 = time.perf_counter()
        sp = _surrogate_problem(adapter, rep)
        decisions = _decide_pass(adapter, models, sp, test_set)
        times.append(time.perf_counter() - t0)
    regrets, xs = _regrets(adapter, test_set, decisions)
    return EvalResult(
        regrets=np.array(regrets),
        inference_sec=float(np.median(times)),
        max_violation=max([0.0, *map(adapter.base.violation, xs)]),
    )


# ---------------------------------------------------------------------------
# experiment runner


def init_method(config: TrainConfig, adapter, method: str, seed):
    """Initial (models, rep) of one method on one seed; rep is None but for the surrogate."""
    models = adapter.init_models(subseed(seed, 1))
    rep = make_reparam(config, adapter, subseed(seed, 2)) if method == "surrogate" else None
    return models, rep


def train_method(models, rep, dataset, config: TrainConfig, adapter, method: str) -> TrainResult:
    """Train models (and rep) from init_method by the named method."""
    if method == "two-stage":
        return train_two_stage(models, dataset, config, adapter)
    if method == "decision-focused":
        return train_decision_focused(models, dataset, config, adapter)
    return train_surrogate(models, rep, dataset, config, adapter)


# run_single's one-entry store: [(config, seed, adapter, dataset)] of the
# last seed it loaded, or [] (run_experiment empties it when it starts)
_seed_store = []


def _seed_data(config: TrainConfig, seed):
    """(adapter, dataset) of (config, seed): the stored pair when config equals
    the stored config and seed the stored seed, else a new adapter and its
    load_dataset, stored only when the load succeeds.  A seed's method jobs
    thus share one dataset, which no job changes, and through the adapter
    one oracle value per instance."""
    if _seed_store and _seed_store[0][:2] == (config, seed):
        return _seed_store[0][2:]
    _seed_store.clear()
    adapter = get_adapter(config)
    dataset = load_dataset(config, adapter, seed)
    # a copy, so a config changed in place after this call misses the store
    _seed_store.append((copy.copy(config), seed, adapter, dataset))
    return adapter, dataset


def run_single(config: TrainConfig, method: str, seed: int):
    """Train one method on one seed and evaluate it; returns (row, extras),
    extras holding the test split's max_violation and min_regret.  The
    adapter and dataset come from the seed store (_seed_data), so the first
    job of a seed generates its data and solves its oracles, and the seed's
    later jobs reuse both."""
    adapter, dataset = _seed_data(config, seed)
    models, rep = init_method(config, adapter, method, seed)
    result = train_method(models, rep, dataset, config, adapter, method)
    ev = evaluate(result.models, rep, dataset, config, adapter)
    row = ReportRow(
        method=method,
        seed=seed,
        mean_regret=float(np.mean(ev.regrets)),
        train_sec_per_epoch=result.train_sec_per_epoch,
        inference_sec=ev.inference_sec,
        epochs_run=result.epochs_run,
    )
    return row, {"max_violation": ev.max_violation, "min_regret": float(np.min(ev.regrets))}


def _run_single_safe(args):
    config, method, seed = args
    try:
        return run_single(config, method, seed)
    except Exception as exc:  # record and continue; seed failures must not abort the run
        status = f"error: {type(exc).__name__}: {exc}"
        return (
            ReportRow(method, seed, float("nan"), 0.0, 0.0, 0, status),
            {"max_violation": float("nan"), "min_regret": float("nan")},
        )


def run_experiment(config: TrainConfig) -> RegretReport:
    """Train and evaluate every configured method over every seed.

    Seed-level failures are recorded in their report row and do not abort the
    remaining runs.  Jobs run seed-major, and a worker runs all of a seed's
    jobs back to back, so they share the seed's adapter and dataset
    (_seed_data); the store starts empty, so each run loads its own.  Rows
    come back sorted by (method, seed) so reports are byte-stable across
    executions.
    """
    _seed_store.clear()
    jobs = [(config, method, seed) for seed in config.seeds() for method in config.methods]
    workers = config.max_workers
    if workers <= 0:  # the CPUs this process may run on, where the platform tells
        if hasattr(os, "sched_getaffinity"):
            workers = min(len(config.seeds()), len(os.sched_getaffinity(0)))
        else:
            workers = min(len(config.seeds()), os.cpu_count() or 1)
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_single_safe, jobs, chunksize=len(config.methods)))
    else:
        results = [_run_single_safe(job) for job in jobs]
    rows = [r for r, _ in results]
    rows.sort(key=lambda r: (r.method, r.seed))
    report = RegretReport(rows=rows)
    report.aggregate()
    return report


REPORT_HEADER = "method,seed,mean_regret,train_sec_per_epoch,inference_sec,epochs_run,status"
HISTORY_HEADER = "epoch,train_loss,val_score"
AGGREGATE_HEADER = "method,mean_regret,stderr_regret,mean_train_sec,mean_inference_sec"
TIMING_COLUMNS = ("train_sec_per_epoch", "inference_sec")


def write_report_csv(report: RegretReport, path) -> None:
    """Report rows through csv, so a status holding commas stays one field."""
    with open(path, "w", newline="") as fh:
        fh.write("# timing columns (train_sec_per_epoch, inference_sec) are nondeterministic\n")
        fh.write(REPORT_HEADER + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for r in report.rows:
            writer.writerow([
                r.method, r.seed, _fmt(r.mean_regret), _fmt(r.train_sec_per_epoch),
                _fmt(r.inference_sec), r.epochs_run, r.status,
            ])


def write_history_csv(history, path) -> None:
    """A TrainResult's history, one row per epoch run: the epoch, its mean
    training loss and its validation score."""
    with open(path, "w") as fh:
        fh.write(HISTORY_HEADER + "\n")
        for epoch, loss, score in history:
            fh.write(f"{epoch},{_fmt(loss)},{_fmt(score)}\n")


def write_aggregate_csv(report: RegretReport, path) -> None:
    with open(path, "w") as fh:
        fh.write("# timing columns (mean_train_sec, mean_inference_sec) are nondeterministic\n")
        fh.write(AGGREGATE_HEADER + "\n")
        for method in sorted(report.aggregates):
            a = report.aggregates[method]
            fh.write(
                f"{method},{_fmt(a['mean_regret'])},{_fmt(a['stderr_regret'])},"
                f"{_fmt(a['mean_train_sec'])},{_fmt(a['mean_inference_sec'])}\n"
            )


def _fmt(v: float) -> str:
    return format(float(v), ".12g")
