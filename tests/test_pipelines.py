import csv
import re
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import finite_diff_grad, identity_reparam, tight_rows

from surrogate_dfl import domains, optlayer, pipelines, surrogate
from surrogate_dfl.errors import BadDimensions, EmptySplit, MaxIterations
from surrogate_dfl.optlayer import (
    STRICT_COMPLEMENTARITY_TOL,
    QuadraticProgram,
    kkt_adjoint,
    solve_qp,
)
from surrogate_dfl.pipelines import (
    METHODS,
    REPORT_HEADER,
    TrainConfig,
    evaluate,
    get_adapter,
    init_method,
    make_reparam,
    run_experiment,
    run_single,
    subseed,
    train_decision_focused,
    train_method,
    train_surrogate,
    train_two_stage,
    write_aggregate_csv,
    write_report_csv,
    _decision_and_grads,
    _regret_on,
    _split,
    _train,
)

SMALL_PORTFOLIO = dict(
    domain="portfolio", n_securities=6, n_days=30, hidden_size=12,
    embedding_dim=4, max_epochs=8, n_seeds=2,
)
SMALL_MOVIE = dict(
    domain="movierec", n_movies=15, users_per_group=6, n_groups=10,
    n_feature_movies=8, budget_k=4, picks_per_user=2, hidden_size=16,
    max_epochs=8, n_seeds=2,
)
TOY_MOVIE = dict(
    domain="movierec", n_movies=12, users_per_group=4, n_groups=10,
    n_feature_movies=5, budget_k=3, picks_per_user=2, hidden_size=8,
)


def _check_scripted_stop(scores, patience, stop, best):
    # drive _train with a scripted validation score per epoch: it must stop
    # at epoch `stop` and restore the parameters and P_raw of epoch `best`
    cfg = TrainConfig(**{**SMALL_PORTFOLIO, "max_epochs": 10}, patience=patience)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(subseed(0, 0))
    models, rep = init_method(cfg, adapter, "surrogate", 0)
    states = [([p.copy() for p in adapter.params(models)], rep.P_raw.copy())]

    def scripted(adapter, models, sp, instances):
        states.append(([p.copy() for p in adapter.params(models)], rep.P_raw.copy()))
        return scores[len(states) - 2]

    result = _train(models, rep, dataset, cfg, adapter, _decision_and_grads, scripted)
    assert result.epochs_run == stop == len(states) - 1
    assert [row[2] for row in result.history] == pytest.approx(scores[:stop], nan_ok=True)
    params, P_raw = states[best]
    for a, b in zip(params, adapter.params(result.models)):
        assert np.array_equal(a, b)
    assert np.array_equal(P_raw, rep.P_raw)
    assert all(np.array_equal(a[1], b) for a, b in zip(states[1:], result.p_history))


def test_early_stopper_rule():
    # strictly worsening from epoch 1 stops exactly at epoch 1 + patience
    _check_scripted_stop((1.0, 1.1, 1.2, 1.3, 1.4, 1.5), patience=3, stop=4, best=1)


def test_early_stopper_resets_on_improvement():
    # the improvement at epoch 3 resets the count: two worse epochs then stop
    _check_scripted_stop((1.0, 1.1, 0.9, 1.0, 1.0, 0.5), patience=2, stop=5, best=3)


@pytest.mark.parametrize("scores, stop, best", [
    # a tie (epoch 5) is no improvement, and an improvement (epoch 3) resets
    # the count: the stop comes at the best epoch plus patience
    ((1.0, 1.1, 0.9, 1.0, 0.9, 0.5), 5, 3),
    # a NaN never improves: the initial parameters stay the checkpoint
    ((np.nan, np.nan, 0.5), 2, 0),
], ids=["tie-and-reset", "nan"])
def test_train_stops_patience_epochs_after_the_best(scores, stop, best):
    _check_scripted_stop(scores, patience=2, stop=stop, best=best)


def test_two_stage_realizable_regression():
    # noise-free targets the model can express: validation loss must collapse
    # patience is widened so Adam's warm-up wobble cannot stop a clean descent
    cfg = TrainConfig(**{**SMALL_PORTFOLIO, "max_epochs": 100}, learning_rate=0.05,
                      patience=10)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(0)
    models = adapter.init_models(1)
    rng = np.random.default_rng(1)
    w_true = 5.0 * rng.normal(size=domains.N_FEATURES)
    from surrogate_dfl.diff import embedding_cosine_matrix

    Q_init, _ = embedding_cosine_matrix(models["emb"])
    for inst in dataset.instances:
        inst.true_returns = inst.features @ w_true
        inst.true_covariance = Q_init + domains.COV_RIDGE * np.eye(cfg.n_securities)
    result = train_two_stage(models, dataset, cfg, adapter)
    assert result.history[-1][2] < 1e-3  # final validation loss


def test_zero_epoch_cap_returns_initial_weights():
    cfg = TrainConfig(**{**SMALL_PORTFOLIO, "max_epochs": 0})
    adapter = get_adapter(cfg)
    dataset = adapter.generate(0)
    models = adapter.init_models(1)
    before = [p.copy() for p in adapter.params(models)]
    result = train_two_stage(models, dataset, cfg, adapter)
    for a, b in zip(before, adapter.params(result.models)):
        assert np.array_equal(a, b)
    assert result.epochs_run == 0


def test_perfect_predictor_regret_near_zero():
    cfg = TrainConfig(**SMALL_PORTFOLIO)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(2)
    models = adapter.init_models(3)

    def truth(models, instances):
        return [{"p": inst.true_returns, "Q": inst.true_covariance,
                 "start": domains.SimplexStart(2.0 * adapter.lam * inst.true_covariance)}
                for inst in instances], None

    adapter.predict = truth
    result = evaluate(models, None, dataset, cfg, adapter)
    assert np.max(np.abs(result.regrets)) <= 1e-6


def test_decision_focused_gradient_matches_fd():
    cfg = TrainConfig(domain="portfolio", n_securities=4, n_days=25,
                      hidden_size=6, embedding_dim=3)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(4)
    models = adapter.init_models(5)
    inst = dataset.instances[0]
    params0 = [p.copy() for p in adapter.params(models)]
    flat0 = np.concatenate([p.ravel() for p in params0])

    def unflatten(flat):
        out, off = [], 0
        for p in params0:
            out.append(flat[off : off + p.size].reshape(p.shape))
            off += p.size
        return out

    def loss_of(flat):
        adapter.set_params(models, unflatten(flat))
        theta = adapter.predict(models, [inst])[0][0]
        x, _, _ = adapter.decision_full(theta)
        return adapter.loss_grad_x(x, inst)[0]

    adapter.set_params(models, unflatten(flat0))
    thetas, cache = adapter.predict(models, [inst])
    _, dtheta, _, _ = _decision_and_grads(adapter, thetas[0], None, inst)
    grads = adapter.backprop_models(models, cache, [dtheta])
    an = np.concatenate([g.ravel() for g in grads])
    fd = finite_diff_grad(loss_of, flat0, h=1e-5)
    assert np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an))) <= 1e-3


def test_surrogate_joint_gradient_matches_fd():
    cfg = TrainConfig(domain="portfolio", n_securities=4, n_days=25,
                      hidden_size=6, embedding_dim=3, surrogate_m=2,
                      surrogate_mode="free")
    adapter = get_adapter(cfg)
    dataset = adapter.generate(6)
    models = adapter.init_models(7)
    inst = dataset.instances[0]
    rep = make_reparam(cfg, adapter, 8)
    rep.P_raw = rep.P_raw + 0.6
    P = surrogate.materialize(rep)
    sp = surrogate.transform_problem(adapter.base, P)

    params0 = [p.copy() for p in adapter.params(models)]
    flat0 = np.concatenate([p.ravel() for p in params0])

    def unflatten(flat):
        out, off = [], 0
        for p in params0:
            out.append(flat[off : off + p.size].reshape(p.shape))
            off += p.size
        return out

    def loss_of_w(flat):
        adapter.set_params(models, unflatten(flat))
        theta = adapter.predict(models, [inst])[0][0]
        x, _, _, _ = adapter.decision_surrogate(theta, sp)
        return adapter.loss_grad_x(x, inst)[0]

    adapter.set_params(models, unflatten(flat0))
    thetas, cache = adapter.predict(models, [inst])
    _, dtheta, dL_dP, _ = _decision_and_grads(adapter, thetas[0], sp, inst)
    grads = adapter.backprop_models(models, cache, [dtheta])
    an_w = np.concatenate([g.ravel() for g in grads])
    fd_w = finite_diff_grad(loss_of_w, flat0, h=1e-5)
    assert np.max(np.abs(fd_w - an_w) / np.maximum(1.0, np.abs(an_w))) <= 1e-3

    adapter.set_params(models, unflatten(flat0))

    def loss_of_P(flat):
        rep2 = surrogate.Reparameterization(
            P_raw=flat.reshape(rep.n, rep.m), mode="free", n=rep.n, m=rep.m
        )
        P2 = surrogate.materialize(rep2)
        sp2 = surrogate.transform_problem(adapter.base, P2)
        theta = adapter.predict(models, [inst])[0][0]
        x, _, _, _ = adapter.decision_surrogate(theta, sp2)
        return adapter.loss_grad_x(x, inst)[0]

    fd_P = finite_diff_grad(loss_of_P, rep.P_raw.ravel().copy(), h=1e-6)
    assert np.max(np.abs(fd_P - dL_dP.ravel()) / np.maximum(1.0, np.abs(dL_dP.ravel()))) <= 1e-3


def _weight_grads(adapter, models, inst, rep, h):
    """dL/dw of one instance by central differences and by _decision_and_grads,
    plus the (selection, strongly active set) pairs met at w and at every
    difference point; the selection is None for portfolio.  Each evaluation
    solves on a y-space set of its own, from phase one: a shared
    set would start each solve at the last one's optimum, and the rounding
    of the path taken would enter the differences."""

    def new_sp():
        if rep is None:
            return None
        return surrogate.transform_problem(adapter.base, surrogate.materialize(rep))

    params0 = [p.copy() for p in adapter.params(models)]
    flat0 = np.concatenate([p.ravel() for p in params0])
    branches = set()

    def loss_of(flat):
        out, off = [], 0
        for p in params0:
            out.append(flat[off : off + p.size].reshape(p.shape))
            off += p.size
        adapter.set_params(models, out)
        theta = adapter.predict(models, [inst])[0][0]
        sp = new_sp()
        if sp is None:
            x, sol, ctx = adapter.decision_full(theta)
        else:
            x, sol, _, ctx = adapter.decision_surrogate(theta, sp)
        sel = ctx[1].tobytes() if len(ctx) > 1 else None
        branches.add((sel, np.nonzero(sol.lam > STRICT_COMPLEMENTARITY_TOL)[0].tobytes()))
        return adapter.loss_grad_x(x, inst)[0]

    loss_of(flat0)
    fd = finite_diff_grad(loss_of, flat0, h=h)
    adapter.set_params(models, params0)
    thetas, cache = adapter.predict(models, [inst])
    _, dtheta, _, _ = _decision_and_grads(adapter, thetas[0], new_sp(), inst)
    an = np.concatenate([g.ravel() for g in adapter.backprop_models(models, cache, [dtheta])])
    return fd, an, branches


def test_weight_gradients_match_fd_in_norm():
    # |fd - an| <= 1e-6 |fd| in the 2-norm, on gradients no smaller than 1e-2:
    # a 0.1% error in the chain rule fails here, where the entrywise checks
    # above, divided by max(1, |an|), pass it.  Every difference point must
    # keep the selection and the strongly active set, so the loss is smooth
    # across the stencil.
    port = TrainConfig(domain="portfolio", n_securities=4, n_days=25, hidden_size=6,
                       embedding_dim=3, surrogate_m=2)
    cases = [(port, 20, "decision-focused"), (port, 20, "surrogate")]
    cases += [(TrainConfig(**TOY_MOVIE), seed, "surrogate") for seed in range(6)]
    for cfg, seed, method in cases:
        adapter = get_adapter(cfg)
        dataset = adapter.generate(subseed(seed, 0))
        models, rep = init_method(cfg, adapter, method, seed)
        inst = dataset.instances[dataset.train_idx[0]]
        fd, an, branches = _weight_grads(adapter, models, inst, rep, h=1e-6)
        case = (cfg.domain, seed, method)
        assert len(branches) == 1, case
        assert np.linalg.norm(fd) >= 1e-2, case
        assert np.linalg.norm(fd - an) <= 1e-6 * np.linalg.norm(fd), case


def test_epoch_P_gradient_matches_fd_in_column_simplex_mode(monkeypatch):
    # the P_raw gradient _train hands adam_step in epoch 1 against central
    # differences of that epoch's mean training loss in P_raw, the models
    # fixed, within the bounds above.  In column-simplex mode grad_wrt_P's
    # chain is not the identity, so leaving dL/dP unchained, or the epoch's
    # sum undivided by the instance count, fails here.
    cfg = TrainConfig(domain="portfolio", n_securities=4, n_days=25, hidden_size=6,
                      embedding_dim=3, surrogate_m=2, surrogate_mode="column-simplex",
                      max_epochs=1)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(subseed(0, 0))
    models, rep = init_method(cfg, adapter, "surrogate", 0)
    train_set = [dataset.instances[i] for i in dataset.train_idx]
    thetas, _ = adapter.predict(models, train_set)  # epoch 1's predictions
    raw0 = rep.P_raw.copy()
    branches = set()

    def mean_loss(flat):
        r = surrogate.Reparameterization(P_raw=flat.reshape(raw0.shape), mode=rep.mode,
                                         n=rep.n, m=rep.m)
        sp = surrogate.transform_problem(adapter.base, surrogate.materialize(r))
        losses, active = [], []
        for theta, inst in zip(thetas, train_set):
            x, sol, _, _ = adapter.decision_surrogate(theta, sp)
            losses.append(adapter.loss_grad_x(x, inst)[0])
            active.append(np.nonzero(sol.lam > STRICT_COMPLEMENTARITY_TOL)[0].tobytes())
        branches.add(tuple(active))
        return float(np.mean(losses))

    handed, adam_step = [], pipelines.adam_step

    def recording(params, grads, state):
        if params[0] is rep.P_raw:
            handed.append(grads[0])
        return adam_step(params, grads, state)

    monkeypatch.setattr(pipelines, "adam_step", recording)
    train_surrogate(models, rep, dataset, cfg, adapter)
    assert len(train_set) > 1 and len(handed) == 1
    mean_loss(raw0)
    fd = finite_diff_grad(mean_loss, raw0.ravel(), h=1e-6)
    an = handed[0].ravel()
    assert len(branches) == 1
    assert np.linalg.norm(fd) >= 1e-2
    assert np.linalg.norm(fd - an) <= 1e-6 * np.linalg.norm(fd)


def test_training_deterministic():
    cfg = TrainConfig(**SMALL_PORTFOLIO)
    histories = []
    for _ in range(2):
        adapter = get_adapter(cfg)
        dataset = adapter.generate(subseed(0, 0))
        models = adapter.init_models(subseed(0, 1))
        result = train_decision_focused(models, dataset, cfg, adapter)
        histories.append(result.history)
    a, b = histories
    assert len(a) == len(b)
    for (e1, l1, v1), (e2, l2, v2) in zip(a, b):
        assert e1 == e2 and l1 == l2 and v1 == v2


def test_identity_neutrality():
    # m = n, P frozen at identity: surrogate and decision-focused coincide
    cfg = TrainConfig(**SMALL_PORTFOLIO)
    adapter_a = get_adapter(cfg)
    adapter_b = get_adapter(cfg)
    ds_a = adapter_a.generate(subseed(1, 0))
    ds_b = adapter_b.generate(subseed(1, 0))
    m_a = adapter_a.init_models(subseed(1, 1))
    m_b = adapter_b.init_models(subseed(1, 1))
    r_df = train_decision_focused(m_a, ds_a, cfg, adapter_a)
    rep = identity_reparam(cfg.n_securities)
    r_sur = train_surrogate(m_b, rep, ds_b, replace(cfg, p_learning_rate=0.0), adapter_b)
    assert len(r_df.history) == len(r_sur.history)
    for (e1, l1, v1), (e2, l2, v2) in zip(r_df.history, r_sur.history):
        assert abs(l1 - l2) <= 1e-8
        assert abs(v1 - v2) <= 1e-8
    for a, b in zip(adapter_a.params(r_df.models), adapter_b.params(r_sur.models)):
        assert np.max(np.abs(a - b)) <= 1e-8


def test_adapter_carries_nothing_between_runs():
    # one adapter serving three trainings on new datasets gives each the
    # history a fresh adapter gives it: a run depends only on (method, seed)
    cfg = TrainConfig(domain="movierec", max_epochs=5)
    for method in ("decision-focused", "surrogate"):
        reused = get_adapter(cfg)
        differ = []
        for seed in range(3):
            histories = []
            for adapter in (reused, get_adapter(cfg)):
                dataset = adapter.generate(subseed(seed, 0))
                models, rep = init_method(cfg, adapter, method, seed)
                histories.append(train_method(models, rep, dataset, cfg, adapter, method).history)
            if histories[0] != histories[1]:
                differ.append(seed)
        assert differ == [], (method, differ)


def test_oracle_serves_only_its_own_instance():
    # instance 0 of 50 fresh datasets, each freed after its oracle call: a
    # cache keyed by id() alone hands a freed instance's value to a new
    # instance that takes its id
    for base_cfg in (SMALL_PORTFOLIO, SMALL_MOVIE):
        cfg = TrainConfig(**base_cfg)
        reused = get_adapter(cfg)
        stale = 0
        for seed in range(50):
            inst = reused.generate(seed).instances[0]
            stale += reused.oracle(inst) != get_adapter(cfg).oracle(inst)
        assert stale == 0, (cfg.domain, stale)


def test_surrogate_capacity_reported():
    # m = 1 vs default m: capacity effect is reported, not asserted
    cfg1 = TrainConfig(**SMALL_PORTFOLIO, surrogate_m=1)
    cfg2 = TrainConfig(**SMALL_PORTFOLIO)
    regrets = {}
    for tag, cfg in (("m=1", cfg1), ("m=default", cfg2)):
        rows = []
        for seed in range(2):
            row, _ = run_single(cfg, "surrogate", seed)
            rows.append(row.mean_regret)
        regrets[tag] = float(np.mean(rows))
    print(f"capacity check: {regrets}")


def test_evaluate_empty_split_raises():
    cfg = TrainConfig(**SMALL_PORTFOLIO)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(9)
    dataset.test_idx = np.zeros(0, dtype=int)
    models = adapter.init_models(10)
    with pytest.raises(EmptySplit):
        evaluate(models, None, dataset, cfg, adapter)


@pytest.mark.parametrize("split", ["train_idx", "val_idx"])
@pytest.mark.parametrize("trainer", ["two-stage", "decision-focused", "surrogate"])
def test_trainers_reject_empty_split(trainer, split):
    cfg = TrainConfig(**SMALL_PORTFOLIO)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(9)
    setattr(dataset, split, np.zeros(0, dtype=int))
    models, rep = init_method(cfg, adapter, trainer, 10)
    with pytest.raises(EmptySplit):
        if trainer == "two-stage":
            train_two_stage(models, dataset, cfg, adapter)
        elif trainer == "decision-focused":
            train_decision_focused(models, dataset, cfg, adapter)
        else:
            train_surrogate(models, rep, dataset, cfg, adapter)


def test_two_stage_validation_runs_no_backward_pass():
    cfg = TrainConfig(**SMALL_PORTFOLIO)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(0)
    models = adapter.init_models(1)
    backprop, calls = adapter.backprop_models, []

    def counted(*args):
        calls.append(args)
        return backprop(*args)

    adapter.backprop_models = counted
    result = train_two_stage(models, dataset, cfg, adapter)
    assert result.epochs_run > 0 and len(dataset.val_idx) > 0
    assert len(calls) == result.epochs_run  # one per epoch, none in validation


def _pass_cases():
    """(adapter, models, instances) of one training split per domain."""
    for base_cfg in (SMALL_PORTFOLIO, SMALL_MOVIE):
        cfg = TrainConfig(**base_cfg)
        adapter = get_adapter(cfg)
        dataset = adapter.generate(subseed(4, 0))
        models = adapter.init_models(subseed(4, 1))
        yield adapter, models, [dataset.instances[i] for i in dataset.train_idx]


def _theta_arrays(theta):
    return [theta["p"], theta["Q"]] if isinstance(theta, dict) else [theta]


def test_batched_predict_matches_predicting_alone():
    for adapter, models, instances in _pass_cases():
        thetas, _ = adapter.predict(models, instances)
        assert len(thetas) == len(instances)
        for inst, theta in zip(instances, thetas):
            alone = adapter.predict(models, [inst])[0][0]
            for got, want in zip(_theta_arrays(theta), _theta_arrays(alone)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_one_backprop_of_a_pass_sums_the_instance_backprops():
    rng = np.random.default_rng(5)
    for adapter, models, instances in _pass_cases():
        thetas, cache = adapter.predict(models, instances)
        dthetas = []
        for theta in thetas:
            if isinstance(theta, dict):
                dthetas.append({k: rng.normal(size=theta[k].shape) for k in ("p", "Q")})
            else:
                dthetas.append(rng.normal(size=theta.shape))
        batched = adapter.backprop_models(models, cache, dthetas)
        summed = [np.zeros_like(p) for p in adapter.params(models)]
        for inst, dtheta in zip(instances, dthetas):
            _, alone = adapter.predict(models, [inst])
            for acc, g in zip(summed, adapter.backprop_models(models, alone, [dtheta])):
                acc += g
        for got, want in zip(batched, summed):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _counting(monkeypatch, owner, name, counts):
    """Rebinds owner.name to a wrapper that appends its arguments to counts[name]."""
    original = getattr(owner, name)
    counts[name] = []

    def counted(*args, **kwargs):
        counts[name].append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_passes_predict_once_and_step_per_instance(monkeypatch):
    # the call pattern the benchmark samples machine speed by: one step per
    # training instance and epoch, one _regret_on per validation pass, one
    # decision per test instance in each of evaluate's timed passes, and one
    # batched predict per pass
    cfg = TrainConfig(**SMALL_PORTFOLIO, timing_repeats=3)
    counts = {}
    _counting(monkeypatch, pipelines, "_decision_and_grads", counts)
    _counting(monkeypatch, pipelines, "_regret_on", counts)
    _counting(monkeypatch, pipelines.PortfolioAdapter, "predict", counts)
    _counting(monkeypatch, pipelines.PortfolioAdapter, "decision_full", counts)
    _counting(monkeypatch, pipelines.PortfolioAdapter, "decision_surrogate", counts)
    for method in ("decision-focused", "surrogate"):
        adapter = get_adapter(cfg)
        dataset = adapter.generate(subseed(0, 0))
        models, rep = init_method(cfg, adapter, method, 0)
        result = train_method(models, rep, dataset, cfg, adapter, method)
        epochs = result.epochs_run
        assert epochs > 1
        assert len(counts["_decision_and_grads"]) == epochs * len(dataset.train_idx)
        assert len(counts["_regret_on"]) == epochs
        assert len(counts["predict"]) == 2 * epochs  # one training, one validation pass
        for name in counts:
            counts[name].clear()
        ev = evaluate(models, rep, dataset, cfg, adapter)
        decide = "decision_full" if rep is None else "decision_surrogate"
        assert len(counts[decide]) == 3 * len(ev.regrets)
        assert len(counts["predict"]) == 3
        assert all(len(args[2]) == len(dataset.test_idx) for args in counts["predict"])
        for name in counts:
            counts[name].clear()


def test_cold_decisions_of_a_pass_share_one_crash_factorization(monkeypatch):
    # decision-focused portfolio: the first epoch's decisions, each
    # validation pass's and each timed test pass's are cold and factor the
    # crash start's KKT matrix once per pass; later epochs start warm
    cfg = TrainConfig(**SMALL_PORTFOLIO, timing_repeats=3)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(subseed(0, 0))
    models = adapter.init_models(subseed(0, 1))
    for inst in dataset.instances:  # the oracle's own starts factor per call
        adapter.oracle(inst)
    factorizations = []
    lapack = domains.lapack
    monkeypatch.setattr(domains, "lapack", SimpleNamespace(
        dgetrf=lambda *a, **k: factorizations.append(1) or lapack.dgetrf(*a, **k),
        dgetrs=lapack.dgetrs,
    ))
    result = train_decision_focused(models, dataset, cfg, adapter)
    assert result.epochs_run > 1
    assert len(factorizations) == 1 + result.epochs_run
    factorizations.clear()
    evaluate(models, None, dataset, cfg, adapter)
    assert len(factorizations) == 3


def test_evaluate_feasibility_and_regret_floor():
    for base_cfg in (SMALL_PORTFOLIO, SMALL_MOVIE):
        cfg = TrainConfig(**base_cfg)
        for method in ("two-stage", "surrogate"):
            row, extras = run_single(cfg, method, 0)
            assert row.status == "ok"
            assert extras["max_violation"] <= 1e-8
            assert extras["min_regret"] >= -1e-6
            assert row.train_sec_per_epoch > 0
            assert row.inference_sec > 0


def test_validation_and_test_share_one_regret_policy():
    # validation regret on the test split equals evaluate's mean regret
    # exactly, for the full decision (sp None) and the lifted surrogate one
    for base_cfg in (SMALL_PORTFOLIO, SMALL_MOVIE):
        cfg = TrainConfig(**base_cfg)
        adapter = get_adapter(cfg)
        dataset = adapter.generate(subseed(3, 0))
        models = adapter.init_models(subseed(3, 1))
        test_set = [dataset.instances[i] for i in dataset.test_idx]
        for rep in (None, make_reparam(cfg, adapter, subseed(3, 2))):
            sp = None
            if rep is not None:
                P = surrogate.materialize(rep)
                sp = surrogate.transform_problem(adapter.base, P)
            ev = evaluate(models, rep, dataset, cfg, adapter)
            assert _regret_on(adapter, models, sp, test_set) == np.mean(ev.regrets)


def test_run_experiment_rows_and_aggregate(tmp_path):
    cfg = TrainConfig(**SMALL_PORTFOLIO, methods=("two-stage",), max_workers=1)
    report = run_experiment(cfg)
    assert len(report.rows) == 2
    agg = report.aggregates["two-stage"]
    manual = np.mean([r.mean_regret for r in report.rows])
    assert abs(agg["mean_regret"] - manual) <= 1e-12
    write_report_csv(report, tmp_path / "report.csv")
    write_aggregate_csv(report, tmp_path / "aggregate.csv")
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0].startswith("#")  # nondeterministic timing marker
    assert lines[1] == "method,seed,mean_regret,train_sec_per_epoch,inference_sec,epochs_run,status"
    assert len(lines) == 2 + 2


def test_run_experiment_deterministic_modulo_timing():
    cfg = TrainConfig(**SMALL_PORTFOLIO, methods=("two-stage", "surrogate"), max_workers=1)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    for a, b in zip(r1.rows, r2.rows):
        assert a.method == b.method and a.seed == b.seed
        assert a.mean_regret == b.mean_regret
        assert a.epochs_run == b.epochs_run
        assert a.status == b.status


def test_run_experiment_records_failures():
    # an impossible surrogate dimension fails per-seed without aborting
    cfg = TrainConfig(**SMALL_PORTFOLIO, methods=("surrogate",), surrogate_m=99, max_workers=1)
    report = run_experiment(cfg)
    assert len(report.rows) == 2
    assert all(r.status.startswith("error: BadDimensions: ") for r in report.rows)
    assert report.aggregates == {}


def test_failed_loads_are_recorded_per_job_and_not_stored():
    cfg = TrainConfig(**{**SMALL_MOVIE, "budget_k": 99}, max_workers=1)
    report = run_experiment(cfg)
    status = "error: BadDimensions: picks_per_user and budget_k cannot exceed n_movies"
    assert [r.status for r in report.rows] == [status] * len(METHODS) * cfg.n_seeds
    assert pipelines._seed_store == []


@pytest.mark.parametrize("domain, setting, reason", [
    ("movierec", {"picks_per_user": 0}, "picks_per_user and budget_k must be at least 1"),
    ("movierec", {"budget_k": -1}, "picks_per_user and budget_k must be at least 1"),
    ("movierec", {"gamma": 0.0}, "gamma must be positive, got 0.0"),
    ("portfolio", {"hidden_size": 0}, "hidden_size must be at least 1, got 0"),
    ("movierec", {"hidden_size": 0}, "hidden_size must be at least 1, got 0"),
    ("portfolio", {"qp_max_iter": -5}, "qp_max_iter must be 0 (the default cap) or more"),
])
def test_adapters_reject_bad_sizes(domain, setting, reason):
    # each size fails when the adapter is built, not at a numpy or solver
    # error deep in a job (kth out of bounds, a division by zero, a
    # singular KKT system or a negative pivot cap)
    with pytest.raises(BadDimensions, match=re.escape(reason)):
        get_adapter(TrainConfig(domain=domain, **setting))


def test_report_csv_quotes_status_with_commas(tmp_path):
    # the BadDimensions message holds commas; each row still reads back as
    # seven fields with the status intact
    cfg = TrainConfig(**SMALL_PORTFOLIO, methods=("surrogate",), surrogate_m=99, max_workers=1)
    report = run_experiment(cfg)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    assert rows[0] == REPORT_HEADER.split(",")
    assert len(rows) == 1 + len(report.rows)
    assert all(len(row) == 7 for row in rows)
    assert "," in report.rows[0].status
    assert [row[6] for row in rows[1:]] == [r.status for r in report.rows]


def test_decision_and_grads_names_the_instance():
    # a one-pivot cap stops the full solve; the error keeps its type and
    # gains the epoch and the training instance index, in the run's status too
    cfg = TrainConfig(**SMALL_PORTFOLIO, qp_max_iter=1)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(subseed(0, 0))
    dataset.train_idx = dataset.train_idx[7:]
    models = adapter.init_models(subseed(0, 1))
    message = rf"^epoch 1, instance {dataset.train_idx[0]}: active-set pivot cap 1"
    with pytest.raises(MaxIterations, match=message):
        train_decision_focused(models, dataset, cfg, adapter)
    row, _ = pipelines._run_single_safe((cfg, "decision-focused", 0))
    assert re.match(r"error: MaxIterations: epoch 1, instance \d+: active-set pivot cap 1",
                    row.status)


def _fields(rows):
    """The non-timing fields of report rows, by (method, seed)."""
    return {(r.method, r.seed): (repr(r.mean_regret), r.epochs_run, r.status) for r in rows}


def test_run_experiment_parallel_matches_serial():
    for base in (SMALL_PORTFOLIO, SMALL_MOVIE):
        cfg = TrainConfig(**{**base, "max_epochs": 4}, max_workers=1)
        serial = run_experiment(cfg).rows
        parallel = run_experiment(replace(cfg, max_workers=2)).rows
        assert [(r.method, r.seed) for r in parallel] == [(r.method, r.seed) for r in serial]
        assert len(serial) == len(METHODS) * cfg.n_seeds
        assert _fields(parallel) == _fields(serial), cfg.domain


def test_run_experiment_matches_fresh_single_jobs():
    # a seed's jobs share one adapter and dataset in run_experiment; each
    # job here loads its own, in method-major order
    for base in (SMALL_PORTFOLIO, SMALL_MOVIE):
        cfg = TrainConfig(**{**base, "max_epochs": 4}, max_workers=1)
        shared = run_experiment(cfg).rows
        fresh = []
        for method in cfg.methods:
            for seed in cfg.seeds():
                pipelines._seed_store.clear()
                fresh.append(run_single(cfg, method, seed)[0])
        assert all(r.status == "ok" for r in shared), cfg.domain
        assert _fields(shared) == _fields(fresh), cfg.domain


def test_run_experiment_generates_and_solves_oracles_once_per_seed(monkeypatch):
    # one generation per seed, and one oracle solve per distinct validation
    # or test instance per seed, for all three methods; a second run in the
    # same process loads everything again, also when its first seed is the
    # last seed of the run before
    calls = {}

    def counted(name):
        fn = getattr(domains, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(args[0])  # held, so ids stay distinct
            return fn(*args, **kwargs)

        monkeypatch.setattr(domains, name, wrapper)

    for base, gen, oracle in (
        (SMALL_PORTFOLIO, "gen_portfolio_data", "portfolio_oracle_decision"),
        (SMALL_MOVIE, "gen_movierec_data", "movierec_oracle_decision"),
    ):
        configs = [TrainConfig(**{**base, "max_epochs": 2, "n_seeds": n_seeds}, max_workers=1)
                   for n_seeds in (2, 1)]
        scored = {}  # validation and test instances over each config's seeds
        for cfg in configs:
            datasets = [get_adapter(cfg).generate(subseed(seed, 0)) for seed in cfg.seeds()]
            scored[cfg.n_seeds] = sum(len(d.val_idx) + len(d.test_idx) for d in datasets)
        counted(gen)
        counted(oracle)
        for cfg in configs:
            for _ in range(2):
                calls.clear()
                report = run_experiment(cfg)
                assert [r.status for r in report.rows] == ["ok"] * len(report.rows)
                assert len(report.rows) == len(METHODS) * cfg.n_seeds
                assert len(calls[gen]) == cfg.n_seeds, cfg.domain
                assert len(calls[oracle]) == scored[cfg.n_seeds], cfg.domain
                assert len({id(a) for a in calls[oracle]}) == scored[cfg.n_seeds], cfg.domain


def _arrays(obj):
    """Every array under a dataset, as (dtype, shape, bytes), in a fixed order."""
    if isinstance(obj, np.ndarray):
        return [(obj.dtype.str, obj.shape, obj.tobytes())]
    if isinstance(obj, dict):
        return [a for key in sorted(obj) for a in _arrays(obj[key])]
    if isinstance(obj, list):
        return [a for item in obj for a in _arrays(item)]
    if hasattr(obj, "__dataclass_fields__"):
        return [a for name in obj.__dataclass_fields__ for a in _arrays(getattr(obj, name))]
    return []


def test_jobs_leave_the_shared_dataset_unchanged():
    for base in (SMALL_PORTFOLIO, SMALL_MOVIE):
        cfg = TrainConfig(**{**base, "max_epochs": 3, "n_seeds": 1})
        pipelines._seed_store.clear()
        adapter, dataset = pipelines._seed_data(cfg, 0)
        before = _arrays(dataset)
        assert len(before) >= 2 * len(dataset.instances) + 3  # instances and splits
        for method in METHODS:
            row, _ = run_single(cfg, method, 0)
            assert row.status == "ok", (cfg.domain, method, row.status)
            shared = pipelines._seed_data(cfg, 0)
            assert shared[0] is adapter and shared[1] is dataset
            assert _arrays(dataset) == before, (cfg.domain, method)


def test_configs_differing_in_an_oracle_field_share_no_oracle_values():
    for base, name, value in ((SMALL_PORTFOLIO, "risk_aversion", 5.0),
                              (SMALL_MOVIE, "gamma", 1.0)):
        cfg = TrainConfig(**{**base, "max_epochs": 1, "n_seeds": 1})
        other = replace(cfg, **{name: value})
        values = []
        for config in (cfg, other):
            run_single(config, "two-stage", 0)
            adapter, dataset = pipelines._seed_data(config, 0)
            test_set = [dataset.instances[i] for i in dataset.test_idx]
            served = [adapter.oracle(inst) for inst in test_set]
            assert served == [get_adapter(config).oracle(inst) for inst in test_set]
            values.append(served)
        assert values[0] != values[1], name
        # a config changed in place after its load is a new key too
        config = replace(cfg)
        adapter = pipelines._seed_data(config, 0)[0]
        setattr(config, name, value)
        assert pipelines._seed_data(config, 0)[0] is not adapter


def test_default_workers_follow_the_cpu_affinity(monkeypatch):
    # one usable CPU on a many-CPU host: the default pool is one worker, so
    # the jobs run serially and no process starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(pipelines.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(pipelines.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(pipelines, "ProcessPoolExecutor", no_pool)
    cfg = TrainConfig(**{**SMALL_PORTFOLIO, "max_epochs": 1}, methods=("two-stage",),
                      max_workers=0)
    report = run_experiment(cfg)
    assert [row.status for row in report.rows] == ["ok"] * cfg.n_seeds


def test_passes_share_their_qp_work(monkeypatch):
    # a surrogate run builds one y-space constraint set per P (before the
    # first epoch and after each step on P; an epoch's validation shares the
    # next epoch's), runs phase one once per set and forms the y-space
    # Hessian once per pass; a decision-focused epoch classifies the rows and
    # assembles the KKT matrix once per pass, and its adjoints gather their
    # systems from that matrix
    cfg = TrainConfig(**SMALL_PORTFOLIO)
    phase_one, rows, kkt_matrix = optlayer._phase_one, optlayer._Rows, optlayer._kkt_matrix
    calls = {"phase one": 0, "y-space QPs": 0, "row classes": 0, "assemblies": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(optlayer, "_phase_one", counted("phase one", phase_one))
    monkeypatch.setattr(optlayer, "_Rows", counted("row classes", rows))
    monkeypatch.setattr(optlayer, "_kkt_matrix", counted("assemblies", kkt_matrix))
    monkeypatch.setattr(optlayer.BaseProblem, "qp",
                        counted("y-space QPs", optlayer.BaseProblem.qp))
    for method in ("surrogate", "decision-focused"):
        adapter = get_adapter(cfg)
        dataset = adapter.generate(subseed(0, 0))
        models, rep = init_method(cfg, adapter, method, 0)
        for inst in dataset.instances:  # each oracle decision is a pass of its own
            adapter.oracle(inst)
        calls.update(dict.fromkeys(calls, 0))
        epochs = train_method(models, rep, dataset, cfg, adapter, method).epochs_run
        assert epochs > 1
        if method == "surrogate":
            assert calls["phase one"] == epochs + 1
            assert calls["y-space QPs"] == 2 * epochs
        else:
            # phase one, where a start does not fit, assembles its own QP's
            passes = 2 * epochs + calls["phase one"]
            assert calls["row classes"] == passes
            assert calls["assemblies"] == passes


def _first_pass(cfg):
    """(adapter, thetas, sp) of the first training pass of seed 0's jobs."""
    adapter = get_adapter(cfg)
    dataset = adapter.generate(subseed(0, 0))
    models = adapter.init_models(subseed(0, 1))
    rep = make_reparam(cfg, adapter, subseed(0, 2))
    sp = surrogate.transform_problem(adapter.base, surrogate.materialize(rep))
    thetas, _ = adapter.predict(models, [dataset.instances[i] for i in dataset.train_idx])
    return adapter, thetas, sp


def _fresh_y_qp(sp, H_x, c_x, H_extra=None):
    """The y-space QP of (H_x, c_x) on sp, built afresh."""
    H_y = sp.P.T @ H_x @ sp.P
    if H_extra is not None:
        H_y = H_y + H_extra
    return QuadraticProgram(H=0.5 * (H_y + H_y.T), c=sp.P.T @ c_x, Aeq=sp.y.Aeq, beq=sp.y.beq,
                            Gineq=sp.y.G, hineq=sp.y.h)


def _held_start(last):
    """The start SurrogateProblem.solve takes after the solve last: last's
    optimum with its rows of positive multiplier working, or none (phase
    one) before the first solve on a set, when last is None."""
    return None if last is None else (last.y, last.lam > 0.0)


def _assert_same_solve(got, want, rng):
    """Bitwise equal solutions and kkt_adjoint outputs; got and want are (qp, sol)."""
    (qp, sol), (qp_ref, ref) = got, want
    for field in ("y", "nu", "lam"):
        assert np.array_equal(getattr(sol, field), getattr(ref, field)), field
    assert np.array_equal(tight_rows(qp, sol.y), tight_rows(qp_ref, ref.y))
    w = rng.normal(size=qp.n)
    for a, b in zip(kkt_adjoint(qp, sol, w), kkt_adjoint(qp_ref, ref, w)):
        assert np.array_equal(a, b)


def test_pass_qp_solves_match_fresh_qps():
    # the first passes of the portfolio-n100 and criterion-6 configurations:
    # each decision on the pass's shared QP, x-space from the crash start and
    # from a warm start or y-space from the start the constraint set holds
    # (the last optimum on it, or none before its first), is bitwise the solve
    # of a QP built afresh for the instance from the same start
    rng = np.random.default_rng(0)
    portfolio_configs = (
        TrainConfig(domain="portfolio", n_securities=100, n_days=60, surrogate_m=10,
                    qp_max_iter=2000),
        TrainConfig(domain="portfolio", n_days=60),
    )
    for cfg in portfolio_configs:
        adapter, thetas, sp = _first_pass(cfg)
        x_prev = y_ref = None
        for theta in thetas:
            H = 2.0 * adapter.lam * theta["Q"]
            fresh = QuadraticProgram(H=H, c=-theta["p"], Aeq=np.ones((1, adapter.n)),
                                     beq=np.ones(1), Gineq=-np.eye(adapter.n),
                                     hineq=np.zeros(adapter.n))
            starts = [(None, domains.SimplexStart(H)(fresh))]
            if x_prev is not None:
                starts.append((x_prev, (x_prev, x_prev == 0.0)))
            for x0, start in starts:
                _, sol, (qp,) = adapter.decision_full(theta, x0=x0)
                ref = solve_qp(fresh, max_iter=cfg.qp_max_iter, start=start)
                _assert_same_solve((qp, sol), (fresh, ref), rng)
            x_prev = sol.y
            start = _held_start(y_ref)
            _, sol, sqp, (qp,) = adapter.decision_surrogate(theta, sp)
            fresh = _fresh_y_qp(sp, H, -theta["p"])
            y_ref = solve_qp(fresh, cfg.qp_max_iter, start=start)
            _assert_same_solve((qp, sol), (fresh, y_ref), rng)

    cfg = TrainConfig(domain="movierec", max_epochs=100, p_learning_rate=0.1)
    adapter, thetas, sp = _first_pass(cfg)
    H_extra = 2.0 * adapter.gamma * np.eye(sp.m)
    last = []
    for theta in thetas:
        rounds = []

        def solve_both(c):
            start = _held_start(last[-1] if last else None)
            x, (_, qp, sol) = sp.solve(adapter._H_x, -c, adapter._H_extra.get(sp.m, H_extra),
                                       cfg.qp_max_iter)
            fresh = _fresh_y_qp(sp, np.zeros((adapter.n, adapter.n)), -c, H_extra)
            last.append(solve_qp(fresh, cfg.qp_max_iter, start=start))
            rounds.append(((qp, sol), (fresh, last[-1])))
            return x, None

        domains.movierec_alternate(theta, adapter.k, adapter.picks, solve_both)
        for got, want in rounds:
            _assert_same_solve(got, want, rng)


N100 = TrainConfig(domain="portfolio", n_securities=100, n_days=60, surrogate_m=10,
                   qp_max_iter=2000)
C6_MOVIE = TrainConfig(domain="movierec", max_epochs=100, p_learning_rate=0.1)


@pytest.mark.parametrize("cfg", [N100, C6_MOVIE], ids=["portfolio-n100", "c6-movie"])
def test_y_space_pass_chains_its_starts(monkeypatch, cfg):
    # the first training pass's y-space solves on one set, each started at
    # the last one's optimum: phase one runs once for the pass, the pass
    # factorizes fewer systems than solving each QP cold (phase one each),
    # and every optimum is the cold one within 1e-12
    adapter, thetas, sp = _first_pass(cfg)
    calls = {"phase one": 0, "factorizations": 0}
    phase_one, equality_solve = optlayer._phase_one, optlayer._equality_solve

    def counted_phase_one(*args):
        calls["phase one"] += 1
        return phase_one(*args)

    def counted_solve(K, rhs):
        calls["factorizations"] += 1
        return equality_solve(K, rhs)

    solves = []

    def recorded(qp, max_iter=0, start=None):
        sol = solve_qp(qp, max_iter, start)
        solves.append((qp, max_iter, sol))
        return sol

    monkeypatch.setattr(optlayer, "_phase_one", counted_phase_one)
    monkeypatch.setattr(optlayer, "_equality_solve", counted_solve)
    monkeypatch.setattr(surrogate, "solve_qp", recorded)
    for theta in thetas:
        adapter.decision_surrogate(theta, sp)
    chained = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    for qp, max_iter, sol in solves:
        cold = solve_qp(qp, max_iter)
        assert np.max(np.abs(sol.y - cold.y)) <= 1e-12 * (1.0 + np.max(np.abs(cold.y)))
    assert chained["phase one"] == 1
    assert calls["phase one"] == len(solves) > len(thetas) - 1
    assert chained["factorizations"] < calls["factorizations"]


@pytest.mark.parametrize("method", ["decision-focused", "surrogate"])
def test_evaluate_passes_make_the_same_solves(monkeypatch, method):
    # each timed test pass starts from the same starts, phase one included,
    # so the repeats time the same work: equal factorization counts
    cfg = replace(N100, timing_repeats=3)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(subseed(0, 0))
    models, rep = init_method(cfg, adapter, method, 0)
    for i in dataset.test_idx:  # the oracles, solved once, before the passes
        adapter.oracle(dataset.instances[i])
    counts = []
    equality_solve, decide_pass = optlayer._equality_solve, pipelines._decide_pass

    def counted_solve(K, rhs):
        counts[-1] += 1
        return equality_solve(K, rhs)

    def counted_pass(*args):
        counts.append(0)
        return decide_pass(*args)

    monkeypatch.setattr(optlayer, "_equality_solve", counted_solve)
    monkeypatch.setattr(pipelines, "_decide_pass", counted_pass)
    evaluate(models, rep, dataset, cfg, adapter)
    assert len(counts) == 3
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_inference_time_counts_the_y_space_set_build(monkeypatch):
    # inference builds the surrogate's y-space set, so evaluate times it:
    # a set build slowed by a fixed sleep shows in inference_sec
    sleep_s = 0.05
    cfg = TrainConfig(**SMALL_PORTFOLIO)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(subseed(0, 0))
    models, rep = init_method(cfg, adapter, "surrogate", 0)
    transform = pipelines.transform_problem

    def slow_transform(*args, **kwargs):
        time.sleep(sleep_s)
        return transform(*args, **kwargs)

    monkeypatch.setattr(pipelines, "transform_problem", slow_transform)
    assert evaluate(models, rep, dataset, cfg, adapter).inference_sec >= sleep_s


def _movie_df_first_pass():
    """(adapter, thetas, instances) of the first decision-focused training
    pass at the movie-rec defaults, seed 0: the training instances predicted
    by the initial models."""
    cfg = TrainConfig(domain="movierec")
    adapter = get_adapter(cfg)
    dataset = pipelines.load_dataset(cfg, adapter, 0)
    models, _ = init_method(cfg, adapter, "decision-focused", 0)
    instances = _split(dataset, dataset.train_idx)
    return adapter, adapter.predict(models, instances)[0], instances


def test_movie_df_adjoint_factorizes_only_its_frozen_general_rows(monkeypatch):
    # the box-budget QP's H is 2 gamma I, so kkt_adjoint solves its frozen
    # system by the Schur complement over the frozen non-bound rows (the
    # budget row when mu > 0): no solve_symmetric call is larger than those
    adapter, thetas, instances = _movie_df_first_pass()
    sizes, frozen_general = [], []
    solve, adjoint = optlayer.solve_symmetric, pipelines.kkt_adjoint

    def recorded_solve(A, B):
        sizes.append(len(A))
        return solve(A, B)

    def recorded_adjoint(qp, sol, dL_dy):
        out = adjoint(qp, sol, dL_dy)
        frozen_general.append(np.count_nonzero(~qp._rows().bound[out[3]]))
        return out

    monkeypatch.setattr(optlayer, "solve_symmetric", recorded_solve)
    monkeypatch.setattr(pipelines, "kkt_adjoint", recorded_adjoint)
    _decision_and_grads(adapter, thetas[0], None, instances[0])
    assert len(frozen_general) == 1 and adapter.n == 100
    assert max(sizes, default=0) <= frozen_general[0]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: every movie-rec DF adjoint product z_x sel is "
                          "exactly zero, so DF trains on a zero gradient")
def test_movie_df_training_pass_has_a_nonzero_gradient():
    # at initialization no coordinate is interior: the movies at 1 are fixed
    # by their bounds and those at 0 have no selection, so every dL/dtheta is 0
    adapter, thetas, instances = _movie_df_first_pass()
    dthetas = [_decision_and_grads(adapter, theta, None, inst)[1]
               for theta, inst in zip(thetas, instances)]
    assert any(np.any(dtheta) for dtheta in dthetas)


def test_movierec_loss_partitions_once(monkeypatch):
    # the loss's value and supergradient come from one partition of x_i theta_ij
    adapter = get_adapter(TrainConfig(**TOY_MOVIE))
    inst = adapter.generate(subseed(0, 0)).instances[0]
    x = np.linspace(0.0, 1.0, adapter.n)
    calls = []
    partition = np.partition
    monkeypatch.setattr(np, "partition", lambda *a, **k: calls.append(1) or partition(*a, **k))
    loss, dL_dx = adapter.loss_grad_x(x, inst)
    assert len(calls) == 1
    assert loss == -domains.movierec_objective(x, inst.preferences, adapter.picks)
    assert dL_dx.shape == (adapter.n,)
