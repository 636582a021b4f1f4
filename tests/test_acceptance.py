"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 4 (feasibility of every emitted decision) audits every experiment
the other criteria run, so it is declared last in this module.
"""

from dataclasses import replace

import numpy as np
from helpers import finite_diff_grad, identity_reparam

from surrogate_dfl import surrogate, theory
from surrogate_dfl.cli import main, parse_config
from surrogate_dfl.optlayer import QuadraticProgram, kkt_adjoint, solve_qp
from surrogate_dfl.pipelines import (
    TrainConfig,
    evaluate,
    get_adapter,
    make_reparam,
    run_single,
    subseed,
    train_decision_focused,
    train_surrogate,
    _decision_and_grads,
)

AUDIT = []  # (tag, max_violation, min_regret) for every run executed here


def _run(cfg, method, seed, tag):
    row, extras = run_single(cfg, method, seed)
    assert row.status == "ok", f"{tag}: {row.status}"
    AUDIT.append((f"{tag}/{method}/s{seed}", extras["max_violation"], extras["min_regret"]))
    return row


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(100)
    # (a) the adjoint's dy*/dtheta vs finite differences on 100 strictly convex QPs
    skipped = total = 0
    worst_jac = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n)
        hvec = rng.uniform(0.5, 2.0, n)
        Aeq = rng.normal(size=(1, n))
        beq = Aeq @ rng.uniform(-0.2, 1.0, n)  # feasible by construction

        def make_qp(theta):
            return QuadraticProgram(H=H, c=-theta, Aeq=Aeq, beq=beq,
                                    Gineq=-np.eye(n), hineq=hvec)

        theta = rng.normal(size=n)
        qp = make_qp(theta)
        sol = solve_qp(qp)
        # c = -theta: row j of dy*/dtheta is the adjoint z_y for dL/dy = e_j
        J = np.array([kkt_adjoint(qp, sol, e_j)[0] for e_j in np.eye(n)])
        strong = frozenset(np.nonzero(sol.lam > 1e-8)[0])
        h = 1e-5
        for i in range(n):
            total += 1
            e = np.zeros(n)
            e[i] = h
            sp = solve_qp(make_qp(theta + e))
            sm = solve_qp(make_qp(theta - e))
            if (frozenset(np.nonzero(sp.lam > 1e-8)[0]) != strong
                    or frozenset(np.nonzero(sm.lam > 1e-8)[0]) != strong):
                skipped += 1
                continue
            fd = (sp.y - sm.y) / (2 * h)
            worst_jac = max(worst_jac, float(np.max(
                np.abs(fd - J[:, i]) / np.maximum(1.0, np.abs(J[:, i])))))
    skip_rate = skipped / total
    assert skip_rate < 0.20
    assert worst_jac <= 1e-4

    # (b, c) end-to-end dL/dw and dL/dP (free mode: P = P_raw) on a 4-security
    # MLP pipeline
    cfg = TrainConfig(domain="portfolio", n_securities=4, n_days=25,
                      hidden_size=8, embedding_dim=3, surrogate_m=2,
                      surrogate_mode="free")
    adapter = get_adapter(cfg)
    dataset = adapter.generate(subseed(0, 0))
    models = adapter.init_models(subseed(0, 1))
    inst = dataset.instances[0]
    rep = make_reparam(cfg, adapter, subseed(0, 2))
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

    def loss_w(flat):
        adapter.set_params(models, unflatten(flat))
        theta = adapter.predict(models, [inst])[0][0]
        x, _, _, _ = adapter.decision_surrogate(theta, sp)
        return adapter.loss_grad_x(x, inst)[0]

    adapter.set_params(models, unflatten(flat0))
    thetas, cache = adapter.predict(models, [inst])
    _, dtheta, dL_dP, _ = _decision_and_grads(adapter, thetas[0], sp, inst)
    grads = adapter.backprop_models(models, cache, [dtheta])
    an_w = np.concatenate([g.ravel() for g in grads])
    fd_w = finite_diff_grad(loss_w, flat0, h=1e-5)
    err_w = float(np.max(np.abs(fd_w - an_w) / np.maximum(1.0, np.abs(an_w))))
    assert err_w <= 1e-3

    adapter.set_params(models, unflatten(flat0))

    def loss_P(flat):
        rep2 = surrogate.Reparameterization(P_raw=flat.reshape(4, 2), mode="free", n=4, m=2)
        sp2 = surrogate.transform_problem(adapter.base, surrogate.materialize(rep2))
        theta = adapter.predict(models, [inst])[0][0]
        x, _, _, _ = adapter.decision_surrogate(theta, sp2)
        return adapter.loss_grad_x(x, inst)[0]

    fd_P = finite_diff_grad(loss_P, rep.P_raw.ravel().copy(), h=1e-6)
    err_P = float(np.max(np.abs(fd_P - dL_dP.ravel()) / np.maximum(1.0, np.abs(dL_dP.ravel()))))
    assert err_P <= 1e-3
    print(f"\n[criterion 1] PASS - jacobian err {worst_jac:.2e} "
          f"(skips {skip_rate:.1%}), dL/dw err {err_w:.2e}, dL/dP err {err_P:.2e}")


def test_criterion_2_theory_witnesses():
    rows = theory.run_theory_checks()
    failed = [r["check"] for r in rows if not r["passed"]]
    assert not failed, failed
    by_name = {r["check"]: r for r in rows}
    vals = by_name["counterexample_opt_triple"]["value"]
    assert abs(vals[0]) <= 1e-9 and abs(vals[1]) <= 1e-9
    assert abs(vals[2] - 1.0 / 3.0) <= 1e-9
    probe = by_name["column_quasiconvexity_probe"]["value"]
    assert probe["violations"] == 0
    seg = by_name["full_matrix_segment_violation"]["value"]
    assert seg["violations"] >= 1
    bound = by_name["rademacher_worked_value"]["value"]
    assert abs(bound - 2.4668) <= 1e-3
    print(f"\n[criterion 2] PASS - counterexample {tuple(round(v, 4) for v in vals)}, "
          f"probe violations {probe['violations']}, segment violations {seg['violations']}, "
          f"bound {bound:.4f}")


def test_criterion_3_identity_neutrality():
    cfg = TrainConfig(domain="portfolio", n_securities=10, n_days=40,
                      hidden_size=20, embedding_dim=6, max_epochs=12)
    gaps = []
    for seed in range(3):
        adapter_a = get_adapter(cfg)
        adapter_b = get_adapter(cfg)
        ds_a = adapter_a.generate(subseed(seed, 0))
        ds_b = adapter_b.generate(subseed(seed, 0))
        m_a = adapter_a.init_models(subseed(seed, 1))
        m_b = adapter_b.init_models(subseed(seed, 1))
        train_decision_focused(m_a, ds_a, cfg, adapter_a)
        rep = identity_reparam(cfg.n_securities)
        train_surrogate(m_b, rep, ds_b, replace(cfg, p_learning_rate=0.0), adapter_b)
        ev_a = evaluate(m_a, None, ds_a, cfg, adapter_a)
        ev_b = evaluate(m_b, rep, ds_b, cfg, adapter_b)
        AUDIT.append((f"c3/df/s{seed}", ev_a.max_violation, float(np.min(ev_a.regrets))))
        AUDIT.append((f"c3/sur/s{seed}", ev_b.max_violation, float(np.min(ev_b.regrets))))
        gaps.append(abs(float(np.mean(ev_a.regrets)) - float(np.mean(ev_b.regrets))))
    assert max(gaps) <= 1e-6
    print(f"\n[criterion 3] PASS - max regret gap {max(gaps):.2e} over 3 seeds")


def test_criterion_5_scalability():
    cfg = TrainConfig(domain="portfolio", n_securities=100, n_days=60,
                      surrogate_m=10, max_epochs=1, qp_max_iter=600)
    adapter = get_adapter(cfg)
    dataset = adapter.generate(subseed(0, 0))

    # the decision-focused and surrogate repeats alternate and each pair gives
    # one ratio: a slow spell from a neighbouring process skews the pairs it
    # lands on, which the median drops, not one method's whole median
    train_ratios, inf_ratios = [], []
    for _ in range(5):
        m_df = adapter.init_models(subseed(0, 1))
        t_df = train_decision_focused(m_df, dataset, cfg, adapter).train_sec_per_epoch
        m_sur = adapter.init_models(subseed(0, 1))
        rep = make_reparam(cfg, adapter, subseed(0, 2))
        t_sur = train_surrogate(m_sur, rep, dataset, cfg, adapter).train_sec_per_epoch
        train_ratios.append(t_sur / t_df)
    for _ in range(5):
        ev_df = evaluate(m_df, None, dataset, cfg, adapter)
        ev_sur = evaluate(m_sur, rep, dataset, cfg, adapter)
        inf_ratios.append(ev_sur.inference_sec / ev_df.inference_sec)
    AUDIT.append(("c5/df", ev_df.max_violation, float(np.min(ev_df.regrets))))
    AUDIT.append(("c5/sur", ev_sur.max_violation, float(np.min(ev_sur.regrets))))
    train_ratio = float(np.median(train_ratios))
    inf_ratio = float(np.median(inf_ratios))
    assert train_ratio <= 0.5, f"train ratio {train_ratio:.3f} (pairs {train_ratios})"
    assert inf_ratio <= 0.5, f"inference ratio {inf_ratio:.3f} (pairs {inf_ratios})"
    print(f"\n[criterion 5] PASS - median paired train sec/epoch ratio {train_ratio:.3f}, "
          f"median paired inference ratio {inf_ratio:.3f}")


def test_criterion_6_quality():
    # movie broadcast: surrogate beats both baselines by a pooled stderr
    movie_cfg = TrainConfig(domain="movierec", max_epochs=100, p_learning_rate=0.1)
    movie = {}
    for method in ("two-stage", "decision-focused", "surrogate"):
        movie[method] = np.array(
            [_run(movie_cfg, method, seed, "c6-movie").mean_regret for seed in range(10)]
        )

    def pooled_se(a, b):
        return float(np.sqrt(a.std(ddof=1) ** 2 / len(a) + b.std(ddof=1) ** 2 / len(b)))

    sur, ts, df = movie["surrogate"], movie["two-stage"], movie["decision-focused"]
    assert sur.mean() <= ts.mean() - pooled_se(sur, ts), (sur.mean(), ts.mean())
    assert sur.mean() <= df.mean() - pooled_se(sur, df), (sur.mean(), df.mean())

    # portfolio: surrogate within 1.25x of decision-focused
    port_cfg = TrainConfig(domain="portfolio", n_days=60, max_epochs=40)
    port = {}
    for method in ("decision-focused", "surrogate"):
        port[method] = np.array(
            [_run(port_cfg, method, seed, "c6-port").mean_regret for seed in range(10)]
        )
    ratio = port["surrogate"].mean() / port["decision-focused"].mean()
    assert ratio <= 1.25, f"portfolio ratio {ratio:.3f}"
    print(f"\n[criterion 6] PASS - movie: sur {sur.mean():.2f} vs ts {ts.mean():.2f} "
          f"vs df {df.mean():.2f}; portfolio sur/df ratio {ratio:.3f}")


def test_criterion_7_protocol_fidelity(tmp_path):
    assert main(["theory-check", "--out", str(tmp_path)]) == 0
    echoed = parse_config(str(tmp_path / "config_echo.txt"), [])
    assert echoed["learning_rate"] == 0.01
    assert echoed["max_epochs"] == 100
    assert echoed["patience"] == 3
    assert echoed["n_seeds"] == 30
    assert echoed["surrogate_m"] == 0  # resolved by the ceil(0.1 n) rule
    assert surrogate.default_m(50) == 5
    assert surrogate.default_m(100) == 10
    print("\n[criterion 7] PASS - defaults: lr 0.01, epochs 100, patience 3, "
          "30 seeds, m = ceil(0.1 n)")


def test_criterion_8_determinism(tmp_path):
    args = ["run", "--domain", "portfolio",
            "--set", "n_securities=8", "--set", "n_days=30",
            "--set", "hidden_size=10", "--set", "embedding_dim=4",
            "--set", "max_epochs=5", "--set", "n_seeds=2",
            "--set", "max_workers=1", "--set", "methods=two-stage,surrogate"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0

    def stripped(path):
        rows = []
        for line in (path / "report.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("method,"):
                rows.append(line)
                continue
            parts = line.split(",")
            parts[3] = parts[4] = "_"
            rows.append(",".join(parts))
        return rows

    assert stripped(out1) == stripped(out2)
    print("\n[criterion 8] PASS - identical reports modulo timing columns")


def test_criterion_4_feasibility():
    # audits every decision emitted by the runs above
    assert AUDIT, "no runs recorded"
    worst_violation = max(v for _, v, _ in AUDIT)
    worst_regret = min(r for _, _, r in AUDIT)
    assert worst_violation <= 1e-8, worst_violation
    assert worst_regret >= -1e-6, worst_regret
    print(f"\n[criterion 4] PASS - {len(AUDIT)} runs audited, "
          f"worst violation {worst_violation:.2e}, lowest regret {worst_regret:.2e}")
