"""End-to-end and per-layer metrics, by the names BENCHMARK.json declares.

Per-layer times (`.s`) are inclusive totals over the traced pass: a span's
whole duration, children included.  `layer.<module>.self_s` and
`epoch_self_s.<method>.<module>` are self times: a span's duration minus the
part its child spans cover.  A metric whose function no longer exists in the
package is reported as null (missing), never as zero.
"""

import statistics

import numpy as np

from instrument import ERROR_TYPES, LAYERS
from workloads import METHOD_TAGS, mean_block_seconds, mean_regrets, method_means

UNITS = {"s": "s", "calls": "count"}

# metric -> (span names, "calls" or "s"); groups sum over their spans
SPAN_METRICS = {
    "optlayer.solve_qp.calls": (("optlayer.solve_qp",), "calls"),
    "optlayer.solve_qp.s": (("optlayer.solve_qp",), "s"),
    "optlayer.pivots": (("optlayer._equality_solve",), "calls"),
    "optlayer.equality_solve.s": (("optlayer._equality_solve",), "s"),
    "optlayer.phase_one.calls": (("optlayer._phase_one",), "calls"),
    "optlayer.phase_one.s": (("optlayer._phase_one",), "s"),
    "optlayer.kkt_adjoint.calls": (("optlayer.kkt_adjoint",), "calls"),
    "optlayer.kkt_adjoint.s": (("optlayer.kkt_adjoint",), "s"),
    "numerics.solve_symmetric.calls": (("numerics.solve_symmetric",), "calls"),
    "numerics.solve_symmetric.s": (("numerics.solve_symmetric",), "s"),
    "optlayer.kkt_jacobian_P.calls": (("optlayer.kkt_jacobian_P",), "calls"),
    "optlayer.kkt_jacobian_P.s": (("optlayer.kkt_jacobian_P",), "s"),
    "surrogate.grad_wrt_P.s": (("surrogate.grad_wrt_P",), "s"),
    "surrogate.qp_build.s": (("surrogate.SurrogateQp.qp",), "s"),
    "surrogate.transform_problem.s": (("surrogate.transform_problem",), "s"),
    "optlayer.box_budget.calls": (("optlayer.solve_box_budget_qp",), "calls"),
    "optlayer.box_budget.s": (("optlayer.solve_box_budget_qp",), "s"),
    "domains.oracle.calls": (
        ("domains.portfolio_oracle_decision", "domains.movierec_oracle_decision"), "calls"),
    "domains.oracle.s": (
        ("domains.portfolio_oracle_decision", "domains.movierec_oracle_decision"), "s"),
    "domains.generate.s": (("domains.gen_portfolio_data", "domains.gen_movierec_data"), "s"),
    "diff.forward.s": (("diff.mlp_forward_batch", "diff.embedding_cosine_matrix"), "s"),
    "diff.backward.s": (("diff.mlp_backward_batch", "diff.embedding_cosine_backward"), "s"),
    "diff.adam.s": (("diff.adam_step",), "s"),
    "pipelines.validate.s": (("pipelines._regret_on",), "s"),
    "pipelines.evaluate.s": (("pipelines.evaluate",), "s"),
    "pipelines.train.s.ts": (("pipelines.train_two_stage",), "s"),
    "pipelines.train.s.df": (("pipelines.train_decision_focused",), "s"),
    "pipelines.train.s.sur": (("pipelines.train_surrogate",), "s"),
}
TRAIN_SPANS = {
    "df": "pipelines.train_decision_focused",
    "sur": "pipelines.train_surrogate",
}
# each share is (method, span): the span's inclusive time within that
# method's training epochs, over the epochs' time
SHARES = {
    "share.df.solve_qp": ("df", "optlayer.solve_qp"),
    "share.df.equality_solve": ("df", "optlayer._equality_solve"),
    "share.sur.kkt_jacobian_P": ("sur", "optlayer.kkt_jacobian_P"),
}
DECISIONS = ("pipelines.MovieRecAdapter.decision_full",
             "pipelines.MovieRecAdapter.decision_surrogate")
ROUND_SOLVES = ("optlayer.solve_box_budget_qp", "optlayer.solve_qp")


def metric(value, unit):
    return {"value": None if value is None else float(value), "unit": unit}


def end_to_end(setup_times, passes, checker) -> dict:
    """setup_times: seconds per set-up process; passes: [(wall s, rows)] per
    seed block.  Set-up is the median over processes; the other timings are
    means over seeds (see workloads.method_means)."""
    train = method_means(passes, "train_sec_per_epoch")
    infer = method_means(passes, "inference_sec")
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "experiment_s": metric(mean_block_seconds(passes), "s"),
        "train_epoch_s.df": metric(train.get("df"), "s/epoch"),
        "train_epoch_s.sur": metric(train.get("sur"), "s/epoch"),
        "infer_s.df": metric(infer.get("df"), "s"),
        "ok_frac": metric(1.0 - checker.failed / checker.attempted, "ratio"),
    }


def per_layer(tracer, traced_s, traced_rows, serial_s, serial_rows, parallel_s, workers) -> dict:
    """Metrics of one traced serial pass.

    serial_s/serial_rows: the same jobs untraced and serial (tracing overhead,
    summed job time); parallel_s: the workload's own untraced pass with
    `workers` processes (parallel efficiency).
    """
    names, parent, dur, self_t = tracer.arrays()
    out = {}
    for name, (spans, kind) in SPAN_METRICS.items():
        if not any(tracer.installed(s) for s in spans):
            out[name] = metric(None, UNITS[kind])
            continue
        sel = tracer.mask(names, *spans)
        out[name] = metric(sel.sum() if kind == "calls" else dur[sel].sum(), UNITS[kind])

    solves = tracer.mask(names, "optlayer.solve_qp")
    if tracer.installed("optlayer._equality_solve"):
        in_solve = tracer.nearest(parent, solves) >= 0
        pivots = tracer.mask(names, "optlayer._equality_solve") & in_solve
        out["optlayer.pivots_per_solve"] = metric(pivots.sum() / max(solves.sum(), 1), "count")
    else:
        out["optlayer.pivots_per_solve"] = metric(None, "count")

    for tag in ("df", "sur"):
        method = _method(tag)
        out[f"optlayer.adjoint_zero_frac.{tag}"] = metric(
            tracer.zero_adjoints[method] / max(tracer.adjoints[method], 1), "ratio")

    decisions = tracer.mask(names, *DECISIONS)
    owner = tracer.nearest(parent, decisions)
    rounds = tracer.mask(names, *ROUND_SOLVES) & (owner >= 0)
    out["domains.alternation_rounds_per_decision"] = metric(
        rounds.sum() / max(decisions.sum(), 1), "count")

    epochs = {tag: 0 for tag in METHOD_TAGS.values()}
    for row in traced_rows:
        epochs[METHOD_TAGS[row.method]] += row.epochs_run
    for tag, n in epochs.items():
        out[f"pipelines.epochs.{tag}"] = metric(n, "count")

    serial_job_s = sum(row.audit["job_s"] for row in serial_rows)
    out["pipelines.parallel_eff"] = metric(serial_job_s / (workers * parallel_s), "ratio")
    out["optlayer.kkt_residual_max"] = metric(
        max(row.audit["kkt_residual_max"] for row in traced_rows), "abs")
    out["optlayer.errors"] = metric(sum(tracer.errors.values()), "count")
    for err in ERROR_TYPES:
        out[f"optlayer.errors.{err}"] = metric(tracer.errors[err], "count")

    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names], dtype=object)[names]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = metric(self_t[layer_of == layer].sum(), "s")

    # training epochs: spans under a train_* span, outside its validation passes
    validation = tracer.nearest(parent, tracer.mask(names, "pipelines._regret_on")) >= 0
    epoch_time = {}
    for tag, span in TRAIN_SPANS.items():
        in_epochs = (tracer.nearest(parent, tracer.mask(names, span)) >= 0) & ~validation
        n = max(epochs[tag], 1)
        epoch_time[tag] = (self_t[in_epochs].sum(), in_epochs)
        for layer in LAYERS:
            out[f"epoch_self_s.{tag}.{layer}"] = metric(
                self_t[in_epochs & (layer_of == layer)].sum() / n, "s/epoch")
    for name, (tag, span) in SHARES.items():
        total, in_epochs = epoch_time[tag]
        if not tracer.installed(span):
            out[name] = metric(None, "ratio")
            continue
        inner = in_epochs & tracer.mask(names, span)
        out[name] = metric(dur[inner].sum() / total if total else 0.0, "ratio")

    for tag, value in mean_regrets(traced_rows).items():
        out[f"regret.{tag}"] = metric(value, "objective")
    out["trace.overhead"] = metric(traced_s / serial_s, "ratio")
    out["trace.spans"] = metric(len(dur), "count")
    return out


def _method(tag):
    return next(m for m, t in METHOD_TAGS.items() if t == tag)
