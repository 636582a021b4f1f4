"""Every span name the benchmark looks up still resolves in the package, and
the job functions it wraps keep their signatures.

perfbench/ times functions by name (`layer.function` or
`layer.Class.method`).  A renamed or deleted function makes its metrics
null and fails the benchmark run, so the names are checked here, by the
rules the benchmark's tracer wraps functions by.  Its audit and tracer also
wrap pipelines.run_single(config, method, seed) and
pipelines._run_single_safe(job) -> (row, extras); a change there fails the
benchmark run too.
"""

import importlib
import inspect
import sys
from pathlib import Path

from surrogate_dfl import pipelines
from surrogate_dfl.pipelines import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_tables():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import instrument
        import metrics
    finally:
        sys.path.remove(str(PERFBENCH))
    return instrument, metrics


def looked_up_names(instrument, metrics):
    names = {span for spans, _ in metrics.SPAN_METRICS.values() for span in spans}
    names |= set(metrics.TRAIN_SPANS.values())
    names |= {span for _, span in metrics.SHARES.values()}
    names |= set(metrics.DECISIONS) | set(metrics.ROUND_SOLVES)
    names |= {f"{layer}.{fn}" for layer, fns in instrument.TRACED_PRIVATE.items() for fn in fns}
    return names


def traced(name, instrument) -> bool:
    """Whether the tracer wraps `name`: layer.function must be a function
    defined in surrogate_dfl.<layer>, public and not UNTRACED or listed in
    TRACED_PRIVATE; layer.Class.method a public method in the namespace of a
    class defined there."""
    layer, *path = name.split(".")
    module = importlib.import_module(f"surrogate_dfl.{layer}")
    obj = vars(module).get(path[0])
    if len(path) == 1:
        wrapped = (
            not path[0].startswith("_") and path[0] not in instrument.UNTRACED
        ) or path[0] in instrument.TRACED_PRIVATE.get(layer, ())
        return wrapped and inspect.isfunction(obj) and obj.__module__ == module.__name__
    return (
        len(path) == 2
        and not path[1].startswith("_")
        and inspect.isclass(obj)
        and obj.__module__ == module.__name__
        and inspect.isfunction(vars(obj).get(path[1]))
    )


def test_benchmark_span_names_resolve():
    instrument, metrics = perfbench_tables()
    names = looked_up_names(instrument, metrics)
    assert len(names) > 20  # the tables were found and read
    missing = sorted(n for n in names if not traced(n, instrument))
    assert not missing, f"benchmark spans with no traced function behind them: {missing}"


TINY_JOB = dict(domain="portfolio", n_securities=5, n_days=30, hidden_size=6,
                embedding_dim=3, max_epochs=1, n_seeds=1, max_workers=1)


def test_job_hooks_keep_their_contract():
    # the benchmark reads (method, seed) from run_single's second and third
    # positional arguments and wraps _run_single_safe(job) -> (row, extras)
    params = list(inspect.signature(pipelines.run_single).parameters.values())
    assert [p.name for p in params[:3]] == ["config", "method", "seed"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:3])
    assert all(p.default is not p.empty for p in params[3:])
    assert len(inspect.signature(pipelines._run_single_safe).parameters) == 1
    statuses = []
    for cfg in (TrainConfig(**TINY_JOB), TrainConfig(**TINY_JOB, surrogate_m=99)):
        out = pipelines._run_single_safe((cfg, "surrogate", 0))
        assert isinstance(out, tuple) and len(out) == 2
        row, extras = out
        assert isinstance(row, pipelines.ReportRow) and (row.method, row.seed) == ("surrogate", 0)
        assert set(extras) == {"max_violation", "min_regret"}
        statuses.append(row.status)
    assert statuses[0] == "ok" and statuses[1].startswith("error: BadDimensions")


def test_benchmark_hooks_see_every_job():
    # a run under the benchmark's audit and tracer: every row carries its
    # audit record, and every job's spans carry its (method, seed)
    instrument, _ = perfbench_tables()
    tracer = instrument.Tracer()
    with instrument.patched() as undo:
        instrument.Audit().install(undo)
        tracer.install(undo)
        report = pipelines.run_experiment(TrainConfig(**{**TINY_JOB, "n_seeds": 2}))
    assert all(row.status == "ok" and hasattr(row, "audit") for row in report.rows)
    jobs = {(row.method, row.seed) for row in report.rows}
    assert len(jobs) == 3 * 2
    assert set(tracer.contexts[1:]) == jobs
