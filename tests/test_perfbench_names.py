"""Every span name the benchmark looks up still resolves in the package.

perfbench/ times functions by name (`layer.function` or
`layer.Class.method`).  A renamed or deleted function makes its metrics
null and fails the benchmark run, so the names are checked here, by the
rules the benchmark's tracer wraps functions by.
"""

import importlib
import inspect
import sys
from pathlib import Path

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
