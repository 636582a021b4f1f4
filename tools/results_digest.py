"""Print one line per job of a fixed 36-job set, then one per theory check,
so that two trees' results can be compared for equality: run the tool in
each tree and `diff` the two outputs.

The set is the criterion-6 portfolio and movie-rec configs of
tests/test_acceptance.py and the configs of the benchmark's two workloads
at benchmark seed 0 (taken from perfbench/workloads.py), each at package
seeds 0-2 with all three methods.  Every job trains and evaluates on a fresh
adapter and dataset, in one process with one BLAS thread.  A line holds the
config's tag, the method and the seed, then repr(mean_regret), epochs_run,
the status, repr(max_violation), a digest of the per-epoch history rows and
a digest of the trained parameters and the final P_raw, which covers the
gradient path even where regrets and history agree by chance.
A theory line holds `theory`, the name of a theory.run_theory_checks() row,
its pass flag and the repr of its value.

usage: python tools/results_digest.py
"""

import hashlib
import os
import sys
from pathlib import Path

if __name__ == "__main__":  # before numpy loads BLAS; an importing process keeps its own
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from surrogate_dfl.pipelines import (  # noqa: E402
    METHODS,
    TrainConfig,
    evaluate,
    get_adapter,
    init_method,
    load_dataset,
    train_method,
)
from surrogate_dfl.theory import run_theory_checks  # noqa: E402

SEEDS = (0, 1, 2)


def job_set() -> dict:
    """{tag: config} of the set's four configs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return {
        "c6-port": TrainConfig(domain="portfolio", n_days=60, max_epochs=40),
        "c6-movie": TrainConfig(domain="movierec", max_epochs=100, p_learning_rate=0.1),
        "portfolio-n100": workloads.config("portfolio-n100", 0),
        "movierec-protocol": workloads.config("movierec-protocol", 0),
    }


def weights_digest(arrays) -> str:
    """The first 16 hex digits of the SHA-256 of the arrays' bytes, in order."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return digest.hexdigest()[:16]


def job_line(tag: str, config: TrainConfig, method: str, seed: int) -> str:
    """The job's line: tag, method, seed, repr(mean_regret), epochs_run,
    status, repr(max_violation), the first 16 hex digits of the SHA-256 of
    the history rows' repr, and weights_digest of the trained parameters, in
    the adapter's params order, then the final P_raw (the surrogate's only);
    a job that raises gets its error as status."""
    try:
        adapter = get_adapter(config)
        dataset = load_dataset(config, adapter, seed)
        models, rep = init_method(config, adapter, method, seed)
        result = train_method(models, rep, dataset, config, adapter, method)
        ev = evaluate(result.models, rep, dataset, config, adapter)
    except Exception as exc:  # a failed job is a result to compare, not the end of the run
        fields = ["nan", "0", f"error: {type(exc).__name__}: {exc}", "nan", "-", "-"]
    else:
        rows = [(epoch, float(loss), float(score)) for epoch, loss, score in result.history]
        fields = [
            repr(float(np.mean(ev.regrets))),
            str(result.epochs_run),
            "ok",
            repr(float(ev.max_violation)),
            hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
            weights_digest(adapter.params(result.models) + ([] if rep is None else [rep.P_raw])),
        ]
    return " ".join([tag, method, str(seed), *fields])


def theory_lines() -> list:
    """One line per theory check: `theory`, its name, its pass flag and
    repr(value)."""
    return [f"theory {row['check']} {row['passed']} {row['value']!r}"
            for row in run_theory_checks()]


def main() -> int:
    for tag, config in job_set().items():
        for seed in SEEDS:
            for method in METHODS:
                print(job_line(tag, config, method, seed), flush=True)
    print(*theory_lines(), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
