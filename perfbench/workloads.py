"""The benchmark's two workloads, built from the benchmark seed.

portfolio-n100: Markowitz portfolio at the criterion-5 size (100 securities,
60 days split 42/6/12, surrogate m = 10).  The n-dimensional active-set
solver does most of the work, so solver and KKT changes show here.
qp_max_iter is 2000: at the default cap of 200 every decision-focused seed
stops with MaxIterations, and at 600 package seed 4040001 still does (one of
its solves takes 642 pivots).  patience equals max_epochs, so early stopping
never fires and every job trains the same number of epochs.

movierec-protocol: movie broadcast at the shipped defaults, 30 seeds, every
method, early stopping as shipped.  Here the full-dimensional active-set
solver is idle (decision-focused uses the closed-form box-budget solver, the
surrogate solves 10-dimensional QPs with 201 rows), so a change aimed at
portfolio-n100 should leave it unchanged.  `surrogate-dfl run --domain
movierec` runs its jobs with one worker per core; the timed runs here run
them one after another (see below), and the traced run measures the
parallel pass for pipelines.parallel_eff.

The package never sees the benchmark seed: seed s selects the package seeds
s * SEED_STRIDE + i, and the package generates each job's data from those.
A run takes consecutive blocks of n_seeds package seeds (seed_block).

On a shared 2-core VM the same work ran up to 3x slower from one second to
the next, and the two cores slow each other down, so raw seconds of runs
minutes apart, or of two workers side by side, spread wider than any useful
bound.  Timed runs are therefore serial, and instrument.Audit samples the
machine's speed with reference_s, a short fixed numpy job that uses no
package code, at the start of each job, around its evaluate call and
every PROBE_GAP[workload] seconds at training-instance, validation and
test-decision boundaries.  Each timing is scaled by the mean speed (REF_S
over the sample's seconds) of the samples taken across it: seconds on a
machine where the reference job takes REF_S.  Raw seconds are kept in the
result file.
"""

import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np
from surrogate_dfl.pipelines import (
    TrainConfig,
    get_adapter,
    make_reparam,
    run_experiment,
    subseed,
)

SEED_STRIDE = 10_000
METHOD_TAGS = {"two-stage": "ts", "decision-focused": "df", "surrogate": "sur"}

REF_S = 0.0125
# seconds between speed samples: portfolio-n100's surrogate epochs and
# inference passes last a few tenths of a second, so they need dense samples;
# movierec-protocol's 90 jobs a block last about 0.2 s each, and sampling
# little more than their start and their evaluate call keeps its runs short
PROBE_GAP = {"portfolio-n100": 0.02, "movierec-protocol": 0.2}

# criterion 4's tolerances, plus a KKT residual ceiling well above the
# ~1e-13 the solvers reach
VIOLATION_TOL = 1e-8
REGRET_FLOOR = -1e-6
KKT_TOL = 1e-8


@dataclass
class SeededConfig(TrainConfig):
    """TrainConfig whose seeds start at first_seed instead of 0."""

    first_seed: int = 0

    def seeds(self):
        return list(range(self.first_seed, self.first_seed + self.n_seeds))


_REF_H = np.random.default_rng(0).normal(size=(150, 150))
_REF_H = _REF_H @ _REF_H.T + np.eye(150)


def reference_s() -> float:
    """Seconds for a fixed job shaped like the solvers' work (assemble and
    solve a 170 x 170 KKT-like system, 50 times)."""
    t0 = time.perf_counter()
    for _ in range(50):
        M = np.zeros((170, 170))
        M[:150, :150] = _REF_H
        M[150:, :150] = 1.0
        M[:150, 150:] = 1.0
        M[150:, 150:] = np.eye(20)
        np.linalg.solve(M, np.ones(170))
    return time.perf_counter() - t0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def config(workload: str, seed: int, toy: bool = False) -> SeededConfig:
    """The workload's configuration; toy shrinks every size for smoke runs."""
    if workload == "portfolio-n100":
        # inference_sec is the median of timing_repeats test passes; few
        # full-solve passes leave time for more seeds, whose decision-focused
        # epochs differ by up to 2x
        cfg = SeededConfig(
            domain="portfolio", n_securities=100, n_days=60, surrogate_m=10,
            qp_max_iter=2000, max_epochs=1, patience=1, timing_repeats=2,
            n_seeds=1, max_workers=1,
        )
        if toy:
            cfg = replace(cfg, n_securities=8, n_days=30, surrogate_m=2,
                          hidden_size=8, embedding_dim=4)
    elif workload == "movierec-protocol":
        cfg = SeededConfig(domain="movierec", n_seeds=30, max_workers=1)
        if toy:
            cfg = replace(cfg, n_movies=12, users_per_group=3, n_feature_movies=4,
                          budget_k=3, picks_per_user=2, n_seeds=2, max_epochs=3,
                          hidden_size=8)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return replace(cfg, first_seed=seed * SEED_STRIDE)


def protocol_workers(workload: str) -> int:
    """Worker processes the workload's protocol runs its jobs with."""
    return nproc() if workload == "movierec-protocol" else 1


def seed_block(cfg: SeededConfig, block: int) -> SeededConfig:
    """The block-th run of n_seeds consecutive package seeds after cfg's first."""
    return replace(cfg, first_seed=cfg.first_seed + block * cfg.n_seeds)


def set_up(cfg: SeededConfig) -> None:
    """What run_single does before its first epoch, for every job."""
    for method in cfg.methods:
        for seed in cfg.seeds():
            adapter = get_adapter(cfg)
            adapter.generate(subseed(seed, 0))
            adapter.init_models(subseed(seed, 1))
            if method == "surrogate":
                make_reparam(cfg, adapter, subseed(seed, 2))


def run_pass(cfg: SeededConfig):
    """One run_experiment over every (method, seed); returns (wall s, rows)."""
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return time.perf_counter() - t0, report.rows


def row_problems(row) -> list:
    """Failed correctness checks of one report row (empty when it passes).

    The audit record is attached by instrument.Audit; a row without one ran
    outside the audited path and cannot be certified.
    """
    problems = []
    if row.status != "ok":
        problems.append(f"status {row.status!r}")
    audit = getattr(row, "audit", None)
    if audit is None:
        return problems + ["no audit record"]
    if not audit["max_violation"] <= VIOLATION_TOL:
        problems.append(f"violation {audit['max_violation']:.3e} > {VIOLATION_TOL:g}")
    if not audit["min_regret"] >= REGRET_FLOOR:
        problems.append(f"regret {audit['min_regret']:.3e} < {REGRET_FLOOR:g}")
    if not audit["kkt_residual_max"] <= KKT_TOL:
        problems.append(f"kkt residual {audit['kkt_residual_max']:.3e} > {KKT_TOL:g}")
    return problems


class Checker:
    """Counts attempted and failed jobs over every execution in a run.

    A job fails when its row fails row_problems, or when its non-timing
    fields (regret, epochs_run, status) differ from the first execution of
    the same (method, seed) in this run.
    """

    def __init__(self):
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, rows) -> None:
        for row in rows:
            self.attempted += 1
            problems = row_problems(row)
            key = (row.method, row.seed)
            fields = (repr(row.mean_regret), row.epochs_run, row.status)
            if self.first.setdefault(key, fields) != fields:
                problems.append(f"non-timing fields {fields} != first run {self.first[key]}")
            if problems:
                self.failed += 1
                self.messages.append(f"{row.method}/seed {row.seed}: " + "; ".join(problems))


def method_means(passes, column: str) -> dict:
    """Mean over seeds, per method tag, of a scaled report timing column over
    the ok rows of every pass; a seed run twice counts once, at its mean.

    Means, not medians: the speed scaling already removes slow spells, and
    on portfolio-n100 a decision-focused epoch takes up to twice as long on
    one seed as on another, with only a few seeds in a run."""
    per_seed = {}
    for _, rows in passes:
        for row in rows:
            if row.status == "ok":
                key = (METHOD_TAGS[row.method], row.seed)
                per_seed.setdefault(key, []).append(row.audit[column])
    by_tag = {}
    for (tag, _), vals in per_seed.items():
        by_tag.setdefault(tag, []).append(statistics.fmean(vals))
    return {tag: statistics.fmean(vals) for tag, vals in by_tag.items()}


def mean_block_seconds(passes) -> float:
    """Mean over seed blocks of a block's scaled jobs back to back; a block
    run twice counts once, at its mean."""
    per_block = {}
    for _, rows in passes:
        seeds = tuple(sorted({row.seed for row in rows}))
        per_block.setdefault(seeds, []).append(sum(row.audit["job_s"] for row in rows))
    return statistics.fmean(statistics.fmean(v) for v in per_block.values())


def mean_regrets(rows) -> dict:
    by_tag = {}
    for row in rows:
        if row.status == "ok":
            by_tag.setdefault(METHOD_TAGS[row.method], []).append(row.mean_regret)
    return {tag: statistics.fmean(vals) for tag, vals in by_tag.items()}
