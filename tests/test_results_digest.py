"""tools/results_digest.py, the equality check between two trees: one line
per job, whose fields are the job's run_single results, and one per theory
check, whose fields are its row of theory.run_theory_checks()."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from surrogate_dfl.pipelines import (
    TrainConfig,
    get_adapter,
    init_method,
    load_dataset,
    run_single,
    train_method,
)
from surrogate_dfl.theory import run_theory_checks

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TOY_MOVIE = TrainConfig(
    domain="movierec", n_movies=12, users_per_group=4, n_groups=10, n_feature_movies=5,
    budget_k=3, picks_per_user=2, hidden_size=8, max_epochs=3,
)


def _tool():
    sys.path.insert(0, str(TOOLS))
    try:
        import results_digest
    finally:
        sys.path.remove(str(TOOLS))
    return results_digest


def test_job_line_holds_the_jobs_results(tmp_path):
    tool = _tool()
    line = tool.job_line("toy", TOY_MOVIE, "surrogate", 0)
    tag, method, seed, regret, epochs, status, violation, digest, weights = line.split(" ")
    row, extras = run_single(TOY_MOVIE, "surrogate", 0)
    assert (tag, method, seed, status) == ("toy", "surrogate", "0", "ok")
    assert (regret, epochs) == (repr(row.mean_regret), str(row.epochs_run))
    assert violation == repr(extras["max_violation"]) and len(digest) == 16
    # the weights field hashes the trained parameters, then the final P_raw
    adapter = get_adapter(TOY_MOVIE)
    dataset = load_dataset(TOY_MOVIE, adapter, 0)
    models, rep = init_method(TOY_MOVIE, adapter, "surrogate", 0)
    result = train_method(models, rep, dataset, TOY_MOVIE, adapter, "surrogate")
    trained = adapter.params(result.models)
    assert weights == tool.weights_digest(trained + [rep.P_raw])
    assert weights != tool.weights_digest(trained)
    moved = rep.P_raw.copy()
    moved.flat[0] = np.nextafter(moved.flat[0], np.inf)
    assert weights != tool.weights_digest(trained + [moved])  # one ulp of P_raw shows
    two_stage = tool.job_line("toy", TOY_MOVIE, "two-stage", 0).split(" ")
    assert len(two_stage[-1]) == 16 and two_stage[-1] != weights
    assert tool.job_line("toy", TOY_MOVIE, "surrogate", 0) == line
    missing = replace(TOY_MOVIE, data_in=str(tmp_path / "none.csv"))
    assert " error: " in tool.job_line("toy", missing, "two-stage", 0)


def test_theory_lines_hold_the_checks(monkeypatch, capsys):
    tool = _tool()
    lines = tool.theory_lines()
    rows = run_theory_checks()
    assert len(lines) == len(rows) >= 8
    for line, row in zip(lines, rows):
        tag, name, passed, value = line.split(" ", 3)
        assert (tag, name, passed) == ("theory", row["check"], str(row["passed"]))
        assert value == repr(row["value"])
    # after the job lines, of which there are none here, main prints them
    monkeypatch.setattr(tool, "job_set", dict)
    assert tool.main() == 0
    assert capsys.readouterr().out.splitlines() == lines
