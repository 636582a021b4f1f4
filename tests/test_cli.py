import gc
import os
import warnings

import pytest

from surrogate_dfl.cli import echo_config, main, parse_config
from surrogate_dfl.errors import MissingFile, TypeMismatch, UnknownKey
from surrogate_dfl.pipelines import TrainConfig

TINY = [
    "--set", "n_securities=6", "--set", "n_days=30", "--set", "hidden_size=10",
    "--set", "embedding_dim=4", "--set", "max_epochs=4", "--set", "n_seeds=2",
    "--set", "max_workers=1",
]


def test_defaults_match_protocol():
    resolved = parse_config(None, [])
    assert resolved["learning_rate"] == 0.01
    assert resolved["max_epochs"] == 100
    assert resolved["patience"] == 3
    assert resolved["n_seeds"] == 30
    assert resolved["surrogate_m"] == 0  # 0 means the ceil(0.1 n) rule
    # train's P export keys are the CLI's own, not TrainConfig fields
    assert resolved["export_p"] is False and resolved["verbose"] is False
    for key in ("export_p", "verbose"):
        with pytest.raises(TypeError):
            TrainConfig(**{key: True})


def test_empty_file_gives_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# nothing but a comment\n\n")
    resolved = parse_config(str(cfg), [])
    assert resolved["learning_rate"] == 0.01
    assert resolved["max_epochs"] == 100


def test_flag_overrides_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("learning_rate = 0.05\n")
    resolved = parse_config(str(cfg), ["learning_rate=0.02"])
    assert resolved["learning_rate"] == 0.02


def test_type_mismatch_names_key(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("patience = three\n")
    with pytest.raises(TypeMismatch) as err:
        parse_config(str(cfg), [])
    assert "patience" in str(err.value)


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("learning_rte = 0.01\n")
    with pytest.raises(UnknownKey) as err:
        parse_config(str(cfg), [])
    assert "learning_rte" in str(err.value)


def test_missing_file():
    with pytest.raises(MissingFile):
        parse_config("/nonexistent/path.cfg", [])


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SURROGATE_DFL_OUT", str(tmp_path / "env_out"))
    resolved = parse_config(None, [])
    assert resolved["out_dir"] == str(tmp_path / "env_out")
    # explicit --set still wins
    resolved = parse_config(None, [f"out_dir={tmp_path / 'flag_out'}"])
    assert resolved["out_dir"] == str(tmp_path / "flag_out")


def test_config_error_exit_code(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_theory_check_subcommand(tmp_path):
    rc = main(["theory-check", "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "theory_report.csv").read_text().splitlines()
    assert report[0] == "check,passed,value,expected"
    assert len(report) > 5
    assert all(line.split(",")[1] == "1" for line in report[1:])


def test_run_subcommand_rows(tmp_path):
    # 2 seeds x all three methods: six training runs, one report pair
    rc = main(["run", "--domain", "portfolio", "--out", str(tmp_path), *TINY])
    assert rc == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 2 + 6
    agg = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 2 + 3  # comment, header, one row per method
    assert os.path.exists(tmp_path / "config_echo.txt")
    assert os.path.exists(tmp_path / "run.log")


def _strip_timing(report_text):
    rows = []
    for line in report_text.splitlines():
        if line.startswith("#") or line.startswith("method,"):
            rows.append(line)
            continue
        parts = line.split(",")
        parts[3] = parts[4] = "_"
        rows.append(",".join(parts))
    return "\n".join(rows)


def test_run_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["run", "--domain", "portfolio", *TINY, "--set", "methods=two-stage,surrogate"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a = _strip_timing((out1 / "report.csv").read_text())
    b = _strip_timing((out2 / "report.csv").read_text())
    assert a == b

    def echo_sans_out(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("out_dir")]

    assert echo_sans_out(out1 / "config_echo.txt") == echo_sans_out(out2 / "config_echo.txt")


def test_echoed_config_reproduces_run(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--domain", "portfolio", "--out", str(out1), *TINY,
                 "--set", "methods=two-stage"]) == 0
    echo = out1 / "config_echo.txt"
    # rerun purely from the echo: only the output directory changes
    assert main(["run", "--config", str(echo), "--out", str(out2)]) == 0
    a = _strip_timing((out1 / "report.csv").read_text())
    b = _strip_timing((out2 / "report.csv").read_text())
    assert a == b


def test_gen_data_and_ingest_roundtrip(tmp_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--domain", "portfolio", "--out", str(out), *TINY]) == 0
    csv_path = out / "portfolio_prices.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "day,security,price"
    # training can consume the exported file through data_in
    out2 = tmp_path / "train"
    rc = main(["train", "--domain", "portfolio", "--out", str(out2), *TINY,
               "--method", "two-stage", "--seed", "0",
               "--set", f"data_in={csv_path}"])
    assert rc == 0
    assert (out2 / "checkpoint.csv").exists()


def test_train_then_eval(tmp_path):
    out = tmp_path / "t"
    assert main(["train", "--domain", "portfolio", "--out", str(out), *TINY,
                 "--method", "surrogate", "--seed", "1"]) == 0
    ckpt = out / "checkpoint.csv"
    assert ckpt.exists()
    rc = main(["eval", "--domain", "portfolio", "--out", str(out), *TINY,
               "--method", "surrogate", "--seed", "1",
               "--checkpoint", str(ckpt)])
    assert rc == 0
    eval_lines = (out / "eval.csv").read_text().splitlines()
    assert eval_lines[0] == "instance,regret"
    regrets = [float(l.split(",")[1]) for l in eval_lines[1:]]
    assert all(r >= -1e-6 for r in regrets)


def test_train_writes_its_history(tmp_path):
    # one row per epoch run: the epoch, the mean training loss and the
    # validation score (regret for the end-to-end methods), as numbers
    out = tmp_path / "h"
    assert main(["train", "--domain", "portfolio", "--out", str(out), *TINY,
                 "--method", "decision-focused", "--seed", "1"]) == 0
    log = (out / "run.log").read_text()
    epochs = int(log.split("trained ")[1].split(" epochs")[0])
    lines = (out / "history_decision-focused_s1.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_score"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, epochs + 1))
    assert all(len(r) == 3 and all(abs(float(v)) < 1e3 for v in r[1:]) for r in rows)


@pytest.mark.parametrize("setting, reason", [
    ("hidden_size=0", "hidden_size must be at least 1, got 0"),
    ("qp_max_iter=-5", "qp_max_iter must be 0 (the default cap) or more, got -5"),
])
def test_bad_model_sizes_exit_2(tmp_path, setting, reason):
    out = tmp_path / "b"
    assert main(["train", "--domain", "portfolio", "--out", str(out), *TINY,
                 "--set", setting]) == 2
    assert reason in (out / "run.log").read_text()
    assert not (out / "checkpoint.csv").exists()


def test_echo_config_format(tmp_path):
    resolved = parse_config(None, ["domain=movierec"])
    path = tmp_path / "echo.txt"
    echo_config(resolved, path)
    back = parse_config(str(path), [])
    assert back["domain"] == "movierec"
    assert back["learning_rate"] == resolved["learning_rate"]
    assert back["methods"] == resolved["methods"]


def test_gen_data_movierec(tmp_path):
    out = tmp_path / "m"
    rc = main(["gen-data", "--domain", "movierec", "--out", str(out),
               "--set", "n_movies=10", "--set", "users_per_group=4",
               "--set", "n_groups=3", "--set", "n_feature_movies=5",
               "--set", "budget_k=3", "--set", "picks_per_user=2"])
    assert rc == 0
    header = (out / "movierec_ratings.csv").read_text().splitlines()[0]
    assert header == "user,movie,rating"


def test_per_epoch_reparam_export(tmp_path):
    out = tmp_path / "p"
    rc = main(["train", "--domain", "portfolio", "--out", str(out), *TINY,
               "--method", "surrogate", "--seed", "0",
               "--set", "export_p=true", "--set", "verbose=true"])
    assert rc == 0
    epochs = sorted(out.glob("reparam_epoch_*.csv"))
    assert len(epochs) >= 1
    first = epochs[0].read_text().splitlines()
    assert len(first) == 6  # n_securities rows


def test_run_writes_no_per_epoch_reparam(tmp_path):
    # the per-epoch P export belongs to train: parallel seeds of a run would
    # write the same file names into one out_dir
    out = tmp_path / "r"
    rc = main(["run", "--domain", "portfolio", "--out", str(out), *TINY,
               "--set", "methods=surrogate", "--set", "max_workers=2",
               "--set", "export_p=true", "--set", "verbose=true"])
    assert rc == 0
    assert len((out / "report.csv").read_text().splitlines()) == 2 + 2
    assert not list(out.glob("reparam_epoch_*.csv"))


def test_train_and_eval_reject_unknown_method(tmp_path):
    out = tmp_path / "u"
    rc = main(["train", "--domain", "portfolio", "--out", str(out), *TINY,
               "--set", "methods=bogus"])
    assert rc == 2
    assert "unknown method bogus" in (out / "run.log").read_text()
    assert not (out / "checkpoint.csv").exists()
    # a valid checkpoint does not make eval accept the unknown method
    assert main(["train", "--domain", "portfolio", "--out", str(out), *TINY,
                 "--method", "decision-focused"]) == 0
    rc = main(["eval", "--domain", "portfolio", "--out", str(out), *TINY,
               "--set", "methods=bogus"])
    assert rc == 2
    assert "unknown method bogus" in (out / "run.log").read_text()
    assert not (out / "eval.csv").exists()


def test_eval_rejects_checkpoint_of_another_model(tmp_path):
    out = tmp_path / "t"
    tiny = [*TINY, "--set", "hidden_size=4"]
    assert main(["train", "--domain", "portfolio", "--out", str(out), *tiny,
                 "--method", "decision-focused"]) == 0
    ckpt = out / "checkpoint.csv"
    stray = tmp_path / "stray.csv"
    stray.write_text(ckpt.read_text() + "stray,1,0\n")
    df = ["--domain", "portfolio", "--method", "decision-focused", "--checkpoint"]
    cases = [
        (["--domain", "portfolio", "--method", "surrogate", "--checkpoint", ckpt],
         "no entry rep_raw"),
        (["--domain", "movierec", "--method", "decision-focused", "--checkpoint", ckpt],
         "entry param_0 has shape (4, 7), not (4, 20)"),
        ([*df, ckpt, "--set", "hidden_size=5"], "entry param_0 has shape (4, 7), not (5, 7)"),
        ([*df, stray], "unexpected entry stray"),
    ]
    for i, (args, reason) in enumerate(cases):
        ev = tmp_path / f"e{i}"
        assert main(["eval", "--out", str(ev), *tiny, *map(str, args)]) == 2
        assert reason in (ev / "run.log").read_text()
        assert not (ev / "eval.csv").exists()


def test_eval_rejects_checkpoint_that_does_not_parse(tmp_path):
    out = tmp_path / "t"
    assert main(["train", "--domain", "portfolio", "--out", str(out), *TINY,
                 "--method", "two-stage"]) == 0
    rows = (out / "checkpoint.csv").read_text().splitlines()
    name, shape, first, *rest = rows[0].split(",")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([",".join([name, shape, "x" + first, *rest]), *rows[1:]]) + "\n")
    ev = tmp_path / "e"
    assert main(["eval", "--domain", "portfolio", "--out", str(ev), *TINY,
                 "--method", "two-stage", "--checkpoint", str(bad)]) == 2
    assert f"checkpoint {bad} does not parse" in (ev / "run.log").read_text()
    assert not (ev / "eval.csv").exists()


def test_unknown_domain_rejected(tmp_path):
    ckpt = tmp_path / "checkpoint.csv"
    ckpt.write_text("")
    outputs = {
        "gen-data": ("portfolio_prices.csv", "movierec_ratings.csv"),
        "train": ("checkpoint.csv",),
        "eval": ("eval.csv",),
        "run": ("report.csv", "aggregate.csv"),
    }
    for sub, files in outputs.items():
        out = tmp_path / sub
        extra = ["--checkpoint", str(ckpt)] if sub == "eval" else []
        assert main([sub, "--out", str(out), *TINY, "--set", "domain=foo", *extra]) == 2
        assert "unknown domain 'foo'" in (out / "run.log").read_text()
        assert not any((out / f).exists() for f in files)


def test_run_log_closed_when_eval_is_rejected(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--out", str(tmp_path), *TINY,
                   "--checkpoint", str(tmp_path / "missing.csv")])
        gc.collect()
    assert rc == 2
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert "checkpoint not found" in (tmp_path / "run.log").read_text()


def test_run_rejects_bad_names_and_missing_data(tmp_path):
    cases = [
        ("methods=bogus", "unknown method bogus"),
        ("methods=", "methods is empty"),
        ("surrogate_mode=bogus", "unknown mode 'bogus'"),
        (f"data_in={tmp_path / 'missing.csv'}", "data_in not found"),
    ]
    for i, (item, reason) in enumerate(cases):
        out = tmp_path / f"r{i}"
        assert main(["run", "--domain", "portfolio", "--out", str(out), *TINY,
                     "--set", item]) == 2
        assert reason in (out / "run.log").read_text()
        assert not (out / "report.csv").exists() and not (out / "aggregate.csv").exists()
    out = tmp_path / "t"
    assert main(["train", "--domain", "portfolio", "--out", str(out), *TINY,
                 "--set", "methods="]) == 2
    assert "methods is empty" in (out / "run.log").read_text()


def _seed_0_regret(report_path):
    rows = [line.split(",") for line in report_path.read_text().splitlines()[2:]]
    return next(float(r[2]) for r in rows if r[1] == "0")


def test_run_trains_on_data_in(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-data", "--domain", "portfolio", "--out", str(data), *TINY,
                 "--set", "train_seed=7"]) == 0
    args = ["run", "--domain", "portfolio", *TINY, "--set", "methods=two-stage"]
    assert main([*args, "--out", str(tmp_path / "synthetic")]) == 0
    assert main([*args, "--out", str(tmp_path / "file"),
                 "--set", f"data_in={data / 'portfolio_prices.csv'}"]) == 0
    assert (_seed_0_regret(tmp_path / "synthetic" / "report.csv")
            != _seed_0_regret(tmp_path / "file" / "report.csv"))


def test_size_errors_exit_2(tmp_path):
    out = tmp_path / "k"
    assert main(["train", "--domain", "movierec", "--out", str(out),
                 "--set", "budget_k=200", "--set", "max_epochs=1"]) == 2
    assert "budget_k cannot exceed n_movies" in (out / "run.log").read_text()
    assert not (out / "checkpoint.csv").exists()
    data = tmp_path / "data"
    assert main(["gen-data", "--domain", "portfolio", "--out", str(data), *TINY]) == 0
    csv_path = data / "portfolio_prices.csv"
    out = tmp_path / "n"
    assert main(["train", "--domain", "portfolio", "--out", str(out), *TINY,
                 "--set", "n_securities=8", "--set", f"data_in={csv_path}"]) == 2
    assert "has 6 securities, but n_securities is 8" in (out / "run.log").read_text()
    assert not (out / "checkpoint.csv").exists()
    movie = ["--domain", "movierec", "--set", "n_movies=10", "--set", "users_per_group=4",
             "--set", "n_groups=10", "--set", "budget_k=3", "--set", "picks_per_user=2"]
    assert main(["gen-data", "--out", str(data), *movie, "--set", "n_feature_movies=5"]) == 0
    out = tmp_path / "f"
    assert main(["train", "--out", str(out), *movie, "--set", "n_feature_movies=4",
                 "--set", f"data_in={data / 'movierec_ratings.csv'}"]) == 2
    assert "has 5 feature movies, but n_feature_movies is 4" in (out / "run.log").read_text()
    # run reports the securities mismatch per seed
    out = tmp_path / "r"
    assert main(["run", "--domain", "portfolio", "--out", str(out), *TINY,
                 "--set", "n_securities=8", "--set", f"data_in={csv_path}"]) == 1
    report = (out / "report.csv").read_text()
    assert report.count("error: BadDimensions: ") == 6


def test_malformed_ratings_exit_2(tmp_path):
    # a ratings file with a (user, movie) row gone, a gap in the feature-movie
    # ids, a rating that is not a number or a misnamed column: train exits 2
    # with the reason, the file and line named, in run.log, not a traceback
    movie = ["--domain", "movierec", "--set", "n_movies=10", "--set", "users_per_group=4",
             "--set", "n_groups=10", "--set", "n_feature_movies=3", "--set", "budget_k=3",
             "--set", "picks_per_user=2", "--set", "max_epochs=1"]
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), *movie]) == 0
    header, *rows = (data / "movierec_ratings.csv").read_text().splitlines()
    user, film, _ = rows[0].split(",")
    edits = {
        "missing (user, movie) cells": [header, *rows[1:]],
        "feature-movie ids do not run consecutively from 10": [
            header, *(row.replace(",12,", ",13,") for row in rows)
        ],
        "{path}, line 2: cannot read user, movie, rating from": [
            header, f"{user},{film},x", *rows[1:]
        ],
        "{path}, line 1: no 'movie' column": ["user,film,rating", *rows],
    }
    for i, (reason, lines) in enumerate(edits.items()):
        path = tmp_path / f"ratings{i}.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / f"out{i}"
        assert main(["train", "--out", str(out), *movie, "--set", f"data_in={path}"]) == 2
        assert reason.format(path=path) in (out / "run.log").read_text()
        assert not (out / "checkpoint.csv").exists()


def test_malformed_prices_exit_2(tmp_path):
    # a price that is not a number or a misnamed column: train exits 2 with
    # the file and line in run.log, and every run row reports BadDimensions
    data = tmp_path / "data"
    assert main(["gen-data", "--domain", "portfolio", "--out", str(data), *TINY]) == 0
    header, *rows = (data / "portfolio_prices.csv").read_text().splitlines()
    day, security, _ = rows[2].split(",")
    edits = {
        "{path}, line 4: cannot read day, security, price from": [
            header, *rows[:2], f"{day},{security},abc", *rows[3:]
        ],
        "{path}, line 1: no 'security' column": ["day,sec,price", *rows],
    }
    for i, (reason, lines) in enumerate(edits.items()):
        path = tmp_path / f"prices{i}.csv"
        path.write_text("\n".join(lines) + "\n")
        reason = reason.format(path=path)
        out = tmp_path / f"train{i}"
        assert main(["train", "--domain", "portfolio", "--out", str(out), *TINY,
                     "--set", f"data_in={path}"]) == 2
        assert reason in (out / "run.log").read_text()
        assert not (out / "checkpoint.csv").exists()
        out = tmp_path / f"run{i}"
        assert main(["run", "--domain", "portfolio", "--out", str(out), *TINY,
                     "--set", f"data_in={path}"]) == 1
        assert (out / "report.csv").read_text().count(f"error: BadDimensions: {reason}") == 6


def test_empty_split_exits_2(tmp_path):
    # one group of users splits 70/10/20 into no training or validation
    # instance: exit 2 with the reason in run.log, not a traceback
    out = tmp_path / "e"
    assert main(["train", "--domain", "movierec", "--out", str(out),
                 "--set", "n_groups=1", "--set", "n_movies=10",
                 "--set", "users_per_group=3"]) == 2
    assert "training needs nonempty train and validation splits" in (
        out / "run.log").read_text()
    assert not (out / "checkpoint.csv").exists()
