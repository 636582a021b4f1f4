"""Command-line entry point: config parsing, subcommand dispatch, dataset
generation/ingestion, experiment execution, and report emission.

Config files are flat `key = value` lines with `#` comments; flags override
file values, which override defaults.  The resolved config is echoed next to
the outputs so a run can be reproduced from the echo alone.
"""

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import domains, theory
from .diff import load_params_csv, save_params_csv
from .errors import (
    BadDimensions,
    ConfigError,
    EmptySplit,
    MissingFile,
    TypeMismatch,
    UnknownKey,
)
from .pipelines import (
    ADAPTERS,
    METHODS,
    TrainConfig,
    evaluate,
    get_adapter,
    init_method,
    load_dataset,
    run_experiment,
    subseed,
    train_method,
    write_aggregate_csv,
    write_history_csv,
    write_report_csv,
)
from .surrogate import export_reparam_csv

# extra keys beyond TrainConfig: output directory, single-run seed,
# checkpoint, and train's P export (the final P; each epoch's too with verbose)
EXTRA_DEFAULTS = {"out_dir": "runs", "train_seed": 0, "checkpoint": "",
                  "export_p": False, "verbose": False}


def _field_types():
    types = {}
    for f in fields(TrainConfig):
        types[f.name] = f.type if isinstance(f.type, type) else type(getattr(TrainConfig(), f.name))
    for k, v in EXTRA_DEFAULTS.items():
        types[k] = type(v)
    return types


def _parse_value(key: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is int:
            if "." in raw:
                raise ValueError(raw)
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            return tuple(tok.strip() for tok in raw.split(",") if tok.strip())
        return raw
    except ValueError as exc:
        raise TypeMismatch(f"key '{key}' expects {kind.__name__}, got {raw!r}") from exc


def _assign(resolved, types, item, where, malformed):
    """Parse one 'key = value' item into resolved; where prefixes the
    unknown-key message, malformed is the message of an item without '='."""
    if "=" not in item:
        raise TypeMismatch(malformed)
    key, raw = (part.strip() for part in item.split("=", 1))
    if key not in types:
        raise UnknownKey(f"{where}unknown key '{key}'")
    resolved[key] = _parse_value(key, raw, types[key])


def parse_config(path=None, overrides=()):
    """Resolve a config dict: defaults <- file <- environment <- overrides.

    overrides are 'key=value' strings from --set flags.  Unknown keys raise
    UnknownKey, bad values TypeMismatch, a missing file MissingFile.
    """
    types = _field_types()
    resolved = {f.name: getattr(TrainConfig(), f.name) for f in fields(TrainConfig)}
    resolved.update(EXTRA_DEFAULTS)
    if path is not None:
        if not os.path.exists(path):
            raise MissingFile(f"config file not found: {path}")
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if line:
                    where = f"{path}:{lineno}: "
                    _assign(resolved, types, line, where, f"{where}expected 'key = value'")
    env_out = os.environ.get("SURROGATE_DFL_OUT")
    if env_out:
        resolved["out_dir"] = env_out
    for item in overrides:
        _assign(resolved, types, item, "", f"--set expects key=value, got {item!r}")
    return resolved


def config_from_dict(resolved) -> TrainConfig:
    """The TrainConfig of resolved.  An unknown domain, method or surrogate
    mode raises TypeMismatch, a data_in that does not exist MissingFile."""
    try:
        config = TrainConfig(**{f.name: resolved[f.name] for f in fields(TrainConfig)})
    except ValueError as exc:
        raise TypeMismatch(str(exc)) from exc
    if config.data_in and not os.path.exists(config.data_in):
        raise MissingFile(f"data_in not found: {config.data_in}")
    return config


def echo_config(resolved, path) -> None:
    with open(path, "w") as fh:
        for key in sorted(resolved):
            value = resolved[key]
            if isinstance(value, tuple):
                value = ",".join(value)
            fh.write(f"{key} = {value}\n")


class RunLog:
    """Lines of run.log, each also printed."""

    def __init__(self, fh):
        self.fh = fh

    def line(self, msg):
        self.fh.write(msg + "\n")
        self.fh.flush()
        print(msg)


def _run_logged(handler, resolved) -> int:
    """Echo the config and run handler(resolved, out, log) with run.log open.

    A ConfigError the handler raises (a missing checkpoint or data_in, an
    unknown domain, method or surrogate mode, a checkpoint that does not
    parse or fit the model), a BadDimensions (a size out of range, a data
    file that disagrees with the configured sizes) or an EmptySplit (sizes
    that leave a train, validation or test split empty) is written to
    run.log and returns exit code 2; handlers raise them before writing any
    output file.
    """
    out = resolved["out_dir"]
    os.makedirs(out, exist_ok=True)
    echo_config(resolved, os.path.join(out, "config_echo.txt"))
    with open(os.path.join(out, "run.log"), "w") as fh:
        log = RunLog(fh)
        try:
            return handler(resolved, out, log)
        except (ConfigError, BadDimensions, EmptySplit) as exc:
            log.line(f"config error: {exc}")
            return 2


def cmd_gen_data(resolved, out, log) -> int:
    config = config_from_dict(resolved)
    dataset = get_adapter(config).generate(subseed(resolved["train_seed"], 0))
    if config.domain == "portfolio":
        path = os.path.join(out, "portfolio_prices.csv")
        domains.export_portfolio_csv(dataset, path)
    else:
        path = os.path.join(out, "movierec_ratings.csv")
        domains.export_movierec_csv(dataset, path)
    log.line(f"wrote {path} ({len(dataset.instances)} instances)")
    return 0


def _checkpoint_entries(adapter, models, rep) -> dict:
    """Checkpoint name -> array: param_0.. in params order, then rep's rep_raw."""
    named = {f"param_{i}": arr for i, arr in enumerate(adapter.params(models))}
    if rep is not None:
        named["rep_raw"] = rep.P_raw
    return named


def _checkpoint_mismatch(named, expected):
    """The first entry absent from named or expected, or shaped apart, as a message; else None."""
    for name in [*expected, *named]:
        if name not in named or name not in expected:
            return f"{'no' if name not in named else 'unexpected'} entry {name}"
        if named[name].shape != expected[name].shape:
            return f"entry {name} has shape {named[name].shape}, not {expected[name].shape}"
    return None


def cmd_train(resolved, out, log) -> int:
    config = config_from_dict(resolved)
    method = config.methods[0]
    seed = resolved["train_seed"]
    adapter = get_adapter(config)
    dataset = load_dataset(config, adapter, seed)
    models, rep = init_method(config, adapter, method, seed)
    log.line(f"training method={method} domain={config.domain} seed={seed}")
    result = train_method(models, rep, dataset, config, adapter, method)
    if rep is not None and resolved["export_p"]:
        if resolved["verbose"]:  # P after each epoch's update
            for epoch, P_raw in enumerate(result.p_history, 1):
                export_reparam_csv(replace(rep, P_raw=P_raw),
                                   os.path.join(out, f"reparam_epoch_{epoch:03d}.csv"))
        export_reparam_csv(rep, os.path.join(out, "reparam_final.csv"))
    ckpt = resolved["checkpoint"] or os.path.join(out, "checkpoint.csv")
    save_params_csv(_checkpoint_entries(adapter, result.models, rep), ckpt)
    history = os.path.join(out, f"history_{method}_s{seed}.csv")
    write_history_csv(result.history, history)
    log.line(
        f"trained {result.epochs_run} epochs "
        f"({result.train_sec_per_epoch:.4f} s/epoch); checkpoint -> {ckpt}; "
        f"history -> {history}"
    )
    return 0


def cmd_eval(resolved, out, log) -> int:
    config = config_from_dict(resolved)
    ckpt = resolved["checkpoint"] or os.path.join(out, "checkpoint.csv")
    if not os.path.exists(ckpt):
        raise MissingFile(f"checkpoint not found: {ckpt}")
    adapter = get_adapter(config)
    dataset = load_dataset(config, adapter, resolved["train_seed"])
    models, rep = init_method(config, adapter, config.methods[0], resolved["train_seed"])
    try:
        named = load_params_csv(ckpt)
    except ValueError as exc:  # a name, shape or value that does not parse
        raise TypeMismatch(f"checkpoint {ckpt} does not parse: {exc}") from exc
    mismatch = _checkpoint_mismatch(named, _checkpoint_entries(adapter, models, rep))
    if mismatch:
        raise TypeMismatch(f"checkpoint {ckpt} does not fit the model: {mismatch}")
    n_params = len(adapter.params(models))
    adapter.set_params(models, [named[f"param_{i}"] for i in range(n_params)])
    if rep is not None:
        rep.P_raw = named["rep_raw"]
    result = evaluate(models, rep, dataset, config, adapter)
    path = os.path.join(out, "eval.csv")
    with open(path, "w") as fh:
        fh.write("instance,regret\n")
        for i, r in enumerate(result.regrets):
            fh.write(f"{i},{format(float(r), '.12g')}\n")
    log.line(
        f"evaluated {len(result.regrets)} instances: mean regret "
        f"{float(np.mean(result.regrets)):.6g}, inference {result.inference_sec:.4f} s, "
        f"max constraint violation {result.max_violation:.2e}"
    )
    log.line(f"wrote {path}")
    return 0


def cmd_run(resolved, out, log) -> int:
    config = config_from_dict(resolved)
    log.line(
        f"running domain={config.domain} methods={','.join(config.methods)} "
        f"seeds={config.n_seeds}"
    )
    report = run_experiment(config)
    write_report_csv(report, os.path.join(out, "report.csv"))
    write_aggregate_csv(report, os.path.join(out, "aggregate.csv"))
    failures = [r for r in report.rows if r.status != "ok"]
    for method, agg in sorted(report.aggregates.items()):
        log.line(
            f"{method}: mean regret {agg['mean_regret']:.6g} "
            f"(+- {agg['stderr_regret']:.2g}), train {agg['mean_train_sec']:.4f} s/epoch, "
            f"inference {agg['mean_inference_sec']:.4f} s"
        )
    log.line(f"wrote {os.path.join(out, 'report.csv')} and aggregate.csv")
    if failures:
        for r in failures:
            log.line(f"FAILED {r.method} seed {r.seed}: {r.status}")
        return 1
    return 0


def cmd_theory_check(resolved, out, log) -> int:
    rows = theory.run_theory_checks()
    theory.write_theory_csv(rows, os.path.join(out, "theory_report.csv"))
    all_pass = True
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        all_pass &= r["passed"]
        log.line(f"{status}  {r['check']} (expected {r['expected']})")
    log.line(f"wrote {os.path.join(out, 'theory_report.csv')}")
    return 0 if all_pass else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="surrogate-dfl",
        description="Decision-focused learning with a learnable linear surrogate layer",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("gen-data", "generate a synthetic dataset and write its CSV"),
        ("train", "train one method on one seed and write a checkpoint"),
        ("run", "full multi-seed experiment with report CSVs"),
        ("eval", "load a checkpoint and evaluate the test split"),
        ("theory-check", "run the theory verification suite"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--domain", default=None, choices=list(ADAPTERS))
        if name in ("train", "eval"):
            p.add_argument("--method", default=None, choices=METHODS)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--checkpoint", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = list(args.set)
    if args.domain:
        overrides.append(f"domain={args.domain}")
    if args.out:
        overrides.append(f"out_dir={args.out}")
    if getattr(args, "method", None):
        overrides.append(f"methods={args.method}")
    if getattr(args, "seed", None) is not None:
        overrides.append(f"train_seed={args.seed}")
    if getattr(args, "checkpoint", None):
        overrides.append(f"checkpoint={args.checkpoint}")
    try:
        resolved = parse_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    handler = {
        "gen-data": cmd_gen_data,
        "train": cmd_train,
        "run": cmd_run,
        "eval": cmd_eval,
        "theory-check": cmd_theory_check,
    }[args.subcommand]
    return _run_logged(handler, resolved)


if __name__ == "__main__":
    sys.exit(main())
