"""Command-line interface: generate, train, evaluate, compare.

Settings resolve in priority order: explicit flag, then key=value config
file (--config), then the built-in default. The seed falls back to the
SOC_BENCH_SEED environment variable before its default. Exit codes:
0 success, 1 I/O or data ingestion, 2 usage/config, 3 numeric divergence,
4 model/data mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import data as battery_data
from .errors import (
    ConfigError,
    DataError,
    IngestionError,
    InputError,
    ModelMismatchError,
    NumericError,
    SocBenchError,
)
from .harness import (
    FoldMode,
    _one_blas_thread,
    format_results_table,
    prepare_cycle,
    run_comparison,
    train,
    write_results_csv,
    write_training_log_csv,
)
from .network import (
    DEFAULT_HIDDEN,
    count_parameters,
    load_model,
    loss_mae,
    loss_mse,
    mlp_specs,
    predict,
    save_model,
)
from .optimizers import Algorithm, Hyperparameters
from .synthetic import Profile, SyntheticCellParams, generate_cycle, write_cycle_csv

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_MISMATCH = 4


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_hidden(text: str) -> list[int]:
    stripped = text.strip()
    if not stripped:
        return []
    try:
        return [int(part) for part in stripped.split(",")]
    except ValueError:
        raise ConfigError(f"bad hidden layer list {text!r}") from None


def _parse_optimizer(text: str) -> Algorithm:
    try:
        return Algorithm(text.strip().lower())
    except ValueError:
        valid = ", ".join(a.value for a in Algorithm)
        raise ConfigError(f"unknown optimizer {text!r}; choose from: {valid}") from None


def _parse_optimizer_list(text: str) -> list[Algorithm]:
    return [_parse_optimizer(part) for part in text.split(",") if part.strip()]


def _parse_lr_spec(text: str):
    """Either one float for every optimizer or ``alg=lr`` pairs.

    Examples: ``0.01`` or ``sgd=0.001,adamax=0.05``.
    """
    stripped = text.strip()
    if "=" not in stripped:
        try:
            return float(stripped)
        except ValueError:
            raise ConfigError(f"bad learning rate {text!r}") from None
    rates = {}
    for part in stripped.split(","):
        if not part.strip():
            continue
        name, _, value = part.partition("=")
        alg = _parse_optimizer(name)
        try:
            rates[alg] = float(value)
        except ValueError:
            raise ConfigError(f"bad learning rate for {name.strip()!r}: {value!r}") from None
    return rates


def _read_kv_config(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for line_no, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path} line {line_no}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


class _Required:
    pass


REQUIRED = _Required()


def _seed_default() -> int:
    env = os.environ.get("SOC_BENCH_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"SOC_BENCH_SEED must be an integer, got {env!r}") from None
    return 0


def _resolve(args: argparse.Namespace, schema: dict) -> dict:
    """Merge flags, config file and defaults; flags win, unknown keys rejected."""
    config = _read_kv_config(args.config) if getattr(args, "config", None) else {}
    unknown = set(config) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    resolved = {}
    for key, (converter, default) in schema.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            try:
                resolved[key] = converter(config[key])
            except ValueError as exc:
                raise ConfigError(
                    f"config key {key}: bad value {config[key]!r} ({exc})"
                ) from None
        elif isinstance(default, _Required):
            raise ConfigError(f"missing required setting --{key.replace('_', '-')}")
        else:
            resolved[key] = default() if callable(default) else default
    return resolved


# keys are SyntheticCellParams fields, so one config file serves both the
# CLI and read_cell_config()
_CELL_SCHEMA = {
    f.name: (float, f.default) for f in dataclasses.fields(SyntheticCellParams)
}

_DATA_SCHEMA = {
    "soc0": (float, 100.0),
    "capacity_ah": (float, 2.9),
    "window": (int, battery_data.DEFAULT_WINDOW),
    "invert_current": (_parse_bool, False),
}

_TRAINING_SCHEMA = {
    "lr": (float, None),
    "epochs": (int, 50),
    "batch_size": (int, 32),
    "beta1": (float, 0.9),
    "beta2": (float, 0.999),
    "epsilon": (float, 1e-7),
    "rho": (float, 0.9),
    "seed": (int, _seed_default),
}


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--soc0", type=float, help="initial SOC in percent (default 100)")
    parser.add_argument("--capacity-ah", type=float, dest="capacity_ah",
                        help="nominal capacity in Ah (default 2.9)")
    parser.add_argument("--window", type=int,
                        help="moving-average window in samples (default 400)")
    parser.add_argument("--invert-current", action="store_const", const=True,
                        dest="invert_current",
                        help="flip the current sign convention at ingestion")


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int, help="training epochs (default 50)")
    parser.add_argument("--batch-size", type=int, dest="batch_size",
                        help="mini-batch size (default 32)")
    parser.add_argument("--beta1", type=float, help="first-moment decay (default 0.9)")
    parser.add_argument("--beta2", type=float, help="second-moment decay (default 0.999)")
    parser.add_argument("--epsilon", type=float, help="stability constant (default 1e-7)")
    parser.add_argument("--rho", type=float, help="RMSProp decay (default 0.9)")
    parser.add_argument("--seed", type=int,
                        help="seed for all randomness (default $SOC_BENCH_SEED or 0)")


def _hyperparameters(cfg: dict, eta) -> Hyperparameters:
    return Hyperparameters(
        eta=eta,
        beta1=cfg["beta1"],
        beta2=cfg["beta2"],
        epsilon=cfg["epsilon"],
        rho=cfg["rho"],
        batch_size=cfg["batch_size"],
        epochs=cfg["epochs"],
        seed=cfg["seed"],
    )


def _warn_zero_lr(eta) -> None:
    if eta == 0:
        print("warning: learning rate is 0; parameters will not change",
              file=sys.stderr)


# --- generate ---------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    schema = {
        "profile": (str, REQUIRED),
        "duration": (float, REQUIRED),
        "seed": (int, _seed_default),
        "out": (str, REQUIRED),
        "current": (float, 2.9),
        "soc0": (float, 100.0),
        **_CELL_SCHEMA,
    }
    cfg = _resolve(args, schema)
    try:
        profile = Profile(cfg["profile"])
    except ValueError:
        valid = ", ".join(p.value for p in Profile)
        raise ConfigError(f"unknown profile {cfg['profile']!r}; choose from: {valid}")
    params = SyntheticCellParams(**{key: cfg[key] for key in _CELL_SCHEMA})
    cycle = generate_cycle(
        params,
        profile,
        cfg["duration"],
        cfg["seed"],
        soc0_percent=cfg["soc0"],
        amplitude_a=cfg["current"],
    )
    write_cycle_csv(cycle.records, cfg["out"])
    print(
        f"wrote {cfg['out']}: {len(cycle.records)} rows, "
        f"{cycle.records.time_s[-1]:g} s, final SOC {cycle.soc_percent[-1]:.2f}%"
    )
    return EXIT_OK


# --- train ------------------------------------------------------------------


def _load_design_matrix(path, cfg: dict):
    return prepare_cycle(
        path,
        soc0_percent=cfg["soc0"],
        capacity_ah=cfg["capacity_ah"],
        window=cfg["window"],
        invert_current=cfg["invert_current"],
    )


def cmd_train(args: argparse.Namespace) -> int:
    schema = {
        "data": (str, REQUIRED),
        "optimizer": (_parse_optimizer, REQUIRED),
        "hidden": (_parse_hidden, list(DEFAULT_HIDDEN)),
        "out_model": (str, "model.json"),
        "out_log": (str, "training_log.csv"),
        "export_features": (str, None),
        **_TRAINING_SCHEMA,
        **_DATA_SCHEMA,
    }
    cfg = _resolve(args, schema)
    algorithm = cfg["optimizer"]
    h = _hyperparameters(cfg, cfg["lr"])
    _warn_zero_lr(h.resolve_eta(algorithm))

    _, raw_dm = _load_design_matrix(cfg["data"], cfg)
    stats = battery_data.fit_normalization(raw_dm)
    normalized = battery_data.apply_normalization(raw_dm, stats)
    if cfg["export_features"]:
        battery_data.write_design_matrix_csv(raw_dm, cfg["export_features"])

    specs = mlp_specs(raw_dm.features.shape[1], cfg["hidden"])
    # one BLAS thread, as in every compare run (see harness._one_blas_thread)
    with _one_blas_thread():
        params, log = train(specs, normalized, h, algorithm)
        predictions = predict(params, normalized.features)

    save_model(cfg["out_model"], params, normalization=stats, seed=h.seed)
    write_training_log_csv(log, cfg["out_log"])

    mae = loss_mae(predictions, normalized.targets)
    mse = loss_mse(predictions, normalized.targets)
    print(f"model: {cfg['out_model']} ({count_parameters(params)} parameters)")
    print(f"log: {cfg['out_log']}")
    print(f"final train MAE {mae!r} MSE {mse!r}")
    return EXIT_OK


# --- evaluate ---------------------------------------------------------------


def cmd_evaluate(args: argparse.Namespace) -> int:
    schema = {
        "model": (str, REQUIRED),
        "data": (str, REQUIRED),
        "predictions": (str, None),
        **_DATA_SCHEMA,
    }
    cfg = _resolve(args, schema)
    params, stats, _seed = load_model(cfg["model"])
    if params.specs[-1].output_dim != 1:
        raise ModelMismatchError(
            f"model has {params.specs[-1].output_dim} outputs, evaluate needs 1"
        )
    _, raw_dm = _load_design_matrix(cfg["data"], cfg)
    if params.specs[0].input_dim != raw_dm.features.shape[1]:
        raise ModelMismatchError(
            f"model expects {params.specs[0].input_dim} features, "
            f"data provides {raw_dm.features.shape[1]}"
        )
    dm = raw_dm if stats is None else battery_data.apply_normalization(raw_dm, stats)
    predictions = predict(params, dm.features)
    mae = loss_mae(predictions, dm.targets)
    mse = loss_mse(predictions, dm.targets)
    rmse = float(np.sqrt(mse))
    if cfg["predictions"]:
        with Path(cfg["predictions"]).open("w", newline="", encoding="utf-8") as fh:
            fh.write("soc_true,soc_pred\n")
            fh.writelines(
                f"{truth!r},{pred!r}\n"
                for truth, pred in zip(dm.targets.tolist(), predictions.tolist())
            )
        print(f"predictions: {cfg['predictions']}")
    print(f"MAE {mae!r} MSE {mse!r} RMSE {rmse!r}")
    return EXIT_OK


# --- compare ----------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    schema = {
        "data": (lambda s: s.split(","), None),
        "data_dir": (str, None),
        "optimizers": (_parse_optimizer_list,
                       [Algorithm.SGD, Algorithm.RMSPROP, Algorithm.ADAMAX]),
        "lr": (_parse_lr_spec, None),
        "k": (int, 4),
        "fold_mode": (FoldMode, FoldMode.SHUFFLED),
        "hidden": (_parse_hidden, list(DEFAULT_HIDDEN)),
        "out": (str, "comparison_results.csv"),
        "out_table": (str, None),
        "logs_dir": (str, None),
        "jobs": (int, 1),
        "omit_timing": (_parse_bool, False),
        **{k: v for k, v in _TRAINING_SCHEMA.items() if k != "lr"},
        **_DATA_SCHEMA,
    }
    cfg = _resolve(args, schema)
    if cfg["jobs"] < 1:
        raise ConfigError(f"--jobs must be >= 1, got {cfg['jobs']}")

    paths: list[Path] = [Path(p) for p in (cfg["data"] or [])]
    if cfg["data_dir"]:
        directory = Path(cfg["data_dir"])
        if not directory.is_dir():
            raise ConfigError(f"not a directory: {directory}")
        found = sorted(directory.glob("*.csv"))
        if not found:
            raise ConfigError(f"no .csv files in {directory}")
        paths.extend(found)
    if not paths:
        raise ConfigError("no datasets: pass --data and/or --data-dir")

    lr = cfg["lr"]
    eta = lr if isinstance(lr, float) else None
    rates = lr if isinstance(lr, dict) else None
    h = _hyperparameters(cfg, eta)
    for alg in cfg["optimizers"]:
        _warn_zero_lr(rates[alg] if rates and alg in rates else h.resolve_eta(alg))

    report = run_comparison(
        paths,
        cfg["optimizers"],
        h,
        k=cfg["k"],
        learning_rates=rates,
        layer_specs=mlp_specs(4, cfg["hidden"]),
        fold_mode=cfg["fold_mode"],
        soc0_percent=cfg["soc0"],
        capacity_ah=cfg["capacity_ah"],
        window=cfg["window"],
        invert_current=cfg["invert_current"],
        jobs=cfg["jobs"],
    )

    write_results_csv(report.results, cfg["out"], omit_timing=cfg["omit_timing"])
    table = format_results_table(report)
    if cfg["out_table"]:
        Path(cfg["out_table"]).write_text(table, encoding="utf-8")
    if cfg["logs_dir"]:
        logs_dir = Path(cfg["logs_dir"])
        logs_dir.mkdir(parents=True, exist_ok=True)
        for (cycle, optimizer, run), log in sorted(report.logs.items()):
            write_training_log_csv(log, logs_dir / f"{cycle}_{optimizer}_{run}.csv")
    sys.stdout.write(table)
    print(f"results: {cfg['out']}")
    return EXIT_OK


# --- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socbench",
        description="Battery SOC estimation benchmark: train a feed-forward "
        "network on drive-cycle telemetry and compare optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic drive-cycle CSV")
    p_gen.add_argument("--profile", choices=[p.value for p in Profile])
    p_gen.add_argument("--duration", type=float, help="cycle length in seconds")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", help="output CSV path")
    p_gen.add_argument("--current", type=float,
                       help="discharge current in A for constant/pulse (default 2.9)")
    p_gen.add_argument("--soc0", type=float, help="initial SOC percent (default 100)")
    p_gen.add_argument("--capacity-ah", type=float, dest="capacity_ah")
    p_gen.add_argument("--r-internal-ohm", type=float, dest="r_internal_ohm")
    p_gen.add_argument("--ocv-v-min", type=float, dest="ocv_v_min")
    p_gen.add_argument("--ocv-v-max", type=float, dest="ocv_v_max")
    p_gen.add_argument("--ambient-c", type=float, dest="t_ambient_c")
    p_gen.add_argument("--heating-k-per-w", type=float, dest="heating_k_per_w")
    p_gen.add_argument("--cooling-rate-per-s", type=float, dest="cooling_rate_per_s")
    p_gen.add_argument("--sample-period-s", type=float, dest="sample_period_s")
    p_gen.add_argument("--config", help="key=value config file; flags win")
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train one model on one cycle CSV")
    p_train.add_argument("--data", help="telemetry CSV")
    p_train.add_argument("--optimizer", type=_parse_optimizer,
                         metavar="{sgd,rmsprop,adam,adamax}")
    p_train.add_argument("--lr", type=float,
                         help="learning rate (default: per-optimizer)")
    p_train.add_argument("--hidden", type=_parse_hidden,
                         help="comma-separated hidden sizes (default 256,256,256; "
                         "empty string for a linear model)")
    p_train.add_argument("--out-model", dest="out_model", help="model JSON path")
    p_train.add_argument("--out-log", dest="out_log", help="training log CSV path")
    p_train.add_argument("--export-features", dest="export_features",
                         help="also dump the design matrix CSV here")
    _add_training_flags(p_train)
    _add_data_flags(p_train)
    p_train.add_argument("--config", help="key=value config file; flags win")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a stored model on a cycle CSV")
    p_eval.add_argument("--model", help="model JSON from train")
    p_eval.add_argument("--data", help="telemetry CSV")
    p_eval.add_argument("--predictions",
                        help="optional per-sample soc_true,soc_pred CSV")
    _add_data_flags(p_eval)
    p_eval.add_argument("--config", help="key=value config file; flags win")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare",
                           help="benchmark optimizers across drive cycles")
    p_cmp.add_argument("--data", nargs="+", help="telemetry CSV paths")
    p_cmp.add_argument("--data-dir", dest="data_dir",
                       help="directory of telemetry CSVs")
    p_cmp.add_argument("--optimizers", type=_parse_optimizer_list,
                       metavar="LIST", help="comma-separated (default "
                       "sgd,rmsprop,adamax)")
    p_cmp.add_argument("--lr", type=_parse_lr_spec, metavar="SPEC",
                       help="one float for all, or sgd=0.001,adamax=0.05")
    p_cmp.add_argument("--k", type=int, help="cross-validation folds (default 4)")
    p_cmp.add_argument("--fold-mode", dest="fold_mode", type=FoldMode,
                       choices=list(FoldMode), metavar="{shuffled,contiguous}")
    p_cmp.add_argument("--hidden", type=_parse_hidden,
                       help="comma-separated hidden sizes")
    p_cmp.add_argument("--out", help="results CSV path")
    p_cmp.add_argument("--out-table", dest="out_table", help="text table path")
    p_cmp.add_argument("--logs-dir", dest="logs_dir",
                       help="write per-run training logs here")
    p_cmp.add_argument("--jobs", type=int, help="parallel training runs (default 1)")
    p_cmp.add_argument("--omit-timing", action="store_const", const=True,
                       dest="omit_timing",
                       help="zero the seconds column for byte-reproducible output")
    _add_training_flags(p_cmp)
    _add_data_flags(p_cmp)
    p_cmp.add_argument("--config", help="key=value config file; flags win")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ModelMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (IngestionError, DataError, SocBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
