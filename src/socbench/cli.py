"""Command-line interface: generate, train, evaluate, compare.

Every setting of a command is declared once, as one entry of that
command's schema: a converter from text, a default and a help text. The
parser makes one flag per entry, ``--`` plus the key with dashes, and the
same key is the setting's name in a ``--config`` file. A setting resolves
in priority order: explicit flag, then key=value config file, then (for
the seed) the SOC_BENCH_SEED environment variable, then the default. The
raw text from any of these goes through the entry's converter, so a bad
value meets the same check whatever its source. A failure prints one
line starting ``error:`` on stderr and exits with the ``exit_code`` its
error class declares (see errors.py), or 1 for an OSError or a
MemoryError; Ctrl-C ends a command as ``error: interrupted``, exit 130.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from . import data as battery_data
from .data import FEATURE_NAMES, DataSettings
from .errors import ConfigError, ModelMismatchError, SocBenchError
from .harness import (
    FoldMode,
    format_results_table,
    run_comparison,
    score,
    train,
    write_results_csv,
    write_training_log_csv,
)
from .network import DEFAULT_HIDDEN, load_model, mlp_specs, save_model
from .optimizers import Algorithm, Hyperparameters
from .synthetic import Profile, SyntheticCellParams, generate_cycle, write_cycle_csv

EXIT_OK = 0
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C


# --- converters: raw text to value; a ValueError says what the value must be


def _number(kind: type, low: int | None = None) -> Callable[[str], Any]:
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(
                "must be an integer" if kind is int else "must be a number"
            ) from None
        if low is not None and value < low:
            raise ValueError(f"must be >= {low}")
        return value

    return convert


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("must be a boolean (true/false, yes/no, on/off, 1/0)")


def _choice(kind: type) -> Callable[[str], Any]:
    def convert(text: str):
        try:
            return kind(text.strip().lower())
        except ValueError:
            valid = ", ".join(member.value for member in kind)
            raise ValueError(f"must be one of: {valid}") from None

    return convert


_int, _float = _number(int), _number(float)
_parse_optimizer = _choice(Algorithm)


def _parse_optimizer_list(text: str) -> list[Algorithm]:
    return [_parse_optimizer(part) for part in text.split(",") if part.strip()]


def _parse_hidden(text: str) -> list[int]:
    stripped = text.strip()
    if not stripped:
        return []
    try:
        return [int(part) for part in stripped.split(",")]
    except ValueError:
        raise ValueError("must be comma-separated integers") from None


def _parse_lr_spec(text: str) -> dict[Algorithm, float]:
    """Each optimizer's rate, from one rate for every optimizer or from
    ``alg=lr`` pairs.

    Examples: ``0.01`` or ``sgd=0.001,adamax=0.05``.
    """
    if "=" not in text:
        return dict.fromkeys(Algorithm, _float(text))
    pairs = (part.partition("=") for part in text.split(",") if part.strip())
    try:
        return {_parse_optimizer(name): _float(value) for name, _, value in pairs}
    except ValueError:
        raise ValueError("must be one rate or optimizer=rate pairs") from None


def _optional_path(text: str) -> str | None:
    """An optional output path; empty text leaves it unset."""
    return text or None


def _path_list(value: str | list[str]) -> list[str]:
    """Paths from ``--data a b`` (a list) or ``data=a,b`` (one text)."""
    if isinstance(value, list):
        return value
    return [part for part in value.split(",") if part]


# --- settings ---------------------------------------------------------------


REQUIRED = object()


@dataclasses.dataclass(frozen=True)
class Setting:
    """One setting of a command.

    ``default`` is text that goes through ``convert`` like any flag value,
    None for an optional setting left unset, or REQUIRED. ``env`` names an
    environment variable read before the default. ``flag`` holds argparse
    extras for the few flags that need them.
    """

    convert: Callable[[Any], Any]
    default: Any
    help: str
    env: str | None = None
    flag: dict = dataclasses.field(default_factory=dict)


_SWITCH = {"action": "store_const", "const": "true"}
_HYPER = {f.name: str(f.default) for f in dataclasses.fields(Hyperparameters)}
# lower(): a switch's default reads "false", as its flag values do
_DATA = {f.name: str(f.default).lower() for f in dataclasses.fields(DataSettings)}

_SEED = Setting(_number(int, 0), _HYPER["seed"],
                "seed for all randomness, else $SOC_BENCH_SEED", env="SOC_BENCH_SEED")
_SOC0 = Setting(_float, _DATA["soc0_percent"], "initial SOC in percent")

GENERATE_SCHEMA = {
    "profile": Setting(_choice(Profile), REQUIRED, "constant, pulse or random"),
    "duration": Setting(_float, REQUIRED, "cycle length in seconds"),
    "seed": _SEED,
    "out": Setting(str, REQUIRED, "output CSV path"),
    "current": Setting(_float, "2.9", "discharge current in A for constant/pulse"),
    "soc0": _SOC0,
    **{
        f.name: Setting(_float, str(f.default), "cell model parameter")
        for f in dataclasses.fields(SyntheticCellParams)
    },
}

_DATA_SCHEMA = {
    "soc0": _SOC0,
    "capacity_ah": Setting(_float, _DATA["capacity_ah"],
                           "capacity in Ah if the CSV gives none"),
    "window": Setting(_int, _DATA["window"], "moving-average window in samples"),
    "invert_current": Setting(_parse_bool, _DATA["invert_current"],
                              "flip the current sign at ingestion", flag=_SWITCH),
}

_TRAINING_SCHEMA = {
    "epochs": Setting(_int, _HYPER["epochs"], "training epochs"),
    "batch_size": Setting(_int, _HYPER["batch_size"], "mini-batch size"),
    "beta1": Setting(_float, _HYPER["beta1"], "first-moment decay"),
    "beta2": Setting(_float, _HYPER["beta2"], "second-moment decay"),
    "epsilon": Setting(_float, _HYPER["epsilon"], "stability constant"),
    "rho": Setting(_float, _HYPER["rho"], "RMSProp decay"),
    "seed": _SEED,
}

_HIDDEN = Setting(_parse_hidden, ",".join(map(str, DEFAULT_HIDDEN)),
                  "comma-separated hidden sizes; empty for a linear model")

TRAIN_SCHEMA = {
    "data": Setting(str, REQUIRED, "telemetry CSV"),
    "optimizer": Setting(_parse_optimizer, REQUIRED, "sgd, rmsprop, adam or adamax"),
    "lr": Setting(_float, None, "learning rate (default: per-optimizer)"),
    "hidden": _HIDDEN,
    "out_model": Setting(str, "model.json", "model JSON path"),
    "out_log": Setting(str, "training_log.csv", "training log CSV path"),
    "export_features": Setting(_optional_path, None,
                               "also dump the design matrix CSV here"),
    **_TRAINING_SCHEMA,
    **_DATA_SCHEMA,
}

EVALUATE_SCHEMA = {
    "model": Setting(str, REQUIRED, "model JSON from train"),
    "data": Setting(str, REQUIRED, "telemetry CSV"),
    "predictions": Setting(_optional_path, None,
                           "optional per-sample soc_true,soc_pred CSV"),
    **_DATA_SCHEMA,
}

COMPARE_SCHEMA = {
    "data": Setting(_path_list, None, "telemetry CSV paths; repeats add up",
                   flag={"nargs": "+", "action": "extend"}),
    "data_dir": Setting(str, None, "directory of telemetry CSVs"),
    "optimizers": Setting(_parse_optimizer_list, "sgd,rmsprop,adamax",
                          "comma-separated update rules"),
    "lr": Setting(_parse_lr_spec, None, "one rate for all, or sgd=0.001,adamax=0.05 "
                  "(default: per-optimizer)"),
    "k": Setting(_number(int, 2), "4", "cross-validation folds"),
    "fold_mode": Setting(_choice(FoldMode), "shuffled", "shuffled or contiguous"),
    "hidden": _HIDDEN,
    "out": Setting(str, "comparison_results.csv", "results CSV path"),
    "out_table": Setting(_optional_path, None, "text table path"),
    "logs_dir": Setting(str, None, "write per-run training logs here"),
    "jobs": Setting(_number(int, 1), "1", "parallel training runs"),
    "omit_timing": Setting(_parse_bool, "false", "zero the seconds column for "
                           "byte-reproducible output", flag=_SWITCH),
    **_TRAINING_SCHEMA,
    **_DATA_SCHEMA,
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_kv_config(path: str, schema: dict[str, Setting]) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        lines = p.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    values: dict[str, str] = {}
    for line_no, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path} line {line_no}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"{path} line {line_no}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(args: argparse.Namespace, schema: dict[str, Setting]) -> dict:
    """Each setting's value from its flag, config line, environment variable
    or default, in that order, through the setting's converter."""
    config = _read_kv_config(args.config, schema) if args.config else {}
    resolved = {}
    for key, setting in schema.items():
        if getattr(args, key) is not None:
            source, raw = _flag(key), getattr(args, key)
        elif key in config:
            source, raw = f"config key {key}", config[key]
        elif setting.env and setting.env in os.environ:
            source, raw = setting.env, os.environ[setting.env]
        elif setting.default is REQUIRED:
            raise ConfigError(f"missing required setting {_flag(key)}")
        else:
            source, raw = "default", setting.default
        try:
            resolved[key] = None if raw is None else setting.convert(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{source}: bad value {raw!r} ({_flag(key)} {exc})"
            ) from None
    return resolved


def _hyperparameters(cfg: dict, eta) -> Hyperparameters:
    # the training schema's keys are the Hyperparameters fields but eta
    return Hyperparameters(eta=eta, **{key: cfg[key] for key in _TRAINING_SCHEMA})


def _data_settings(cfg: dict) -> DataSettings:
    return DataSettings(soc0_percent=cfg["soc0"], capacity_ah=cfg["capacity_ah"],
                        window=cfg["window"], invert_current=cfg["invert_current"])


def _check_outputs(cfg: dict, *keys: str, directory: str | None = None) -> None:
    """Fail before any work on two outputs that name one path (a
    ConfigError), on an output path that cannot take a file (a directory),
    on a ``directory`` output that exists but is not one, and on any output
    whose parent is not a directory. Unset optional outputs are skipped."""
    first_key: dict[str, str] = {}  # resolved output path -> its first key
    for key in [*keys, directory]:
        if key is None or cfg[key] is None:
            continue
        path = Path(cfg[key])
        if (first := first_key.setdefault(os.path.realpath(path), key)) != key:
            raise ConfigError(f"{_flag(first)} and {_flag(key)} name one path")
        if key == directory:
            if path.exists() and not path.is_dir():
                raise OSError(f"{_flag(key)} {cfg[key]!r}: is not a directory")
        elif path.is_dir():
            raise OSError(f"{_flag(key)} {cfg[key]!r}: is a directory")
        if not path.parent.is_dir():
            raise OSError(f"{_flag(key)} {cfg[key]!r}: parent is not a directory")


def _warn_zero_lr(eta) -> None:
    if eta == 0:
        print("warning: learning rate is 0; parameters will not change",
              file=sys.stderr)


# --- generate ---------------------------------------------------------------


def cmd_generate(cfg: dict) -> int:
    params = SyntheticCellParams(
        **{f.name: cfg[f.name] for f in dataclasses.fields(SyntheticCellParams)}
    )
    cycle = generate_cycle(
        params,
        cfg["profile"],
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


def cmd_train(cfg: dict) -> int:
    algorithm = cfg["optimizer"]
    h = _hyperparameters(cfg, cfg["lr"])
    data = _data_settings(cfg)
    _warn_zero_lr(h.resolve_eta(algorithm))
    _check_outputs(cfg, "out_model", "out_log", "export_features")

    raw_dm = battery_data.prepare_cycle(cfg["data"], data)
    stats = battery_data.fit_normalization(raw_dm)
    normalized = battery_data.apply_normalization(raw_dm, stats)
    specs = mlp_specs(raw_dm.features.shape[1], cfg["hidden"])
    if cfg["export_features"]:
        battery_data.write_design_matrix_csv(raw_dm, cfg["export_features"])

    params, log = train(specs, normalized, h, algorithm)
    _, mae, mse = score(params, stats, raw_dm)

    save_model(cfg["out_model"], params, normalization=stats, seed=h.seed)
    write_training_log_csv(log, cfg["out_log"])

    print(f"model: {cfg['out_model']} ({params.flat.size} parameters)")
    print(f"log: {cfg['out_log']}")
    print(f"final train MAE {mae!r} MSE {mse!r}")
    return EXIT_OK


# --- evaluate ---------------------------------------------------------------


def cmd_evaluate(cfg: dict) -> int:
    data = _data_settings(cfg)
    _check_outputs(cfg, "predictions")
    params, stats, _seed = load_model(cfg["model"])
    raw_dm = battery_data.prepare_cycle(cfg["data"], data)
    if params.specs[0].input_dim != raw_dm.features.shape[1]:
        raise ModelMismatchError(
            f"model expects {params.specs[0].input_dim} features, "
            f"data provides {raw_dm.features.shape[1]}"
        )
    # one output product over all rows, as the predictions have always been
    # computed; blocks would change a few of them at more than one thread
    predictions, mae, mse = score(params, stats, raw_dm, like_forward=True)
    rmse = float(np.sqrt(mse))
    if cfg["predictions"]:
        with Path(cfg["predictions"]).open("w", newline="", encoding="utf-8") as fh:
            fh.write("soc_true,soc_pred\n")
            fh.writelines(
                f"{truth!r},{pred!r}\n"
                for truth, pred in zip(raw_dm.targets.tolist(), predictions.tolist())
            )
        print(f"predictions: {cfg['predictions']}")
    print(f"MAE {mae!r} MSE {mse!r} RMSE {rmse!r}")
    return EXIT_OK


# --- compare ----------------------------------------------------------------


def cmd_compare(cfg: dict) -> int:
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

    rates = cfg["lr"] or {}
    h = _hyperparameters(cfg, None)
    data = _data_settings(cfg)
    for alg in cfg["optimizers"]:
        _warn_zero_lr(rates.get(alg, h.resolve_eta(alg)))
    _check_outputs(cfg, "out", "out_table", directory="logs_dir")

    report = run_comparison(
        paths,
        cfg["optimizers"],
        h,
        k=cfg["k"],
        learning_rates=rates,
        layer_specs=mlp_specs(len(FEATURE_NAMES), cfg["hidden"]),
        fold_mode=cfg["fold_mode"],
        data=data,
        jobs=cfg["jobs"],
    )

    write_results_csv(report.results, cfg["out"], omit_timing=cfg["omit_timing"])
    table = format_results_table(report)
    if cfg["out_table"]:
        Path(cfg["out_table"]).write_text(table, encoding="utf-8")
    if cfg["logs_dir"]:
        logs_dir = Path(cfg["logs_dir"])
        logs_dir.mkdir(exist_ok=True)
        for (cycle, optimizer, run), log in sorted(report.logs.items()):
            write_training_log_csv(log, logs_dir / f"{cycle}_{optimizer}_{run}.csv")
    sys.stdout.write(table)
    print(f"results: {cfg['out']}")
    return EXIT_OK


# --- entry point ------------------------------------------------------------


COMMANDS = {
    "generate": (cmd_generate, GENERATE_SCHEMA, "write a synthetic drive-cycle CSV"),
    "train": (cmd_train, TRAIN_SCHEMA, "train one model on one cycle CSV"),
    "evaluate": (cmd_evaluate, EVALUATE_SCHEMA, "score a stored model on a cycle CSV"),
    "compare": (cmd_compare, COMPARE_SCHEMA,
                "benchmark optimizers across drive cycles"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so main prints one line."""

    def error(self, message: str):
        raise ConfigError(message)


def _help(setting: Setting) -> str:
    if setting.default is None:
        return setting.help
    shown = "required" if setting.default is REQUIRED else f"default {setting.default}"
    return f"{setting.help} ({shown})"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="socbench",
        description="Battery SOC estimation benchmark: train a feed-forward "
        "network on drive-cycle telemetry and compare optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, schema, summary) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for key, setting in schema.items():
            command.add_argument(_flag(key), dest=key, help=_help(setting),
                                 **setting.flag)
        command.add_argument("--config", help="key=value config file; flags win")
        command.set_defaults(func=func, schema=schema)
    sub.choices["generate"].add_argument(
        "--ambient-c", dest="t_ambient_c", help="alias of --t-ambient-c"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    command = parser.prog
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help printed its text
            return exc.code
        command = args.command
        return args.func(_resolve(args, args.schema))
    except (SocBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an OSError ends as any error without a code of its own does
        return getattr(exc, "exit_code", SocBenchError.exit_code)
    except MemoryError:  # raised in this process or in a compare worker
        print(f"error: out of memory in {command}", file=sys.stderr)
        return SocBenchError.exit_code
    except KeyboardInterrupt:  # compare's workers were ended before it got here
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
