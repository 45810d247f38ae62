"""End-to-end CLI behavior: commands, files, exit codes, determinism."""

import csv
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from socbench import cli, data as data_module, harness
from socbench.cli import main
from socbench.data import (
    DataSettings,
    NormalizationStats,
    apply_normalization,
    fit_normalization,
    prepare_cycle,
)
from socbench.network import (
    DEFAULT_HIDDEN,
    LayerSpec,
    forward,
    init_network,
    load_model,
    mlp_specs,
    save_model,
)
from socbench.synthetic import (
    Profile,
    SyntheticCellParams,
    generate_cycle,
    write_cycle_csv,
)


ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.fixture()
def cycle_file(tmp_path, capsys):
    path = tmp_path / "mix.csv"
    code, _, _ = run_cli(
        capsys, "generate", "--profile", "random", "--duration", "299",
        "--seed", "5", "--soc0", "90", "--sample-period-s", "1.0",
        "--out", str(path),
    )
    assert code == 0
    return path


class TestGenerate:
    def test_full_discharge_summary(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, stdout, _ = run_cli(
            capsys, "generate", "--profile", "constant", "--current", "2.9",
            "--duration", "3600", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        assert "final SOC 0.00%" in stdout

    def test_byte_identical_repeat(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "generate", "--profile", "random", "--duration", "120",
                "--seed", "9", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_duration_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--profile", "random", "--duration", "0",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "duration" in err

    @pytest.mark.parametrize(
        "flags",
        [("--duration", "0.05"), ("--duration", "60", "--sample-period-s", "1e300")],
        ids=["short-duration", "huge-period"],
    )
    def test_one_row_cycle_refused(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "generate", "--profile", "constant", "--seed", "1", *flags,
            "--out", str(out),
        )
        assert code == 2
        assert error_lines(err) == [err.strip()]
        assert "need at least 2" in err
        assert not out.exists()

    def test_cell_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "profile=constant\nduration=60\ncurrent=1.0\ncapacity_ah=1.0\n"
            f"out={tmp_path / 'cfg.csv'}\n",
            encoding="utf-8",
        )
        # flag overrides the config's current
        code, stdout, _ = run_cli(
            capsys, "generate", "--config", str(cfg), "--current", "0.0",
        )
        assert code == 0
        assert "final SOC 100.00%" in stdout  # zero current leaves SOC at 100

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("profile=constant\nduration=60\nout=x.csv\nbogus=1\n",
                       encoding="utf-8")
        code, _, err = run_cli(capsys, "generate", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err


class TestGenerateConfig:
    """The cell parameters read from a --config file as key=value lines."""

    GENERATE = ["generate", "--profile", "random", "--duration", "120", "--seed", "3"]

    def test_key_value_parsing(self, tmp_path, capsys):
        cfg = tmp_path / "cell.cfg"
        cfg.write_text(
            "# test cell\ncapacity_ah = 3.2\nr_internal_ohm=0.05\n\n"
            "t_ambient_c = 10\n",
            encoding="utf-8",
        )
        out = tmp_path / "cfg.csv"
        code, _, _ = run_cli(capsys, *self.GENERATE, "--config", str(cfg),
                             "--out", str(out))
        assert code == 0
        params = SyntheticCellParams(capacity_ah=3.2, r_internal_ohm=0.05,
                                     t_ambient_c=10.0)
        # untouched default: a CLI that changed it would write other bytes
        assert params.ocv_v_max == 4.2
        expected = tmp_path / "library.csv"
        write_cycle_csv(generate_cycle(params, Profile.RANDOM_MIX, 120.0, 3).records,
                        expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("resistance=0.05\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, *self.GENERATE, "--config", str(cfg),
                               "--out", str(out))
        assert code == 2
        assert "unknown key" in err and "resistance" in err
        assert not out.exists()

    def test_non_numeric_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("capacity_ah=big\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, *self.GENERATE, "--config", str(cfg),
                               "--out", str(out))
        assert code == 2
        assert "config key capacity_ah: bad value 'big'" in err
        assert not out.exists()

    def test_ambient_c_is_an_alias(self, tmp_path, capsys):
        outs = []
        for flag in ("--ambient-c", "--t-ambient-c"):
            out = tmp_path / f"{flag}.csv"
            code, _, _ = run_cli(capsys, *self.GENERATE, flag, "10", "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        default = tmp_path / "default.csv"
        run_cli(capsys, *self.GENERATE, "--out", str(default))
        assert default.read_bytes() != outs[0]


GENERATE_NUMBERS = ["--duration", "--current", "--ambient-c"] + [
    "--" + f.name.replace("_", "-") for f in fields(SyntheticCellParams)
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e300"])
@pytest.mark.parametrize("flag", GENERATE_NUMBERS)
def test_generate_writes_no_non_finite_file(tmp_path, capsys, flag, value):
    out = tmp_path / "g.csv"
    argv = {"--profile": "constant", "--duration": "60", "--seed": "1",
            "--out": str(out), flag: value}
    code, _, err = run_cli(capsys, "generate", *(f"{k}={v}" for k, v in argv.items()))
    if value != "1e300" or flag in ("--duration", "--current", "--ocv-v-min"):
        assert code == 2
    if code == 2:
        assert len(error_lines(err)) == 1
        assert not out.exists()
    else:
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.isfinite(rows).all()


class TestTrain:
    def test_default_architecture_parameter_count(self, cycle_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        log = tmp_path / "log.csv"
        code, stdout, _ = run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "adamax",
            "--epochs", "2", "--seed", "7", "--soc0", "90",
            "--out-model", str(model), "--out-log", str(log),
        )
        assert code == 0
        assert "133121 parameters" in stdout
        doc = json.loads(model.read_text())
        total = sum(
            len(layer) * len(layer[0]) for layer in doc["weights"]
        ) + sum(len(b) for b in doc["biases"])
        assert total == 133_121
        assert log.read_text().splitlines()[0] == "epoch,train_loss,val_mae,val_mse"

    def test_trains_and_scores_on_one_blas_thread(
        self, cycle_file, tmp_path, capsys, monkeypatch, blas_threads,
        product_threads
    ):
        seen = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                seen.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "train", recording(cli.train))
        monkeypatch.setattr(harness, "predict", recording(harness.predict))
        code, _, _ = run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "adamax",
            "--epochs", "1", "--hidden", "8", "--soc0", "90",
            "--out-model", str(tmp_path / "m.json"),
            "--out-log", str(tmp_path / "l.csv"),
        )
        assert code == 0
        # train's own end-of-epoch pass, then the final score
        assert seen == ["train", "predict", "predict"]
        assert set(product_threads.values()) == {1}
        assert blas_threads() == 2

    def test_invalid_optimizer_lists_choices(self, cycle_file, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "nadam",
            "--out-model", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "sgd" in err and "adamax" in err

    def test_zero_lr_warns_and_leaves_parameters_at_init(
        self, cycle_file, tmp_path, capsys
    ):
        model = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "sgd",
            "--lr", "0", "--epochs", "2", "--hidden", "8,8", "--seed", "3",
            "--soc0", "90", "--out-model", str(model),
            "--out-log", str(tmp_path / "l.csv"),
        )
        assert code == 0
        assert "learning rate is 0" in err
        doc = json.loads(model.read_text())
        fresh = init_network(mlp_specs(4, [8, 8]), seed=3)
        for stored, expected in zip(doc["weights"], fresh.weights):
            np.testing.assert_array_equal(np.asarray(stored), expected)

    def test_divergence_exit_3_with_context(self, cycle_file, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "sgd",
            "--lr", "1e6", "--epochs", "3", "--hidden", "8", "--soc0", "90",
            "--out-model", str(tmp_path / "m.json"),
            "--out-log", str(tmp_path / "l.csv"),
        )
        assert code == 3
        assert "epoch" in err

    def test_missing_data_file_is_io_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "train", "--data", str(tmp_path / "absent.csv"),
            "--optimizer", "sgd", "--out-model", str(tmp_path / "m.json"),
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_zero_byte_data_file_is_io_error(self, tmp_path, capsys, monkeypatch,
                                             command):
        monkeypatch.chdir(tmp_path)
        Path("empty.csv").write_bytes(b"")
        if command == "train":
            extra = ["--optimizer", "sgd", "--out-model", "out.json"]
        else:
            save_model("m.json", init_network(mlp_specs(4, [2]), seed=0),
                       NormalizationStats(np.zeros(4), np.ones(4)))
            extra = ["--model", "m.json"]
        code, out, err = run_cli(capsys, command, "--data", "empty.csv", *extra)
        assert (code, out, err) == (1, "", "error: empty.csv: empty file\n")

    def test_conflicting_capacity_is_io_error(self, tmp_path, capsys):
        data = tmp_path / "cap.csv"
        data.write_text(
            "time_s,voltage_v,current_a,temperature_c,capacity_ah\n"
            "0,4.2,1.0,25,3.2\n1,4.1,1.0,25,2.9\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(
            capsys, "train", "--data", str(data), "--optimizer", "sgd",
            "--out-model", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert "line 3: capacity_ah 2.9 conflicts with 3.2 on line 2" in err

    @pytest.mark.parametrize("cell", ["nan", "0"])
    def test_unusable_capacity_is_io_error(self, tmp_path, capsys, cell):
        data = tmp_path / "cap.csv"
        data.write_text(
            "time_s,voltage_v,current_a,temperature_c,capacity_ah\n"
            f"0,4.2,1.0,25,{cell}\n1,4.1,1.0,25,\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(
            capsys, "train", "--data", str(data), "--optimizer", "sgd",
            "--out-model", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert f"line 2: bad capacity_ah {cell!r}" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"time_s,voltage_v,current_a,temperature_c\xff\n0,4.2,1.0,25\n",
            b"time_s,voltage_v,current_a,temperature_c\n0,4.2,1.0,25\n\xff\n",
        ],
        ids=["header", "row"],
    )
    def test_non_utf8_data_is_io_error(self, tmp_path, capsys, content):
        data = tmp_path / "bytes.csv"
        data.write_bytes(content)
        code, _, err = run_cli(
            capsys, "train", "--data", str(data), "--optimizer", "sgd",
            "--out-model", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert f"{data}: not UTF-8 text" in err

    def test_export_features(self, cycle_file, tmp_path, capsys):
        features = tmp_path / "features.csv"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "sgd",
            "--epochs", "1", "--hidden", "4", "--soc0", "90",
            "--out-model", str(tmp_path / "m.json"),
            "--out-log", str(tmp_path / "l.csv"),
            "--export-features", str(features),
        )
        assert code == 0
        lines = features.read_text().splitlines()
        assert lines[0] == "x1,x2,x3,x4,soc"
        assert len(lines) == 1 + 300  # one row per record


class TestEvaluate:
    def test_metrics_match_training_log(self, cycle_file, tmp_path, capsys):
        model = tmp_path / "m.json"
        log = tmp_path / "l.csv"
        code, train_out, _ = run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "adamax",
            "--lr", "0.05", "--epochs", "3", "--hidden", "16", "--seed", "1",
            "--soc0", "90", "--out-model", str(model), "--out-log", str(log),
        )
        assert code == 0
        train_mae, train_mse = map(
            float, re.search(r"MAE (\S+) MSE (\S+)", train_out).groups()
        )
        final_log_mse = float(log.read_text().splitlines()[-1].split(",")[1])

        code, eval_out, _ = run_cli(
            capsys, "evaluate", "--model", str(model), "--data", str(cycle_file),
            "--soc0", "90",
        )
        assert code == 0
        mae, mse, rmse = map(
            float, re.search(r"MAE (\S+) MSE (\S+) RMSE (\S+)", eval_out).groups()
        )
        assert mae == pytest.approx(train_mae, abs=1e-9)
        assert mse == pytest.approx(train_mse, abs=1e-9)
        assert mse == pytest.approx(final_log_mse, abs=1e-9)
        assert rmse == pytest.approx(np.sqrt(mse), abs=1e-12)
        assert mae <= rmse + 1e-12

    def test_prediction_csv_row_count(self, cycle_file, tmp_path, capsys):
        model = tmp_path / "m.json"
        run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "sgd",
            "--epochs", "1", "--hidden", "4", "--soc0", "90",
            "--out-model", str(model), "--out-log", str(tmp_path / "l.csv"),
        )
        preds = tmp_path / "preds.csv"
        code, _, _ = run_cli(
            capsys, "evaluate", "--model", str(model), "--data", str(cycle_file),
            "--soc0", "90", "--predictions", str(preds),
        )
        assert code == 0
        lines = preds.read_text().splitlines()
        assert lines[0] == "soc_true,soc_pred"
        assert len(lines) == 1 + 300
        # reference: the same values written row by row with csv.writer
        params, stats, _ = load_model(model)
        raw_dm = prepare_cycle(cycle_file, DataSettings(soc0_percent=90.0))
        dm = apply_normalization(raw_dm, stats)
        predictions, _ = forward(params, dm.features)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["soc_true", "soc_pred"])
        for truth, pred in zip(dm.targets, predictions):
            writer.writerow([repr(float(truth)), repr(float(pred))])
        assert preds.read_text(encoding="utf-8") == expected.getvalue()

    def test_predictions_are_the_full_batch_forward_at_two_threads(
        self, tmp_path, capsys, blas_threads
    ):
        """evaluate takes the output layer as one product over all rows, so
        at two OpenBLAS threads it writes forward's predictions; blocked
        scoring differs from them in a few rows at this row count."""
        data, model = tmp_path / "long.csv", tmp_path / "m.json"
        run_cli(
            capsys, "generate", "--profile", "random", "--duration", "8193",
            "--sample-period-s", "1.0", "--seed", "3", "--out", str(data),
        )
        raw_dm = prepare_cycle(data)
        assert len(raw_dm) == 8194
        stats = fit_normalization(raw_dm)
        params = init_network(mlp_specs(4, DEFAULT_HIDDEN), seed=0)
        save_model(model, params, normalization=stats, seed=0)
        preds = tmp_path / "preds.csv"
        code, _, _ = run_cli(
            capsys, "evaluate", "--model", str(model), "--data", str(data),
            "--predictions", str(preds),
        )
        assert code == 0
        assert blas_threads() == 2
        want, _ = forward(params, apply_normalization(raw_dm, stats).features)
        assert preds.read_text(encoding="utf-8").splitlines()[1:] == [
            f"{truth!r},{pred!r}"
            for truth, pred in zip(raw_dm.targets.tolist(), want.tolist())
        ]

    def test_feature_count_mismatch_exit_4(self, cycle_file, tmp_path, capsys):
        model = tmp_path / "m.json"
        run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "sgd",
            "--epochs", "1", "--hidden", "4", "--soc0", "90",
            "--out-model", str(model), "--out-log", str(tmp_path / "l.csv"),
        )
        doc = json.loads(model.read_text())
        # rewrite the model as a 5-input network
        doc["layer_specs"][0]["in"] = 5
        doc["weights"][0] = [row + [0.0] for row in doc["weights"][0]]
        doc["normalization"]["means"].append(0.0)
        doc["normalization"]["stds"].append(1.0)
        model.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "evaluate", "--model", str(model), "--data", str(cycle_file),
            "--soc0", "90",
        )
        assert code == 4
        assert "features" in err

    def test_model_with_two_outputs_exit_4(self, cycle_file, tmp_path, capsys):
        model = tmp_path / "m.json"
        specs = [LayerSpec(4, 4), LayerSpec(4, 2)]
        save_model(model, init_network(specs, seed=0),
                   NormalizationStats(np.zeros(4), np.ones(4)))
        code, out, err = run_cli(
            capsys, "evaluate", "--model", str(model), "--data", str(cycle_file),
            "--soc0", "90",
        )
        assert code == 4
        assert err == f"error: model file {model}: output layer has 2 units, not 1\n"
        assert out == ""

    @pytest.mark.parametrize("defect, message", [
        ("null-normalization", "no normalization"),
        ("no-normalization", "no normalization"),
        ("identity-hidden", "activations ['identity', 'identity'] are not relu on "
         "every hidden layer and identity on the output layer"),
        ("relu-output", "activations ['relu', 'relu'] are not relu on every hidden "
         "layer and identity on the output layer"),
    ], ids=["null-normalization", "no-normalization", "identity-hidden",
            "relu-output"])
    def test_model_that_breaks_the_contract_exit_4(
        self, cycle_file, tmp_path, capsys, defect, message
    ):
        """A file train could not have written: each layer's activation is
        set by its position, and the normalization is stored."""
        model = tmp_path / "m.json"
        run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "sgd",
            "--epochs", "1", "--hidden", "4", "--soc0", "90",
            "--out-model", str(model), "--out-log", str(tmp_path / "l.csv"),
        )
        doc = json.loads(model.read_text())
        hidden, output = doc["layer_specs"]
        if defect == "null-normalization":
            doc["normalization"] = None
        elif defect == "no-normalization":
            del doc["normalization"]
        elif defect == "identity-hidden":
            hidden["activation"] = "identity"
        else:
            output["activation"] = "relu"
        model.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "evaluate", "--model", str(model), "--data", str(cycle_file),
            "--soc0", "90",
        )
        assert (code, out) == (4, "")
        assert err == f"error: model file {model}: {message}\n"

    def test_normalization_length_mismatch_exit_4(self, cycle_file, tmp_path, capsys):
        model = tmp_path / "m.json"
        run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "sgd",
            "--epochs", "1", "--hidden", "4", "--soc0", "90",
            "--out-model", str(model), "--out-log", str(tmp_path / "l.csv"),
        )
        doc = json.loads(model.read_text())
        del doc["normalization"]["means"][-1], doc["normalization"]["stds"][-1]
        model.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "evaluate", "--model", str(model), "--data", str(cycle_file),
            "--soc0", "90",
        )
        assert code == 4
        assert "3 means and 3 stds for 4 inputs" in err


class TestConfigValues:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("jobs=abc", "config key jobs: bad value 'abc'"),
            ("beta1=0.9x", "config key beta1: bad value '0.9x'"),
            ("invert_current=maybe", "config key invert_current: bad value 'maybe' "
             "(--invert-current must be a boolean (true/false, yes/no, on/off, 1/0))"),
            ("hidden=8,x", "config key hidden: bad value '8,x' "
             "(--hidden must be comma-separated integers)"),
            ("lr=sgd=fast", "config key lr: bad value 'sgd=fast' "
             "(--lr must be one rate or optimizer=rate pairs)"),
        ],
    )
    def test_unconvertible_value_usage_error(
        self, cycle_file, tmp_path, capsys, line, message
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "r.csv"
        code, _, err = run_cli(
            capsys, "compare", "--data", str(cycle_file), "--config", str(cfg),
            "--out", str(out),
        )
        assert code == 2
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["train", "--optimizer", "sgd", "--lr", "nan"],
             "learning rate must be finite, got nan"),
            (["train", "--optimizer", "sgd", "--lr", "inf"],
             "learning rate must be finite, got inf"),
            (["train", "--optimizer", "adamax", "--epsilon", "nan"],
             "epsilon must be finite, got nan"),
            (["train", "--optimizer", "adamax", "--epsilon", "inf"],
             "epsilon must be finite, got inf"),
            (["compare", "--optimizers", "sgd,adamax", "--lr", "sgd=nan", "--k", "2"],
             "learning rate must be finite, got nan"),
        ],
    )
    def test_non_finite_hyperparameter_usage_error(
        self, cycle_file, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "out"
        out_flag = "--out-model" if flags[0] == "train" else "--out"
        code, _, err = run_cli(
            capsys, *flags, "--data", str(cycle_file), "--epochs", "1",
            "--hidden", "8", "--soc0", "90", out_flag, str(out),
        )
        assert code == 2
        assert message in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "rate, message",
        [
            ("adam=nan", "learning rate must be finite, got nan"),
            ("adam=-5", "learning rate must be >= 0, got -5.0"),
            ("rmsprop=nan", "learning rate must be finite, got nan"),
            ("nan", "learning rate must be finite, got nan"),
            ("-5", "learning rate must be >= 0, got -5.0"),
        ],
        ids=["unlisted-nan", "unlisted-negative", "listed-nan", "one-nan",
             "one-negative"],
    )
    @pytest.mark.parametrize("cycle_ok", [True, False], ids=["ingests", "fails"])
    def test_every_lr_rate_checked_before_ingestion(
        self, cycle_file, tmp_path, capsys, rate, message, cycle_ok
    ):
        # a rate is rejected whether or not its optimizer runs, and even
        # when no cycle survives ingestion
        data = cycle_file
        if not cycle_ok:
            data = tmp_path / "broken.csv"
            data.write_text("not,a,telemetry,header\n1,2,3,4\n", encoding="utf-8")
        out = tmp_path / "r.csv"
        code, _, err = run_cli(
            capsys, "compare", "--data", str(data), "--optimizers", "rmsprop",
            "--lr", rate, "--epochs", "1", "--k", "2", "--hidden", "8",
            "--soc0", "90", "--out", str(out),
        )
        assert code == 2
        assert message in err
        assert not out.exists()

class TestLinearDataBound:
    def test_converged_linear_model_beats_half_percent(self, tmp_path, capsys):
        # near-zero internal resistance makes voltage map SOC almost exactly,
        # so the least-squares optimum sits well below 0.5% MAE and a
        # converged linear model must land next to it
        data = tmp_path / "lin.csv"
        code, _, _ = run_cli(
            capsys, "generate", "--profile", "random", "--duration", "1499",
            "--seed", "5", "--soc0", "90", "--sample-period-s", "1.0",
            "--r-internal-ohm", "0.001", "--out", str(data),
        )
        assert code == 0
        model = tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(data), "--optimizer", "adam",
            "--lr", "0.1", "--hidden", "", "--epochs", "150", "--seed", "2",
            "--soc0", "90", "--out-model", str(model),
            "--out-log", str(tmp_path / "l.csv"),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "evaluate", "--model", str(model), "--data", str(data),
            "--soc0", "90",
        )
        assert code == 0
        mae = float(re.search(r"MAE (\S+) MSE", out).group(1))
        assert mae < 0.5


class TestSeedSources:
    def test_env_var_is_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOC_BENCH_SEED", "9")
        a = tmp_path / "env.csv"
        code, _, _ = run_cli(
            capsys, "generate", "--profile", "random", "--duration", "60",
            "--out", str(a),
        )
        assert code == 0
        monkeypatch.delenv("SOC_BENCH_SEED")
        b = tmp_path / "flag.csv"
        code, _, _ = run_cli(
            capsys, "generate", "--profile", "random", "--duration", "60",
            "--seed", "9", "--out", str(b),
        )
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flag_beats_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOC_BENCH_SEED", "1")
        a = tmp_path / "a.csv"
        run_cli(capsys, "generate", "--profile", "random", "--duration", "60",
                "--seed", "2", "--out", str(a))
        monkeypatch.delenv("SOC_BENCH_SEED")
        b = tmp_path / "b.csv"
        run_cli(capsys, "generate", "--profile", "random", "--duration", "60",
                "--seed", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestInputImmutability:
    def test_train_and_evaluate_do_not_touch_input(self, cycle_file, tmp_path,
                                                   capsys):
        before = cycle_file.read_bytes()
        model = tmp_path / "m.json"
        run_cli(capsys, "train", "--data", str(cycle_file), "--optimizer", "sgd",
                "--epochs", "1", "--hidden", "4", "--soc0", "90",
                "--out-model", str(model), "--out-log", str(tmp_path / "l.csv"))
        run_cli(capsys, "evaluate", "--model", str(model),
                "--data", str(cycle_file), "--soc0", "90")
        assert cycle_file.read_bytes() == before


class TestPulseProfile:
    def test_pulse_generation(self, tmp_path, capsys):
        out = tmp_path / "pulse.csv"
        code, stdout, _ = run_cli(
            capsys, "generate", "--profile", "pulse", "--current", "2.0",
            "--duration", "100", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        currents = {line.split(",")[2] for line in out.read_text().splitlines()[1:]}
        assert currents == {"2.0", "0.0"}


class TestCompare:
    def test_three_optimizers_three_rows(self, cycle_file, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code, stdout, _ = run_cli(
            capsys, "compare", "--data", str(cycle_file),
            "--optimizers", "sgd,rmsprop,adamax",
            "--lr", "sgd=0.001,rmsprop=0.02,adamax=0.05",
            "--epochs", "2", "--k", "2", "--hidden", "8", "--seed", "1",
            "--soc0", "90", "--fold-mode", "contiguous", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "cycle,optimizer,mae,mse,rmse,seconds,seed"
        assert len(lines) == 1 + 3
        assert "Drive Cycle" in stdout

    def test_repeat_with_seed_identical_csv(self, cycle_file, tmp_path, capsys):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys, "compare", "--data", str(cycle_file),
                "--optimizers", "adamax", "--lr", "0.05", "--epochs", "2",
                "--k", "2", "--hidden", "8", "--seed", "1", "--soc0", "90",
                "--out", str(out), "--omit-timing",
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_one_rate_is_every_optimizers_rate(self, cycle_file, tmp_path, capsys):
        assert cli._parse_lr_spec("0.001") == {
            algorithm: 0.001 for algorithm in cli.Algorithm
        }
        outs = []
        for rate in ("0.001", "sgd=0.001,adamax=0.001"):
            out = tmp_path / f"{len(outs)}.csv"
            code, _, _ = run_cli(
                capsys, "compare", "--data", str(cycle_file),
                "--optimizers", "sgd,adamax", "--lr", rate, "--epochs", "1",
                "--k", "2", "--hidden", "4", "--seed", "1", "--soc0", "90",
                "--out", str(out), "--omit-timing",
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_empty_directory_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(
            capsys, "compare", "--data-dir", str(empty),
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert "no .csv" in err
        code, _, err = run_cli(
            capsys, "compare", "--data-dir", str(tmp_path / "r.csv"),
            "--out", str(tmp_path / "r.csv"),
        )
        assert (code, err) == (2, f"error: not a directory: {tmp_path / 'r.csv'}\n")

    def test_jobs_below_one_usage_error(self, cycle_file, tmp_path, capsys):
        out = tmp_path / "r.csv"
        base = ["compare", "--data", str(cycle_file), "--optimizers", "adamax",
                "--epochs", "1", "--k", "2", "--hidden", "8", "--out", str(out)]
        for jobs in ("0", "-2"):
            code, _, err = run_cli(capsys, *base, "--jobs", jobs)
            assert code == 2
            assert "--jobs must be >= 1" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs=0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, *base, "--config", str(cfg))
        assert code == 2
        assert "--jobs must be >= 1" in err
        assert not out.exists()

    def test_divergence_under_jobs_matches_serial(self, cycle_file, tmp_path, capsys):
        outcomes = []
        for jobs in ("1", "2"):
            code, _, err = run_cli(
                capsys, "compare", "--data", str(cycle_file),
                "--optimizers", "adamax,sgd", "--lr", "adamax=0.05,sgd=1e6",
                "--epochs", "1", "--k", "2", "--hidden", "8", "--soc0", "90",
                "--out", str(tmp_path / "r.csv"), "--jobs", jobs,
            )
            outcomes.append((code, err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 3
        assert "mix/sgd/fold0: training diverged" in outcomes[0][1]

    def test_jobs_train_in_worker_processes_that_end_with_the_command(
        self, cycle_file, tmp_path, capsys, monkeypatch, blas_threads, calls,
        product_threads
    ):
        real_train = harness.train

        def train_and_record(*args, **kwargs):
            calls.add(0)  # in whichever process runs it
            return real_train(*args, **kwargs)

        monkeypatch.setattr(harness, "train", train_and_record)
        base = ["compare", "--data", str(cycle_file), "--optimizers", "adamax,sgd",
                "--epochs", "1", "--k", "2", "--hidden", "8", "--soc0", "90",
                "--out", str(tmp_path / "r.csv"), "--jobs", "2"]
        for lr, exit_code in (("adamax=0.05,sgd=0.001", 0), ("adamax=0.05,sgd=1e6", 3)):
            calls.clear()
            product_threads.clear()
            code, _, _ = run_cli(capsys, *base, "--lr", lr)
            assert code == exit_code
            pids = {pid for pid, _ in calls.entries()}
            assert os.getpid() not in pids and 1 <= len(pids) <= 2
            assert {pid for pid, _ in product_threads.entries()} == pids
            assert set(product_threads.values()) == {1}
            assert multiprocessing.active_children() == []
            assert blas_threads() == 2
            if code == 0:  # 2 optimizers x (2 folds + final fit)
                assert len(calls.values()) == 2 * 3

    def test_dead_worker_is_one_error_line_naming_the_awaited_run(
        self, cycle_file, tmp_path, capsys, monkeypatch
    ):
        caller = os.getpid()
        real_train = harness.train

        def die_in_worker(*args, **kwargs):
            if os.getpid() != caller:
                os._exit(1)  # as a worker killed by a signal or out of memory
            return real_train(*args, **kwargs)

        monkeypatch.setattr(harness, "train", die_in_worker)
        code, out, err = run_cli(
            capsys, "compare", "--data", str(cycle_file), "--optimizers", "sgd",
            "--epochs", "1", "--k", "2", "--hidden", "8", "--soc0", "90",
            "--out", str(tmp_path / "r.csv"), "--jobs", "2",
        )
        assert (code, out) == (1, "")
        assert err == "error: mix/sgd/fold0: worker process ended unexpectedly\n"
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_forward_overflow_diverges_without_warning(
        self, cycle_file, tmp_path, capsys, jobs
    ):
        # at this rate a step's forward overflows in its matmul before the
        # batch loss is checked; a warning there would be raised as an error
        code, _, err = run_cli(
            capsys, "compare", "--data", str(cycle_file),
            "--optimizers", "adamax,sgd", "--lr", "adamax=0.05,sgd=1e12",
            "--epochs", "1", "--k", "2", "--hidden", "8", "--soc0", "90",
            "--out", str(tmp_path / "r.csv"), "--jobs", jobs,
        )
        assert code == 3
        assert err == (
            "error: mix/sgd/fold0: training diverged: non-finite loss at epoch 1, "
            "batch 3\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_non_finite_gradient_names_its_epoch_and_batch(self, tmp_path, capsys, jobs):
        # the step's gradient overflows while the batch loss is still finite
        data = tmp_path / "mix.csv"
        run_cli(
            capsys, "generate", "--profile", "random", "--duration", "499",
            "--sample-period-s", "1.0", "--seed", "5", "--out", str(data),
        )
        code, out, err = run_cli(
            capsys, "compare", "--data", str(data), "--optimizers", "sgd",
            "--lr", "1e6", "--hidden", "16,16", "--batch-size", "8",
            "--epochs", "5", "--k", "2", "--soc0", "90",
            "--out", str(tmp_path / "r.csv"), "--jobs", jobs,
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: mix/sgd/fold0: training diverged: non-finite gradient at "
            "epoch 1, batch 3\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_non_finite_training_loss_names_its_epoch(self, tmp_path, capsys, jobs):
        # every batch loss and gradient stays finite; the training loss
        # measured after epoch 3 does not
        data = tmp_path / "mix.csv"
        run_cli(
            capsys, "generate", "--profile", "random", "--duration", "499",
            "--sample-period-s", "1.0", "--seed", "5", "--soc0", "90",
            "--out", str(data),
        )
        code, out, err = run_cli(
            capsys, "compare", "--data", str(data), "--optimizers", "sgd",
            "--lr", "1e6", "--hidden", "16,16", "--batch-size", "1000",
            "--epochs", "3", "--k", "2", "--soc0", "90",
            "--out", str(tmp_path / "r.csv"), "--jobs", jobs,
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: mix/sgd/fold1: training diverged: non-finite training loss "
            "after epoch 3\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_fold_split_error_names_its_pair(self, tmp_path, capsys, jobs):
        for name, duration in (("tiny", "5"), ("good", "599")):
            run_cli(
                capsys, "generate", "--profile", "random", "--duration", duration,
                "--sample-period-s", "1.0", "--seed", "1",
                "--out", str(tmp_path / f"{name}.csv"),
            )
        out = tmp_path / "r.csv"
        code, stdout, err = run_cli(
            capsys, "compare", "--data", str(tmp_path / "good.csv"),
            str(tmp_path / "tiny.csv"), "--optimizers", "sgd", "--hidden", "2",
            "--epochs", "1", "--k", "6", "--window", "1", "--out", str(out),
            "--jobs", jobs,
        )
        assert (code, stdout) == (2, "")
        assert err == "error: tiny/sgd: cannot split 5 rows into 6 folds\n"
        assert not out.exists()

    def test_repeated_data_flags_add_up(self):
        args = cli.build_parser().parse_args(
            ["compare", "--data", "a.csv", "b.csv", "--data", "c.csv"]
        )
        assert args.data == ["a.csv", "b.csv", "c.csv"]

    def test_cycle_that_fails_ingestion_is_a_skipped_line(
        self, cycle_file, tmp_path, capsys
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,voltage_v,current_a,temperature_c\n0.0,9.9,1.0,25\n",
                       encoding="utf-8")
        table = tmp_path / "table.txt"
        code, out, err = run_cli(
            capsys, "compare", "--data", str(cycle_file), "--data", str(bad),
            "--optimizers", "adamax", "--lr", "0.05", "--epochs", "1", "--k", "2",
            "--hidden", "8", "--soc0", "90", "--out", str(tmp_path / "r.csv"),
            "--out-table", str(table),
        )
        skipped = (f"[skipped] bad: {bad}: rejected rows: line 2: "
                   "voltage 9.9 outside (0, 6) V")
        assert (code, err) == (0, "")
        text = table.read_text(encoding="utf-8")
        assert text.splitlines()[2].startswith("mix ")
        assert text.splitlines()[3:] == [skipped]
        assert out == text + f"results: {tmp_path / 'r.csv'}\n"

    @pytest.mark.parametrize("source", ["two-folders", "one-file-twice", "data-dir"])
    def test_duplicate_cycle_names_refused_before_ingestion(
        self, cycle_file, tmp_path, capsys, monkeypatch, source
    ):
        other = tmp_path / "other" / "mix.csv"
        other.parent.mkdir()
        other.write_bytes(cycle_file.read_bytes())

        def never(*args, **kwargs):
            raise AssertionError("prepare_cycle was called")

        monkeypatch.setattr(harness, "prepare_cycle", never)
        inputs, (first, second) = {
            "two-folders": (["--data", cycle_file, other], (cycle_file, other)),
            "one-file-twice": (["--data", cycle_file, cycle_file], (cycle_file,) * 2),
            "data-dir": (["--data", other, "--data-dir", tmp_path], (other, cycle_file)),
        }[source]
        out = tmp_path / "r.csv"
        code, stdout, err = run_cli(
            capsys, "compare", *map(str, inputs), "--optimizers", "adamax",
            "--epochs", "1", "--k", "2", "--hidden", "4", "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: data files share the cycle name 'mix': {first}, {second}\n"
        assert not out.exists()

    @pytest.mark.parametrize("optimizers, repeated", [
        ("adamax,adamax", "adamax"), ("sgd,rmsprop,SGD", "sgd"),
    ])
    def test_repeated_optimizer_refused_before_ingestion(
        self, cycle_file, tmp_path, capsys, monkeypatch, optimizers, repeated
    ):
        """Else the pair trains twice and the second's logs replace the
        first's."""
        def never(*args, **kwargs):
            raise AssertionError("prepare_cycle was called")

        monkeypatch.setattr(harness, "prepare_cycle", never)
        out = tmp_path / "r.csv"
        code, stdout, err = run_cli(
            capsys, "compare", "--data", str(cycle_file), "--optimizers", optimizers,
            "--epochs", "1", "--k", "2", "--hidden", "4", "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: optimizer {repeated!r} is listed more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize("rates", ["sgd=0.1,sgd=0.01", "adam=1,rmsprop=1,ADAM=1"])
    def test_repeated_rate_usage_error(self, cycle_file, tmp_path, capsys, rates):
        out = tmp_path / "r.csv"
        code, stdout, err = run_cli(
            capsys, "compare", "--data", str(cycle_file), "--lr", rates,
            "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err == (f"error: --lr: bad value {rates!r} "
                       "(--lr must name each optimizer once)\n")
        assert not out.exists()

    def test_no_datasets_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "compare", "--out", str(tmp_path / "r.csv"))
        assert (code, out) == (2, "")
        assert err == "error: no datasets: pass --data and/or --data-dir\n"

    @pytest.mark.parametrize("logs_exist", [False, True])
    def test_logs_and_table_written(self, cycle_file, tmp_path, capsys, logs_exist):
        out = tmp_path / "results.csv"
        table = tmp_path / "table.txt"
        logs = tmp_path / "logs"
        if logs_exist:
            logs.mkdir()
        code, _, _ = run_cli(
            capsys, "compare", "--data", str(cycle_file),
            "--optimizers", "adamax", "--lr", "0.05", "--epochs", "2",
            "--k", "2", "--hidden", "8", "--seed", "1", "--soc0", "90",
            "--out", str(out), "--out-table", str(table),
            "--logs-dir", str(logs),
        )
        assert code == 0
        assert table.read_text().startswith("Drive Cycle")
        names = sorted(p.name for p in logs.glob("*.csv"))
        assert names == [
            "mix_adamax_final.csv", "mix_adamax_fold0.csv", "mix_adamax_fold1.csv",
        ]


class TestOutputPaths:
    """An output path that cannot take its file (or, for --logs-dir, its
    directory) exits 1 before any input is read or any model trained."""

    OUTPUTS = [
        ("train", "--out-model"), ("train", "--out-log"),
        ("train", "--export-features"), ("evaluate", "--predictions"),
        ("compare", "--out"), ("compare", "--out-table"), ("compare", "--logs-dir"),
    ]

    @pytest.mark.parametrize("command, flag", OUTPUTS)
    @pytest.mark.parametrize("kind", ["directory", "missing-parent"])
    def test_unusable_output_fails_before_any_work(
        self, cycle_file, tmp_path, capsys, monkeypatch, command, flag, kind
    ):
        started = []

        def refuse(*args, **kwargs):
            started.append(args)
            raise AssertionError("work started before the output check")

        for owner, name in [(data_module, "ingest_csv"), (harness, "train"),
                            (cli, "train"), (cli, "load_model")]:
            monkeypatch.setattr(owner, name, refuse)
        argv = {
            "train": ["--data", str(cycle_file), "--optimizer", "sgd",
                      "--out-model", str(tmp_path / "m.json"),
                      "--out-log", str(tmp_path / "l.csv")],
            "evaluate": ["--model", str(tmp_path / "m.json"),
                         "--data", str(cycle_file)],
            "compare": ["--data", str(cycle_file), "--out", str(tmp_path / "r.csv")],
        }[command]
        bad = tmp_path if kind == "directory" else tmp_path / "absent" / "f.csv"
        if flag == "--logs-dir" and kind == "directory":
            bad = tmp_path / "f.txt"  # a directory output's unusable kind is a file
            bad.write_text("", encoding="utf-8")
        before = sorted(p.name for p in tmp_path.iterdir())
        code, out, err = run_cli(capsys, command, *argv, flag, str(bad))
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {flag} ")
        assert out == ""
        assert started == []
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command, first, second", [
        ("train", "--out-model", "--out-log"),
        ("train", "--out-log", "--export-features"),
        ("compare", "--out", "--out-table"),
        ("compare", "--out-table", "--logs-dir"),
    ])
    @pytest.mark.parametrize("spelling", ["same", "through-a-link"])
    def test_two_outputs_naming_one_path_exit_2_before_any_work(
        self, cycle_file, tmp_path, capsys, monkeypatch, command, first, second,
        spelling,
    ):
        """Else the later output replaces the earlier (train's model file
        holds its log), or compare fails after its work."""
        started = []

        def refuse(*args, **kwargs):
            started.append(args)
            raise AssertionError("work started before the output check")

        for owner, name in [(data_module, "ingest_csv"), (harness, "train")]:
            monkeypatch.setattr(owner, name, refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(tmp_path)
        target = tmp_path / "out.csv"
        other = target if spelling == "same" else tmp_path / "link" / "out.csv"
        argv = {"train": ["--data", str(cycle_file), "--optimizer", "sgd"],
                "compare": ["--data", str(cycle_file)]}[command]
        code, out, err = run_cli(capsys, command, *argv, first, str(target),
                                 second, str(other))
        assert code == 2
        assert err == f"error: {first} and {second} name one path\n"
        assert out == "" and started == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "mix.csv"]

    @pytest.mark.parametrize("command, given, output", [
        ("train", "--data", "--out-model"),
        ("train", "--data", "--out-log"),
        ("train", "--data", "--export-features"),
        ("train", "--config", "--out-log"),
        ("evaluate", "--data", "--predictions"),
        ("evaluate", "--model", "--predictions"),
        ("evaluate", "--config", "--predictions"),
        ("compare", "--data", "--out"),
        ("compare", "--data", "--out-table"),
        ("compare", "--data", "--logs-dir"),
        ("compare", "--data-dir", "--out"),
        ("compare", "--data-dir", "--out-table"),
        ("compare", "--data-dir", "--logs-dir"),
        ("compare", "--config", "--out"),
        ("generate", "--config", "--out"),
    ])
    @pytest.mark.parametrize("spelling", ["same", "through-a-link"])
    def test_an_output_naming_an_input_exits_2_and_leaves_it(
        self, tmp_path, capsys, monkeypatch, command, given, output, spelling,
    ):
        """Else the command replaces its input with its output."""
        inputs = tmp_path / "in"
        inputs.mkdir()
        cycle = generate_cycle(SyntheticCellParams(sample_period_s=1.0),
                               Profile.RANDOM_MIX, 99.0, seed=5)
        write_cycle_csv(cycle.records, inputs / "mix.csv")
        save_model(inputs / "m.json", init_network(mlp_specs(4, [2]), seed=0),
                   normalization=fit_normalization(prepare_cycle(inputs / "mix.csv")))
        (inputs / "run.cfg").write_text("# no settings\n", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in inputs.iterdir()}
        started = []

        def refuse(*args, **kwargs):
            started.append(args)
            raise AssertionError("work started before the output check")

        for owner, name in [(data_module, "ingest_csv"), (harness, "train"),
                            (cli, "train"), (cli, "load_model"),
                            (cli, "generate_cycle")]:
            monkeypatch.setattr(owner, name, refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(inputs)
        argv = {
            "train": ["--data", "in/mix.csv", "--optimizer", "sgd"],
            "evaluate": ["--model", "in/m.json", "--data", "in/mix.csv"],
            "compare": (["--data-dir", "in"] if given == "--data-dir"
                        else ["--data", "in/mix.csv"]),
            "generate": ["--profile", "random", "--duration", "30", "--seed", "1"],
        }[command] + ["--config", "in/run.cfg"]
        named = {"--model": "m.json", "--config": "run.cfg"}.get(given, "mix.csv")
        folder = "in" if spelling == "same" else "link"
        code, out, err = run_cli(capsys, command, *argv, output, f"{folder}/{named}")
        assert code == 2
        assert err == f"error: {given} and {output} name one path\n"
        assert out == "" and started == []
        assert {p.name: p.read_bytes() for p in inputs.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "link"]

    @pytest.mark.parametrize("output", ["--out", "--out-table", "--logs-dir"])
    @pytest.mark.parametrize("spelling", ["same", "through-a-link"])
    def test_an_output_naming_the_data_dir_exits_2_and_leaves_it(
        self, cycle_file, tmp_path, capsys, monkeypatch, output, spelling,
    ):
        """Else the logs land among the inputs, and the next run reads each
        of them as a cycle."""
        def never(*args, **kwargs):
            raise AssertionError("work started before the output check")

        monkeypatch.setattr(data_module, "ingest_csv", never)
        (tmp_path / "link").symlink_to(tmp_path)
        named = tmp_path if spelling == "same" else tmp_path / "link"
        code, out, err = run_cli(capsys, "compare", "--data-dir", str(tmp_path),
                                 output, str(named))
        assert (code, out) == (2, "")
        assert err == f"error: --data-dir and {output} name one path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "mix.csv"]


class TestTooLargeNetwork:
    """A --hidden width whose network numpy cannot even size is a ConfigError
    giving the parameter count, in the command or in a compare worker."""

    WIDTH = "99999999999999999999"
    COUNT = 6 * int(WIDTH) + 1  # 4 -> WIDTH -> 1: 5 * WIDTH + WIDTH + 1

    @pytest.mark.parametrize("command, jobs, run", [
        ("train", None, ""), ("compare", "1", "mix/sgd/fold0: "),
        ("compare", "2", "mix/sgd/fold0: "),
    ])
    def test_is_exit_2_naming_its_size(self, cycle_file, tmp_path, capsys,
                                       command, jobs, run):
        argv = {
            "train": ["--optimizer", "sgd", "--out-model", str(tmp_path / "m.json"),
                      "--out-log", str(tmp_path / "l.csv")],
            "compare": ["--optimizers", "sgd", "--k", "2", "--jobs", jobs,
                        "--out", str(tmp_path / "r.csv")],
        }[command]
        code, out, err = run_cli(capsys, command, "--data", str(cycle_file),
                                 "--epochs", "1", "--hidden", self.WIDTH, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: {run}a network of {self.COUNT} parameters is more "
                       "than can be allocated\n")
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mix.csv"]


class TestOutOfMemory:
    """A MemoryError, raised in the command's process or in a compare
    worker, is one error line naming the command and exit 1; nothing is
    written and no worker is left."""

    @staticmethod
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 205. MiB for an array")

    @pytest.fixture()
    def model(self, cycle_file, tmp_path, capsys):
        path = tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "sgd",
            "--epochs", "1", "--hidden", "4", "--soc0", "90", "--out-model",
            str(path), "--out-log", str(tmp_path / "l.csv"),
        )
        assert code == 0
        return path

    def argv(self, command, cycle_file, tmp_path, jobs="1"):
        return {
            "train": ["--data", str(cycle_file), "--optimizer", "sgd",
                      "--epochs", "1", "--hidden", "4", "--soc0", "90",
                      "--out-model", str(tmp_path / "out.json"),
                      "--out-log", str(tmp_path / "out.csv")],
            "evaluate": ["--model", str(tmp_path / "m.json"),
                         "--data", str(cycle_file), "--soc0", "90",
                         "--predictions", str(tmp_path / "out.csv")],
            "compare": ["--data", str(cycle_file), "--optimizers", "sgd",
                        "--epochs", "1", "--k", "2", "--hidden", "4",
                        "--soc0", "90", "--out", str(tmp_path / "out.csv"),
                        "--jobs", jobs],
        }[command]

    def check(self, capsys, command, argv, tmp_path):
        code, out, err = run_cli(capsys, command, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: out of memory in {command}\n"
        assert multiprocessing.active_children() == []
        assert not any(p.name.startswith("out.") for p in tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["train", "evaluate", "compare"])
    def test_in_ingest(self, cycle_file, model, tmp_path, capsys, monkeypatch,
                       command):
        for owner in (data_module, harness):
            monkeypatch.setattr(owner, "prepare_cycle", self.out_of_memory)
        self.check(capsys, command, self.argv(command, cycle_file, tmp_path),
                   tmp_path)

    def test_in_evaluates_predict(self, cycle_file, model, tmp_path, capsys,
                                  monkeypatch):
        monkeypatch.setattr(harness, "predict", self.out_of_memory)
        self.check(capsys, "evaluate", self.argv("evaluate", cycle_file, tmp_path),
                   tmp_path)

    @pytest.mark.parametrize("command, jobs", [
        ("train", "1"), ("compare", "1"), ("compare", "2"),
    ])
    def test_in_train(self, cycle_file, tmp_path, capsys, monkeypatch, command,
                      jobs):
        monkeypatch.setattr(cli, "train", self.out_of_memory)
        monkeypatch.setattr(harness, "train", self.out_of_memory)
        self.check(capsys, command, self.argv(command, cycle_file, tmp_path, jobs),
                   tmp_path)


def start_compare(cycle_file, out_dir, jobs):
    """A subprocess ``compare`` in a session of its own, writing into
    ``out_dir``. Each run trains for minutes, so every run is training or
    queued when a test signals it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.Popen(
        [sys.executable, "-m", "socbench.cli", "compare", "--data",
         str(cycle_file), "--optimizers", "sgd,adamax", "--epochs", "100000",
         "--k", "2", "--hidden", "8", "--soc0", "90", "--jobs", jobs,
         "--out", str(out_dir / "r.csv"), "--out-table", str(out_dir / "t.txt"),
         "--logs-dir", str(out_dir / "logs")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )


def running_in_group(pids, pgid):
    """Those of ``pids`` that are in process group ``pgid`` and are no
    zombie, read from ``/proc/<pid>/stat``: a zombie's state is ``Z``, and a
    reaped process has no file."""
    found = []
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
        except OSError:
            continue
        state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if state != "Z" and int(pgrp) == pgid:
            found.append(int(pid))
    return found


class TestInterrupt:
    """Ctrl-C during compare, sent to the whole process group as a terminal
    does or to the compare process alone: one error line and exit 130
    within 5 s, nothing written, and no process of the command left."""

    @pytest.mark.parametrize("jobs, target", [
        ("1", "group"), ("2", "group"), ("2", "compare process"),
    ])
    def test_is_one_line_and_exit_130(self, cycle_file, tmp_path, jobs, target):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        proc = start_compare(cycle_file, out_dir, jobs)
        try:
            time.sleep(1.0)
            assert proc.poll() is None
            send = os.killpg if target == "group" else os.kill
            send(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=5)
            with pytest.raises(ProcessLookupError):  # the group is empty
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # only when a check failed
                proc.wait()
            except ProcessLookupError:
                pass
        assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
        assert list(out_dir.iterdir()) == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestKilled:
    """SIGTERM or SIGKILL to the compare process alone, as a supervisor or
    the kernel's out-of-memory killer sends it: its --jobs 2 workers die
    with it within 5 s. An orphan is reaped by whatever adopts it, maybe
    late, so a zombie counts as gone, as ``killpg(pgid, 0)`` would not."""

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL],
                             ids=["SIGTERM", "SIGKILL"])
    def test_workers_die_with_compare(self, cycle_file, tmp_path, sig):
        proc = start_compare(cycle_file, tmp_path, "2")
        try:
            time.sleep(1.0)
            deadline = time.monotonic() + 30
            workers = []
            while len(workers) < 2 and time.monotonic() < deadline:
                pids = [e.name for e in Path("/proc").iterdir() if e.name.isdigit()]
                workers = [p for p in running_in_group(pids, proc.pid) if p != proc.pid]
                time.sleep(0.1)
            assert len(workers) == 2, "compare forked no two workers"
            os.kill(proc.pid, sig)
            proc.wait(timeout=5)
            deadline = time.monotonic() + 5
            while running_in_group(workers, proc.pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert running_in_group(workers, proc.pid) == []
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # only when a check failed
            except ProcessLookupError:
                pass
            proc.communicate()


class TestHugeCurrents:
    """Finite currents too large to integrate or average in float64."""

    @pytest.fixture(params=["every-row", "one-row", "held-out-tail"])
    def huge_cycle(self, request, tmp_path):
        # 600 rows: row 300 is a training row of compare's 80/20 split, row
        # 560 a held-out one
        cycle = generate_cycle(SyntheticCellParams(sample_period_s=1.0),
                               Profile.RANDOM_MIX, 599.0, seed=3)
        current = cycle.records.current_a
        if request.param == "every-row":
            current[:] = 1e308
        elif request.param == "one-row":
            current[300] = 1e308
        else:
            current[560] = 1e308
        path = tmp_path / "huge.csv"
        write_cycle_csv(cycle.records, path)
        return request.param, path

    def run(self, tmp_path, *argv):
        """The CLI in a fresh interpreter with default warning filters, so a
        numpy warning would reach stderr."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        return subprocess.run(
            [sys.executable, "-m", "socbench.cli", *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )

    def test_train_exits_1_with_one_error_line(self, tmp_path, huge_cycle):
        _, path = huge_cycle
        proc = self.run(tmp_path, "train", "--data", str(path), "--optimizer",
                        "sgd", "--hidden", "2", "--epochs", "1")
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert re.match(r"error: .*\['i_avg'\].* \(currents too large\?\)$",
                        proc.stderr)
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_compare_skips_or_exits_1_without_warnings(
        self, tmp_path, huge_cycle, jobs
    ):
        # a cycle whose features overflow fails its ingestion, which leaves
        # no cycle to compare; one whose feature statistics overflow stops
        # the comparison in its first fold, and one whose held-out rows
        # overflow the final fit's scores stops it there
        kind, path = huge_cycle
        proc = self.run(tmp_path, "compare", "--data", str(path), "--optimizers",
                        "sgd", "--hidden", "2", "--epochs", "1", "--k", "2",
                        "--jobs", jobs)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith({
            "every-row": "error: no cycle could be ingested: "
                         "huge: non-finite values in ['i_avg']",
            "one-row": "error: huge/sgd/fold0: feature(s) ['i_avg'] overflow",
            "held-out-tail": "error: huge/sgd/final: "
                             "non-finite predictions or scores (currents too large?)\n",
        }[kind])
        assert proc.stdout == ""
        assert not (tmp_path / "comparison_results.csv").exists()

    @pytest.mark.parametrize("seed", ["3", "5"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_compare_exits_1_when_fold_validation_rows_overflow(
        self, tmp_path, jobs, seed
    ):
        # at these seeds row 100's huge current is a validation row of fold0:
        # the fold's statistics, fit without it, are finite, and the row
        # overflows only when it is normalized with them
        cycle = generate_cycle(SyntheticCellParams(sample_period_s=1.0),
                               Profile.PULSE_TRAIN, 599.0, seed=1, amplitude_a=1.0)
        cycle.records.current_a[100] = 1e308
        path = tmp_path / "p.csv"
        write_cycle_csv(cycle.records, path)
        proc = self.run(tmp_path, "compare", "--data", str(path), "--optimizers",
                        "sgd", "--hidden", "2", "--epochs", "1", "--k", "2",
                        "--window", "1", "--seed", seed, "--jobs", jobs)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: p/sgd/fold0: normalized feature(s) ['i_avg'] overflow "
            "float64 (currents too large?)\n"
        )
        assert proc.stdout == ""
        assert not (tmp_path / "comparison_results.csv").exists()

    def test_evaluate_exits_1_before_writing_predictions(
        self, tmp_path, huge_cycle, cycle_file, capsys
    ):
        # a model trained on a normal cycle; a huge current in the scored
        # cycle overflows the features or the forward pass and its scores
        model = tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "sgd",
            "--hidden", "2", "--epochs", "1", "--out-model", str(model),
            "--out-log", str(tmp_path / "l.csv"),
        )
        assert code == 0
        preds = tmp_path / "preds.csv"
        _, path = huge_cycle
        proc = self.run(tmp_path, "evaluate", "--model", str(model),
                        "--data", str(path), "--predictions", str(preds))
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert re.match(r"error: .* \(currents too large\?\)$", proc.stderr)
        assert proc.stdout == ""
        assert not preds.exists()

    def test_evaluate_exits_1_when_normalization_overflows(
        self, tmp_path, cycle_file, capsys
    ):
        # a stored i_avg std of 1e-3 takes one 1.7e308 current, averaged over
        # a window of 1, beyond float64 when the features are normalized
        model = tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(cycle_file), "--optimizer", "sgd",
            "--hidden", "2", "--epochs", "1", "--soc0", "90",
            "--out-model", str(model), "--out-log", str(tmp_path / "l.csv"),
        )
        assert code == 0
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["normalization"]["stds"][2] = 1e-3
        model.write_text(json.dumps(doc), encoding="utf-8")
        cycle = generate_cycle(SyntheticCellParams(sample_period_s=1.0),
                               Profile.RANDOM_MIX, 599.0, seed=3)
        cycle.records.current_a[300] = 1.7e308
        path = tmp_path / "huge.csv"
        write_cycle_csv(cycle.records, path)
        preds = tmp_path / "preds.csv"
        proc = self.run(tmp_path, "evaluate", "--model", str(model), "--data",
                        str(path), "--window", "1", "--predictions", str(preds))
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: normalized feature(s) ['i_avg'] overflow float64 "
            "(currents too large?)\n"
        )
        assert proc.stdout == ""
        assert not preds.exists()


class TestSettingChecks:
    """Each bad setting value exits 2 with one error line and no output,
    whether it comes from a flag, a config file or the environment."""

    def train_argv(self, cycle_file, out, *extra):
        return ["train", "--data", str(cycle_file), "--optimizer", "sgd",
                "--epochs", "1", "--hidden", "2", "--soc0", "90",
                "--out-model", str(out), "--out-log", str(out) + ".log", *extra]

    @pytest.mark.parametrize(
        "source, message",
        [
            ("flag", "--seed: bad value '-1' (--seed must be >= 0)"),
            ("config", "config key seed: bad value '-5' (--seed must be >= 0)"),
            ("env", "SOC_BENCH_SEED: bad value '-1' (--seed must be >= 0)"),
            ("generate", "--seed: bad value '-2' (--seed must be >= 0)"),
        ],
    )
    def test_negative_seed(self, cycle_file, tmp_path, capsys, monkeypatch,
                           source, message):
        out = tmp_path / "out"
        argv = self.train_argv(cycle_file, out)
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = -5\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        elif source == "env":
            monkeypatch.setenv("SOC_BENCH_SEED", "-1")
        else:
            argv = ["generate", "--profile", "random", "--duration", "60",
                    "--seed", "-2", "--out", str(out)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_non_utf8_config(self, cycle_file, tmp_path, capsys):
        cfg = tmp_path / "bytes.cfg"
        cfg.write_bytes(b"epochs=1\nseed=\xff\n")
        out = tmp_path / "m.json"
        code, _, err = run_cli(capsys, *self.train_argv(cycle_file, out),
                               "--config", str(cfg))
        assert code == 2
        assert err == f"error: {cfg}: not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "no-equals"])
    def test_unusable_config_file(self, cycle_file, tmp_path, capsys, kind):
        cfg = tmp_path / "run.cfg"
        message = f"config file not found: {cfg}"
        if kind == "no-equals":
            cfg.write_text("# comment\nepochs 1\n", encoding="utf-8")
            message = f"{cfg} line 2: expected key=value"
        out = tmp_path / "m.json"
        code, _, err = run_cli(capsys, *self.train_argv(cycle_file, out),
                               "--config", str(cfg))
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_infinite_capacity(self, cycle_file, tmp_path, capsys, source):
        out = tmp_path / "m.json"
        argv = self.train_argv(cycle_file, out)
        if source == "flag":
            argv += ["--capacity-ah", "inf"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("capacity_ah=inf\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == "error: capacity must be finite and > 0 Ah, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--soc0", "nan", "initial SOC must be in [0, 100], got nan"),
            ("--capacity-ah", "inf", "capacity must be finite and > 0 Ah, got inf"),
            ("--window", "0", "window must be >= 1, got 0"),
        ],
    )
    def test_compare_data_setting_fails_before_any_cycle(
        self, cycle_file, tmp_path, capsys, flag, value, message
    ):
        # not a reason to skip every cycle and exit 0
        out = tmp_path / "r.csv"
        code, _, err = run_cli(
            capsys, "compare", "--data", str(cycle_file), "--optimizers", "adamax",
            "--epochs", "1", "--k", "2", "--hidden", "2", flag, value,
            "--out", str(out),
        )
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, message",
        [
            ("flag", "--k: bad value '1' (--k must be >= 2)"),
            ("config", "config key k: bad value '1' (--k must be >= 2)"),
        ],
    )
    def test_compare_k_below_2_fails_before_any_input(
        self, cycle_file, tmp_path, capsys, monkeypatch, source, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("prepare_cycle was called")

        monkeypatch.setattr(harness, "prepare_cycle", never)
        out = tmp_path / "r.csv"
        argv = ["compare", "--data", str(cycle_file), "--out", str(out)]
        if source == "flag":
            argv += ["--k", "1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("k = 1\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"error: {message}\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "compare"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--soc0", "101", "initial SOC must be in [0, 100], got 101.0"),
            ("--capacity-ah", "0", "capacity must be finite and > 0 Ah, got 0.0"),
            ("--window", "-3", "window must be >= 1, got -3"),
        ],
    )
    def test_data_setting_fails_before_any_input(
        self, tmp_path, capsys, command, flag, value, message
    ):
        # the --data (and --model) files do not exist: a bad data setting is
        # reported first, whichever command reads them
        absent = str(tmp_path / "absent.csv")
        argv = {
            "train": ["--optimizer", "sgd", "--out-model", str(tmp_path / "m.json"),
                      "--out-log", str(tmp_path / "l.csv")],
            "evaluate": ["--model", str(tmp_path / "absent.json")],
            "compare": ["--out", str(tmp_path / "r.csv")],
        }[command]
        code, out, err = run_cli(capsys, command, "--data", absent, *argv,
                                 flag, value)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--profile", "square"],
             "--profile: bad value 'square' (--profile must be one of: "
             "constant, pulse, random)"),
            (["compare", "--fold-mode", "purged"],
             "--fold-mode: bad value 'purged' (--fold-mode must be one of: "
             "shuffled, contiguous)"),
            (["train", "--data", "absent.csv", "--optimizer", "sgd",
              "--epochs", "1.5"],
             "--epochs: bad value '1.5' (--epochs must be an integer)"),
            (["train", "--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_parser_errors_are_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""


def test_every_flag_is_its_config_key_with_dashes():
    """The README's rule: a config key is its flag without the leading
    dashes and with underscores, for every setting of every command."""
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert sorted(commands) == ["compare", "evaluate", "generate", "train"]
    for name, command in commands.items():
        flags = {
            option: action.dest
            for action in command._actions
            for option in action.option_strings
            if option not in ("-h", "--help", "--config", "--ambient-c")
        }
        schema = command.get_default("schema")
        assert flags == {"--" + key.replace("_", "-"): key for key in schema}, name
    generate = commands["generate"]
    aliases = [a for a in generate._actions if "--ambient-c" in a.option_strings]
    assert [a.dest for a in aliases] == ["t_ambient_c"]
