"""The benchmark's tracing wrapper against the socbench modules it wraps."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from socbench.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "bench" / "traced_cli.py"


def test_every_traced_name_resolves():
    """``--trace 1`` wraps each name in TRACED with getattr on its module, so
    a renamed or deleted function would crash every traced run."""
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = [
        f"{module.__name__}.{name}"
        for module, names in traced_cli.TRACED.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert traced_cli.TRACED
    assert missing == []


@pytest.mark.parametrize("optimizer, vectors", [("sgd", 2), ("adamax", 4)])
def test_traced_train_counts_step_bytes(tmp_path, capsys, optimizer, vectors):
    """A traced run reads the parameters' views and tests each optimizer
    slot for truth; a slot that cannot be tested (a bare array) would crash
    every ``--trace 1`` run. Each step moves the parameters, the gradient
    and every slot the rule reads: 8 bytes per value each."""
    cycle = tmp_path / "cycle.csv"
    code = main(
        ["generate", "--profile", "random", "--duration", "299", "--seed", "5",
         "--soc0", "90", "--out", str(cycle)]
    )
    capsys.readouterr()
    assert code == 0
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans_path), "train",
         "--data", str(cycle), "--optimizer", optimizer, "--hidden", "8",
         "--epochs", "1", "--soc0", "90", "--out-model", str(tmp_path / "m.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    n_params = (4 * 8 + 8) + (8 * 1 + 1)
    step_bytes = [
        extra["bytes"]
        for name, _, _, _, _, extra in json.loads(spans_path.read_text())
        if name == "optimizers.optimizer_step"
    ]
    assert step_bytes
    assert set(step_bytes) == {8 * n_params * vectors}
