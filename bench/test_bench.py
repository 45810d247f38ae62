"""Self-test of the benchmark on tiny inputs; it takes under a minute.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

SEED = 3


def tiny(name: str) -> bench.Workload:
    """The workload on a 600-row desk cycle and a 2,001-row long cycle."""
    return replace(
        bench.WORKLOADS[name], desk_duration_s=599.0, long_duration_s=200.0,
        setup_reps=2,
    )


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, capsys):
    outcome = bench.run_workload(tiny(name), SEED, 0.0, trace)
    result = bench.report(outcome, trace)

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in bench.declared_metrics(trace)}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name_, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name_
    json.loads(json.dumps(result))
    printed = capsys.readouterr().out
    for metric in declared:
        assert f"\n{metric} " in printed


def _bump_digit(path: Path, line_no: int, field: int) -> None:
    """Changes the last digit of one CSV field: a plausible wrong value."""
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[line_no].split(",")
    value = cells[field]
    cells[field] = value[:-1] + str((int(value[-1]) + 1) % 10)
    lines[line_no] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize(
    "name, victim, field",
    [("compare-serial", "results.csv", 2), ("evaluate-long", "predictions.csv", 1)],
)
def test_corrupted_output_is_counted_as_failed(name, victim, field, capsys):
    w = tiny(name)
    clean = bench.run_workload(w, SEED, 0.0, trace=False)
    assert not clean.verifier.failures
    expected = clean.verifier.expected

    outcome = bench.run_workload(
        w, SEED, 0.0, trace=False, expected=expected,
        tamper=lambda cwd: _bump_digit(cwd / victim, 1, field),
    )
    result = bench.report(outcome, trace=False)

    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert "error_rate 1 ratio" in capsys.readouterr().out


def test_nonzero_exit_is_a_failed_run():
    verifier = bench.Verifier(tiny("compare-serial"), expected=None)
    run = bench.Run(code=3, wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0,
                    stdout="", stderr="diverged")
    assert not verifier.verify(run, Path("."))
    assert verifier.failures == ["exit code 3: diverged"]


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(bench.SPEC, tmp_path / "BENCHMARK.json")
    (tmp_path / "bench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(bench.REFERENCE, tmp_path / "bench" / "reference.json")

    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compare-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )

    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
