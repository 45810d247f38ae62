"""socbench benchmark: one workload per run, driven through the socbench CLI.

Run from the repository root:

    python3 bench/run.py --workload compare-serial --seed 42 --seconds 20 --trace 0

Every program invocation is ``socbench.cli.main`` in a fresh interpreter
with ``src`` on PYTHONPATH, exactly as the ``socbench`` console script runs
it. The run generates its inputs from ``--seed`` with ``socbench generate``
(and, for evaluate-long, ``socbench train``), times that set-up, then
repeats the workload's measured command until ``--seconds`` have passed and
checks every repeat's outputs. With ``--trace 1`` it alternates untraced
and traced repeats (bench/traced_cli.py) and reports per-layer metrics
instead. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it record the
environment and each metric in readable form. Workload choices and metric
meanings are in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 42  # the acceptance suite's desk-cycle seed

CLI = ["-c", "import sys; from socbench.cli import main; sys.exit(main())"]

# the acceptance configuration (README, tests/test_acceptance.py) cut to one
# epoch, so that one compare fits a few times into a run
COMPARE_FLAGS = [
    "--optimizers", "sgd,rmsprop,adamax",
    "--lr", "sgd=0.0002,rmsprop=0.02,adamax=0.05",
    "--epochs", "1",
    "--batch-size", "64",
    "--k", "4",
    "--seed", "0",
    "--omit-timing",
]
TRAIN_FLAGS = [
    "--optimizer", "adamax",
    "--lr", "0.05",
    "--epochs", "1",
    "--batch-size", "64",
    "--seed", "0",
]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "compare" or "evaluate"
    jobs: int = 1
    desk_duration_s: float = 9999.0  # 10,000 rows at 1 s sampling
    long_duration_s: float = 10000.0  # 100,001 rows at the default 0.1 s
    setup_reps: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare-serial", "compare", jobs=1, setup_reps=5),
        Workload("compare-jobs2", "compare", jobs=2, setup_reps=5),
        Workload("evaluate-long", "evaluate"),
    )
}


class SetupFailed(Exception):
    pass


class CheckFailed(Exception):
    pass


@dataclass
class Run:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_cli(args: list[str], cwd: Path, spans: Path | None = None) -> Run:
    """One socbench invocation in a fresh interpreter, timed launch to exit."""
    if spans is None:
        cmd = [sys.executable, *CLI, *args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *args]
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(encoding="utf-8"),
        stderr=err_path.read_text(encoding="utf-8"),
    )


def setup_commands(w: Workload, seed: int) -> list[list[str]]:
    desk = [
        "generate", "--profile", "random", "--duration", repr(w.desk_duration_s),
        "--sample-period-s", "1.0", "--seed", str(seed), "--out", "desk.csv",
    ]
    if w.command == "compare":
        return [desk]
    long_cycle = [
        "generate", "--profile", "random", "--duration", repr(w.long_duration_s),
        "--seed", str(seed + 1), "--out", "long.csv",
    ]
    train = [
        "train", "--data", "desk.csv", *TRAIN_FLAGS,
        "--out-model", "model.json", "--out-log", "train_log.csv",
    ]
    return [long_cycle, desk, train]


def measured_command(w: Workload) -> list[str]:
    if w.command == "compare":
        return [
            "compare", "--data", "desk.csv", *COMPARE_FLAGS, "--jobs", str(w.jobs),
            "--out", "results.csv", "--out-table", "table.txt",
        ]
    return [
        "evaluate", "--model", "model.json", "--data", "long.csv",
        "--predictions", "predictions.csv",
    ]


OUTPUTS = ("results.csv", "table.txt", "predictions.csv")


def reference_key(w: Workload) -> str:
    """Names the inputs and flags a recorded reference output belongs to.

    Both compare workloads share a key, so each must reproduce the other's
    recorded output byte for byte.
    """
    if w.command == "compare":
        config = [COMPARE_FLAGS, w.desk_duration_s]
    else:
        config = [TRAIN_FLAGS, w.desk_duration_s, w.long_duration_s]
    digest = hashlib.sha256(json.dumps(config).encode()).hexdigest()[:12]
    return f"{w.command}-{digest}"


def load_reference(w: Workload) -> dict[str, dict]:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(reference_key(w), {})


def set_up(w: Workload, seed: int, cwd: Path, trace: bool = False) -> float:
    """Runs the set-up commands once; returns their wall time."""
    started = time.perf_counter()
    for i, args in enumerate(setup_commands(w, seed)):
        spans = cwd / f"setup{i}.spans.json" if trace else None
        run = run_cli(args, cwd, spans)
        if run.code != 0:
            raise SetupFailed(f"socbench {args[0]} exited {run.code}: {run.stderr}")
    return time.perf_counter() - started


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_compare(run: Run, cwd: Path) -> dict[str, str]:
    """Validates one compare run's files; returns their digests."""
    lines = (cwd / "results.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "cycle,optimizer,mae,mse,rmse,seconds,seed":
        raise CheckFailed(f"results.csv header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if [r[:2] for r in rows] != [["desk", a] for a in ("adamax", "rmsprop", "sgd")]:
        raise CheckFailed("results.csv does not hold one desk row per optimizer")
    cells = ["desk"]
    for _, _, mae, mse, rmse, seconds, seed in rows:
        mae, mse, rmse = float(mae), float(mse), float(rmse)
        if not (math.isfinite(mae) and 0.0 < mae and mae * mae <= mse * (1 + 1e-12)):
            raise CheckFailed(f"results.csv: implausible MAE {mae} / MSE {mse}")
        if rmse != math.sqrt(mse) or seconds != "0.000" or seed != "0":
            raise CheckFailed("results.csv: rmse, seconds or seed column is wrong")
        cells += [f"{mae:.4f}", f"{mse:.4f}"]
    table = (cwd / "table.txt").read_text(encoding="utf-8")
    if table.splitlines()[2].split() != cells:
        raise CheckFailed("table.txt does not match results.csv")
    if run.stdout != table + "results: results.csv\n":
        raise CheckFailed("printed table differs from table.txt")
    return {
        "results_sha256": _sha256(cwd / "results.csv"),
        "table_sha256": _sha256(cwd / "table.txt"),
    }


def check_evaluate(run: Run, cwd: Path) -> dict[str, str]:
    """Validates one evaluate run against its own predictions file."""
    scores = run.stdout.splitlines()[-1]
    words = scores.split()
    if words[0::2] != ["MAE", "MSE", "RMSE"]:
        raise CheckFailed(f"unexpected score line {scores!r}")
    mae, mse, rmse = (float(x) for x in words[1::2])
    path = cwd / "predictions.csv"
    with path.open(encoding="utf-8") as fh:
        if fh.readline() != "soc_true,soc_pred\n":
            raise CheckFailed("predictions.csv header")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with (cwd / "long.csv").open(encoding="utf-8") as fh:
        n_rows = sum(1 for _ in fh) - 1
    if table.shape != (n_rows, 2):
        raise CheckFailed(f"predictions.csv has shape {table.shape}, want {n_rows} rows")
    error = table[:, 1] - table[:, 0]
    if (
        float(np.mean(np.abs(error))) != mae
        or float(np.mean(error**2)) != mse
        or math.sqrt(mse) != rmse
    ):
        raise CheckFailed("printed scores do not match predictions.csv")
    return {"scores": scores, "predictions_sha256": _sha256(path)}


def check(w: Workload, run: Run, cwd: Path) -> dict[str, str]:
    if run.code != 0:
        raise CheckFailed(f"exit code {run.code}: {run.stderr.strip()[-500:]}")
    try:
        if w.command == "compare":
            return check_compare(run, cwd)
        return check_evaluate(run, cwd)
    except (OSError, ValueError, IndexError) as exc:
        raise CheckFailed(f"unreadable output: {exc}") from exc


class Verifier:
    """Checks every repeat and holds it to the expected output digests.

    The expectation is the recorded reference for this seed when there is
    one, else the first valid repeat of this run.
    """

    def __init__(self, w: Workload, expected: dict | None):
        self.w = w
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def verify(self, run: Run, cwd: Path) -> bool:
        self.attempted += 1
        try:
            digests = check(self.w, run, cwd)
            if self.expected is None:
                self.expected = digests
            elif digests != self.expected:
                raise CheckFailed(f"output {digests} differs from {self.expected}")
        except CheckFailed as exc:
            self.failures.append(str(exc))
            return False
        return True


@dataclass
class Outcome:
    metrics: dict[str, float]
    verifier: Verifier
    samples: dict[str, list[float]]  # the values each metric was taken from


def _repeat(
    args: list[str], cwd: Path, verifier: Verifier, tamper=None, spans=None
) -> Run | None:
    """One checked repeat of the measured command; None if it failed."""
    for name in OUTPUTS:  # a repeat must not pass on an earlier one's files
        (cwd / name).unlink(missing_ok=True)
    run = run_cli(args, cwd, spans)
    if tamper is not None:
        tamper(cwd)
    return run if verifier.verify(run, cwd) else None


def measure(
    w: Workload,
    cwd: Path,
    seconds: float,
    verifier: Verifier,
    tamper=None,
) -> list[Run]:
    """Repeats the measured command until ``seconds`` have passed.

    A first warm-up repeat is checked but not timed: the first command after
    set-up runs measurably slower than the ones after it.
    """
    args = measured_command(w)
    _repeat(args, cwd, verifier, tamper)
    runs = []
    started = time.perf_counter()
    while True:
        run = _repeat(args, cwd, verifier, tamper)
        if run is not None:
            runs.append(run)
        if time.perf_counter() - started >= seconds:
            return runs


def measure_traced(
    w: Workload, cwd: Path, seconds: float, verifier: Verifier
) -> tuple[list[Run], list[tuple[Run, list]]]:
    """After a warm-up, alternates untraced and traced repeats until
    ``seconds`` have passed."""
    args = measured_command(w)
    _repeat(args, cwd, verifier)
    plain, traced = [], []
    spans_path = cwd / "measured.spans.json"
    started = time.perf_counter()
    while True:
        run = _repeat(args, cwd, verifier)
        if run is not None:
            plain.append(run)
        run = _repeat(args, cwd, verifier, spans=spans_path)
        if run is not None:
            traced.append((run, json.loads(spans_path.read_text(encoding="utf-8"))))
        if time.perf_counter() - started >= seconds:
            return plain, traced


def _load_spans(cwd: Path) -> list:
    spans = []
    for path in sorted(cwd.glob("setup*.spans.json")):
        spans += json.loads(path.read_text(encoding="utf-8"))
    return spans


def run_workload(
    w: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    expected: dict | None = None,
    tamper=None,
) -> Outcome:
    """Sets up, measures and checks one workload.

    Returns the metric values by name, the verifier, and the samples they
    were taken from. Outputs must equal ``expected`` digests, or with None
    the first valid repeat's. ``tamper(cwd)`` is applied to the outputs of
    every untraced repeat before it is checked.
    """
    verifier = Verifier(w, expected)
    WORK.mkdir(exist_ok=True)
    cwd = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        if not trace:
            setup_s = [set_up(w, seed, cwd) for _ in range(w.setup_reps)]
            runs = measure(w, cwd, seconds, verifier, tamper)
            metrics = {"setup_s": statistics.median(setup_s)}
            if runs:
                metrics["wall_s"] = statistics.median([r.wall_s for r in runs])
                metrics["cpu_s"] = statistics.median([r.cpu_s for r in runs])
                # the worst repeat: with two workers the peak depends on how
                # their full-set forwards overlap, and the highest is what a
                # user must have memory for
                metrics["peak_rss_mb"] = max(r.peak_rss_mb for r in runs)
            samples = {
                "setup_s": setup_s,
                "wall_s": [r.wall_s for r in runs],
                "cpu_s": [r.cpu_s for r in runs],
                "peak_rss_mb": [r.peak_rss_mb for r in runs],
            }
        else:
            set_up(w, seed, cwd, trace=True)
            plain, traced = measure_traced(w, cwd, seconds, verifier)
            metrics = {}
            if plain and traced:
                traced.sort(key=lambda rs: rs[0].wall_s)
                run, spans = traced[len(traced) // 2]
                metrics = layers.layer_metrics(
                    _load_spans(cwd),
                    spans,
                    jobs=w.jobs,
                    traced_wall_s=run.wall_s,
                    untraced_wall_s=statistics.median([r.wall_s for r in plain]),
                )
            samples = {
                "untraced_wall_s": [r.wall_s for r in plain],
                "traced_wall_s": [r.wall_s for r, _ in traced],
            }
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    return Outcome(metrics, verifier, samples)


def _blas_threads() -> int:
    """Threads the BLAS numpy loaded will use, read through its own API; -1
    when the library is not one this knows how to ask."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return -1


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "socbench" / "cli.py").is_file():
        print(f"error: no socbench sources under {SRC}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit, so that the running command is
    # killed and waited for instead of being left behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        expected = load_reference(w).get(str(args.seed))
        outcome = run_workload(w, args.seed, args.seconds, trace, expected)
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    print(json.dumps(report(outcome, trace)))
    return 0


def report(outcome: Outcome, trace: bool) -> dict:
    """Prints the readable lines and returns the result object."""
    verifier = outcome.verifier
    failed = len(verifier.failures)
    for failure in verifier.failures:
        print(f"failed run: {failure}")
    for name, values in outcome.samples.items():
        print(f"samples {name} n={len(values)}: " + " ".join(f"{v:.4g}" for v in values))
    print(f"error_rate {failed / verifier.attempted:g} ratio "
          f"({failed} of {verifier.attempted} runs failed)")
    metrics = {}
    for spec in declared_metrics(trace):
        value = outcome.metrics.get(spec["name"])
        if value is None:  # no repeat passed its check, so nothing was measured
            continue
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} {value:.6g} {spec['unit']}")
    return {
        "correct": failed == 0,
        "attempted": verifier.attempted,
        "failed": failed,
        "metrics": metrics,
    }
if __name__ == "__main__":
    sys.exit(main())
