"""Training loop, K-fold cross-validation, and the optimizer comparison.

The comparison experiment mirrors the evaluation protocol end to end:
chronological 80/20 train/test split per cycle, K-fold cross-validation on
the training portion (normalization re-fit per fold to avoid leakage),
then a final fit on the full training portion and metrics on the held-out
test rows.
"""

from __future__ import annotations

import csv
import ctypes
import os
import signal
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .data import (
    FEATURE_NAMES,
    DataSettings,
    DesignMatrix,
    NormalizationStats,
    apply_normalization,
    fit_normalization,
    prepare_cycle,
)
from .errors import (
    DataError,
    IngestionError,
    InputError,
    NumericError,
    SocBenchError,
    TrainingDivergedError,
)
from .network import (
    DEFAULT_HIDDEN,
    LayerSpec,
    NetworkParameters,
    _one_blas_thread,
    _share_blas_threads,
    backward,
    forward,
    init_network,
    loss_mae,
    loss_mse,
    mlp_specs,
    predict,
)
from .optimizers import Algorithm, Hyperparameters, OptimizerState, optimizer_step

TRAIN_FRACTION = 0.8  # leading share of each cycle's rows used for training
RESULT_COLUMNS = ["cycle", "optimizer", "mae", "mse", "rmse", "seconds", "seed"]
LOG_COLUMNS = ["epoch", "train_loss", "val_mae", "val_mse"]


class FoldMode(Enum):
    SHUFFLED = "shuffled"
    CONTIGUOUS = "contiguous"


Folds = list[tuple[np.ndarray, np.ndarray]]  # (train_idx, val_idx) per fold


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_mae: float  # nan when no validation rows
    val_mse: float


TrainingLog = list[EpochStats]  # one entry per completed epoch
RunOutcome = tuple[float, float, TrainingLog]  # (mae, mse, log) of one run


@dataclass
class ExperimentResult:
    cycle: str
    optimizer: Algorithm
    mae: float
    mse: float
    rmse: float
    seconds: float
    seed: int


@dataclass(frozen=True)
class RunRecord:
    """One training run as the process that ran it reports it: its pair and
    run, its scores and log (``RunOutcome``) and wall time; no training data."""

    cycle: str
    optimizer: Algorithm
    run: str  # fold{i} or final
    mae: float
    mse: float
    log: TrainingLog
    seconds: float


@dataclass
class ComparisonReport:
    results: list[ExperimentResult]
    failures: list[tuple[str, str]]  # (cycle name, reason)
    logs: dict[tuple[str, str, str], TrainingLog]  # (cycle, optimizer, run) -> log


def make_folds(
    n_rows: int, k: int = 4, seed: int = 0, mode: FoldMode = FoldMode.SHUFFLED
) -> Folds:
    """Partition row indices into k validation folds of near-equal size.

    Shuffled mode permutes indices with a seeded generator first;
    contiguous mode keeps time order.
    """
    if k < 2:
        raise InputError(f"need k >= 2 folds, got {k}")
    if n_rows < k:
        raise InputError(f"cannot split {n_rows} rows into {k} folds")
    indices = np.arange(n_rows)
    if mode is FoldMode.SHUFFLED:
        indices = np.random.default_rng(seed).permutation(n_rows)
    blocks = np.array_split(indices, k)
    return [
        (np.concatenate([b for j, b in enumerate(blocks) if j != fold]), val_idx)
        for fold, val_idx in enumerate(blocks)
    ]


def train(
    layer_specs: list[LayerSpec],
    train_dm: DesignMatrix,
    h: Hyperparameters,
    algorithm: Algorithm,
    val_dm: DesignMatrix | None = None,
) -> tuple[NetworkParameters, TrainingLog]:
    """Mini-batch training on already-normalized rows.

    Each epoch visits a fresh seeded shuffle of the rows in batches of
    h.batch_size (last batch may be short), one optimizer step per batch.
    Per-epoch stats are measured after the epoch: MSE over the full
    training set, MAE/MSE over the validation set when one is given. A
    non-finite batch loss or gradient is a TrainingDivergedError naming
    its epoch and batch; a non-finite training loss after an epoch is one
    naming the epoch. OpenBLAS is pinned to one thread while it trains
    (``_one_blas_thread``), so the bits do not depend on the caller's
    thread count or BLAS kernel.
    """
    if len(train_dm) == 0:
        raise InputError("training set is empty")
    params = init_network(layer_specs, h.seed)
    state = OptimizerState.initial(algorithm, params)
    shuffle_rng = np.random.default_rng([h.seed, 0x5F])

    x, y = train_dm.features, train_dm.targets
    n = len(train_dm)
    log: TrainingLog = []
    # overflow, and the NaN it leads to, IS the divergence signal: the loss
    # and gradient checks raise on it, so numpy is not asked to warn
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, h.epochs + 1):
            order = shuffle_rng.permutation(n)
            for start in range(0, n, h.batch_size):
                batch = order[start : start + h.batch_size]
                batch_no = start // h.batch_size
                predictions, cache = forward(params, x[batch])
                batch_loss = np.mean((predictions - y[batch]) ** 2)
                if not np.isfinite(batch_loss):
                    raise _diverged("loss", epoch, batch_no)
                grads = backward(params, cache, y[batch])
                try:
                    optimizer_step(params, grads, h, state)
                except NumericError as exc:  # the step's non-finite gradient
                    raise _diverged("gradient", epoch, batch_no) from exc

            train_preds = predict(params, x)
            train_loss = loss_mse(train_preds, y)
            if not np.isfinite(train_loss):
                raise _diverged("training loss", epoch)
            if val_dm is not None:
                val_preds = predict(params, val_dm.features)
                val_mae = loss_mae(val_preds, val_dm.targets)
                val_mse = loss_mse(val_preds, val_dm.targets)
            else:
                val_mae = val_mse = float("nan")
            log.append(EpochStats(epoch, train_loss, val_mae, val_mse))

    return params, log


def _diverged(what: str, epoch: int, batch: int | None = None) -> TrainingDivergedError:
    """The divergence error for a non-finite ``what`` in a batch or after an epoch."""
    if batch is None:
        where = f"after epoch {epoch}"
    else:
        where = f"at epoch {epoch}, batch {batch}"
    return TrainingDivergedError(f"training diverged: non-finite {what} {where}")


def run_fold(
    layer_specs: list[LayerSpec],
    raw_dm: DesignMatrix,
    h: Hyperparameters,
    algorithm: Algorithm,
    folds: Folds,
    fold: int,
) -> RunOutcome:
    """One fold of cross-validation: a fresh model, seeded ``h.seed + fold``,
    trained on the fold's rows and scored on its validation rows.

    Normalization is fit on the fold's training partition only, so no
    validation row influences the statistics it is scored under. Returns
    (validation MAE, validation MSE, training log); the scores are those of
    the log's last epoch, measured on the final parameters.
    """
    train_idx, val_idx = folds[fold]
    if max(train_idx.max(initial=-1), val_idx.max(initial=-1)) >= len(raw_dm):
        raise InputError(f"fold {fold} indexes beyond the {len(raw_dm)} rows")
    train_part = raw_dm.subset(train_idx)
    stats = fit_normalization(train_part)
    _, log = train(
        layer_specs,
        apply_normalization(train_part, stats),
        replace(h, seed=h.seed + fold),
        algorithm,
        val_dm=apply_normalization(raw_dm.subset(val_idx), stats),
    )
    last = log[-1]
    return last.val_mae, last.val_mse, log


def cross_validate(
    layer_specs: list[LayerSpec],
    raw_dm: DesignMatrix,
    h: Hyperparameters,
    algorithm: Algorithm,
    folds: Folds,
) -> list[RunOutcome]:
    """One fresh model per fold on unnormalized rows (see ``run_fold``)."""
    return [
        run_fold(layer_specs, raw_dm, h, algorithm, folds, fold)
        for fold in range(len(folds))
    ]


def chronological_split(dm: DesignMatrix):
    """First TRAIN_FRACTION of rows for training, the rest held out."""
    n_train = int(round(len(dm) * TRAIN_FRACTION))
    n_train = min(max(n_train, 1), len(dm) - 1)
    return dm.subset(np.arange(n_train)), dm.subset(np.arange(n_train, len(dm)))


def score(
    params: NetworkParameters,
    stats: NormalizationStats,
    raw_dm: DesignMatrix,
    *,
    like_forward: bool = False,
) -> tuple[np.ndarray, float, float]:
    """Predictions for ``raw_dm``'s rows, normalized with ``stats``, and
    their MAE and MSE.

    The predictions come from ``predict``, one scoring thread per OpenBLAS
    thread, blocked end to end unless ``like_forward`` (see there).

    Finite features can still overflow float64 on the way (huge currents):
    ``apply_normalization`` rejects a non-finite normalized feature, and a
    non-finite prediction or score is a DataError here.
    """
    dm = apply_normalization(raw_dm, stats)
    with np.errstate(over="ignore", invalid="ignore"):
        predictions = predict(params, dm.features, like_forward=like_forward)
        mae = loss_mae(predictions, dm.targets)
        mse = loss_mse(predictions, dm.targets)
    if np.isfinite(predictions).all() and np.isfinite([mae, mse]).all():
        return predictions, mae, mse
    raise DataError("non-finite predictions or scores (currents too large?)")


def _final_fit(
    layer_specs: list[LayerSpec],
    train_raw: DesignMatrix,
    test_raw: DesignMatrix,
    h: Hyperparameters,
    algorithm: Algorithm,
) -> RunOutcome:
    """Fit on the whole training portion and score the held-out test rows."""
    stats = fit_normalization(train_raw)
    params, log = train(
        layer_specs, apply_normalization(train_raw, stats), h, algorithm
    )
    _, mae, mse = score(params, stats, test_raw)
    return mae, mse, log


def _run_pairs(
    cycles: list[tuple[str, DesignMatrix]],
    pairs: list[tuple[Algorithm, Hyperparameters]],
    layer_specs: list[LayerSpec], k: int, fold_mode: FoldMode, jobs: int,
) -> tuple[list[ExperimentResult], dict[tuple[str, str, str], TrainingLog]]:
    """Every training run of every (cycle, optimizer) pair in ``jobs``
    processes: per pair, runs ``fold0`` ... ``fold{k-1}``, then ``final``.
    From the runs' records alone, returns each pair's result in task order
    (the final fit's test scores, seconds summed over its runs) and each
    run's log by (cycle, optimizer, run). A fold builds its subsets as it
    starts. A pair whose rows cannot be split into ``k`` folds is an
    InputError named ``cycle/optimizer``, raised before any run starts.
    """
    runs = []
    for name, raw_dm in cycles:
        train_raw, test_raw = chronological_split(raw_dm)
        for algorithm, h in pairs:
            with _named(name, algorithm.value):
                folds = make_folds(len(train_raw), k=k, seed=h.seed, mode=fold_mode)
            for fold in range(k):
                runs.append(partial(_timed, name, algorithm, f"fold{fold}", run_fold,
                                    layer_specs, train_raw, h, algorithm, folds, fold))
            runs.append(partial(_timed, name, algorithm, "final", _final_fit,
                                layer_specs, train_raw, test_raw, h, algorithm))
    records = _run_all(runs, jobs)

    results = []
    for i, (_, h) in enumerate(pairs * len(cycles)):
        *_, final = pair = records[i * (k + 1) : (i + 1) * (k + 1)]
        results.append(ExperimentResult(
            final.cycle, final.optimizer, final.mae, final.mse,
            float(np.sqrt(final.mse)), sum(r.seconds for r in pair), h.seed,
        ))
    return results, {(r.cycle, r.optimizer.value, r.run): r.log for r in records}


def run_single_experiment(
    cycle_name: str,
    raw_dm: DesignMatrix,
    layer_specs: list[LayerSpec],
    h: Hyperparameters,
    algorithm: Algorithm,
    k: int = 4,
    fold_mode: FoldMode = FoldMode.SHUFFLED,
) -> tuple[ExperimentResult, dict[str, TrainingLog]]:
    """The full protocol for one (cycle, optimizer) pair, run serially."""
    (result,), logs = _run_pairs(
        [(cycle_name, raw_dm)], [(algorithm, h)], layer_specs, k, fold_mode, jobs=1
    )
    return result, {run: log for (_, _, run), log in logs.items()}


@contextmanager
def _named(*parts: str):
    """Prefix a SocBenchError raised in the block with a run's
    ``cycle/optimizer/run`` or a pair's ``cycle/optimizer``."""
    try:
        yield
    except SocBenchError as exc:
        exc.args = (f"{'/'.join(parts)}: {exc}",)
        raise


def _timed(cycle: str, optimizer: Algorithm, run: str,
           work: Callable[..., RunOutcome], *args) -> RunRecord:
    """The record of ``work(*args)``; an error it raises is named after the
    run in the process that ran it."""
    started = time.perf_counter()
    with _named(cycle, optimizer.value, run):
        mae, mse, log = work(*args)
    seconds = time.perf_counter() - started
    return RunRecord(cycle, optimizer, run, mae, mse, log, seconds)


_worker_runs: list[partial] = []  # in a pool worker: the runs it inherited


def _adopt_runs(runs: list[partial], workers: int) -> None:
    """Pool worker initializer: die with the thread that forked this worker,
    keep the runs the fork handed over, and score on one in ``workers`` of
    the parent's OpenBLAS threads, so scoring threads do not outnumber them.

    The forking thread is ``_run_all``'s, which outlives the pool unless its
    process is killed; then the kernel sends this worker SIGKILL
    (``prctl(PR_SET_PDEATHSIG)``, skipped where libc has no ``prctl``). A
    parent killed before the call has already left this worker to another
    process, and the worker exits at once.
    """
    from multiprocessing import parent_process  # loaded: this is a pool worker

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG in <linux/prctl.h>
    if os.getppid() != parent_process().pid:
        os._exit(1)
    _worker_runs[:] = runs
    _share_blas_threads(workers)


def _run_adopted(index: int) -> RunRecord:
    return _worker_runs[index]()


def _run_all(runs: list[partial], jobs: int) -> list[RunRecord]:
    """The record of every run, a ``partial(_timed, cycle, optimizer, run,
    work, ...)``, in task order, from ``jobs`` forked worker processes or,
    when ``jobs`` is 1, from this one.

    Each worker inherits the runs and their data from the fork: only a task
    index goes to it, and only a ``RunRecord`` or an error comes back.
    ``forkserver`` would instead re-import socbench and numpy in every
    worker, pickle every run with its data, and miss what this process
    patched (as tests do). The workers fork before the pool starts its
    thread, OpenBLAS's at-fork handler stops its threads, and ``predict``
    joins its own before it returns; a library caller's other threads take
    the usual ``fork`` risk.

    Records are read in task order, so the error raised is the earliest
    failing run's, as in a serial loop. Whatever leaves the loop (a run's
    error, a MemoryError, a bug, Ctrl-C) ends every worker at once, and only
    the pool's own thread cancels the queued runs, in ``shutdown``: it would
    fail a run cancelled from this thread as it finds the workers ended, and
    print an InvalidStateError traceback. A worker that dies is a
    SocBenchError naming the awaited run. Workers fork with SIGINT blocked,
    so a Ctrl-C is this process's alone, and die with it (``_adopt_runs``):
    none outlives the call.
    """
    if jobs == 1:
        return [run() for run in runs]
    # imported here: a serial run does not pay for the process pool
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    workers = min(jobs, len(runs))
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_adopt_runs, initargs=(runs, workers))
    records = []
    try:
        unblocked = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:  # the first submit forks every worker
            futures = [pool.submit(_run_adopted, i) for i in range(len(runs))]
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, unblocked)
        for future in futures:
            records.append(future.result())
    except BrokenProcessPool as exc:
        cycle, optimizer, run = runs[len(records)].args[:3]
        with _named(cycle, optimizer.value, run):
            raise SocBenchError("worker process ended unexpectedly") from exc
    except BaseException:  # the one rule: whatever ends the loop ends every worker
        for worker in list(pool._processes.values()):
            worker.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
    return records


def run_comparison(
    cycle_paths: list[str | Path],
    optimizers: list[Algorithm],
    h: Hyperparameters,
    k: int = 4,
    learning_rates: dict[Algorithm, float] | None = None,
    layer_specs: list[LayerSpec] | None = None,
    fold_mode: FoldMode = FoldMode.SHUFFLED,
    data: DataSettings = DataSettings(),
    jobs: int = 1,
) -> ComparisonReport:
    """Evaluate every optimizer on every cycle.

    A cycle is named by its file's stem; two paths with one stem are an
    InputError before any ingestion. A cycle that fails ingestion is
    skipped and recorded in the report; when every cycle fails, that is an
    IngestionError naming each one and its reason. Each training run (a
    fold or a final fit) reports a ``RunRecord``; with ``jobs > 1`` the runs
    go to forked worker processes, which any exception, Ctrl-C's
    KeyboardInterrupt included, ends before it leaves this call (see
    ``_run_all``), each scoring on its share of this process's OpenBLAS
    threads. A run's products run on one OpenBLAS thread in the process that
    runs it, so results come back sorted by (cycle, optimizer) regardless of
    scheduling, and are bit-identical for a fixed seed and any ``jobs``.
    """
    if not cycle_paths:
        raise InputError("need at least one cycle")
    if not optimizers:
        raise InputError("need at least one optimizer")
    if jobs < 1:
        raise InputError(f"need jobs >= 1, got {jobs}")
    if layer_specs is None:
        layer_specs = mlp_specs(len(FEATURE_NAMES), DEFAULT_HIDDEN)
    # every rate is checked here and every data setting was checked when
    # ``data`` was built, both before any ingestion, so that a bad one is an
    # error, not a reason to skip every cycle
    rated = {alg: replace(h, eta=eta) for alg, eta in (learning_rates or {}).items()}
    names = [Path(path).stem for path in cycle_paths]
    for name in names:
        if names.count(name) > 1:
            same = ", ".join(str(p) for p, n in zip(cycle_paths, names) if n == name)
            raise InputError(f"data files share the cycle name {name!r}: {same}")

    cycles: list[tuple[str, DesignMatrix]] = []
    failures: list[tuple[str, str]] = []
    for name, path in zip(names, cycle_paths):
        try:
            cycles.append((name, prepare_cycle(path, data)))
        except SocBenchError as exc:
            failures.append((name, str(exc)))
    if not cycles:
        reasons = "; ".join(f"{name}: {reason}" for name, reason in failures)
        raise IngestionError(f"no cycle could be ingested: {reasons}")

    pairs = [(algorithm, rated.get(algorithm, h)) for algorithm in optimizers]
    results, logs = _run_pairs(cycles, pairs, layer_specs, k, fold_mode, jobs)
    results.sort(key=lambda r: (r.cycle, r.optimizer.value))
    return ComparisonReport(results=results, failures=failures, logs=logs)


# --- output formats --------------------------------------------------------


def write_results_csv(
    results: list[ExperimentResult], path: str | Path, omit_timing: bool = False
) -> None:
    """``cycle,optimizer,mae,mse,rmse,seconds,seed``, full float precision.

    ``omit_timing`` zeroes the wall-time column so that re-runs with the
    same seed produce byte-identical files.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for r in results:
            seconds = 0.0 if omit_timing else r.seconds
            writer.writerow(
                [
                    r.cycle,
                    r.optimizer.value,
                    repr(r.mae),
                    repr(r.mse),
                    repr(r.rmse),
                    f"{seconds:.3f}",
                    r.seed,
                ]
            )


def write_training_log_csv(log: TrainingLog, path: str | Path) -> None:
    """``epoch,train_loss,val_mae,val_mse`` per completed epoch."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOG_COLUMNS)
        for e in log:
            writer.writerow(
                [e.epoch, repr(e.train_loss), repr(e.val_mae), repr(e.val_mse)]
            )


def format_results_table(report: ComparisonReport) -> str:
    """Fixed-layout text table: one row per cycle, MAE/MSE per optimizer."""
    optimizers = sorted({r.optimizer for r in report.results}, key=lambda a: a.value)
    cycles = sorted({r.cycle for r in report.results})
    by_key = {(r.cycle, r.optimizer): r for r in report.results}

    name_width = max([len("Drive Cycle")] + [len(c) for c in cycles])
    col_width = 12
    header_cells = [f"{'Drive Cycle':<{name_width}}"]
    for alg in optimizers:
        header_cells.append(f"{alg.value + ' MAE':>{col_width}}")
        header_cells.append(f"{alg.value + ' MSE':>{col_width}}")
    lines = ["  ".join(header_cells)]
    lines.append("-" * len(lines[0]))
    for cycle in cycles:
        cells = [f"{cycle:<{name_width}}"]
        for alg in optimizers:
            r = by_key.get((cycle, alg))
            if r is None:
                cells.extend([f"{'-':>{col_width}}"] * 2)
            else:
                cells.append(f"{r.mae:>{col_width}.4f}")
                cells.append(f"{r.mse:>{col_width}.4f}")
        lines.append("  ".join(cells))
    for name, reason in report.failures:
        lines.append(f"[skipped] {name}: {reason}")
    return "\n".join(lines) + "\n"
