"""Folds, training loop, cross-validation, and the comparison experiment."""

import inspect
import io
import multiprocessing
import os
import pickle
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import OTHER_KERNELS, run_on_kernel
from socbench import (
    Algorithm,
    DataError,
    FoldMode,
    Hyperparameters,
    IngestionError,
    InputError,
    Profile,
    SyntheticCellParams,
    TrainingDivergedError,
    coulomb_count,
    build_design_matrix,
    generate_cycle,
    make_folds,
    mlp_specs,
    run_comparison,
    train,
    write_cycle_csv,
)
from socbench import errors as error_module, harness
from socbench.data import DesignMatrix, apply_normalization, fit_normalization
from socbench.harness import (
    chronological_split,
    cross_validate,
    format_results_table,
    write_results_csv,
    write_training_log_csv,
)
from socbench.network import (
    DEFAULT_HIDDEN,
    _one_blas_thread,
    _openblas_thread_api,
    forward,
    loss_mae,
    loss_mse,
)


def linear_design(n=400, seed=0, noise=0.0):
    """Rows whose target is an exact linear function of the features."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 4))
    coef = np.array([3.0, -2.0, 1.0, 0.5])
    targets = features @ coef + 7.0
    if noise:
        targets = targets + rng.normal(scale=noise, size=n)
    return DesignMatrix(features, targets)


def log_values(log):
    """A training log's entries; repr compares floats exactly and NaN (no
    validation rows) as equal."""
    return [(e.epoch, repr(e.train_loss), repr(e.val_mae), repr(e.val_mse))
            for e in log]


def assert_survives_pickling(error):
    """As a process pool would hand it back: type, message and fields."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert (str(copy), vars(copy)) == (str(error), vars(error))


ERROR_CLASSES = [cls for _, cls in inspect.getmembers(error_module, inspect.isclass)
                 if issubclass(cls, error_module.SocBenchError)]


class TestMakeFolds:
    def test_balanced_sizes_example(self):
        split = make_folds(10, k=4, seed=1)
        sizes = sorted(len(v) for _, v in split)
        assert sizes == [2, 2, 3, 3]

    def test_contiguous_blocks(self):
        split = make_folds(8, k=4, seed=0, mode=FoldMode.CONTIGUOUS)
        vals = [v.tolist() for _, v in split]
        assert vals == [[0, 1], [2, 3], [4, 5], [6, 7]]

    @pytest.mark.parametrize("n,k", [(10, 4), (8, 4), (101, 7), (9999, 10), (5, 5)])
    @pytest.mark.parametrize("mode", list(FoldMode))
    def test_partition_properties(self, n, k, mode):
        split = make_folds(n, k=k, seed=3, mode=mode)
        all_val = np.concatenate([v for _, v in split])
        assert len(all_val) == n
        assert len(np.unique(all_val)) == n
        sizes = [len(v) for _, v in split]
        assert max(sizes) - min(sizes) <= 1
        for train_idx, val_idx in split:
            assert len(np.intersect1d(train_idx, val_idx)) == 0
            assert len(train_idx) + len(val_idx) == n

    def test_shuffled_uses_seed(self):
        a = make_folds(50, k=4, seed=1)
        b = make_folds(50, k=4, seed=1)
        c = make_folds(50, k=4, seed=2)
        for (_, va), (_, vb) in zip(a, b):
            np.testing.assert_array_equal(va, vb)
        assert any(
            not np.array_equal(va, vc)
            for (_, va), (_, vc) in zip(a, c)
        )

    def test_k_exceeding_rows_rejected(self):
        with pytest.raises(InputError):
            make_folds(3, k=4, seed=0)
        with pytest.raises(InputError):
            make_folds(10, k=1, seed=0)


class TestTrain:
    def test_linear_model_reaches_least_squares_fit(self):
        # a no-hidden-layer network on exactly-linear data; the normal
        # equations give the optimum this training must approach
        dm = linear_design()
        stats = fit_normalization(dm)
        normalized = apply_normalization(dm, stats)
        x1 = np.column_stack([normalized.features, np.ones(len(normalized))])
        coef, *_ = np.linalg.lstsq(x1, normalized.targets, rcond=None)
        oracle_mse = float(np.mean((x1 @ coef - normalized.targets) ** 2))
        assert oracle_mse < 1e-20

        specs = mlp_specs(4, [])  # linear model
        h = Hyperparameters(eta=0.05, batch_size=32, epochs=200, seed=1)
        params, log = train(specs, normalized, h, Algorithm.ADAM)
        assert log[-1].train_loss < 1e-3

    def test_zero_learning_rate_is_noop(self):
        dm = linear_design(n=64)
        normalized = apply_normalization(dm, fit_normalization(dm))
        specs = mlp_specs(4, [8])
        h = Hyperparameters(eta=0.0, batch_size=16, epochs=3, seed=5)
        from socbench.network import init_network

        fresh = init_network(specs, h.seed)
        params, log = train(specs, normalized, h, Algorithm.SGD)
        np.testing.assert_array_equal(params.flat, fresh.flat)
        losses = [e.train_loss for e in log]
        assert losses[0] == losses[1] == losses[2]

    def test_same_seed_bitwise_identical_log(self):
        dm = linear_design(n=128, noise=0.1)
        normalized = apply_normalization(dm, fit_normalization(dm))
        specs = mlp_specs(4, [8, 8])
        h = Hyperparameters(eta=0.01, batch_size=16, epochs=4, seed=9)
        _, log_a = train(specs, normalized, h, Algorithm.ADAMAX)
        _, log_b = train(specs, normalized, h, Algorithm.ADAMAX)
        for ea, eb in zip(log_a, log_b):
            # val fields are NaN here (no validation set), so compare bitwise
            assert ea.epoch == eb.epoch
            assert ea.train_loss == eb.train_loss
            np.testing.assert_array_equal(
                [ea.val_mae, ea.val_mse], [eb.val_mae, eb.val_mse]
            )

    def test_one_entry_per_epoch_and_val_metrics(self):
        dm = linear_design(n=100, noise=0.1)
        normalized = apply_normalization(dm, fit_normalization(dm))
        val = apply_normalization(linear_design(n=40, seed=4), fit_normalization(dm))
        h = Hyperparameters(eta=0.01, batch_size=32, epochs=6, seed=2)
        _, log = train(mlp_specs(4, [8]), normalized, h, Algorithm.ADAM, val_dm=val)
        assert [e.epoch for e in log] == [1, 2, 3, 4, 5, 6]
        assert all(np.isfinite(e.val_mae) for e in log)

    def test_nan_validation_targets_give_nan_scores(self):
        dm = linear_design(n=64, noise=0.1)
        normalized = apply_normalization(dm, fit_normalization(dm))
        val = normalized.subset(np.arange(8))
        val.targets[:] = np.nan
        h = Hyperparameters(eta=0.01, batch_size=16, epochs=4, seed=3)
        _, log = train(mlp_specs(4, [8]), normalized, h, Algorithm.ADAM, val_dm=val)
        assert all(np.isnan(e.val_mae) for e in log)

    def test_divergence_raises_with_context(self):
        dm = linear_design(n=64)
        # raw targets around +/- 7 with a huge learning rate: SGD blows up
        specs = mlp_specs(4, [16, 16])
        h = Hyperparameters(eta=1e6, batch_size=8, epochs=5, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(specs, dm, h, Algorithm.SGD)

    @pytest.mark.parametrize("raised_by", ["train", "run_comparison"])
    def test_divergence_error_survives_pickling(self, raised_by, small_cycle_files):
        h = Hyperparameters(eta=1e6, batch_size=8, epochs=5, seed=0)
        with pytest.raises(TrainingDivergedError) as info:
            if raised_by == "train":
                train(mlp_specs(4, [16, 16]), linear_design(n=64), h, Algorithm.SGD)
            else:
                run_comparison(small_cycle_files, [Algorithm.SGD], h, k=2,
                               layer_specs=mlp_specs(4, [8]))
        error = info.value
        prefix = "mix_a/sgd/fold0: " if raised_by == "run_comparison" else ""
        assert str(error).startswith(prefix + "training diverged: ")
        assert_survives_pickling(error)

    def test_empty_training_set_rejected(self):
        dm = DesignMatrix(np.empty((0, 4)), np.empty(0))
        with pytest.raises(InputError, match="^training set is empty$"):
            train(mlp_specs(4, []), dm, Hyperparameters(eta=0.01), Algorithm.SGD)


class TestCrossValidate:
    def test_k_models_k_scores_mean(self):
        dm = linear_design(n=200, noise=0.5)
        folds = make_folds(len(dm), k=4, seed=7)
        h = Hyperparameters(eta=0.05, batch_size=32, epochs=30, seed=7)
        runs = cross_validate(mlp_specs(4, []), dm, h, Algorithm.ADAM, folds)
        assert len(runs) == 4
        assert [len(log) for _, _, log in runs] == [30] * 4

    def test_fold_scores_are_the_last_epoch_and_a_fresh_forward(self):
        dm = linear_design(n=120, noise=0.3)
        folds = make_folds(len(dm), k=3, seed=2)
        h = Hyperparameters(eta=0.01, batch_size=16, epochs=2, seed=4)
        specs = mlp_specs(4, [8])
        for fold, (train_idx, val_idx) in enumerate(folds):
            mae, mse, log = harness.run_fold(specs, dm, h, Algorithm.ADAM, folds, fold)
            assert (mae, mse) == (log[-1].val_mae, log[-1].val_mse)
            # the same run, repeated, then scored with an explicit forward
            stats = fit_normalization(dm.subset(train_idx))
            params, _ = train(
                specs,
                apply_normalization(dm.subset(train_idx), stats),
                replace(h, seed=h.seed + fold),
                Algorithm.ADAM,
            )
            val = apply_normalization(dm.subset(val_idx), stats)
            preds, _ = forward(params, val.features)
            assert mae == loss_mae(preds, val.targets)
            assert mse == loss_mse(preds, val.targets)

    def test_constant_target_learned_via_bias(self):
        rng = np.random.default_rng(15)
        dm = DesignMatrix(rng.normal(size=(120, 4)), np.full(120, 42.0))
        folds = make_folds(len(dm), k=3, seed=1)
        h = Hyperparameters(eta=0.2, batch_size=8, epochs=200, seed=1)
        runs = cross_validate(mlp_specs(4, []), dm, h, Algorithm.ADAM, folds)
        assert np.mean([mae for mae, _, _ in runs]) < 0.05

    def test_degenerate_feature_propagates_data_error(self):
        rng = np.random.default_rng(16)
        features = rng.normal(size=(40, 4))
        features[:, 0] = 1.0
        dm = DesignMatrix(features, rng.uniform(size=40))
        folds = make_folds(40, k=4, seed=0)
        with pytest.raises(DataError):
            cross_validate(
                mlp_specs(4, []), dm, Hyperparameters(eta=0.01), Algorithm.SGD, folds
            )

    def test_fold_beyond_the_rows_rejected_by_name(self):
        dm = linear_design(n=64)
        for extra in (5, 1):  # at 1, the largest index equals the row count
            folds = make_folds(len(dm) + extra, k=2, seed=0)
            with pytest.raises(InputError,
                               match=r"^fold 0 indexes beyond the 64 rows$"):
                cross_validate(mlp_specs(4, []), dm, Hyperparameters(eta=0.01),
                               Algorithm.SGD, folds)


class TestChronologicalSplit:
    def test_80_20(self):
        dm = linear_design(n=100)
        train_part, test_part = chronological_split(dm)
        assert len(train_part) == 80 and len(test_part) == 20
        np.testing.assert_array_equal(train_part.features, dm.features[:80])
        np.testing.assert_array_equal(test_part.targets, dm.targets[80:])


@pytest.fixture(scope="module")
def small_cycle_files(tmp_path_factory):
    """Two short synthetic cycles on disk for comparison runs."""
    root = tmp_path_factory.mktemp("cycles")
    params = SyntheticCellParams(sample_period_s=1.0)
    paths = []
    for seed, name in ((5, "mix_a"), (6, "mix_b")):
        cycle = generate_cycle(params, Profile.RANDOM_MIX, duration_s=499.0,
                               seed=seed, soc0_percent=90.0)
        path = root / f"{name}.csv"
        write_cycle_csv(cycle.records, path)
        paths.append(path)
    return paths


SMALL_NET = [16, 16]


def small_h(seed=0):
    return Hyperparameters(eta=None, batch_size=32, epochs=3, seed=seed)


class TestRunComparison:
    def test_cartesian_product_and_invariants(self, small_cycle_files):
        report = run_comparison(
            small_cycle_files,
            [Algorithm.SGD, Algorithm.ADAMAX],
            small_h(),
            k=2,
            learning_rates={Algorithm.SGD: 0.001, Algorithm.ADAMAX: 0.05},
            layer_specs=mlp_specs(4, SMALL_NET),
        )
        assert len(report.results) == 4  # 2 cycles x 2 optimizers
        assert report.failures == []
        for r in report.results:
            assert r.mae <= r.rmse + 1e-12
            assert r.mse >= 0 and r.seconds >= 0
        names = [(r.cycle, r.optimizer.value) for r in report.results]
        assert names == sorted(names)
        # logs: per pair, k fold logs plus the final log
        assert len(report.logs) == 4 * 3

    def test_failed_cycle_recorded_not_fatal(self, small_cycle_files, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,voltage_v,current_a,temperature_c\n0.0,9.9,1.0,25\n",
                       encoding="utf-8")
        report = run_comparison(
            [small_cycle_files[0], bad],
            [Algorithm.ADAMAX],
            small_h(),
            k=2,
            learning_rates={Algorithm.ADAMAX: 0.05},
            layer_specs=mlp_specs(4, SMALL_NET),
        )
        assert len(report.results) == 1
        assert len(report.failures) == 1
        assert report.failures[0][0] == "bad"

    def test_no_ingested_cycle_is_an_ingestion_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,voltage_v,current_a,temperature_c\n0.0,9.9,1.0,25\n",
                       encoding="utf-8")
        with pytest.raises(IngestionError) as info:
            run_comparison([bad, tmp_path / "gone.csv"], [Algorithm.SGD], small_h())
        assert re.fullmatch(
            r"no cycle could be ingested: bad: .*rejected rows: line 2: .*; "
            r"gone: data file not found: .*gone\.csv",
            str(info.value),
        )

    def test_final_fit_error_names_its_run_and_survives_pickling(self, tmp_path):
        # a held-out row whose current overflows the final fit's scores
        cycle = generate_cycle(SyntheticCellParams(sample_period_s=1.0),
                               Profile.RANDOM_MIX, 599.0, seed=3)
        cycle.records.current_a[560] = 1e308
        path = tmp_path / "huge.csv"
        write_cycle_csv(cycle.records, path)
        with pytest.raises(DataError) as info:
            run_comparison([path], [Algorithm.SGD], replace(small_h(), epochs=1),
                           k=2, layer_specs=mlp_specs(4, [2]))
        assert str(info.value) == (
            "huge/sgd/final: non-finite predictions or scores (currents too large?)"
        )
        assert_survives_pickling(info.value)

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_run_error_survives_pickling_with_its_run_name(self, cls, jobs):
        def fail():
            raise cls("failed")

        with pytest.raises(cls) as info:
            harness._run_all([("mix", Algorithm.SGD, "fold1", fail)], jobs)
        assert str(info.value) == "mix/sgd/fold1: failed"
        assert_survives_pickling(info.value)

    def test_worker_records_carry_no_training_data(self, small_cycle_files,
                                                   monkeypatch):
        """A --jobs 2 worker sends back one RunRecord per run: its names,
        scores, log and seconds. Pickling a record meets no array, design
        matrix or function (a class is pickled by its name)."""
        real_run_all = harness._run_all
        returned = []

        def run_all_and_keep(runs, jobs):
            records = real_run_all(runs, jobs)
            returned.extend(records)
            return records

        class TrainingDataFinder(pickle.Pickler):
            def persistent_id(self, obj):
                assert not isinstance(obj, (np.ndarray, DesignMatrix)), obj
                assert isinstance(obj, type) or not callable(obj), obj
                return None  # pickle it as usual

        monkeypatch.setattr(harness, "_run_all", run_all_and_keep)
        run_comparison(small_cycle_files, [Algorithm.SGD], small_h(), k=2,
                       learning_rates={Algorithm.SGD: 0.001},
                       layer_specs=mlp_specs(4, SMALL_NET), jobs=2)
        assert [(r.cycle, r.optimizer, r.run) for r in returned] == [
            (cycle, Algorithm.SGD, run)
            for cycle in ("mix_a", "mix_b") for run in ("fold0", "fold1", "final")
        ]
        for record in returned:
            assert type(record) is harness.RunRecord
            assert len(record.log) == small_h().epochs
            TrainingDataFinder(io.BytesIO()).dump(record)
        for data in (np.zeros(1), linear_design(n=4), len):
            with pytest.raises(AssertionError):
                TrainingDataFinder(io.BytesIO()).dump(replace(record, log=[data]))

    def test_single_experiment_is_a_pair_of_the_comparison(self, small_cycle_files):
        h = small_h(2)
        specs = mlp_specs(4, SMALL_NET)
        report = run_comparison([small_cycle_files[0]], [Algorithm.ADAMAX], h, k=2,
                                learning_rates={Algorithm.ADAMAX: 0.05},
                                layer_specs=specs)
        raw_dm = harness.prepare_cycle(small_cycle_files[0])
        result, logs = harness.run_single_experiment(
            "mix_a", raw_dm, specs, replace(h, eta=0.05), Algorithm.ADAMAX, k=2
        )
        (expected,) = report.results
        assert replace(result, seconds=0.0) == replace(expected, seconds=0.0)
        assert list(logs) == ["fold0", "fold1", "final"]
        assert {("mix_a", "adamax", run): log_values(log)
                for run, log in logs.items()} == {
            key: log_values(log) for key, log in report.logs.items()
        }

    def test_deterministic_repeat(self, small_cycle_files):
        kwargs = dict(
            optimizers=[Algorithm.ADAMAX],
            h=small_h(3),
            k=2,
            learning_rates={Algorithm.ADAMAX: 0.05},
            layer_specs=mlp_specs(4, SMALL_NET),
        )
        a = run_comparison([small_cycle_files[0]], **kwargs)
        b = run_comparison([small_cycle_files[0]], **kwargs)
        assert a.results[0].mae == b.results[0].mae
        assert a.results[0].mse == b.results[0].mse

    def test_jobs_do_not_change_results(self, small_cycle_files):
        kwargs = dict(
            optimizers=[Algorithm.SGD, Algorithm.ADAMAX],
            h=small_h(1),
            k=2,
            learning_rates={Algorithm.SGD: 0.001, Algorithm.ADAMAX: 0.05},
            layer_specs=mlp_specs(4, SMALL_NET),
        )

        def values(report):
            results = [replace(r, seconds=0.0) for r in report.results]
            logs = {key: log_values(log) for key, log in report.logs.items()}
            return results, logs

        serial = values(run_comparison(small_cycle_files, jobs=1, **kwargs))
        assert len(serial[0]) == 4 and len(serial[1]) == 4 * 3
        for jobs in (2, 3):
            assert values(run_comparison(small_cycle_files, jobs=jobs, **kwargs)) == serial

    def test_parallel_failure_is_earliest_in_task_order_and_cancels_the_rest(
        self, small_cycle_files, monkeypatch, calls
    ):
        # fold 1 (seed 1) of every pair fails at once while the runs before
        # it are still training, so the first failure in time is not the
        # first in task order; every run that starts, in any worker,
        # records its seed
        real_train = harness.train

        def train_or_fail(layer_specs, train_dm, h, algorithm, val_dm=None):
            calls.add(h.seed)
            if h.seed == 1:
                raise TrainingDivergedError("training diverged")
            time.sleep(0.2)
            return real_train(layer_specs, train_dm, h, algorithm, val_dm=val_dm)

        monkeypatch.setattr(harness, "train", train_or_fail)
        kwargs = dict(
            optimizers=[Algorithm.SGD, Algorithm.ADAMAX],
            h=small_h(0),
            k=2,
            learning_rates={Algorithm.SGD: 0.001, Algorithm.ADAMAX: 0.05},
            layer_specs=mlp_specs(4, SMALL_NET),
        )
        errors = []
        for jobs in (1, 2):
            calls.clear()
            with pytest.raises(TrainingDivergedError) as caught:
                run_comparison(small_cycle_files, jobs=jobs, **kwargs)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("mix_a/sgd/fold1: training diverged")
        # 2 cycles x 2 optimizers x (2 folds + final fit) runs were queued
        assert len(calls.values()) < 12

    def test_parallel_failure_ends_every_worker_at_once(self, small_cycle_files,
                                                         monkeypatch):
        """A run's error at jobs=2 leaves at once, as at jobs=1, though the
        other worker's run and the next queued one take 3 s each: whatever
        ends the comparison terminates every worker."""
        real_train = harness.train

        def fail_first_or_sleep(layer_specs, train_dm, h, algorithm, val_dm=None):
            if algorithm is Algorithm.SGD and h.seed == 0 and val_dm is not None:
                raise TrainingDivergedError("training diverged")  # sgd/fold0
            time.sleep(3)
            return real_train(layer_specs, train_dm, h, algorithm, val_dm=val_dm)

        monkeypatch.setattr(harness, "train", fail_first_or_sleep)
        errors = []
        for jobs in (1, 2):
            started = time.perf_counter()
            with pytest.raises(TrainingDivergedError) as caught:
                run_comparison([small_cycle_files[0]], [Algorithm.SGD, Algorithm.ADAMAX],
                               replace(small_h(), epochs=1), k=2,
                               layer_specs=mlp_specs(4, [8]), jobs=jobs)
            assert time.perf_counter() - started < 1.0
            assert multiprocessing.active_children() == []
            errors.append((str(caught.value), caught.value.exit_code))
        assert errors[0] == errors[1] == ("mix_a/sgd/fold0: training diverged", 3)

    def test_openblas_thread_api_is_looked_up_once(self):
        assert _openblas_thread_api() is _openblas_thread_api()
        assert _openblas_thread_api.cache_info().hits >= 1

    def test_blas_pinned_to_one_thread_for_any_jobs_and_restored(
        self, small_cycle_files, monkeypatch, blas_threads, calls, product_threads
    ):
        get_threads = blas_threads
        before = get_threads()
        real_train = harness.train

        def train_and_record(*args, **kwargs):
            calls.add(0)  # in whichever process runs it
            return real_train(*args, **kwargs)

        monkeypatch.setattr(harness, "train", train_and_record)
        kwargs = dict(
            optimizers=[Algorithm.SGD],
            h=small_h(),
            k=2,
            learning_rates={Algorithm.SGD: 0.001},
            layer_specs=mlp_specs(4, SMALL_NET),
        )
        for jobs in (1, 2):
            calls.clear()
            product_threads.clear()
            run_comparison(small_cycle_files, jobs=jobs, **kwargs)
            assert len(calls.values()) == 2 * 3
            assert set(product_threads.values()) == {1}
            assert get_threads() == before
            with pytest.raises(TrainingDivergedError):
                run_comparison(small_cycle_files, jobs=jobs,
                               **{**kwargs, "learning_rates": {Algorithm.SGD: 1e6}})
            assert get_threads() == before

    def test_every_scoring_pass_runs_on_one_blas_thread(
        self, small_cycle_files, monkeypatch, calls, product_threads
    ):
        real_predict = harness.predict

        def predict_and_record(*args, **kwargs):
            calls.add(0)  # in whichever process runs it
            return real_predict(*args, **kwargs)

        monkeypatch.setattr(harness, "predict", predict_and_record)
        kwargs = dict(
            optimizers=[Algorithm.ADAMAX],
            h=small_h(),
            k=2,
            learning_rates={Algorithm.ADAMAX: 0.05},
            layer_specs=mlp_specs(4, SMALL_NET),
        )
        for jobs in (1, 2):
            calls.clear()
            product_threads.clear()
            run_comparison(small_cycle_files, jobs=jobs, **kwargs)
            # per cycle: 2 folds x 3 epochs x (train + validation) passes,
            # then the final fit's 3 train passes and its test pass
            assert len(calls.values()) == 2 * (2 * 3 * 2 + 3 + 1)
            assert set(product_threads.values()) == {1}

    def test_pool_workers_score_without_threads(self, tmp_path, monkeypatch,
                                                set_blas_threads, calls):
        """A --jobs 2 worker of a process at two OpenBLAS threads scores on
        its share, one thread, so predict starts no thread there; --jobs 1
        scores on both."""
        cycle = generate_cycle(SyntheticCellParams(sample_period_s=1.0),
                               Profile.RANDOM_MIX, duration_s=2999.0, seed=7,
                               soc0_percent=90.0)
        path = tmp_path / "long.csv"
        write_cycle_csv(cycle.records, path)
        set_blas_threads(2)
        real_start = threading.Thread.start

        def start_and_record(thread):
            calls.add(0)  # in whichever process starts it
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_and_record)
        kwargs = dict(
            optimizers=[Algorithm.ADAMAX],
            h=replace(small_h(), epochs=1),
            k=2,
            learning_rates={Algorithm.ADAMAX: 0.05},
            layer_specs=mlp_specs(4, SMALL_NET),
        )
        run_comparison([path], jobs=1, **kwargs)
        # fold passes of 1,200 rows and final-fit passes of 2,400 rows
        assert {pid for pid, _ in calls.entries()} == {os.getpid()}
        calls.clear()
        run_comparison([path], jobs=2, **kwargs)
        assert [pid for pid, _ in calls.entries() if pid != os.getpid()] == []

    def test_pool_workers_train_on_their_share_of_blas_threads(
        self, small_cycle_files, monkeypatch, blas_threads, calls
    ):
        """The count train's pin replaces, on which its scoring runs: the
        process's two OpenBLAS threads at --jobs 1, one in each --jobs 2
        worker; the caller's count is left at two."""
        real_pin = harness._one_blas_thread

        @contextmanager
        def pin_and_record():
            with real_pin() as threads:
                calls.add(threads)  # in whichever process trains
                yield threads

        monkeypatch.setattr(harness, "_one_blas_thread", pin_and_record)
        for jobs, threads in ((1, 2), (2, 1)):
            calls.clear()
            run_comparison(small_cycle_files, [Algorithm.SGD], small_h(), k=2,
                           learning_rates={Algorithm.SGD: 0.001},
                           layer_specs=mlp_specs(4, SMALL_NET), jobs=jobs)
            entries = calls.entries()
            assert len(entries) == 2 * 3 and {v for _, v in entries} == {threads}
            in_caller = {pid == os.getpid() for pid, _ in entries}
            assert in_caller == {jobs == 1}
        assert blas_threads() == 2

    def test_requires_inputs(self):
        with pytest.raises(InputError):
            run_comparison([], [Algorithm.SGD], small_h())
        with pytest.raises(InputError):
            run_comparison(["x.csv"], [], small_h())
        for jobs in (0, -2):
            with pytest.raises(InputError, match="jobs"):
                run_comparison(["x.csv"], [Algorithm.SGD], small_h(), jobs=jobs)


PIN_BATCH_SIZES = [1, 37, 64, 100]


def check_training_under_the_pin(batch_size):
    """``train`` at the process's BLAS thread count gives the parameters
    it gives inside an outer one-thread pin."""
    dm = linear_design(n=300, noise=0.1)
    normalized = apply_normalization(dm, fit_normalization(dm))
    h = Hyperparameters(eta=0.01, batch_size=batch_size, epochs=1, seed=4)
    specs = mlp_specs(4, DEFAULT_HIDDEN)
    default, _ = train(specs, normalized, h, Algorithm.ADAMAX)
    with _one_blas_thread():
        pinned, _ = train(specs, normalized, h, Algorithm.ADAMAX)
    assert default.flat.tobytes() == pinned.flat.tobytes()


class TestOneBlasThread:
    def test_nested_pins_restore_once_outermost_leaves(self, blas_threads):
        with _one_blas_thread():
            with _one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_overlapping_pins_on_two_threads(self, blas_threads):
        # A enters, B enters, A leaves, B leaves: the pin holds until B
        # leaves, and the count A found is the one restored
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def holder_a():
            with _one_blas_thread():
                a_in.set()
                b_in.wait(10)
                seen["a"] = blas_threads()
            a_out.set()

        def holder_b():
            a_in.wait(10)
            with _one_blas_thread():
                b_in.set()
                a_out.wait(10)
                seen["b after a left"] = blas_threads()

        threads = [threading.Thread(target=f) for f in (holder_a, holder_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert seen == {"a": 1, "b after a left": 1}
        assert blas_threads() == 2

    @pytest.mark.parametrize("batch_size", PIN_BATCH_SIZES)
    def test_training_is_bit_identical_under_the_pin(self, blas_threads, batch_size):
        check_training_under_the_pin(batch_size)

    @pytest.mark.parametrize("kernel", OTHER_KERNELS)
    def test_training_under_the_pin_on_kernel(self, kernel):
        """The batch sizes above under ``OPENBLAS_CORETYPE=kernel``, at two
        threads outside the pin; on Haswell a GEMM split between OpenBLAS
        threads rounds differently from the same GEMM on one thread."""
        run_on_kernel(
            kernel,
            "import test_harness as t\n"
            "from socbench.network import _openblas_thread_api\n"
            "_, set_threads = _openblas_thread_api()\n"
            "set_threads(2)\n"
            "for batch_size in t.PIN_BATCH_SIZES:\n"
            "    t.check_training_under_the_pin(batch_size)\n",
        )

    def test_library_train_pins_itself_and_restores_the_count(
        self, monkeypatch, blas_threads, calls, product_threads
    ):
        real_predict = harness.predict

        def predict_and_record(*args, **kwargs):
            calls.add(blas_threads())
            return real_predict(*args, **kwargs)

        monkeypatch.setattr(harness, "predict", predict_and_record)
        dm = linear_design(n=64, noise=0.1)
        normalized = apply_normalization(dm, fit_normalization(dm))
        h = Hyperparameters(eta=0.01, batch_size=16, epochs=2, seed=1)
        specs = mlp_specs(4, [8])
        train(specs, normalized, h, Algorithm.SGD, val_dm=normalized)
        # 2 epochs x (4 batches x forward, backward and step, then a train
        # and a validation pass of one block each)
        assert product_threads.values() == [1] * (2 * (4 * 3 + 2))
        assert calls.values() == [1] * (2 * 2)
        assert blas_threads() == 2
        product_threads.clear()
        with pytest.raises(TrainingDivergedError):
            train(specs, normalized, replace(h, eta=1e6), Algorithm.SGD)
        assert set(product_threads.values()) == {1}
        assert blas_threads() == 2


class TestOutputs:
    def test_results_csv_schema_and_determinism(self, small_cycle_files, tmp_path):
        kwargs = dict(
            optimizers=[Algorithm.ADAMAX],
            h=small_h(2),
            k=2,
            learning_rates={Algorithm.ADAMAX: 0.05},
            layer_specs=mlp_specs(4, SMALL_NET),
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(
            run_comparison([small_cycle_files[0]], **kwargs).results, out_a,
            omit_timing=True,
        )
        write_results_csv(
            run_comparison([small_cycle_files[0]], **kwargs).results, out_b,
            omit_timing=True,
        )
        lines = out_a.read_text().splitlines()
        assert lines[0] == "cycle,optimizer,mae,mse,rmse,seconds,seed"
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_training_log_csv(self, tmp_path):
        dm = linear_design(n=64, noise=0.1)
        normalized = apply_normalization(dm, fit_normalization(dm))
        h = Hyperparameters(eta=0.01, batch_size=16, epochs=3, seed=2)
        _, log = train(mlp_specs(4, [8]), normalized, h, Algorithm.ADAM,
                       val_dm=normalized)
        path = tmp_path / "log.csv"
        write_training_log_csv(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_mae,val_mse"
        assert len(lines) == 1 + 3
        epoch1 = lines[1].split(",")
        assert float(epoch1[1]) == log[0].train_loss

    def test_table_layout(self, small_cycle_files):
        report = run_comparison(
            small_cycle_files,
            [Algorithm.SGD, Algorithm.ADAMAX],
            small_h(),
            k=2,
            learning_rates={Algorithm.SGD: 0.001, Algorithm.ADAMAX: 0.05},
            layer_specs=mlp_specs(4, SMALL_NET),
        )
        table = format_results_table(report)
        lines = table.splitlines()
        assert lines[0].startswith("Drive Cycle")
        assert "sgd MAE" in lines[0] and "adamax MSE" in lines[0]
        assert len(lines) == 2 + 2  # header, rule, one row per cycle
        assert lines[2].startswith("mix_a")
        assert lines[3].startswith("mix_b")
