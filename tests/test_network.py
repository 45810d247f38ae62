"""Network forward/backward tests, anchored by a finite-difference oracle."""

import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from socbench import (
    InputError,
    LayerSpec,
    NetworkParameters,
    backward,
    forward,
    init_network,
    load_model,
    loss_mae,
    loss_mse,
    mlp_specs,
    predict,
    save_model,
)
from socbench.data import NormalizationStats
from socbench.errors import ConfigError, ModelMismatchError
from socbench import network
from socbench.network import DEFAULT_HIDDEN, SCORE_ROWS

UNIT_STATS = NormalizationStats(means=np.zeros(4), stds=np.ones(4))


def tiny_net(weight, bias):
    """A single linear unit: the output layer alone."""
    params = init_network([LayerSpec(1, 1)], seed=0)
    params.weights[0][:] = weight
    params.biases[0][:] = bias
    return params


def finite_difference_gradients(params, batch, targets, step=1e-5):
    """Central differences of the batch MSE, one coordinate of
    ``params.flat`` at a time."""
    flat = params.flat
    grads = np.zeros_like(flat)
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + step
        up = loss_mse(forward(params, batch)[0], targets)
        flat[idx] = original - step
        down = loss_mse(forward(params, batch)[0], targets)
        flat[idx] = original
        grads[idx] = (up - down) / (2.0 * step)
    return grads


def pre_activations(params, cache):
    """Each layer's pre-activation ``prev @ W.T + b``, rebuilt from the
    cache: ``prev`` is the batch, then the previous layer's output."""
    prevs = [cache.inputs] + cache.post_activations[:-1]
    return [
        prev @ w.T + b for prev, w, b in zip(prevs, params.weights, params.biases)
    ]


def random_small_net(rng):
    """A random net (dims <= 16) whose pre-activations sit away from the
    ReLU kink, so central differences stay valid."""
    n_hidden = int(rng.integers(1, 3))
    hidden = [int(rng.integers(2, 17)) for _ in range(n_hidden)]
    input_dim = int(rng.integers(1, 17))
    specs = mlp_specs(input_dim, hidden)
    for _ in range(50):
        params = init_network(specs, seed=int(rng.integers(0, 2**31)))
        batch = rng.normal(size=(int(rng.integers(1, 33)), input_dim))
        targets = rng.normal(size=batch.shape[0])
        _, cache = forward(params, batch)
        closest = min(
            float(np.min(np.abs(z))) for z in pre_activations(params, cache)
        )
        if closest > 1e-3:
            return params, batch, targets
    pytest.fail("could not sample a kink-free network")


class TestArchitecture:
    def test_default_network_parameter_count(self):
        params = init_network(mlp_specs(4, [256, 256, 256]), seed=1)
        assert params.flat.size == 133_121

    def test_per_layer_counts(self):
        params = init_network(mlp_specs(4, [256, 256, 256]), seed=1)
        per_layer = [
            w.size + b.size for w, b in zip(params.weights, params.biases, strict=True)
        ]
        assert per_layer == [1_280, 65_792, 65_792, 257]

    def test_layers_are_views_into_one_vector_in_order(self):
        params = init_network(mlp_specs(2, [3]), seed=4)
        # W0 (3, 2), b0 (3,), W1 (1, 3), b1 (1,)
        assert params.flat.shape == (13,)
        params.weights[0][1, 0] = 10.0
        params.biases[0][2] = 11.0
        params.weights[1][0, 2] = 12.0
        params.biases[1][0] = 13.0
        assert [params.flat[i] for i in (2, 8, 11, 12)] == [10.0, 11.0, 12.0, 13.0]
        for arr in params.weights + params.biases:
            assert np.shares_memory(arr, params.flat)

    @pytest.mark.parametrize(
        "flat",
        [
            np.zeros(12),
            np.zeros(14),
            np.zeros((13, 1)),
            np.zeros(13, dtype=np.float32),
            np.zeros(26)[::2],
            [0.0] * 13,
        ],
        ids=["short", "long", "2-D", "float32", "strided", "list"],
    )
    def test_flat_that_does_not_fit_specs_rejected(self, flat):
        with pytest.raises(InputError, match="contiguous float64 vector of 13"):
            NetworkParameters(mlp_specs(2, [3]), flat)

    def test_count_is_seed_independent(self):
        a = init_network(mlp_specs(4, [256, 256, 256]), seed=1)
        b = init_network(mlp_specs(4, [256, 256, 256]), seed=99)
        assert a.flat.size == b.flat.size

    def test_dimension_chain_enforced(self):
        bad = [
            LayerSpec(4, 8),
            LayerSpec(9, 1),
        ]
        with pytest.raises(ConfigError):
            init_network(bad, seed=0)

    @pytest.mark.parametrize("dims", [(0, 1), (1, 0), (0, 0)])
    def test_nonpositive_dims_rejected(self, dims):
        with pytest.raises(ConfigError, match="^layer dims must be >= 1"):
            LayerSpec(*dims)


class TestInit:
    def test_biases_zero(self):
        params = init_network([LayerSpec(1, 1)], seed=0)
        assert params.biases[0][0] == 0.0

    def test_same_seed_identical(self):
        a = init_network(mlp_specs(3, [8, 8]), seed=13)
        b = init_network(mlp_specs(3, [8, 8]), seed=13)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_different_seed_differs(self):
        a = init_network(mlp_specs(3, [8]), seed=13)
        b = init_network(mlp_specs(3, [8]), seed=14)
        assert not np.array_equal(a.flat, b.flat)

    def test_glorot_bounds(self):
        params = init_network(mlp_specs(4, [256]), seed=5)
        limit = np.sqrt(6.0 / (4 + 256))
        w = params.weights[0]
        assert np.all(np.abs(w) <= limit)
        # the draw actually uses the scale, not a tighter one
        assert np.max(np.abs(w)) > 0.9 * limit


class TestForward:
    def test_identity_affine(self):
        params = tiny_net(2.0, 1.0)
        preds, _ = forward(params, np.array([[3.0]]))
        assert preds[0] == 7.0  # 2*3 + 1

    def test_relu_clamps_negative(self):
        params = init_network(mlp_specs(1, [1]), seed=0)
        params.flat[:] = [2.0, 1.0, 1.0, 0.5]  # hidden w, b; output w, b
        preds, cache = forward(params, np.array([[-3.0]]))
        assert pre_activations(params, cache)[0][0, 0] == -5.0
        assert cache.post_activations[0][0, 0] == 0.0
        assert preds[0] == 0.5

    def test_relu_equals_identity_when_nonnegative(self):
        rng = np.random.default_rng(2)
        params = init_network(mlp_specs(3, [6, 6]), seed=4)
        np.abs(params.flat, out=params.flat)
        batch = np.abs(rng.normal(size=(5, 3)))  # nonneg input + nonneg weights
        preds, cache = forward(params, batch)
        assert all(np.min(z) >= 0 for z in pre_activations(params, cache))
        affine = batch
        for w, b in zip(params.weights, params.biases):
            affine = affine @ w.T + b
        np.testing.assert_array_equal(preds, affine[:, 0])

    def test_relu_output_nonnegative(self):
        rng = np.random.default_rng(3)
        params = init_network(mlp_specs(4, [8, 8]), seed=9)
        _, cache = forward(params, rng.normal(size=(20, 4)))
        *hidden, (z_out, a_out) = zip(pre_activations(params, cache),
                                      cache.post_activations)
        for z, a in hidden:
            np.testing.assert_array_equal(a, np.maximum(z, 0.0))
        assert min(np.min(z) for z, _ in hidden) < 0.0  # ReLU clamped some
        np.testing.assert_array_equal(a_out, z_out)

    def test_pure_function(self):
        rng = np.random.default_rng(4)
        params = init_network(mlp_specs(4, [8]), seed=11)
        batch = rng.normal(size=(7, 4))
        first, _ = forward(params, batch)
        second, _ = forward(params, batch)
        np.testing.assert_array_equal(first, second)

    def test_shape_mismatch_rejected(self):
        params = init_network(mlp_specs(4, [8]), seed=0)
        with pytest.raises(InputError):
            forward(params, np.ones((5, 3)))

    def test_non_finite_input_rejected(self):
        params = init_network(mlp_specs(2, [4]), seed=0)
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(InputError):
            forward(params, bad)


# predict on four blocks in a fresh process, with its OpenBLAS thread count
# and the shares it submits to helper threads, as JSON; under ONE_CPU the
# process is bound to one CPU before numpy loads
ONE_THREAD_PREDICT = """
import json, os
if os.environ.get("ONE_CPU"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from socbench import network
import numpy as np
submitted = []
real_submit = network.ThreadPoolExecutor.submit
def submit(executor, *args):
    submitted.append(args)
    return real_submit(executor, *args)
network.ThreadPoolExecutor.submit = submit
params = network.init_network(network.mlp_specs(4, [8]), seed=0)
network.predict(params, np.ones((4 * network.SCORE_ROWS, 4)))
api = network._openblas_thread_api()
print(json.dumps({"blas_threads": api[0]() if api else 1,
                  "helper_shares": len(submitted)}))
"""


class TestPredict:
    @pytest.mark.parametrize(
        "specs, batch",
        [
            (mlp_specs(4, [8]), np.ones(4)),  # 1-D
            (mlp_specs(4, [8]), np.ones((5, 3))),  # wrong width
            (mlp_specs(2, [4]), np.array([[1.0, np.nan]])),
            (mlp_specs(2, [4]), np.array([[np.inf, 0.0]])),
            ([LayerSpec(2, 4), LayerSpec(4, 2)],
             np.ones((3, 2))),
        ],
        ids=["1-d", "width", "nan", "inf", "two-unit-output"],
    )
    def test_rejects_what_forward_rejects(self, specs, batch):
        params = init_network(specs, seed=0)
        with pytest.raises(InputError) as want:
            forward(params, batch)
        with pytest.raises(InputError) as got:
            predict(params, batch)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @staticmethod
    def peak(score, params, n, **kwargs):
        """tracemalloc's peak over one ``score`` call on n random rows."""
        batch = np.random.default_rng(0).normal(size=(n, 4))
        tracemalloc.start()
        try:
            score(params, batch, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocked_path_holds_no_n_by_width_array(self, set_blas_threads, threads):
        """The (n, 1) result plus about two SCORE_ROWS-row blocks per scoring
        thread at any n: the bound does not grow with n x width."""
        set_blas_threads(threads)
        params = init_network(mlp_specs(4, DEFAULT_HIDDEN), seed=0)
        block_bytes = SCORE_ROWS * 256 * 8
        # measured above the result, at 20k and 60k rows: 2.1 and 2.4
        # blocks with one thread, 4.0 and 4.4 with two
        for n in (20_000, 60_000):
            bound = n * 8 + (2 * threads + 1) * block_bytes
            assert self.peak(predict, params, n) < bound

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("n", [1, 511, 1023, 1600, 6000, 8194, 100_001])
    def test_threads_give_the_serial_bits(self, set_blas_threads, n, threads):
        params = init_network(mlp_specs(4, DEFAULT_HIDDEN), seed=n)
        batch = np.random.default_rng(n).normal(size=(n, 4))
        set_blas_threads(1)
        serial = predict(params, batch)
        set_blas_threads(threads)
        pooled = predict(params, batch)
        assert pooled.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("n", [1535, 2000, 6000, 8000, 100_001])
    def test_shares_are_balanced(self, monkeypatch, set_blas_threads, n, threads):
        """One share per OpenBLAS thread and at most one per block, none
        empty, whose rows differ by at most SCORE_ROWS: the share that holds
        the long last block takes no spare block."""
        set_blas_threads(threads)
        rows = []  # per share, in whichever order the threads score them
        real_share = network._score_share

        def record_share(layers, x, out, blocks):
            rows.append(sum(end - start for start, end in blocks))
            real_share(layers, x, out, blocks)

        monkeypatch.setattr(network, "_score_share", record_share)
        predict(init_network(mlp_specs(4, [8]), seed=0), np.ones((n, 4)))
        assert len(rows) == min(threads, n // SCORE_ROWS) and sum(rows) == n
        assert min(rows) > 0 and max(rows) - min(rows) <= SCORE_ROWS

    def test_starts_no_lasting_thread(self, set_blas_threads):
        set_blas_threads(2)
        params = init_network(mlp_specs(4, [8]), seed=0)
        before = threading.active_count()
        predict(params, np.ones((4 * SCORE_ROWS, 4)))
        assert threading.active_count() == before

    def test_helpers_keep_the_callers_error_state(self, set_blas_threads):
        """Overflow in a helper's share is silent under the caller's
        ``np.errstate``; the suite turns a RuntimeWarning into an error."""
        set_blas_threads(2)
        params = init_network(mlp_specs(4, DEFAULT_HIDDEN), seed=0)
        params.flat[:] = 1.0
        with np.errstate(over="ignore"):
            got = predict(params, np.full((8 * SCORE_ROWS, 4), 1e306))
        assert np.isposinf(got).all()

    def test_an_error_in_a_helper_reaches_the_caller(
        self, monkeypatch, set_blas_threads
    ):
        set_blas_threads(2)
        real_finish = network._finish_layer

        def finish_or_fail(*args):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("helper failed")
            real_finish(*args)

        monkeypatch.setattr(network, "_finish_layer", finish_or_fail)
        params = init_network(mlp_specs(4, [8]), seed=0)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^helper failed$"):
            predict(params, np.ones((4 * SCORE_ROWS, 4)))
        assert threading.active_count() == before

    def test_the_callers_error_wins_when_a_helper_fails_too(
        self, monkeypatch, blas_threads
    ):
        helper_failed = threading.Event()

        def fail(*args):
            if threading.current_thread() is threading.main_thread():
                assert helper_failed.wait(10)
                raise ValueError("caller failed")
            helper_failed.set()
            raise ValueError("helper failed")

        monkeypatch.setattr(network, "_finish_layer", fail)
        params = init_network(mlp_specs(4, [8]), seed=0)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^caller failed$"):
            predict(params, np.ones((4 * SCORE_ROWS, 4)))
        assert threading.active_count() == before
        assert blas_threads() == 2

    def test_scores_on_one_blas_thread_and_restores_the_count(
        self, monkeypatch, blas_threads
    ):
        seen = []
        real_finish = network._finish_layer

        def finish_and_record(*args):
            seen.append(blas_threads())
            real_finish(*args)

        monkeypatch.setattr(network, "_finish_layer", finish_and_record)
        params = init_network(mlp_specs(4, [8]), seed=0)
        predict(params, np.ones((3 * SCORE_ROWS, 4)))
        assert seen and set(seen) == {1}
        seen.clear()
        predict(params, np.ones((3 * SCORE_ROWS, 4)), like_forward=True)
        # the hidden layer's blocks, then the output product at two threads
        assert seen == [1, 1, 1, 2]
        assert blas_threads() == 2

    @pytest.mark.parametrize("limit", [{"OPENBLAS_NUM_THREADS": "1"},
                                       {"ONE_CPU": "1"}],
                             ids=["OPENBLAS_NUM_THREADS=1", "one-cpu"])
    def test_one_openblas_thread_scores_without_helpers(self, limit):
        """A process whose OpenBLAS starts one thread, by its environment
        or by a one-CPU affinity set before numpy loads, scores four blocks
        on the calling thread alone."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(network.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", ONE_THREAD_PREDICT],
                              env={**env, **limit}, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"blas_threads": 1, "helper_shares": 0}

    def test_without_openblas_scores_on_the_calling_thread(
        self, monkeypatch, blas_threads
    ):
        """No OpenBLAS found: the pin yields 1 and sets nothing, predict
        starts no thread and gives the same bits, and a worker's share
        leaves the count alone."""
        params = init_network(mlp_specs(4, DEFAULT_HIDDEN), seed=3)
        batch = np.random.default_rng(3).normal(size=(4 * SCORE_ROWS, 4))
        want = predict(params, batch)
        monkeypatch.setattr(network, "_openblas_thread_api", lambda: None)
        with network._one_blas_thread() as threads:
            assert threads == 1 and blas_threads() == 2
        started = []
        monkeypatch.setattr(threading.Thread, "start", started.append)
        assert predict(params, batch).tobytes() == want.tobytes()
        assert started == []
        network._share_blas_threads(2)
        assert blas_threads() == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_keeps_one_hidden_layer_output(self, set_blas_threads, threads):
        """like_forward: one n x 256 float64 array plus about two
        SCORE_ROWS-row blocks per scoring thread at any n, where forward
        keeps all three hidden layers' outputs."""
        set_blas_threads(threads)
        params = init_network(mlp_specs(4, DEFAULT_HIDDEN), seed=0)
        block_bytes = SCORE_ROWS * 256 * 8
        # measured above the layer, at 20k and 60k rows: 2.1 and 2.4 blocks
        # with one thread, 4.1 and 4.0 with two
        for n in (20_000, 60_000):
            peak = self.peak(predict, params, n, like_forward=True)
            assert peak < n * 256 * 8 + (2 * threads + 1) * block_bytes
        assert self.peak(forward, params, 20_000) > 2.5 * 20_000 * 256 * 8


class TestLosses:
    def test_mse_worked_example(self):
        assert loss_mse(np.array([50.0, 60.0]), np.array([52.0, 58.0])) == 4.0

    def test_mae_worked_example(self):
        assert loss_mae(np.array([50.0, 60.0]), np.array([52.0, 58.0])) == 2.0

    def test_zero_iff_equal(self):
        x = np.array([1.0, -2.0, 3.5])
        assert loss_mse(x, x) == 0.0
        assert loss_mae(x, x) == 0.0

    def test_single_sample(self):
        assert loss_mse(np.array([1.0]), np.array([0.0])) == 1.0
        assert loss_mae(np.array([-1.0]), np.array([1.0])) == 2.0

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.normal(size=10)
            t = rng.normal(size=10)
            assert loss_mse(p, t) >= 0.0
            assert loss_mae(p, t) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            loss_mse(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(InputError):
            loss_mae(np.array([1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("loss", [loss_mse, loss_mae])
    def test_empty_rejected(self, loss):
        with pytest.raises(InputError, match="at least one sample"):
            loss(np.array([]), np.array([]))


class TestBackward:
    def test_zero_gradient_at_minimum(self):
        params = tiny_net(1.5, 0.25)
        batch = np.array([[2.0]])
        preds, cache = forward(params, batch)
        grads = backward(params, cache, preds.copy())
        np.testing.assert_array_equal(grads.flat, np.zeros_like(grads.flat))

    def test_hand_differentiated_single_sample(self):
        # J = (w*x + b - t)^2 with w=1, b=0, x=1, t=0: dJ/dw = 2
        params = tiny_net(1.0, 0.0)
        _, cache = forward(params, np.array([[1.0]]))
        grads = backward(params, cache, np.array([0.0]))
        assert grads.weights[0][0, 0] == pytest.approx(2.0, abs=1e-15)
        assert grads.biases[0][0] == pytest.approx(2.0, abs=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            params, batch, targets = random_small_net(rng)
            _, cache = forward(params, batch)
            analytic = backward(params, cache, targets).flat
            numeric = finite_difference_gradients(params, batch, targets)
            rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
            assert np.max(rel) < 1e-5

    @pytest.mark.parametrize(
        "inputs, hidden, seed",
        [(4, [9], 0), (4, [8, 8], 0), (3, [8], 0), (4, [8], 1), (4, [8], 0)],
        ids=["layer-width", "layer-count", "input-width", "same-shape",
             "same-values"],
    )
    def test_mismatched_cache_rejected(self, inputs, hidden, seed):
        # a cache belongs to the parameters object it was computed with:
        # another network of the same shape, even with equal values, is not it
        params = init_network(mlp_specs(4, [8]), seed=0)
        other = init_network(mlp_specs(inputs, hidden), seed=seed)
        _, cache = forward(other, np.ones((3, inputs)))
        with pytest.raises(
            InputError,
            match="^forward cache does not come from these network parameters$",
        ):
            backward(params, cache, np.zeros(3))

    def test_wrong_target_length_rejected(self):
        params = init_network(mlp_specs(4, [8]), seed=0)
        _, cache = forward(params, np.ones((3, 4)))
        with pytest.raises(InputError):
            backward(params, cache, np.zeros(4))


class TestModelSerialization:
    def test_round_trip_value_exact(self, tmp_path):
        params = init_network(mlp_specs(4, [8, 8]), seed=77)
        stats = NormalizationStats(
            means=np.array([1.0, 2.5, -0.125, 1e-9]),
            stds=np.array([0.5, 3.0, 1.0, 7.25]),
        )
        path = tmp_path / "model.json"
        save_model(path, params, normalization=stats, seed=77)
        loaded, loaded_stats, seed = load_model(path)
        assert seed == 77
        assert loaded.specs == params.specs
        np.testing.assert_array_equal(params.flat, loaded.flat)
        np.testing.assert_array_equal(loaded_stats.means, stats.means)
        np.testing.assert_array_equal(loaded_stats.stds, stats.stds)

    def test_fewer_arrays_than_layer_specs_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, init_network(mlp_specs(4, [8, 8]), seed=1), UNIT_STATS)
        doc = json.loads(path.read_text())
        del doc["weights"][-1], doc["biases"][-1]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelMismatchError, match="3 layer_specs but 2 weights"):
            load_model(path)

    @pytest.mark.parametrize("field", ["weights", "biases"])
    def test_arrays_of_another_shape_rejected(self, tmp_path, field):
        # a transposed weight matrix holds as many values as the right one
        path = tmp_path / "model.json"
        save_model(path, init_network(mlp_specs(4, [8]), seed=1), UNIT_STATS)
        doc = json.loads(path.read_text())
        if field == "weights":
            doc["weights"][0] = np.array(doc["weights"][0]).T.tolist()
        else:
            doc["biases"][0].append(0.0)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelMismatchError,
                           match="stored arrays do not match layer_specs$"):
            load_model(path)

    @pytest.mark.parametrize("missing", ["null", "absent"])
    def test_model_without_normalization_rejected(self, tmp_path, missing):
        path = tmp_path / "model.json"
        save_model(path, init_network(mlp_specs(4, [8]), seed=1), UNIT_STATS)
        doc = json.loads(path.read_text())
        if missing == "null":
            doc["normalization"] = None
        else:
            del doc["normalization"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(
            ModelMismatchError,
            match=f"^model file {re.escape(str(path))}: no normalization$",
        ):
            load_model(path)

    def test_normalization_without_stds_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        stats = NormalizationStats(means=np.zeros(4), stds=np.ones(4))
        save_model(path, init_network(mlp_specs(4, [8]), seed=1), normalization=stats)
        doc = json.loads(path.read_text())
        del doc["normalization"]["stds"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelMismatchError, match="stds"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("means", [0.0, 0.0, 0.0], "3 means and 4 stds for 4 inputs"),
            ("stds", [1.0, 1.0, 1.0], "4 means and 3 stds for 4 inputs"),
            ("stds", [1.0, 0.0, 1.0, 1.0], "stds must be finite and > 0"),
            ("stds", [1.0, -2.0, 1.0, 1.0], "stds must be finite and > 0"),
            ("stds", [1.0, float("inf"), 1.0, 1.0], "stds must be finite and > 0"),
            ("stds", [1.0, float("nan"), 1.0, 1.0], "stds must be finite and > 0"),
            ("means", [0.0, float("nan"), 0.0, 0.0], "non-finite normalization means"),
        ],
    )
    def test_bad_normalization_rejected(self, tmp_path, field, value, message):
        path = tmp_path / "model.json"
        stats = NormalizationStats(means=np.zeros(4), stds=np.ones(4))
        save_model(path, init_network(mlp_specs(4, [8]), seed=1), normalization=stats)
        doc = json.loads(path.read_text())
        doc["normalization"][field] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelMismatchError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("field", ["weights", "biases"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_rejected(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        save_model(path, init_network(mlp_specs(4, [8]), seed=1), UNIT_STATS)
        doc = json.loads(path.read_text())
        if field == "weights":
            doc["weights"][1][0][3] = value
        else:
            doc["biases"][0][5] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelMismatchError, match="non-finite weights or biases"):
            load_model(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"seed": 1', '"seed": 1e400', "expected an integer, got inf"),
            ('"seed": 1', '"seed": 2.5', "expected an integer, got 2.5"),
            ('"seed": 1', '"seed": true', "expected an integer, got True"),
            ('"seed": 1', '"seed": "1"', "expected an integer, got '1'"),
            ('"in": 4,', '"in": 1e400,', "expected an integer, got inf"),
            ('"in": 4,', '"in": 4.9,', "expected an integer, got 4.9"),
            ('"in": 4,', '"in": 4.0,', "expected an integer, got 4.0"),
            ('"in": 4,', '"in": false,', "expected an integer, got False"),
            ('"in": 4,', '"in": 0,', "layer dims must be >= 1"),
            ('"in": 8,', '"in": 7,', "layer 0 output_dim 8 does not match"),
            ('"activation": "relu"', '"activation": "tanh"',
             "activations ['tanh', 'identity'] are not relu on every hidden layer"),
            ('"activation": "relu"', '"activation": "identity"',
             "activations ['identity', 'identity'] are not relu"),
            ('"activation": "identity"', '"activation": "relu"',
             "activations ['relu', 'relu'] are not relu on every hidden layer and "
             "identity on the output layer"),
        ],
    )
    def test_malformed_layer_specs_and_seed_rejected(self, tmp_path, old, new, message):
        path = tmp_path / "model.json"
        save_model(path, init_network(mlp_specs(4, [8]), seed=1), UNIT_STATS, seed=1)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(ModelMismatchError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize(
        "content",
        [b"", b"{", b"[" * 100_000, b'{"seed": "\xff"}'],
        ids=["empty", "cut-short", "nested-too-deep", "not-utf-8"],
    )
    def test_unreadable_text_rejected(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ModelMismatchError, match="malformed model file"):
            load_model(path)

    @pytest.mark.parametrize("units", [2, 3])
    def test_output_layer_of_more_than_one_unit_rejected(self, tmp_path, units):
        path = tmp_path / "model.json"
        specs = [LayerSpec(4, 8),
                 LayerSpec(8, units)]
        save_model(path, init_network(specs, seed=1), UNIT_STATS)
        with pytest.raises(
            ModelMismatchError,
            match=f"^model file {re.escape(str(path))}: output layer has {units} "
                  "units, not 1$",
        ):
            load_model(path)

    def test_integer_and_float_entries_in_one_array_load(self, tmp_path):
        # JSON writes 0.0 as 0.0, but a hand-edited file may hold 0: ints
        # and floats mix within one array
        path = tmp_path / "model.json"
        params = init_network(mlp_specs(4, [8]), seed=1)
        save_model(path, params, UNIT_STATS)
        doc = json.loads(path.read_text())
        doc["biases"][0][0] = 0
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded, _, _ = load_model(path)
        np.testing.assert_array_equal(loaded.flat, params.flat)

    def test_empty_layer_specs_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, init_network(mlp_specs(4, [8]), seed=1), UNIT_STATS)
        doc = json.loads(path.read_text())
        doc["layer_specs"] = []
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelMismatchError, match="at least one layer"):
            load_model(path)

    @pytest.mark.parametrize("value", [True, False, None, "0.5", [0.5], {}])
    @pytest.mark.parametrize("field", ["weights", "biases", "means"])
    def test_array_entry_that_is_not_a_number_rejected(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        stats = NormalizationStats(means=np.zeros(4), stds=np.ones(4))
        save_model(path, init_network(mlp_specs(4, [8]), seed=1), normalization=stats)
        doc = json.loads(path.read_text())
        if field == "weights":
            doc["weights"][1][0][3] = value
        elif field == "biases":
            doc["biases"][0][5] = value
        else:
            doc["normalization"]["means"][2] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelMismatchError, match="malformed model file"):
            load_model(path)

    def test_round_trip_predictions_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        params = init_network(mlp_specs(4, [16]), seed=3)
        path = tmp_path / "model.json"
        save_model(path, params, UNIT_STATS, seed=3)
        loaded, stats, _ = load_model(path)
        np.testing.assert_array_equal(stats.means, UNIT_STATS.means)
        np.testing.assert_array_equal(stats.stds, UNIT_STATS.stds)
        batch = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(
            forward(params, batch)[0], forward(loaded, batch)[0]
        )
