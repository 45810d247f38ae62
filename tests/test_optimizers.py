"""Single-step oracles and structural properties of the four update rules."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from socbench import (
    Algorithm,
    Hyperparameters,
    InputError,
    LayerSpec,
    NetworkParameters,
    NumericError,
    OptimizerState,
    init_network,
    mlp_specs,
    optimizer_step,
)
from socbench.errors import ConfigError
from socbench.network import DEFAULT_HIDDEN
from socbench.optimizers import DEFAULT_LEARNING_RATES

def scalar_param(value=1.0):
    params = init_network([LayerSpec(1, 1)], seed=0)
    params.weights[0][:] = value
    params.biases[0][:] = 0.0
    return params


def gradient(specs, weights, biases):
    """A gradient laid out for ``specs`` from per-layer arrays."""
    flat = np.concatenate(
        [a.ravel() for w, b in zip(weights, biases, strict=True) for a in (w, b)]
    )
    return NetworkParameters(specs, flat)


def scalar_grad(value, bias=0.0):
    return gradient(
        [LayerSpec(1, 1)],
        [np.full((1, 1), float(value))],
        [np.full(1, float(bias))],
    )


def theta(params):
    return params.weights[0][0, 0]


class TestSgdOracle:
    def test_single_step(self):
        params = scalar_param(1.0)
        state = OptimizerState.initial(Algorithm.SGD, params)
        optimizer_step(params, scalar_grad(0.5), Hyperparameters(eta=0.01), state)
        assert theta(params) == pytest.approx(0.995, abs=1e-12)

    def test_two_steps(self):
        params = scalar_param(0.0)
        state = OptimizerState.initial(Algorithm.SGD, params)
        h = Hyperparameters(eta=0.1)
        optimizer_step(params, scalar_grad(1.0), h, state)
        optimizer_step(params, scalar_grad(1.0), h, state)
        assert theta(params) == pytest.approx(-0.2, abs=1e-12)
        assert state.step_count == 2


class TestRmspropOracle:
    def test_first_step(self):
        params = scalar_param(0.0)
        state = OptimizerState.initial(Algorithm.RMSPROP, params)
        h = Hyperparameters(eta=0.001)
        optimizer_step(params, scalar_grad(1.0), h, state)
        expected = -0.001 / math.sqrt(0.1 + 1e-7)
        assert expected == pytest.approx(-3.1623e-3, abs=1e-7)
        assert theta(params) == pytest.approx(expected, abs=1e-12)
        assert state.slot_a.weights[0][0, 0] == pytest.approx(0.1, abs=1e-15)

    def test_constant_gradient_limit(self):
        # E[g^2] -> g^2 geometrically, so |step| -> eta * |g| / sqrt(g^2 + eps)
        params = scalar_param(0.0)
        state = OptimizerState.initial(Algorithm.RMSPROP, params)
        h = Hyperparameters(eta=0.001)
        g = 3.0
        previous = theta(params)
        for _ in range(400):
            previous = theta(params)
            optimizer_step(params, scalar_grad(g), h, state)
        final_step = theta(params) - previous
        assert state.slot_a.weights[0][0, 0] == pytest.approx(g * g, rel=1e-12)
        assert final_step == pytest.approx(
            -h.eta * g / math.sqrt(g * g + h.epsilon), rel=1e-9
        )
        assert abs(final_step) == pytest.approx(h.eta, rel=1e-6)


class TestAdamOracle:
    def test_first_step(self):
        params = scalar_param(0.0)
        state = OptimizerState.initial(Algorithm.ADAM, params)
        optimizer_step(params, scalar_grad(1.0), Hyperparameters(eta=0.001), state)
        expected = -0.001 / (1.0 + 1e-7)  # m_hat=1, v_hat=1 after bias correction
        assert expected == pytest.approx(-9.999999e-4, abs=1e-10)
        assert theta(params) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("c", [0.3, 1.0, 7.0, -2.5])
    def test_first_step_magnitude_is_eta(self, c):
        params = scalar_param(0.0)
        state = OptimizerState.initial(Algorithm.ADAM, params)
        optimizer_step(params, scalar_grad(c), Hyperparameters(eta=0.001), state)
        assert theta(params) == pytest.approx(-0.001 * np.sign(c), rel=1e-6)


class TestAdamaxOracle:
    def test_first_step(self):
        params = scalar_param(0.0)
        state = OptimizerState.initial(Algorithm.ADAMAX, params)
        optimizer_step(params, scalar_grad(1.0), Hyperparameters(eta=0.001), state)
        # m=0.1, u=1, step = -(eta/0.1) * 0.1 / (1 + eps)
        expected = -(0.001 / 0.1) * 0.1 / (1.0 + 1e-7)
        assert expected == pytest.approx(-9.999999e-4, abs=1e-10)
        assert theta(params) == pytest.approx(expected, abs=1e-12)
        assert state.slot_a.weights[0][0, 0] == pytest.approx(0.1, abs=1e-15)
        assert state.slot_b.weights[0][0, 0] == 1.0

    @pytest.mark.parametrize("c", [0.3, 1.0, 7.0, -2.5])
    def test_first_step_magnitude_is_eta(self, c):
        params = scalar_param(0.0)
        state = OptimizerState.initial(Algorithm.ADAMAX, params)
        optimizer_step(params, scalar_grad(c), Hyperparameters(eta=0.001), state)
        assert theta(params) == pytest.approx(-0.001 * np.sign(c), rel=1e-6)

    def test_infinity_accumulator_decays_via_max(self):
        params = scalar_param(0.0)
        state = OptimizerState.initial(Algorithm.ADAMAX, params)
        h = Hyperparameters(eta=0.001)
        optimizer_step(params, scalar_grad(4.0), h, state)
        optimizer_step(params, scalar_grad(0.1), h, state)
        assert state.slot_b.weights[0][0, 0] == pytest.approx(0.999 * 4.0, abs=1e-15)


class TestSharedProperties:
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_zero_gradient_fixed_point(self, algorithm):
        params = init_network([LayerSpec(3, 2)], seed=8)
        before = params.flat.copy()
        state = OptimizerState.initial(algorithm, params)
        grads = gradient(params.specs, [np.zeros((2, 3))], [np.zeros(2)])
        optimizer_step(params, grads, Hyperparameters(eta=0.5), state)
        np.testing.assert_array_equal(params.flat, before)
        assert state.step_count == 1

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_updates_are_coordinate_separable(self, algorithm):
        rng = np.random.default_rng(17)
        w = rng.normal(size=(1, 6))
        g = rng.normal(size=(1, 6))
        perm = rng.permutation(6)

        def run(weights, grads):
            params = init_network([LayerSpec(6, 1)], seed=0)
            params.weights[0][:] = weights
            state = OptimizerState.initial(algorithm, params)
            optimizer_step(
                params,
                gradient(params.specs, [grads], [np.zeros(1)]),
                Hyperparameters(eta=0.05),
                state,
            )
            return params.weights[0]

        direct = run(w, g)
        permuted = run(w[:, perm], g[:, perm])
        np.testing.assert_array_equal(direct[:, perm], permuted)

    @pytest.mark.parametrize("algorithm", [Algorithm.ADAM, Algorithm.ADAMAX])
    def test_first_step_scale_invariance(self, algorithm):
        rng = np.random.default_rng(23)
        g = rng.normal(size=(2, 4))

        def first_update(scale):
            params = init_network([LayerSpec(4, 2)], seed=1)
            before = params.weights[0].copy()
            state = OptimizerState.initial(algorithm, params)
            optimizer_step(
                params,
                gradient(params.specs, [scale * g], [np.zeros(2)]),
                Hyperparameters(eta=0.001),
                state,
            )
            return params.weights[0] - before

        np.testing.assert_allclose(first_update(1.0), first_update(50.0), atol=1e-8)

    def test_sgd_scales_linearly_in_gradient(self):
        rng = np.random.default_rng(29)
        g = rng.normal(size=(2, 4))

        def update(scale):
            params = init_network([LayerSpec(4, 2)], seed=1)
            before = params.weights[0].copy()
            state = OptimizerState.initial(Algorithm.SGD, params)
            optimizer_step(
                params,
                gradient(params.specs, [scale * g], [np.zeros(2)]),
                Hyperparameters(eta=0.01),
                state,
            )
            return params.weights[0] - before

        np.testing.assert_allclose(update(3.0), 3.0 * update(1.0), rtol=1e-12)

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_accumulators_stay_nonnegative_and_counter_counts(self, algorithm):
        rng = np.random.default_rng(31)
        params = init_network([LayerSpec(4, 3)], seed=2)
        state = OptimizerState.initial(algorithm, params)
        h = Hyperparameters(eta=0.01)
        n_steps = 25
        for _ in range(n_steps):
            grads = gradient(
                params.specs, [rng.normal(size=(3, 4))], [rng.normal(size=3)]
            )
            optimizer_step(params, grads, h, state)
            if algorithm is Algorithm.RMSPROP:
                assert np.min(state.slot_a.flat) >= 0
            if algorithm in (Algorithm.ADAM, Algorithm.ADAMAX):
                assert np.min(state.slot_b.flat) >= 0
        assert state.step_count == n_steps
        # bias-correction denominators never vanish for k >= 1
        assert 1.0 - h.beta1**1 > 0 and 1.0 - h.beta2**1 > 0

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_deterministic_trajectory(self, algorithm):
        rng = np.random.default_rng(37)
        grad_values = [rng.normal(size=(3, 4)) for _ in range(10)]

        def trajectory():
            params = init_network([LayerSpec(4, 3)], seed=5)
            state = OptimizerState.initial(algorithm, params)
            h = Hyperparameters(eta=0.02)
            seen = []
            for gv in grad_values:
                optimizer_step(
                    params,
                    gradient(params.specs, [gv], [np.zeros(3)]),
                    h,
                    state,
                )
                seen.append(params.weights[0].copy())
            return seen

        for a, b in zip(trajectory(), trajectory()):
            np.testing.assert_array_equal(a, b)


class TestMemory:
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_step_allocates_no_whole_vector_temporaries(self, algorithm):
        """A step's temporaries are two blocks, not one fresh copy of the
        parameter vector per operation."""
        params = init_network(mlp_specs(4, DEFAULT_HIDDEN), seed=0)
        grads = NetworkParameters(
            params.specs, np.random.default_rng(0).normal(size=params.flat.size)
        )
        state = OptimizerState.initial(algorithm, params)
        h = Hyperparameters(eta=1e-3)
        optimizer_step(params, grads, h, state)  # warm-up
        tracemalloc.start()
        try:
            optimizer_step(params, grads, h, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.flat.nbytes // 2


class TestValidation:
    def test_shape_mismatch(self):
        params = scalar_param()
        state = OptimizerState.initial(Algorithm.SGD, params)
        bad = gradient(
            [LayerSpec(2, 1)], [np.ones((1, 2))], [np.zeros(1)]
        )
        with pytest.raises(InputError):
            optimizer_step(params, bad, Hyperparameters(eta=0.01), state)

    @pytest.mark.parametrize(
        "algorithm", [Algorithm.RMSPROP, Algorithm.ADAM, Algorithm.ADAMAX]
    )
    @pytest.mark.parametrize(
        "hidden", [[8, 8], [16]], ids=["more-arrays", "other-shapes"]
    )
    def test_state_for_another_network_rejected_before_any_update(
        self, algorithm, hidden
    ):
        state = OptimizerState.initial(algorithm, init_network(mlp_specs(4, [8]), 0))
        params = init_network(mlp_specs(4, hidden), seed=1)
        before = params.flat.copy()
        grads = NetworkParameters(params.specs, np.ones_like(params.flat))
        with pytest.raises(InputError, match="optimizer state shapes"):
            optimizer_step(params, grads, Hyperparameters(eta=0.01), state)
        assert params.flat.tobytes() == before.tobytes()
        assert state.step_count == 0

    @pytest.mark.parametrize(
        "algorithm", [Algorithm.RMSPROP, Algorithm.ADAM, Algorithm.ADAMAX]
    )
    def test_state_without_its_slots_rejected(self, algorithm):
        params = scalar_param(1.0)
        state = OptimizerState(algorithm)  # not from initial(): no slots
        with pytest.raises(InputError, match="optimizer state shapes"):
            optimizer_step(params, scalar_grad(1.0), Hyperparameters(eta=0.01), state)
        assert theta(params) == 1.0 and state.step_count == 0

    @pytest.mark.parametrize(
        "algorithm, stale",
        [(a, "gradient") for a in Algorithm]
        + [(a, "state") for a in Algorithm if a is not Algorithm.SGD],
    )
    def test_same_size_layout_for_another_network_rejected(self, algorithm, stale):
        # both networks have 19 parameters, so only a layout comparison,
        # not a size comparison, tells them apart
        mine, other = mlp_specs(4, [3]), mlp_specs(4, [2, 2])
        params = init_network(mine, seed=1)
        before = params.flat.copy()
        grads = NetworkParameters(
            other if stale == "gradient" else mine, np.ones_like(params.flat)
        )
        state = OptimizerState.initial(
            algorithm, init_network(other if stale == "state" else mine, seed=2)
        )
        slots = [s for s in (state.slot_a, state.slot_b) if s is not None]
        slots_before = [s.flat.copy() for s in slots]
        with pytest.raises(InputError):
            optimizer_step(params, grads, Hyperparameters(eta=0.01), state)
        assert params.flat.tobytes() == before.tobytes()
        for slot, want in zip(slots, slots_before, strict=True):
            assert slot.flat.tobytes() == want.tobytes()
        assert state.step_count == 0

    def test_non_finite_gradient(self):
        params = scalar_param()
        state = OptimizerState.initial(Algorithm.SGD, params)
        with pytest.raises(NumericError):
            optimizer_step(params, scalar_grad(np.inf), Hyperparameters(eta=0.01),
                           state)

    def test_hyperparameter_defaults(self):
        h = Hyperparameters()
        assert (h.beta1, h.beta2, h.epsilon, h.rho) == (0.9, 0.999, 1e-7, 0.9)
        assert h.eta is None
        assert h.resolve_eta(Algorithm.SGD) == DEFAULT_LEARNING_RATES[Algorithm.SGD]
        assert h.resolve_eta(Algorithm.ADAMAX) == 0.001

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ConfigError):
            Hyperparameters(eta=-0.1)
        with pytest.raises(ConfigError):
            Hyperparameters(beta1=1.0)
        with pytest.raises(ConfigError):
            Hyperparameters(epsilon=0.0)
        with pytest.raises(ConfigError):
            Hyperparameters(batch_size=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("eta", float("nan"), "learning rate must be finite"),
            ("eta", float("inf"), "learning rate must be finite"),
            ("eta", float("-inf"), "learning rate must be finite"),
            ("epsilon", float("nan"), "epsilon must be finite"),
            ("epsilon", float("inf"), "epsilon must be finite"),
        ],
    )
    def test_non_finite_hyperparameters_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            Hyperparameters(**{field: value})
        # a per-optimizer learning rate goes in through replace
        with pytest.raises(ConfigError, match=message):
            replace(Hyperparameters(eta=0.01), **{field: value})

    @pytest.mark.parametrize("name", ["beta1", "beta2", "rho"])
    def test_decay_rates_span_zero_up_to_one(self, name):
        assert getattr(Hyperparameters(**{name: 0.0}), name) == 0.0
        with pytest.raises(ConfigError, match=rf"^{name} must be in \[0, 1\)"):
            Hyperparameters(**{name: 1.0})

    def test_zero_learning_rate_allowed(self):
        h = Hyperparameters(eta=0.0)
        params = scalar_param(1.0)
        state = OptimizerState.initial(Algorithm.SGD, params)
        optimizer_step(params, scalar_grad(5.0), h, state)
        assert theta(params) == 1.0
