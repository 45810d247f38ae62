"""First-order per-parameter update rules: SGD, RMSProp, Adam, Adamax.

Update rules, elementwise over the flat parameter vector:

  SGD       theta_k = theta_{k-1} - eta * g
  RMSProp   E[g^2]_k = rho * E[g^2]_{k-1} + (1 - rho) * g^2
            theta_k = theta_{k-1} - eta * g / sqrt(E[g^2]_k + eps)
  Adam      m_k = beta1 * m_{k-1} + (1 - beta1) * g
            v_k = beta2 * v_{k-1} + (1 - beta2) * g^2
            m_hat = m_k / (1 - beta1^k),  v_hat = v_k / (1 - beta2^k)
            theta_k = theta_{k-1} - eta * m_hat / (sqrt(v_hat) + eps)
  Adamax    m_k as Adam; u_k = max(beta2 * u_{k-1}, |g|)
            theta_k = theta_{k-1} - (eta / (1 - beta1^k)) * m_k / (u_k + eps)

Note the epsilon placement: inside the square root for RMSProp, outside
for Adam. Adamax applies no bias correction to u; epsilon guards the
all-zero first gradient. Each step works on the whole vector at once
(``params.flat``, ``grads.flat`` and each slot's ``flat``) and mutates the
parameter vector in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, InputError, NumericError
from .network import NetworkParameters


class Algorithm(Enum):
    SGD = "sgd"
    RMSPROP = "rmsprop"
    ADAM = "adam"
    ADAMAX = "adamax"


# Learning rates used when the caller does not pick one.
DEFAULT_LEARNING_RATES = {
    Algorithm.SGD: 0.01,
    Algorithm.RMSPROP: 0.001,
    Algorithm.ADAM: 0.001,
    Algorithm.ADAMAX: 0.001,
}


# accumulator vectors each rule reads: slot_a, then slot_b
_SLOT_COUNT = {
    Algorithm.SGD: 0,
    Algorithm.RMSPROP: 1,
    Algorithm.ADAM: 2,
    Algorithm.ADAMAX: 2,
}


@dataclass(frozen=True)
class Hyperparameters:
    """Training hyperparameters. ``eta=None`` means the per-algorithm default.

    eta=0 is allowed (an exact no-op on parameters, useful as a fixed-point
    check); negative and non-finite learning rates are rejected, as is a
    non-finite epsilon.
    """

    eta: float | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    rho: float = 0.9
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.eta is not None and not math.isfinite(self.eta):
            raise ConfigError(f"learning rate must be finite, got {self.eta}")
        if self.eta is not None and self.eta < 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.eta}")
        for name in ("beta1", "beta2", "rho"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")
        if not math.isfinite(self.epsilon):
            raise ConfigError(f"epsilon must be finite, got {self.epsilon}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")

    def resolve_eta(self, algorithm: Algorithm) -> float:
        return DEFAULT_LEARNING_RATES[algorithm] if self.eta is None else self.eta


@dataclass
class OptimizerState:
    """Per-algorithm accumulator vectors, laid out like the parameters.

    slot_a holds E[g^2] (RMSProp) or m (Adam/Adamax); slot_b holds v (Adam)
    or u (Adamax). A slot the rule does not read is None; SGD carries no
    accumulators.
    """

    algorithm: Algorithm
    step_count: int = 0
    slot_a: NetworkParameters | None = None
    slot_b: NetworkParameters | None = None

    @classmethod
    def initial(cls, algorithm: Algorithm, params: NetworkParameters) -> "OptimizerState":
        def zeros() -> NetworkParameters:
            return NetworkParameters(params.specs, np.zeros_like(params.flat))

        slots = _SLOT_COUNT[algorithm]
        return cls(
            algorithm=algorithm,
            slot_a=zeros() if slots >= 1 else None,
            slot_b=zeros() if slots == 2 else None,
        )


def _check_step(
    params: NetworkParameters,
    grads: NetworkParameters,
    state: OptimizerState,
    expected: Algorithm,
) -> None:
    if state.algorithm is not expected:
        raise InputError(
            f"state is for {state.algorithm.value}, step is {expected.value}"
        )
    if grads.specs != params.specs:
        raise InputError("gradient shapes do not match parameter shapes")
    slots = (state.slot_a, state.slot_b)[: _SLOT_COUNT[expected]]
    if any(slot is None or slot.specs != params.specs for slot in slots):
        raise InputError("optimizer state shapes do not match parameter shapes")
    if not np.isfinite(grads.flat).all():
        raise NumericError("non-finite gradient")


def sgd_step(
    params: NetworkParameters,
    grads: NetworkParameters,
    h: Hyperparameters,
    state: OptimizerState,
) -> tuple[NetworkParameters, OptimizerState]:
    _check_step(params, grads, state, Algorithm.SGD)
    eta = h.resolve_eta(Algorithm.SGD)
    params.flat -= eta * grads.flat
    state.step_count += 1
    return params, state


def rmsprop_step(
    params: NetworkParameters,
    grads: NetworkParameters,
    h: Hyperparameters,
    state: OptimizerState,
) -> tuple[NetworkParameters, OptimizerState]:
    _check_step(params, grads, state, Algorithm.RMSPROP)
    eta = h.resolve_eta(Algorithm.RMSPROP)
    p, g, avg_sq = params.flat, grads.flat, state.slot_a.flat
    avg_sq *= h.rho
    avg_sq += (1.0 - h.rho) * g * g
    p -= eta * g / np.sqrt(avg_sq + h.epsilon)
    state.step_count += 1
    return params, state


def adam_step(
    params: NetworkParameters,
    grads: NetworkParameters,
    h: Hyperparameters,
    state: OptimizerState,
) -> tuple[NetworkParameters, OptimizerState]:
    _check_step(params, grads, state, Algorithm.ADAM)
    eta = h.resolve_eta(Algorithm.ADAM)
    k = state.step_count + 1
    bias1 = 1.0 - h.beta1**k
    bias2 = 1.0 - h.beta2**k
    p, g, m, v = params.flat, grads.flat, state.slot_a.flat, state.slot_b.flat
    m *= h.beta1
    m += (1.0 - h.beta1) * g
    v *= h.beta2
    v += (1.0 - h.beta2) * g * g
    p -= eta * (m / bias1) / (np.sqrt(v / bias2) + h.epsilon)
    state.step_count = k
    return params, state


def adamax_step(
    params: NetworkParameters,
    grads: NetworkParameters,
    h: Hyperparameters,
    state: OptimizerState,
) -> tuple[NetworkParameters, OptimizerState]:
    _check_step(params, grads, state, Algorithm.ADAMAX)
    eta = h.resolve_eta(Algorithm.ADAMAX)
    k = state.step_count + 1
    bias1 = 1.0 - h.beta1**k
    p, g, m, u = params.flat, grads.flat, state.slot_a.flat, state.slot_b.flat
    m *= h.beta1
    m += (1.0 - h.beta1) * g
    np.maximum(h.beta2 * u, np.abs(g), out=u)
    p -= (eta / bias1) * m / (u + h.epsilon)
    state.step_count = k
    return params, state


_STEP_FUNCTIONS = {
    Algorithm.SGD: sgd_step,
    Algorithm.RMSPROP: rmsprop_step,
    Algorithm.ADAM: adam_step,
    Algorithm.ADAMAX: adamax_step,
}


def optimizer_step(
    params: NetworkParameters,
    grads: NetworkParameters,
    h: Hyperparameters,
    state: OptimizerState,
) -> tuple[NetworkParameters, OptimizerState]:
    """Dispatch one update step according to ``state.algorithm``."""
    return _STEP_FUNCTIONS[state.algorithm](params, grads, h, state)
