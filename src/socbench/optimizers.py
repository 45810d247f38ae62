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
all-zero first gradient.

Each step mutates the parameter vector in place. It walks ``params.flat``,
``grads.flat`` and each slot's ``flat`` in contiguous blocks of
STEP_BLOCK elements, the last block taking the remainder, and writes every
intermediate into two block-sized scratch arrays allocated once per step.
A whole-vector expression allocates a fresh temporary of the full vector
(1 MB for the default network) per operation, and in a fresh process those
temporaries page-fault step after step: a one-epoch ``socbench train`` run
on 10,000 rows took 129k minor page faults that way and takes 22k blocked.
Two things set the block size:

- Adam's six block arrays (parameters, gradient, two slots, two scratch
  arrays) take 768 KiB at 16384 elements, so a block stays in a 2 MiB L2
  cache across the rule's operations.
- Each numpy call on a block releases and retakes the GIL. Under
  ``compare --jobs 2`` the two workers hand it to each other at every
  call, so smaller blocks cost more: at 8192 elements the benchmark's
  two-worker compare ran slower than whole-vector steps.

Every operation is elementwise IEEE arithmetic, in the same order as in
the whole-vector form, so the result is the same bit for bit whatever the
block size.
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


STEP_BLOCK = 16384  # elements per block of a step; see the module docstring


def _blocks(*vectors: np.ndarray):
    """For each block of STEP_BLOCK elements, that block's slice of every
    vector (all of one length), then two scratch arrays of the block's
    length that every block reuses."""
    n = vectors[0].size
    t1, t2 = np.empty(min(n, STEP_BLOCK)), np.empty(min(n, STEP_BLOCK))
    for start in range(0, n, STEP_BLOCK):
        stop = min(start + STEP_BLOCK, n)
        yield *(v[start:stop] for v in vectors), t1[: stop - start], t2[: stop - start]


def sgd_step(
    params: NetworkParameters,
    grads: NetworkParameters,
    h: Hyperparameters,
    state: OptimizerState,
) -> tuple[NetworkParameters, OptimizerState]:
    _check_step(params, grads, state, Algorithm.SGD)
    eta = h.resolve_eta(Algorithm.SGD)
    for p, g, t1, _ in _blocks(params.flat, grads.flat):
        # p -= eta * g
        np.multiply(eta, g, out=t1)
        p -= t1
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
    for p, g, avg_sq, t1, t2 in _blocks(params.flat, grads.flat, state.slot_a.flat):
        # avg_sq = rho * avg_sq + ((1 - rho) * g) * g
        avg_sq *= h.rho
        np.multiply(1.0 - h.rho, g, out=t1)
        t1 *= g
        avg_sq += t1
        # p -= (eta * g) / sqrt(avg_sq + eps)
        np.add(avg_sq, h.epsilon, out=t2)
        np.sqrt(t2, out=t2)
        np.multiply(eta, g, out=t1)
        t1 /= t2
        p -= t1
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
    for p, g, m, v, t1, t2 in _blocks(
        params.flat, grads.flat, state.slot_a.flat, state.slot_b.flat
    ):
        # m = beta1 * m + (1 - beta1) * g
        m *= h.beta1
        np.multiply(1.0 - h.beta1, g, out=t1)
        m += t1
        # v = beta2 * v + ((1 - beta2) * g) * g
        v *= h.beta2
        np.multiply(1.0 - h.beta2, g, out=t1)
        t1 *= g
        v += t1
        # p -= (eta * (m / bias1)) / (sqrt(v / bias2) + eps)
        np.divide(m, bias1, out=t1)
        np.multiply(eta, t1, out=t1)
        np.divide(v, bias2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += h.epsilon
        t1 /= t2
        p -= t1
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
    for p, g, m, u, t1, t2 in _blocks(
        params.flat, grads.flat, state.slot_a.flat, state.slot_b.flat
    ):
        # m = beta1 * m + (1 - beta1) * g
        m *= h.beta1
        np.multiply(1.0 - h.beta1, g, out=t1)
        m += t1
        # u = max(beta2 * u, |g|)
        np.multiply(h.beta2, u, out=t1)
        np.abs(g, out=t2)
        np.maximum(t1, t2, out=u)
        # p -= ((eta / bias1) * m) / (u + eps)
        np.multiply(eta / bias1, m, out=t1)
        np.add(u, h.epsilon, out=t2)
        t1 /= t2
        p -= t1
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
