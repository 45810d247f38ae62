"""Dense feed-forward network with ReLU hidden layers and a linear output.

A layer's role comes from its position: every layer but the last applies
ReLU, and the last, the output layer, is linear. All math is float64.
Every parameter lives in one flat vector, and each layer's weights are an
(output_dim, input_dim) view into it; a batch is (n, input_dim) and the
forward pass computes ``a @ W.T + b`` layer by layer. Gradients come from
exact reverse-mode differentiation of the mean-squared-error loss.
"""

from __future__ import annotations

import contextvars
import ctypes
import json
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import chain, pairwise
from pathlib import Path

import numpy as np

from .data import NormalizationStats
from .errors import ConfigError, InputError, ModelMismatchError


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: input_dim -> output_dim; its position sets its role."""

    input_dim: int
    output_dim: int

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigError(
                f"layer dims must be >= 1, got {self.input_dim}->{self.output_dim}"
            )


def validate_layer_chain(specs: list[LayerSpec]) -> None:
    if not specs:
        raise ConfigError("network needs at least one layer")
    for i in range(len(specs) - 1):
        if specs[i].output_dim != specs[i + 1].input_dim:
            raise ConfigError(
                f"layer {i} output_dim {specs[i].output_dim} does not match "
                f"layer {i + 1} input_dim {specs[i + 1].input_dim}"
            )


def mlp_specs(input_dim: int, hidden: list[int]) -> list[LayerSpec]:
    """Hidden layers of the given widths plus a single-unit output layer.

    ``hidden=[]`` yields a plain linear model.
    """
    return [LayerSpec(a, b) for a, b in pairwise([input_dim, *hidden, 1])]


DEFAULT_HIDDEN = [256, 256, 256]


def _parameter_count(specs: list[LayerSpec]) -> int:
    return sum(s.output_dim * (s.input_dim + 1) for s in specs)


@dataclass
class NetworkParameters:
    """Every weight and bias of a network in one contiguous float64 vector.

    ``flat`` is laid out layer by layer: W0 row-major, b0, W1, b1, and so
    on. ``weights`` (one (output_dim, input_dim) matrix per layer) and
    ``biases`` (one (output_dim,) vector per layer) are views into
    ``flat``, so writing through a view writes the vector. Gradients and
    optimizer slots use the same type and layout.
    """

    specs: list[LayerSpec]
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        size = _parameter_count(self.specs)
        flat = self.flat
        if not (
            isinstance(flat, np.ndarray)
            and flat.dtype == np.float64
            and flat.shape == (size,)
            and flat.flags.c_contiguous
        ):
            raise InputError(
                f"flat must be a contiguous float64 vector of {size} values "
                "for these layer specs"
            )
        self.weights, self.biases = [], []
        start = 0
        for spec in self.specs:
            stop = start + spec.output_dim * spec.input_dim
            self.weights.append(
                flat[start:stop].reshape(spec.output_dim, spec.input_dim)
            )
            start, stop = stop, stop + spec.output_dim
            self.biases.append(flat[start:stop])
            start = stop


@dataclass
class ForwardCache:
    """Intermediates of one forward pass, consumed by backward(): its
    parameters, input batch and each layer's output (one array per layer)."""

    params: NetworkParameters
    inputs: np.ndarray
    post_activations: list[np.ndarray] = field(default_factory=list)


def init_network(specs: list[LayerSpec], seed: int) -> NetworkParameters:
    """Glorot-uniform weights (bounds +/- sqrt(6/(fan_in+fan_out))), zero biases.

    The same seed always yields bit-identical parameters. A network with
    more parameters than numpy's largest array holds is a ConfigError.
    """
    validate_layer_chain(specs)
    rng = np.random.default_rng(seed)
    count = _parameter_count(specs)
    try:
        flat = np.zeros(count)
    except ValueError:  # beyond numpy's largest array
        raise ConfigError(f"a network of {count} parameters is more than can be "
                          "allocated") from None
    params = NetworkParameters(list(specs), flat)
    for spec, w in zip(params.specs, params.weights, strict=True):
        limit = np.sqrt(6.0 / (spec.input_dim + spec.output_dim))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return params


def _checked_batch(params: NetworkParameters, batch: np.ndarray) -> np.ndarray:
    """The batch as a float64 (n, input_dim) array of finite values, for a
    network with a single-unit output layer."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise InputError(f"batch must be 2-D (n, input_dim), got shape {x.shape}")
    if x.shape[1] != params.specs[0].input_dim:
        raise InputError(
            f"batch has {x.shape[1]} features, network expects "
            f"{params.specs[0].input_dim}"
        )
    if not np.all(np.isfinite(x)):
        raise InputError("batch contains non-finite values")
    if params.specs[-1].output_dim != 1:
        raise InputError("forward() and predict() require a single-unit output layer")
    return x


def _layers(params: NetworkParameters) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """(weights, biases, relu) of each layer: ReLU on every layer but the last."""
    pairs = zip(params.weights, params.biases, strict=True)
    return [(w, b, layer < len(params.specs) - 1) for layer, (w, b) in enumerate(pairs)]


def _finish_layer(a: np.ndarray, b: np.ndarray, relu: bool) -> None:
    """Adds the bias to the layer product ``a``, then ReLU if ``relu``, in place."""
    a += b
    if relu:
        np.maximum(a, 0.0, out=a)


def forward(
    params: NetworkParameters, batch: np.ndarray
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a (n, input_dim) batch.

    Returns predictions of shape (n,) and the cache backward() needs,
    which holds ``params`` itself. The output layer must have a single
    unit. Each layer is computed in place in one fresh array, with the same
    values, element for element, as ``np.maximum(a @ W.T + b, 0.0)`` (a
    hidden layer) or ``a @ W.T + b`` (the output layer). Scoring, which
    needs no cache, goes through predict().
    """
    x = _checked_batch(params, batch)
    cache = ForwardCache(params, x)
    a = x
    for w, b, relu in _layers(params):
        a = a @ w.T
        _finish_layer(a, b, relu)
        cache.post_activations.append(a)
    return a[:, 0], cache


# OpenBLAS thread-count entry points, tried in order: numpy's bundled
# scipy-openblas, an ILP64 OpenBLAS, a plain OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _openblas_thread_api() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of the OpenBLAS loaded in this process,
    found through the symbols it exports; None when there is none. Looked
    up once per process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(handle, get_name, None)
            set_ = getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# holders of the one-thread pin and the count to restore when the last leaves
_pin_lock = threading.Lock()
_pin_holders = 0
_pin_restore = 0


@contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread for the block and yield the count it
    replaced: the process's thread budget, which ``predict`` scores on.

    ``predict`` takes it while it scores and ``harness.train`` while its
    epochs run, in whichever process calls them, so their bits do not
    depend on the thread count or kernel; a step's small GEMMs run at
    one-thread speed anyway. The thread count is process-wide, so the pin
    is shared: holders on any thread, nested (``train`` calls ``predict``)
    or overlapping, are counted under a lock; the first saves the count,
    each yields it, and the last to leave restores it. Without OpenBLAS
    the pin does nothing and yields 1.
    """
    global _pin_holders, _pin_restore
    api = _openblas_thread_api()
    if api is None:
        yield 1
        return
    get, set_ = api
    with _pin_lock:
        if _pin_holders == 0:
            _pin_restore = get()
            set_(1)
        _pin_holders += 1
    try:
        yield _pin_restore  # fixed while any holder is in
    finally:
        with _pin_lock:
            _pin_holders -= 1
            if _pin_holders == 0:
                set_(_pin_restore)


def _share_blas_threads(processes: int) -> None:
    """In one of ``processes`` processes that score at once (the workers of
    ``compare --jobs N``): cut OpenBLAS's thread count, the scoring budget,
    to this process's share; does nothing without OpenBLAS."""
    api = _openblas_thread_api()
    if api is not None:
        get, set_ = api
        set_(max(1, get() // processes))


SCORE_ROWS = 512  # rows per block of predict()


def _score_share(
    layers: list, x: np.ndarray, out: np.ndarray, blocks: list[tuple[int, int]]
) -> None:
    """Each ``(start, end)`` row block of ``x`` through ``layers``, (weights,
    biases, relu) triples; the last layer writes the block's rows of ``out``."""
    *inner, (top_w, top_b, top_relu) = layers
    for start, end in blocks:
        rows = x[start:end]
        for w, b, relu in inner:
            rows = rows @ w.T
            _finish_layer(rows, b, relu)
        rows = np.matmul(rows, top_w.T, out=out[start:end])
        _finish_layer(rows, top_b, top_relu)


def predict(
    params: NetworkParameters, batch: np.ndarray, *, like_forward: bool = False
) -> np.ndarray:
    """Predictions of shape (n,), without keeping every layer's output.

    Each block of SCORE_ROWS rows, the last block taking the remainder,
    runs through every layer into one (n, 1) result, so a pass holds that
    result plus about two blocks per scoring thread (1 MB each for the
    default network; the last block, up to 2 * SCORE_ROWS - 1 rows, counts
    up to double) whatever n is. No block is shorter than SCORE_ROWS
    rows unless n is: a 1-4 row block takes a different GEMM path and
    rounds differently from the same rows inside a large product.

    The blocks are split into one contiguous share per scoring thread, one
    per OpenBLAS thread (the count ``_one_blas_thread`` replaced, 1
    without OpenBLAS) and at most one per block. Shares differ by at most
    one block, and the last share, which holds the long last block, has the
    fewest, so rows per share differ by at most SCORE_ROWS. A ``compare
    --jobs N`` worker's count is its share, the parent's count over N. The
    caller's thread scores the first share and a ``ThreadPoolExecutor`` the
    others, each helper in a copy of the caller's context, which holds
    numpy's error state (``np.errstate``). OpenBLAS is pinned to one thread
    meanwhile, so each block's products run on one thread in a fixed
    order: the bits are the same at any thread count on every OpenBLAS
    kernel, and equal ``forward(params, batch)[0]`` computed on one BLAS
    thread. The helpers are joined before the pin is released; an error
    raised in a share is raised here, the first share's error first.

    ``like_forward=True`` keeps the output layer as one product over all n
    rows, so the last hidden layer writes its blocks into one (n, width)
    array. The pin is released before that product, which runs at the
    process's BLAS thread count: it is the only product of a scoring pass
    whose bits depend on that count. A (n, width) @ (width, 1) product runs
    through OpenBLAS's threaded matrix-vector kernel, which splits the rows
    between its threads, and rows at the end of a thread's range round
    differently; so at more than one thread a few predictions differ from
    the blocked ones. On SkylakeX the result equals ``forward(params,
    batch)[0]`` at any thread count. ``evaluate`` passes it to keep the
    predictions it has always written.
    """
    x = _checked_batch(params, batch)
    layers = _layers(params)
    blocked = layers[:-1] if like_forward else layers
    a = x
    if blocked:
        n = x.shape[0]
        a = np.empty((n, blocked[-1][1].size))
        cuts = range(SCORE_ROWS, n - SCORE_ROWS + 1, SCORE_ROWS)
        blocks = list(pairwise([0, *cuts, n]))
        score = partial(_score_share, blocked, x, a)
        # the executor starts a thread per submitted share, none for one share
        with _one_blas_thread() as threads, ThreadPoolExecutor(threads) as helpers:
            count = min(len(blocks), threads)
            # ceiling cuts: shares before the last take the spare blocks, so
            # the last share, which holds the longest block, has the fewest
            edges = [-(-len(blocks) * i // count) for i in range(count + 1)]
            shares = [blocks[start:end] for start, end in pairwise(edges)]
            futures = [
                helpers.submit(contextvars.copy_context().run, score, share)
                for share in shares[1:]
            ]
            score(shares[0])
            for future in futures:
                future.result()
    if like_forward:
        out_w, out_b, out_relu = layers[-1]
        a = a @ out_w.T
        _finish_layer(a, out_b, out_relu)
    return a[:, 0]


def _loss_inputs(
    predictions: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise InputError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise InputError("loss needs at least one sample")
    return p, t


def loss_mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    p, t = _loss_inputs(predictions, targets)
    return float(np.mean((p - t) ** 2))


def loss_mae(predictions: np.ndarray, targets: np.ndarray) -> float:
    p, t = _loss_inputs(predictions, targets)
    return float(np.mean(np.abs(p - t)))


def backward(
    params: NetworkParameters, cache: ForwardCache, targets: np.ndarray
) -> NetworkParameters:
    """Exact gradients of the batch MSE with respect to every weight and bias,
    as one vector laid out like ``params.flat``.

    The ReLU subgradient at exactly zero is taken as 0. For ReLU, z > 0
    exactly where max(z, 0) > 0, so the mask of every hidden layer comes
    from its cached output. The cache must come from a forward() call on
    this very ``params`` object (else InputError) with the targets' batch.
    """
    if cache.params is not params:
        raise InputError("forward cache does not come from these network parameters")

    t = np.asarray(targets, dtype=np.float64)
    n = cache.inputs.shape[0]
    if t.shape != (n,):
        raise InputError(f"targets shape {t.shape} does not match batch size {n}")

    predictions = cache.post_activations[-1][:, 0]
    # dJ/dz for the linear output layer, J = mean((pred - t)^2)
    delta = ((2.0 / n) * (predictions - t))[:, None]

    grads = NetworkParameters(params.specs, np.empty_like(params.flat))
    for layer in range(len(params.specs) - 1, -1, -1):
        a_prev = cache.inputs if layer == 0 else cache.post_activations[layer - 1]
        np.matmul(delta.T, a_prev, out=grads.weights[layer])
        delta.sum(axis=0, out=grads.biases[layer])
        if layer > 0:
            delta = delta @ params.weights[layer]  # a fresh array
            delta *= cache.post_activations[layer - 1] > 0.0  # a hidden layer
    return grads


# --- model persistence ----------------------------------------------------
#
# JSON schema: layer_specs (list of {in, out, activation}: "relu" on every
# layer but the last, "identity"), weights (per layer, row-major), biases,
# normalization ({means, stds}), seed. repr() of a float round-trips
# exactly, and json uses it, so save/load is value-exact at double precision.


def save_model(
    path: str | Path,
    params: NetworkParameters,
    normalization: NormalizationStats,
    seed: int = 0,
) -> None:
    doc = {
        "layer_specs": [
            {"in": s.input_dim, "out": s.output_dim,
             "activation": "relu" if relu else "identity"}
            for s, (_, _, relu) in zip(params.specs, _layers(params), strict=True)
        ],
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "normalization": {"means": list(normalization.means),
                          "stds": list(normalization.stds)},
        "seed": seed,
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _json_int(value) -> int:
    # a JSON integer; json reads 4.9 and 1e400 as floats and true as a bool
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_numbers(value) -> np.ndarray:
    """A JSON number, or a list (of lists) of numbers, as a float64 array.

    numpy alone would read true, false and numeric strings as numbers."""
    array = np.asarray(value, dtype=np.float64)
    leaves = [value]
    for _ in range(array.ndim):
        leaves = chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:
        raise TypeError("expected JSON numbers only")
    return array


def load_model(path: str | Path) -> tuple[NetworkParameters, NormalizationStats, int]:
    """Returns (params, normalization_stats, seed).

    Any file that is not a model this module could have saved, from broken
    JSON, a misplaced activation or no normalization to arrays that do not
    fit ``layer_specs``, raises ModelMismatchError.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        specs = [
            LayerSpec(_json_int(s["in"]), _json_int(s["out"]))
            for s in doc["layer_specs"]
        ]
        validate_layer_chain(specs)
        if specs[-1].output_dim != 1:
            raise ModelMismatchError(
                f"model file {path}: output layer has {specs[-1].output_dim} "
                "units, not 1"
            )
        activations = [s["activation"] for s in doc["layer_specs"]]
        if activations != ["relu"] * (len(specs) - 1) + ["identity"]:
            raise ModelMismatchError(
                f"model file {path}: activations {activations!r} are not relu on "
                "every hidden layer and identity on the output layer"
            )
        weights = [_json_numbers(w) for w in doc["weights"]]
        biases = [_json_numbers(b) for b in doc["biases"]]
        seed = _json_int(doc["seed"])
        if doc.get("normalization") is None:
            raise ModelMismatchError(f"model file {path}: no normalization")
        means = _json_numbers(doc["normalization"]["means"])
        stds = _json_numbers(doc["normalization"]["stds"])
    except (ConfigError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ModelMismatchError(f"malformed model file {path}: {exc}") from exc

    if not len(specs) == len(weights) == len(biases):
        raise ModelMismatchError(
            f"model file {path}: {len(specs)} layer_specs but {len(weights)} "
            f"weights and {len(biases)} biases"
        )
    for spec, w, b in zip(specs, weights, biases, strict=True):
        if w.shape != (spec.output_dim, spec.input_dim) or b.shape != (spec.output_dim,):
            raise ModelMismatchError(
                f"model file {path}: stored arrays do not match layer_specs"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ModelMismatchError(
                f"model file {path}: non-finite weights or biases"
            )
    input_dim = specs[0].input_dim
    if means.shape != (input_dim,) or stds.shape != (input_dim,):
        raise ModelMismatchError(
            f"model file {path}: normalization has {means.size} means and "
            f"{stds.size} stds for {input_dim} inputs"
        )
    if not np.all(np.isfinite(means)):
        raise ModelMismatchError(f"model file {path}: non-finite normalization means")
    try:
        norm = NormalizationStats(means, stds)
    except InputError as exc:
        raise ModelMismatchError(f"model file {path}: {exc}") from exc
    flat = np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])
    return NetworkParameters(specs, flat), norm, seed
