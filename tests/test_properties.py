"""Property tests: the in-place forward/backward, the blocked predict, the
flat-vector optimizer steps, the array-based ingest, the columnar generator
and writer against the straightforward code they replace, kept here as
references; plus the model-file round trip, invariants of the SOC
features and the command line's exit-code contract."""

import copy
import csv
import io
import json
import math
import os
import random
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import OTHER_KERNELS, run_on_kernel
from socbench import (
    Algorithm,
    Hyperparameters,
    IngestionError,
    NormalizationStats,
    OptimizerState,
    Profile,
    SyntheticCellParams,
    Telemetry,
    coulomb_count,
    generate_cycle,
    ingest_csv,
    moving_average,
    optimizers,
    write_cycle_csv,
)
from socbench import cli
from socbench.cli import main
from socbench.data import (
    CSV_HEADER,
    DesignMatrix,
    _ingest_rows,
    _read_columns,
    write_design_matrix_csv,
)
from socbench.errors import ConfigError, ModelMismatchError
from socbench.network import _one_blas_thread, _openblas_thread_api
from socbench.network import (
    DEFAULT_HIDDEN,
    SCORE_ROWS,
    Activation,
    LayerSpec,
    NetworkParameters,
    backward,
    forward,
    init_network,
    load_model,
    mlp_specs,
    predict,
    save_model,
)
from socbench.optimizers import optimizer_step

# small exact values, so that pre-activations often land exactly on 0.0
# or -0.0, plus arbitrary ones
ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0]),
    st.floats(-3.0, 3.0, allow_nan=False),
)


def reference_forward(params, batch):
    """Layer by layer with fresh arrays: pre-activations and outputs."""
    pre, post = [], []
    a = batch
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if spec.activation is Activation.RELU else z
        pre.append(z)
        post.append(a)
    return pre, post


def reference_backward(params, batch, targets):
    """Reverse mode with the ReLU mask taken from the pre-activation."""
    pre, post = reference_forward(params, batch)
    n = batch.shape[0]
    delta = ((2.0 / n) * (post[-1][:, 0] - targets))[:, None]
    grad_w, grad_b = [], []
    for layer in range(len(params.specs) - 1, -1, -1):
        a_prev = batch if layer == 0 else post[layer - 1]
        grad_w.insert(0, delta.T @ a_prev)
        grad_b.insert(0, delta.sum(axis=0))
        if layer > 0:
            delta = delta @ params.weights[layer]
            if params.specs[layer - 1].activation is Activation.RELU:
                delta = delta * (pre[layer - 1] > 0.0)
    return grad_w, grad_b


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def networks_and_batches(draw):
    input_dim = draw(st.integers(1, 5))
    hidden = draw(st.lists(st.integers(1, 6), max_size=3))
    specs = mlp_specs(input_dim, hidden)
    weights = [
        draw(arrays(np.float64, (s.output_dim, s.input_dim), elements=ELEMENTS))
        for s in specs
    ]
    biases = [
        draw(arrays(np.float64, (s.output_dim,), elements=ELEMENTS)) for s in specs
    ]
    n = draw(st.integers(1, 8))
    batch = draw(arrays(np.float64, (n, input_dim), elements=ELEMENTS))
    targets = draw(arrays(np.float64, (n,), elements=ELEMENTS))
    flat = np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])
    return NetworkParameters(specs, flat), batch, targets


@settings(max_examples=200, deadline=None)
@given(networks_and_batches())
def test_forward_matches_reference_bit_for_bit(case):
    params, batch, _ = case
    predictions, cache = forward(params, batch)
    _, post = reference_forward(params, batch)
    assert same_bits(predictions, post[-1][:, 0])
    assert len(cache.post_activations) == len(post)
    for got, want in zip(cache.post_activations, post):
        assert same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(networks_and_batches())
def test_backward_matches_pre_activation_mask_bit_for_bit(case):
    params, batch, targets = case
    _, cache = forward(params, batch)
    grads = backward(params, cache, targets)
    want_w, want_b = reference_backward(params, batch, targets)
    for got, want in zip(grads.weights + grads.biases, want_w + want_b):
        assert same_bits(got, want)


@settings(max_examples=10, deadline=None)
@given(
    n=st.sampled_from([37, 64]),
    one_blas_thread=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_backward_of_default_network_matches_per_layer_reference(
    n, one_blas_thread, seed
):
    """The gradient GEMMs write into views of one vector; on the default
    network they must give what fresh per-layer products give."""
    rng = np.random.default_rng(seed)
    params = init_network(mlp_specs(4, DEFAULT_HIDDEN), seed)
    for b in params.biases:
        b[:] = rng.normal(scale=0.5, size=b.shape)  # so that ReLU clamps some
    batch = rng.normal(size=(n, 4))
    targets = rng.normal(size=n)
    with _one_blas_thread() if one_blas_thread else nullcontext():
        _, cache = forward(params, batch)
        grads = backward(params, cache, targets)
        want_w, want_b = reference_backward(params, batch, targets)
    for got, want in zip(grads.weights + grads.biases, want_w + want_b):
        assert same_bits(got, want)


# --- optimizer steps ----------------------------------------------------------


def reference_step(algorithm, ps, gs, h, slot_a, slot_b, k):
    """One step of ``algorithm`` as a loop over per-layer arrays, as the
    rules were written before the flat layout; ``k`` is the step number."""
    eta = h.resolve_eta(algorithm)
    if algorithm is Algorithm.SGD:
        for p, g in zip(ps, gs, strict=True):
            p -= eta * g
    elif algorithm is Algorithm.RMSPROP:
        for p, g, avg_sq in zip(ps, gs, slot_a, strict=True):
            avg_sq *= h.rho
            avg_sq += (1.0 - h.rho) * g * g
            p -= eta * g / np.sqrt(avg_sq + h.epsilon)
    elif algorithm is Algorithm.ADAM:
        bias1 = 1.0 - h.beta1**k
        bias2 = 1.0 - h.beta2**k
        for p, g, m, v in zip(ps, gs, slot_a, slot_b, strict=True):
            m *= h.beta1
            m += (1.0 - h.beta1) * g
            v *= h.beta2
            v += (1.0 - h.beta2) * g * g
            p -= eta * (m / bias1) / (np.sqrt(v / bias2) + h.epsilon)
    else:
        bias1 = 1.0 - h.beta1**k
        for p, g, m, u in zip(ps, gs, slot_a, slot_b, strict=True):
            m *= h.beta1
            m += (1.0 - h.beta1) * g
            np.maximum(h.beta2 * u, np.abs(g), out=u)
            p -= (eta / bias1) * m / (u + h.epsilon)


def per_layer(params):
    """Fresh copies of W0, b0, W1, b1, ..."""
    return [a.copy() for pair in zip(params.weights, params.biases) for a in pair]


def run_steps_against_reference(algorithm, params, h, steps, rng):
    """Steps ``params`` ``steps`` times with random gradients, both through
    optimizer_step and through reference_step on per-layer copies, and
    checks parameters and slots bit for bit after every step."""
    state = OptimizerState.initial(algorithm, params)
    ps = per_layer(params)
    slot_a = [np.zeros_like(p) for p in ps]
    slot_b = [np.zeros_like(p) for p in ps]
    for k in range(1, steps + 1):
        scale = rng.choice([0.0, 1e-3, 1.0, 50.0])
        grads = NetworkParameters(
            params.specs, scale * rng.normal(size=params.flat.size)
        )
        optimizer_step(params, grads, h, state)
        reference_step(algorithm, ps, per_layer(grads), h, slot_a, slot_b, k)
        assert state.step_count == k
        assert all(same_bits(a, b) for a, b in zip(per_layer(params), ps, strict=True))
        for slot, want in ((state.slot_a, slot_a), (state.slot_b, slot_b)):
            if slot is not None:
                assert all(
                    same_bits(a, b) for a, b in zip(per_layer(slot), want, strict=True)
                )


@settings(max_examples=200, deadline=None)
@given(
    algorithm=st.sampled_from(list(Algorithm)),
    input_dim=st.integers(1, 5),
    hidden=st.lists(st.integers(1, 6), max_size=3),
    steps=st.integers(1, 4),
    eta=st.sampled_from([None, 0.0, 1e-3, 0.5]),
    block=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_steps_match_per_array_loops_bit_for_bit(
    algorithm, input_dim, hidden, steps, eta, block, seed
):
    """A block of 1-7 elements splits even these small networks into many
    blocks, most of them with a short last block."""
    params = init_network(mlp_specs(input_dim, hidden), seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizers, "STEP_BLOCK", block)
        run_steps_against_reference(
            algorithm, params, Hyperparameters(eta=eta), steps,
            np.random.default_rng(seed),
        )


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_default_network_steps_match_per_array_loops_bit_for_bit(algorithm):
    params = init_network(mlp_specs(4, DEFAULT_HIDDEN), seed=3)
    assert params.flat.size % optimizers.STEP_BLOCK != 0  # a short last block
    run_steps_against_reference(
        algorithm, params, Hyperparameters(eta=0.05), 3, np.random.default_rng(3)
    )


# --- model files ----------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    input_dim = draw(st.integers(1, 5))
    dims = [input_dim] + draw(st.lists(st.integers(1, 6), max_size=3)) + [1]
    specs = [
        LayerSpec(dims[i], dims[i + 1], draw(st.sampled_from(list(Activation))))
        for i in range(len(dims) - 1)
    ]
    size = sum(s.output_dim * (s.input_dim + 1) for s in specs)
    flat = draw(arrays(np.float64, (size,), elements=FINITE))
    stats = draw(
        st.none()
        | st.builds(
            NormalizationStats,
            means=arrays(np.float64, (input_dim,), elements=FINITE),
            stds=arrays(
                np.float64,
                (input_dim,),
                elements=st.floats(
                    min_value=0.0, exclude_min=True, allow_infinity=False
                ),
            ),
        )
    )
    return NetworkParameters(specs, flat), stats, draw(st.integers(-(2**63), 2**63 - 1))


@settings(max_examples=200, deadline=None)
@given(model=models())
def test_model_file_round_trips_bit_for_bit(tmp_path_factory, model):
    params, stats, seed = model
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(path, params, normalization=stats, seed=seed)
    loaded, loaded_stats, loaded_seed = load_model(path)
    assert loaded.specs == params.specs
    assert same_bits(loaded.flat, params.flat)
    assert loaded_seed == seed
    if stats is None:
        assert loaded_stats is None
    else:
        assert same_bits(loaded_stats.means, stats.means)
        assert same_bits(loaded_stats.stds, stats.stds)


# Stands for the literal 1e400 in a mutated model file: json reads it as
# inf but never writes it.
HUGE = "__1e400__"
NOT_INTEGERS = [True, False, None, 4.9, 4.0, math.nan, math.inf, HUGE, "4", [4], {}]
NOT_NUMBERS = [True, False, None, math.nan, -math.inf, HUGE, "0.5", [], {}]
NOT_CONTAINERS = [0, 1.5, True, "x", {}]


def mutate_model(text, draw):
    """A model file text with one defect that makes it malformed: cut
    short, not an object, a missing key, a non-integer or wrong dim or seed,
    a non-number array entry, an array of the wrong length, an unknown
    activation, or a list or object replaced by a scalar."""
    kind = draw(
        st.sampled_from(
            ["truncate", "not-object", "drop", "integer", "number", "shape",
             "activation", "container"]
        )
    )
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    specs, norm = doc["layer_specs"], doc["normalization"]
    if kind == "not-object":
        doc = draw(st.sampled_from([[], 0, "model", None, True]))
    elif kind == "drop":
        owner = draw(st.sampled_from([doc, *specs, *([norm] if norm else [])]))
        del owner[draw(st.sampled_from(sorted(owner)))]
    elif kind == "integer":
        dims = [(s, k) for s in specs for k in ("in", "out")]
        owner, key = draw(st.sampled_from([(doc, "seed"), *dims]))
        # a different positive dim breaks a weight shape; a seed may be any int
        wrong = [] if owner is doc else [0, -1, owner[key] + 1]
        owner[key] = draw(st.sampled_from(NOT_INTEGERS + wrong))
    elif kind == "number":
        rows = [row for w in doc["weights"] for row in w] + doc["biases"]
        if norm:
            rows += [norm["means"], norm["stds"]]
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(NOT_NUMBERS))
    elif kind == "shape":
        lists = [specs, doc["weights"], doc["biases"], *doc["weights"], *doc["biases"]]
        lists += [row for w in doc["weights"] for row in w]
        if norm:
            lists += [norm["means"], norm["stds"]]
        target = draw(st.sampled_from(lists))
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(copy.deepcopy(target[-1]))
    elif kind == "activation":
        spec = draw(st.sampled_from(specs))
        spec["activation"] = draw(
            st.sampled_from(["tanh", "RELU", "", None, 1, ["relu"]])
        )
    else:
        key = draw(
            st.sampled_from(["layer_specs", "weights", "biases", "normalization"])
        )
        doc[key] = draw(st.sampled_from(NOT_CONTAINERS))
    return json.dumps(doc).replace(json.dumps(HUGE), "1e400")


@settings(max_examples=300, deadline=None)
@given(model=models(), data=st.data())
def test_malformed_model_file_is_a_model_error(tmp_path_factory, model, data):
    """load_model raises ModelMismatchError, and evaluate exits 4 with a
    one-line message and no traceback."""
    params, stats, seed = model
    directory = tmp_path_factory.mktemp("model")
    path, cycle = directory / "model.json", directory / "cycle.csv"
    save_model(path, params, normalization=stats, seed=seed)
    path.write_text(mutate_model(path.read_text(), data.draw), encoding="utf-8")
    cycle.write_text(",".join(CSV_HEADER) + "\n0,3.7,1.0,25\n1,3.7,1.0,25\n")
    with pytest.raises(ModelMismatchError):
        load_model(path)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["evaluate", "--model", str(path), "--data", str(cycle)])
    assert code == 4
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1


# row counts for predict(): tiny batches, and either side of the first three
# block edges, where the last block takes the remainder
PREDICT_ROWS = st.one_of(
    st.integers(0, 5),
    st.sampled_from([k * SCORE_ROWS for k in (1, 2, 3)]).flatmap(
        lambda edge: st.integers(edge - 5, edge + 5)
    ),
)


def scoring_network(hidden, hidden_activation, output_activation, seed):
    """A network with the drawn activations and random biases, so that ReLU
    clamps some outputs."""
    rng = np.random.default_rng(seed)
    specs = [
        LayerSpec(s.input_dim, s.output_dim, hidden_activation)
        for s in mlp_specs(4, hidden)[:-1]
    ] + [LayerSpec(hidden[-1] if hidden else 4, 1, output_activation)]
    params = init_network(specs, seed)
    for b in params.biases:
        b[:] = rng.normal(scale=0.5, size=b.shape)
    return params, rng


SCORING_NETWORKS = dict(
    hidden=st.sampled_from([[], [8], [256, 256, 256]]),
    hidden_activation=st.sampled_from(list(Activation)),
    output_activation=st.sampled_from(list(Activation)),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@example(8194, [256, 256, 256], Activation.RELU, Activation.IDENTITY, False, 0)
@example(12290, [256, 256, 256], Activation.RELU, Activation.RELU, True, 1)
@given(n=PREDICT_ROWS, one_blas_thread=st.booleans(), **SCORING_NETWORKS)
def test_predict_matches_forward_bit_for_bit(
    n, hidden, hidden_activation, output_activation, one_blas_thread, seed
):
    """``like_forward`` (evaluate's path) equals forward at any thread count."""
    params, rng = scoring_network(hidden, hidden_activation, output_activation, seed)
    batch = rng.normal(size=(n, 4))
    with _one_blas_thread() if one_blas_thread else nullcontext():
        got = predict(params, batch, like_forward=True)
        want, _ = forward(params, batch)
    assert same_bits(got, want)


# n, hidden, hidden_activation, output_activation, seed: cases where an
# OpenBLAS GEMM split between threads rounds some rows differently
BLOCKED_EXAMPLES = [
    (8194, [256, 256, 256], Activation.RELU, Activation.IDENTITY, 0),
    (8500, [256, 256, 256], Activation.RELU, Activation.IDENTITY, 1),
    (12290, [256, 256, 256], Activation.RELU, Activation.RELU, 2),
    (100_001, [256, 256, 256], Activation.RELU, Activation.IDENTITY, 3),
]


def check_blocked_predict(
    set_threads, n, hidden, hidden_activation, output_activation, seed
):
    """The blocked path on two scoring threads gives the bits of a serial
    pass on one, which equal forward's on one BLAS thread; ``set_threads``
    sets OpenBLAS's thread count, on which predict scores."""
    params, rng = scoring_network(hidden, hidden_activation, output_activation, seed)
    batch = rng.normal(size=(n, 4))
    set_threads(2)
    got = predict(params, batch)
    set_threads(1)
    serial = predict(params, batch)
    want, _ = forward(params, batch)
    assert same_bits(got, serial)
    assert same_bits(serial, want)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=PREDICT_ROWS, **SCORING_NETWORKS)
def test_blocked_predict_is_thread_invariant_and_forward_on_one_thread(
    set_blas_threads, n, hidden, hidden_activation, output_activation, seed
):
    check_blocked_predict(
        set_blas_threads, n, hidden, hidden_activation, output_activation, seed
    )


for _case in BLOCKED_EXAMPLES:
    test_blocked_predict_is_thread_invariant_and_forward_on_one_thread = example(
        *_case
    )(test_blocked_predict_is_thread_invariant_and_forward_on_one_thread)


@pytest.mark.parametrize("kernel", OTHER_KERNELS)
def test_blocked_predict_examples_on_kernel(kernel):
    """The explicit examples above under ``OPENBLAS_CORETYPE=kernel``; on
    Haswell a GEMM split between OpenBLAS threads rounds differently from
    the same GEMM on one thread."""
    run_on_kernel(
        kernel,
        "import test_properties as t\n"
        "_, set_threads = t._openblas_thread_api()\n"
        "for case in t.BLOCKED_EXAMPLES:\n"
        "    t.check_blocked_predict(set_threads, *case)\n",
    )


# --- ingestion --------------------------------------------------------------

HEADER = "time_s,voltage_v,current_a,temperature_c"

# timestamps, voltages, currents and temperatures from small pools, so that
# drawn rows often share a timestamp and sometimes repeat exactly
ROWS = st.lists(
    st.tuples(
        st.sampled_from(["0", "0.0", "-0.0", "1", "1.5", "2", "3e0", "10"]),
        st.sampled_from(["3.7", "4.1", "3.70"]),
        st.sampled_from(["1.5", "0", "-0.0", "-2"]),
        st.sampled_from(["25", "25.0", "30"]),
    ),
    min_size=1,
    max_size=12,
)


def write_rows(path, rows):
    body = "".join(",".join(row) + "\n" for row in rows)
    path.write_text(HEADER + "\n" + body, encoding="utf-8")


def reference_dedupe(path, rows):
    """The per-row sort-and-dedupe loop: the records it keeps, or the
    conflict message it raises."""
    numbered = [
        (line_no, tuple(float(cell) for cell in row))
        for line_no, row in enumerate(rows, start=2)
    ]
    numbered.sort(key=lambda lr: lr[1][0])
    deduped, conflicts = [], []
    for line_no, rec in numbered:
        if deduped and rec[0] == deduped[-1][1][0]:
            if rec != deduped[-1][1]:
                conflicts.append(
                    f"lines {deduped[-1][0]} and {line_no} share time {rec[0]}"
                )
            continue
        deduped.append((line_no, rec))
    if conflicts:
        return None, (
            f"{path}: duplicate timestamps with conflicting values: "
            + "; ".join(conflicts)
        )
    return [rec for _, rec in deduped], None


def columns_of(telemetry):
    return [getattr(telemetry, f.name) for f in fields(telemetry)]


def column_bytes(records):
    """Columns as bytes: equal only when equal bit for bit."""
    return [column.tobytes() for column in columns_of(records)]


def record_bits(records):
    """Rows as text: repr tells 0.0 from -0.0, which == does not."""
    if isinstance(records, Telemetry):
        records = zip(*(col.tolist() for col in columns_of(records)))
    return [repr(tuple(row)) for row in records]


@settings(max_examples=200, deadline=None)
@given(rows=ROWS)
def test_ingest_matches_reference_loop(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("ingest") / "cycle.csv"
    write_rows(path, rows)
    records, message = reference_dedupe(path, rows)
    if message is None:
        assert record_bits(ingest_csv(path).records) == record_bits(records)
    else:
        with pytest.raises(IngestionError) as info:
            ingest_csv(path)
        assert str(info.value) == message


@settings(max_examples=100, deadline=None)
@given(
    times=st.lists(
        st.integers(0, 10_000), min_size=1, max_size=30, unique=True
    ).map(sorted),
    seed=st.integers(0, 2**32 - 1),
)
def test_shuffled_duplicated_copy_ingests_like_sorted_original(
    tmp_path_factory, times, seed
):
    rng = random.Random(seed)
    rows = [
        (repr(t / 10), repr(rng.uniform(3.0, 4.2)), repr(rng.uniform(-3.0, 3.0)),
         repr(rng.uniform(0.0, 40.0)))
        for t in times
    ]
    shuffled = rows + [rng.choice(rows) for _ in range(rng.randint(0, len(rows)))]
    rng.shuffle(shuffled)
    folder = tmp_path_factory.mktemp("shuffle")
    write_rows(folder / "sorted.csv", rows)
    write_rows(folder / "shuffled.csv", shuffled)
    original = ingest_csv(folder / "sorted.csv")
    copy = ingest_csv(folder / "shuffled.csv")
    assert record_bits(copy.records) == record_bits(original.records)
    assert len(copy.records) == len(rows)


# --- the one-call column parse against the row-by-row parse ------------------

# field pools: small, so that rows repeat, collide on timestamps and come out
# of order; DIRTY holds what only the row-by-row parse accepts or reports
TIMES = ["0", "0.0", "-0.0", "1", "1.5", "2", "3e0", "10", " 4 "]
VOLTS = ["3.7", "4.1", "3.70"]
CURRENTS = ["1.5", "0", "-0.0", "-2"]
TEMPS = ["25", "25.0", "30"]
DIRTY = ['"1.5"', "1_0.5", "abc", ""]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity"]
OUT_OF_BOUNDS = {1: ["0", "6", "9.9", "-1"], 3: ["-40", "80", "-50", "90"]}
EXTRA_HEADERS = [[], [], [], ["capacity_ah"], ["note"], ["note", "capacity_ah"]]
CAPACITIES = ["", "3.2", "3.20", "2.9", "abc", "nan", "inf", "0", "-1"]
MESSES = ["blank", "repeat", "field", "non-finite", "bound", "extra", "short"]


@st.composite
def csv_texts(draw, one_mess=False):
    """Telemetry CSV text: rows from the pools, timestamps mostly distinct,
    and up to two messes that only the row-by-row parse handles. With
    ``one_mess``, a file the one-call parse would take plus a single mess."""
    extra = [] if one_mess else draw(st.sampled_from(EXTRA_HEADERS))
    distinct = one_mess or draw(st.sampled_from([True, True, True, False]))
    n = draw(st.integers(0, 7 if distinct else 10))
    times = draw(st.lists(st.sampled_from(TIMES), min_size=n, max_size=n,
                          unique_by=float if distinct else None))
    rows = [
        [t]
        + [draw(st.sampled_from(pool)) for pool in (VOLTS, CURRENTS, TEMPS)]
        + [draw(st.sampled_from(CAPACITIES if name == "capacity_ah" else ["", "x"]))
           for name in extra]
        for t in times
    ]
    size = (1, 1) if one_mess else (0, 2)
    for mess in draw(st.lists(st.sampled_from(MESSES), min_size=size[0],
                              max_size=size[1])):
        k = draw(st.integers(0, len(rows)))
        if mess == "blank":
            rows.insert(k, [draw(st.sampled_from(["", "  "]))])
        elif k == len(rows) or len(rows[k]) < len(CSV_HEADER):
            continue
        elif mess == "repeat":
            rows.insert(k, list(draw(st.sampled_from(rows))))
        elif mess == "field":
            rows[k][draw(st.integers(0, 3))] = draw(st.sampled_from(DIRTY))
        elif mess == "non-finite":
            rows[k][draw(st.integers(0, 3))] = draw(st.sampled_from(NON_FINITE))
        elif mess == "bound":
            column = draw(st.sampled_from(sorted(OUT_OF_BOUNDS)))
            rows[k][column] = draw(st.sampled_from(OUT_OF_BOUNDS[column]))
        elif mess == "extra":
            rows[k].append("7")
        else:
            rows[k] = rows[k][: draw(st.integers(1, 3))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(CSV_HEADER + extra)] + [",".join(row) for row in rows]
    return "".join(line + end for line in lines)


def ingest_outcome(ingest, path):
    """The columns' bytes and the capacity, or the error message."""
    try:
        cycle = ingest(path)
    except IngestionError as exc:
        return str(exc)
    return (
        [col.tobytes() for col in columns_of(cycle.records)],
        repr(cycle.capacity_ah),
    )


@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(csv_texts(), csv_texts(one_mess=True)))
def test_ingest_matches_row_by_row_parse(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("paths") / "cycle.csv"
    path.write_bytes(text.encode("utf-8"))
    assert ingest_outcome(ingest_csv, path) == ingest_outcome(_ingest_rows, path)


CLEAN = "time_s,voltage_v,current_a,temperature_c\n1,4.1,1.5,25\n0,4.2,1.5,25\n"


@pytest.mark.parametrize(
    "text",
    [
        "time_s,voltage_v,current_a,temperature_c,capacity_ah\n0,4.2,1.5,25,3\n",
        "time_s,voltage_v,current_a,temperature_c,note\n0,4.2,1.5,25,x\n",
        " time_s,voltage_v,current_a,temperature_c\n0,4.2,1.5,25\n",
        CLEAN + '"2",4.2,1.5,25\n',  # quoted field
        CLEAN + "1_0.5,4.2,1.5,25\n",  # loadtxt raises
        CLEAN + "2,4.2,1.5\n",  # short row
        CLEAN + "2,4.2,1.5,25,7\n",  # extra field
        CLEAN + "   \n",  # whitespace-only line
        CLEAN + "2,4.2,nan,25\n",  # not finite
        CLEAN + "inf,4.2,1.5,25\n",
        CLEAN + "2,6.0,1.5,25\n",  # voltage bound
        CLEAN + "2,4.2,1.5,-40\n",  # temperature bound
        CLEAN + "1,4.1,1.5,25\n",  # repeated timestamp
        "time_s,voltage_v,current_a,temperature_c\n\n",  # no data
    ],
)
def test_row_by_row_parse_decides(tmp_path, text):
    path = tmp_path / "cycle.csv"
    path.write_text(text, encoding="utf-8")
    assert _read_columns(path) is None


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_clean_file_is_read_in_one_call(tmp_path, end):
    path = tmp_path / "cycle.csv"
    path.write_bytes((CLEAN + "\n 2 , 4.0,1.5,25").replace("\n", end).encode())
    assert column_bytes(_read_columns(path)) == column_bytes(
        Telemetry([0.0, 1.0, 2.0], [4.2, 4.1, 4.0], [1.5] * 3, [25.0] * 3)
    )


def reference_capacity(path, cells):
    """The per-row capacity_ah rule: a non-empty cell must be a finite
    number > 0 and agree with the first such cell. Returns the capacity
    (None without one), or the rejected-rows message."""
    bad, first = [], None
    for line_no, cell in enumerate(cells, start=2):
        cell = cell.strip()
        if not cell:
            continue
        try:
            value = float(cell)
        except ValueError:
            value = None
        if value is None or not (math.isfinite(value) and value > 0.0):
            bad.append(f"line {line_no}: bad capacity_ah {cell!r}")
        elif first is None:
            first = (value, line_no)
        elif value != first[0]:
            bad.append(
                f"line {line_no}: capacity_ah {value!r} conflicts with "
                f"{first[0]!r} on line {first[1]}"
            )
    if bad:
        return f"{path}: rejected rows: " + "; ".join(bad)
    return None if first is None else first[0]


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(
        st.sampled_from(CAPACITIES + ["-0.0", "-inf", " 3.2 ", "1e-300"]),
        min_size=1,
        max_size=6,
    )
)
def test_capacity_matches_reference_loop(tmp_path_factory, cells):
    path = tmp_path_factory.mktemp("capacity") / "cycle.csv"
    rows = [f"{t},3.7,1.5,25,{cell}\n" for t, cell in enumerate(cells)]
    path.write_text(",".join(CSV_HEADER) + ",capacity_ah\n" + "".join(rows))
    try:
        got = ingest_csv(path).capacity_ah
    except IngestionError as exc:
        got = str(exc)
    assert got == reference_capacity(path, cells)


# --- the columnar generator and writer ---------------------------------------

FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def reference_write(telemetry, path):
    """The csv.writer loop write_cycle_csv replaces."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in zip(*(col.tolist() for col in columns_of(telemetry))):
            writer.writerow([repr(x) for x in row])


@settings(max_examples=100, deadline=None)
@given(
    data=st.integers(0, 20).flatmap(
        lambda n: st.lists(arrays(np.float64, (n,), elements=FLOATS),
                           min_size=4, max_size=4)
    )
)
def test_write_cycle_csv_matches_csv_writer(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("write")
    telemetry = Telemetry(*data)
    write_cycle_csv(telemetry, folder / "got.csv")
    reference_write(telemetry, folder / "want.csv")
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()


def reference_write_design_matrix(dm, path):
    """The csv.writer loop write_design_matrix_csv replaces."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2", "x3", "x4", "soc"])
        for i in range(len(dm)):
            writer.writerow(
                [repr(float(x)) for x in dm.features[i]]
                + [repr(float(dm.targets[i]))]
            )


@settings(max_examples=100, deadline=None)
@given(
    data=st.integers(0, 20).flatmap(
        lambda n: st.tuples(arrays(np.float64, (n, 4), elements=FLOATS),
                            arrays(np.float64, (n,), elements=FLOATS))
    )
)
def test_write_design_matrix_csv_matches_csv_writer(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("export")
    dm = DesignMatrix(*data)
    write_design_matrix_csv(dm, folder / "got.csv")
    reference_write_design_matrix(dm, folder / "want.csv")
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()


def reference_temperatures(params, current):
    """The forward-Euler recurrence over numpy scalars."""
    n = current.size
    temperature = np.empty(n)
    temperature[0] = params.t_ambient_c
    power = current**2 * params.r_internal_ohm
    equilibrium = params.t_ambient_c + params.heating_k_per_w * power
    rate = min(params.cooling_rate_per_s * params.sample_period_s, 1.0)
    for i in range(1, n):
        temperature[i] = temperature[i - 1] + rate * (
            equilibrium[i - 1] - temperature[i - 1]
        )
    return temperature


@settings(max_examples=100, deadline=None)
@given(
    params=st.builds(
        SyntheticCellParams,
        r_internal_ohm=st.floats(0.0, 0.2),
        t_ambient_c=st.one_of(st.integers(-20, 45), st.floats(-20.0, 45.0)),
        heating_k_per_w=st.floats(0.0, 50.0),
        cooling_rate_per_s=st.floats(0.0, 20.0),
        sample_period_s=st.sampled_from([0.1, 0.5, 1.0, 3]),
    ),
    profile=st.sampled_from(list(Profile)),
    duration_s=st.floats(0.05, 300.0),
    seed=st.integers(0, 2**16),
    amplitude_a=st.one_of(st.integers(0, 5), st.floats(-3.0, 5.0)),
)
def test_generated_temperatures_match_numpy_scalar_recurrence(
    params, profile, duration_s, seed, amplitude_a
):
    if duration_s / params.sample_period_s < 1.0:  # one row: refused
        with pytest.raises(ConfigError, match="need at least 2"):
            generate_cycle(params, profile, duration_s, seed)
        return
    cycle = generate_cycle(params, profile, duration_s, seed, soc0_percent=60.0,
                           amplitude_a=amplitude_a)
    want = reference_temperatures(params, cycle.records.current_a)
    assert same_bits(cycle.records.temperature_c, want)


# --- SOC feature invariants --------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    integral=st.booleans(),
    values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
    window=st.integers(1, 70),
)
def test_moving_average_matches_naive_loop(integral, values, window):
    x = np.array([round(v) for v in values] if integral else values, dtype=float)
    naive = np.array(
        [sum(x[max(0, i - window + 1) : i + 1].tolist()) / min(i + 1, window)
         for i in range(x.size)]
    )
    out = moving_average(x, window)
    if integral:  # exact sums: the two agree to the bit
        assert same_bits(out, naive)
    else:
        np.testing.assert_allclose(out, naive, rtol=1e-9, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.floats(0.01, 20.0), min_size=2, max_size=40),
    currents=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=41),
    split=st.integers(1, 38),
)
def test_coulomb_count_is_additive_over_segments(steps, currents, split):
    n = min(len(steps) + 1, len(currents))
    t = np.concatenate(([0.0], np.cumsum(steps)))[:n]
    i = np.array(currents[:n])
    k = min(split, n - 2) + 1  # the segments share sample k - 1

    def count(start, stop, soc0):
        rows = slice(start, stop)
        flat = np.ones(stop - start)
        return coulomb_count(
            Telemetry(t[rows], 3.7 * flat, i[rows], 25.0 * flat), soc0, 2.9
        )

    whole = count(0, n, 50.0)
    head = count(0, k, 50.0)
    tail = count(k - 1, n, head.soc_percent[-1])
    assert whole.clamp_count == head.clamp_count == tail.clamp_count == 0
    assert same_bits(whole.soc_percent[:k], head.soc_percent)
    np.testing.assert_allclose(whole.soc_percent[k - 1 :], tail.soc_percent,
                               rtol=0, atol=1e-9)


# --- the whole command line: every setting, from every source -------------

NUMBER_EDGES = ["-1", "0", "0.5", "nan", "inf", "-inf", "1e300", "1e-300",
                "1e-310", "1e400", "", "abc"]
INT_EDGES = ["-1", "0", "1", "2", "4", "", "abc", "2.5", "1e400", "nan"]
SWITCH_EDGES = ["true", "no", "1", "maybe", ""]
# each drawn value of these stays small where it passes validation, so an
# example never allocates or trains for real
SPECIAL_EDGES = {
    "hidden": ["", "2", "2,2", "0", "-1", "2,", "abc", "1e400"],
    "optimizer": ["sgd", "ADAMAX", "nadam", ""],
    "optimizers": ["sgd", "rmsprop,adamax", ",", "", "foo"],
    "fold_mode": ["shuffled", "contiguous", "purged", ""],
    "profile": ["constant", "pulse", "random", "square", ""],
    "seed": ["-1", "0", "7", "", "abc", "1e400", "99999999999999999999"],
}
PATH_KEYS = {"data", "data_dir", "model", "out", "out_model", "out_log",
             "export_features", "predictions", "out_table", "logs_dir"}
INT_KEYS = {"epochs", "batch_size", "window", "k", "jobs"}
CLI_EXIT_CODES = {0, 1, 2, 3, 4}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Read-only inputs: a 200-row cycle, a 4-2-1 model and bad files."""
    root = tmp_path_factory.mktemp("cli_inputs")
    cycle = generate_cycle(SyntheticCellParams(sample_period_s=1.0),
                           Profile.RANDOM_MIX, 199.0, seed=5)
    write_cycle_csv(cycle.records, root / "cycle.csv")
    (root / "csvs").mkdir()
    write_cycle_csv(cycle.records, root / "csvs" / "one.csv")
    save_model(root / "model.json", init_network(mlp_specs(4, [2]), seed=0),
               normalization=NormalizationStats(np.zeros(4), np.ones(4)))
    (root / "bytes.txt").write_bytes(b"time_s,\xff\n")
    (root / "empty.txt").write_text("", encoding="utf-8")
    (root / "empty_dir").mkdir()
    return root


def edge_values(key, setting, inputs, out_dir):
    """The drawn raw texts of one setting."""
    if key in ("data", "model"):
        names = ["cycle.csv", "model.json", "bytes.txt", "empty.txt", "empty_dir",
                 "absent.csv"]
        return [str(inputs / name) for name in names]
    if key == "data_dir":
        names = ["csvs", "empty_dir", "cycle.csv", "absent"]
        return [str(inputs / name) for name in names]
    if key in PATH_KEYS:
        # an output goes to a fresh file, a directory, a missing one or nowhere
        return [str(out_dir / key), str(out_dir), str(out_dir / "absent" / key), ""]
    if key in SPECIAL_EDGES:
        return SPECIAL_EDGES[key]
    if setting.convert is cli._parse_lr_spec:
        return ["0.01", "sgd=nan", "adam=-5,sgd=0.1", "foo=1", "=", ""]
    if setting.flag == cli._SWITCH:
        return SWITCH_EDGES
    return INT_EDGES if key in INT_KEYS else NUMBER_EDGES


def rejected_values(setting, values):
    """(raw, reason) for each value the setting's converter rejects."""
    rejected = []
    for raw in values:
        try:
            setting.convert(raw)
        except ValueError as exc:
            rejected.append((raw, str(exc)))
    return rejected


# tiny runs: 200 rows, 2 hidden units, 1 epoch, 2 folds
BASE_ARGS = {
    "generate": {"profile": "random", "duration": "30", "seed": "1", "out": "g.csv"},
    "train": {"data": "cycle.csv", "optimizer": "adamax", "hidden": "2",
              "epochs": "1", "out_model": "m.json", "out_log": "l.csv"},
    "evaluate": {"model": "model.json", "data": "cycle.csv"},
    "compare": {"data": "cycle.csv", "optimizers": "sgd", "hidden": "2",
                "epochs": "1", "k": "2", "out": "r.csv"},
}


def base_values(command, inputs, out_dir):
    return {
        key: str(inputs / raw) if key in ("data", "model")
        else str(out_dir / raw) if key in PATH_KEYS else raw
        for key, raw in BASE_ARGS[command].items()
    }


def run_main(argv, env_seed, cwd):
    """main(argv) run in cwd, where default output paths land, with
    SOC_BENCH_SEED set to env_seed (None: unset)."""
    saved_env = os.environ.pop("SOC_BENCH_SEED", None)
    saved_cwd = os.getcwd()
    if env_seed is not None:
        os.environ["SOC_BENCH_SEED"] = env_seed
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(cwd)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        raise AssertionError(f"main raised SystemExit({exc.code})") from None
    finally:
        os.chdir(saved_cwd)
        os.environ.pop("SOC_BENCH_SEED", None)
        if saved_env is not None:
            os.environ["SOC_BENCH_SEED"] = saved_env
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(BASE_ARGS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_exits_with_a_documented_code(
    tmp_path_factory, cli_inputs, command, data
):
    """Any mix of edge values, from flags, a config file and SOC_BENCH_SEED,
    and any misused argument, ends in a documented exit code with no
    exception; a failure prints exactly one line starting with error:."""
    schema = cli.COMMANDS[command][1]
    out_dir = tmp_path_factory.mktemp("cli_out")
    values = {
        key: ("flag", raw)
        for key, raw in base_values(command, cli_inputs, out_dir).items()
    }
    drawn = st.lists(st.sampled_from(sorted(schema)), max_size=4, unique=True)
    for key in data.draw(drawn):
        edges = edge_values(key, schema[key], cli_inputs, out_dir)
        raw = data.draw(st.sampled_from(edges))
        values[key] = (data.draw(st.sampled_from(["flag", "config"])), raw)

    argv, lines = [command], []
    for key, (source, raw) in values.items():
        flag = "--" + key.replace("_", "-")
        if source == "config":
            lines.append(f"{key}={raw}")
        elif schema[key].flag == cli._SWITCH:
            argv.append(flag)
        elif data.draw(st.booleans()):
            argv.append(f"{flag}={raw}")
        else:
            argv += [flag, raw]  # a value like -inf reads as an option here
    # stray and incomplete arguments, and --help
    argv += data.draw(st.lists(st.sampled_from(["--bogus", "stray", "--seed", "-h"]),
                               max_size=1))
    config = data.draw(st.sampled_from(
        ["lines", "lines", "lines", "none", "none", "bytes", "directory", "absent"]
    ))
    if config == "lines":
        extra = st.sampled_from(["# note", "", "bogus=1", "novalue"])
        lines += data.draw(st.lists(extra, max_size=1))
        (out_dir / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv += ["--config", str(out_dir / "run.cfg")]
    elif config != "none":
        target = {"bytes": cli_inputs / "bytes.txt", "directory": cli_inputs,
                  "absent": out_dir / "absent.cfg"}[config]
        argv += ["--config", str(target)]
    env_seed = data.draw(st.sampled_from([None] * 7 + SPECIAL_EDGES["seed"]))

    code, err = run_main(argv, env_seed, out_dir)
    assert code in CLI_EXIT_CODES
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (0 if code == 0 else 1), err


@pytest.mark.parametrize("command", sorted(BASE_ARGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rejected_value_is_one_check_from_any_source(
    tmp_path_factory, cli_inputs, command, data
):
    """A value its converter rejects exits 2 with the same error line from
    a flag, a config file or (for the seed) SOC_BENCH_SEED, before any
    input is read or output written."""
    schema = cli.COMMANDS[command][1]
    out_dir = tmp_path_factory.mktemp("cli_out")
    rejected = {
        key: rejected_values(setting, edge_values(key, setting, cli_inputs, out_dir))
        for key, setting in schema.items()
    }
    key = data.draw(st.sampled_from(sorted(key for key in rejected if rejected[key])))
    setting = schema[key]
    raw, why = data.draw(st.sampled_from(rejected[key]))
    flag = "--" + key.replace("_", "-")
    sources = ["config"] + (["env"] if setting.env else [])
    if schema[key].flag != cli._SWITCH:
        sources.append("flag")
    source = data.draw(st.sampled_from(sources))

    # every other setting valid; a bad value fails before any file is opened
    argv, env_seed = [command], None
    for other, value in base_values(command, cli_inputs, out_dir).items():
        if other != key:
            argv.append(f"--{other.replace('_', '-')}={value}")
    if source == "flag":
        argv.append(f"{flag}={raw}")
        where = flag
    elif source == "config":
        (out_dir / "run.cfg").write_text(f"{key}={raw}\n", encoding="utf-8")
        argv += ["--config", str(out_dir / "run.cfg")]
        where = f"config key {key}"
    else:
        env_seed, where = raw, "SOC_BENCH_SEED"

    code, err = run_main(argv, env_seed, out_dir)
    assert code == 2
    assert err == f"error: {where}: bad value {raw!r} ({flag} {why})\n"
    written = [path.name for path in out_dir.iterdir()]
    assert written == (["run.cfg"] if source == "config" else [])


# --- metamorphic: one cycle's outputs do not depend on the rest of the run ----

# tiny compare runs: 200-row cycles, 2 hidden units, 1 epoch, 2 folds
METAMORPHIC_ARGS = ["--optimizers", "sgd,adamax", "--hidden", "2", "--epochs", "1",
                    "--k", "2", "--soc0", "90", "--omit-timing"]


@pytest.fixture(scope="module")
def two_cycles(tmp_path_factory):
    """Cycles a.csv and b.csv, and cycle a's outputs from a compare of it
    alone: its results rows and its log files by name."""
    root = tmp_path_factory.mktemp("metamorphic")
    for seed, name in ((11, "a"), (12, "b")):
        cycle = generate_cycle(SyntheticCellParams(sample_period_s=1.0),
                               Profile.RANDOM_MIX, 199.0, seed=seed, soc0_percent=90.0)
        write_cycle_csv(cycle.records, root / f"{name}.csv")
    alone = cycle_a_outputs(root, tmp_path_factory.mktemp("alone"), root / "a.csv")
    assert len(alone[0]) == 2 and len(alone[1]) == 2 * 3
    return root, alone


def cycle_a_outputs(root, out_dir, *data):
    """Cycle a's rows of results.csv and its --logs-dir files (name to
    bytes) from one compare over ``data``."""
    argv = ["compare", *(arg for path in data for arg in ("--data", str(path))),
            "--out", "results.csv", "--logs-dir", "logs", *METAMORPHIC_ARGS]
    code, err = run_main(argv, None, out_dir)
    assert (code, err) == (0, "")
    rows = [line for line in (out_dir / "results.csv").read_text().splitlines()
            if line.startswith("a,")]
    logs = {path.name: path.read_bytes()
            for path in sorted((out_dir / "logs").glob("a_*.csv"))}
    return rows, logs


@pytest.mark.parametrize("order", [("a", "b"), ("b", "a")],
                         ids=["second-cycle", "reversed-data"])
def test_other_cycles_leave_a_cycles_outputs_alone(
    tmp_path_factory, two_cycles, order
):
    root, alone = two_cycles
    paths = [root / f"{name}.csv" for name in order]
    assert cycle_a_outputs(root, tmp_path_factory.mktemp("out"), *paths) == alone


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_duplicated_shuffled_rows_leave_a_cycles_outputs_alone(
    tmp_path_factory, two_cycles, seed
):
    # repeated timestamps send the file through the row-by-row parse,
    # which sorts the rows and drops the exact duplicates
    root, alone = two_cycles
    header, *rows = (root / "a.csv").read_text(encoding="utf-8").splitlines(True)
    rng = random.Random(seed)
    rows += rng.sample(rows, rng.randint(1, len(rows)))
    rng.shuffle(rows)
    folder = tmp_path_factory.mktemp("shuffled")
    (folder / "a.csv").write_text(header + "".join(rows), encoding="utf-8")
    out_dir = tmp_path_factory.mktemp("out")
    assert cycle_a_outputs(root, out_dir, folder / "a.csv", root / "b.csv") == alone
