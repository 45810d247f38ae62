"""Property tests: the in-place forward/backward and the array-based ingest
against the straightforward loops they replace, kept here as references."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from socbench import IngestionError, ingest_csv
from socbench.data import DriveCycleRecord
from socbench.network import (
    Activation,
    NetworkParameters,
    backward,
    forward,
    mlp_specs,
)

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
    params = NetworkParameters(specs=specs, weights=weights, biases=biases)
    return params, batch, targets


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
        (line_no, DriveCycleRecord(*(float(cell) for cell in row)))
        for line_no, row in enumerate(rows, start=2)
    ]
    numbered.sort(key=lambda lr: lr[1].time_s)
    deduped, conflicts = [], []
    for line_no, rec in numbered:
        if deduped and rec.time_s == deduped[-1][1].time_s:
            if rec != deduped[-1][1]:
                conflicts.append(
                    f"lines {deduped[-1][0]} and {line_no} share time {rec.time_s}"
                )
            continue
        deduped.append((line_no, rec))
    if conflicts:
        return None, (
            f"{path}: duplicate timestamps with conflicting values: "
            + "; ".join(conflicts)
        )
    return [rec for _, rec in deduped], None


def record_bits(records):
    # repr tells 0.0 from -0.0, which == does not
    return [repr(tuple(vars(r).values())) for r in records]


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
