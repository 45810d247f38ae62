"""Property tests: the in-place forward/backward, the array-based ingest,
the columnar generator and writer against the straightforward loops they
replace, kept here as references; plus invariants of the SOC features."""

import csv
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from socbench import (
    IngestionError,
    Profile,
    SyntheticCellParams,
    Telemetry,
    coulomb_count,
    generate_cycle,
    ingest_csv,
    moving_average,
    write_cycle_csv,
)
from socbench.data import CSV_HEADER, _ingest_rows, _read_columns
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
CAPACITIES = ["", "3.2", "3.20", "2.9", "abc"]
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


def ingest_outcome(ingest, path, invert):
    """The columns' bytes and the capacity, or the error message."""
    try:
        cycle = ingest(path, invert)
    except IngestionError as exc:
        return str(exc)
    return (
        [col.tobytes() for col in columns_of(cycle.records)],
        repr(cycle.capacity_ah),
        cycle.name,
    )


@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(csv_texts(), csv_texts(one_mess=True)), invert=st.booleans())
def test_ingest_matches_row_by_row_parse(tmp_path_factory, text, invert):
    path = tmp_path_factory.mktemp("paths") / "cycle.csv"
    path.write_bytes(text.encode("utf-8"))
    assert ingest_outcome(ingest_csv, path, invert) == ingest_outcome(
        _ingest_rows, path, invert
    )


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
    assert _read_columns(path) == Telemetry(
        [0.0, 1.0, 2.0], [4.2, 4.1, 4.0], [1.5] * 3, [25.0] * 3
    )


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
