"""Acceptance suite: one test per release criterion, tolerances pinned.

Criteria 7-9 share a desk-scale benchmark: a seeded 10,000-sample random-mix
cycle (1 s sampling, ambient 25 C) compared across SGD, RMSProp and Adamax
with per-optimizer learning rates, run twice through the real CLI so the
second run doubles as the byte-determinism probe. Run with ``-s`` to see one
PASS line per criterion.
"""

import math

import numpy as np
import pytest

from socbench import (
    Algorithm,
    Hyperparameters,
    OptimizerState,
    Profile,
    SyntheticCellParams,
    Telemetry,
    adam_step,
    adamax_step,
    backward,
    coulomb_count,
    count_parameters,
    forward,
    generate_cycle,
    init_network,
    loss_mse,
    make_folds,
    mlp_specs,
    rmsprop_step,
    sgd_step,
)
from socbench.cli import main as cli_main
from socbench.data import DesignMatrix, apply_normalization, fit_normalization
from socbench.harness import FoldMode
from socbench.network import LayerSpec, Activation, NetworkParameters


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


def test_criterion_1_architecture_exactness():
    params = init_network(mlp_specs(4, [256, 256, 256]), seed=0)
    assert count_parameters(params) == 133_121
    per_layer = [w.size + b.size for w, b in zip(params.weights, params.biases)]
    assert per_layer == [1_280, 65_792, 65_792, 257]
    report(1, "architecture exactness")


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        n_hidden = int(rng.integers(1, 3))
        hidden = [int(rng.integers(2, 17)) for _ in range(n_hidden)]
        input_dim = int(rng.integers(1, 17))
        specs = mlp_specs(input_dim, hidden)
        params = init_network(specs, seed=int(rng.integers(0, 2**31)))
        batch = rng.normal(size=(int(rng.integers(1, 33)), input_dim))
        targets = rng.normal(size=batch.shape[0])
        _, cache = forward(params, batch)
        # keep pre-activations away from the ReLU kink so central
        # differences measure a true derivative
        prevs = [cache.inputs] + cache.post_activations[:-1]
        pre_activations = [
            prev @ w.T + b for prev, w, b in zip(prevs, params.weights, params.biases)
        ]
        if min(float(np.min(np.abs(z))) for z in pre_activations) < 1e-3:
            continue
        checked += 1
        grad = backward(params, cache, targets).flat
        step = 1e-5
        flat = params.flat
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            up = loss_mse(forward(params, batch)[0], targets)
            flat[idx] = original - step
            down = loss_mse(forward(params, batch)[0], targets)
            flat[idx] = original
            numeric = (up - down) / (2.0 * step)
            rel = abs(grad[idx] - numeric) / max(1.0, abs(numeric))
            assert rel < 1e-5
    report(2, "gradient correctness, 50 networks")


def _scalar_setup(algorithm):
    params = init_network([LayerSpec(1, 1, Activation.IDENTITY)], seed=0)
    params.weights[0][:] = 0.0
    state = OptimizerState.initial(algorithm, params)
    grads = NetworkParameters(params.specs, np.array([1.0, 0.0]))  # w, b
    return params, state, grads


def test_criterion_3_optimizer_step_oracles():
    # SGD: theta = 1 - 0.01 * 0.5
    params, state, _ = _scalar_setup(Algorithm.SGD)
    params.weights[0][:] = 1.0
    sgd_step(params, NetworkParameters(params.specs, np.array([0.5, 0.0])),
             Hyperparameters(eta=0.01), state)
    assert abs(params.weights[0][0, 0] - 0.995) < 1e-12

    # RMSProp first step: E[g^2]=0.1, step = -eta / sqrt(0.1 + eps)
    params, state, grads = _scalar_setup(Algorithm.RMSPROP)
    rmsprop_step(params, grads, Hyperparameters(eta=0.001), state)
    expected = -0.001 / math.sqrt(0.1 + 1e-7)
    assert abs(expected - (-3.1623e-3)) < 1e-7
    assert abs(params.weights[0][0, 0] - expected) < 1e-12

    # Adam first step: bias-corrected m_hat = v_hat = 1
    params, state, grads = _scalar_setup(Algorithm.ADAM)
    adam_step(params, grads, Hyperparameters(eta=0.001), state)
    expected = -0.001 / (1.0 + 1e-7)
    assert abs(params.weights[0][0, 0] - expected) < 1e-12

    # Adamax first step: m=0.1, u=1, step magnitude ~ eta
    params, state, grads = _scalar_setup(Algorithm.ADAMAX)
    adamax_step(params, grads, Hyperparameters(eta=0.001), state)
    expected = -(0.001 / 0.1) * 0.1 / (1.0 + 1e-7)
    assert abs(params.weights[0][0, 0] - expected) < 1e-12

    # zero gradient with zero accumulators is a fixed point for all four
    for algorithm, step_fn in [
        (Algorithm.SGD, sgd_step), (Algorithm.RMSPROP, rmsprop_step),
        (Algorithm.ADAM, adam_step), (Algorithm.ADAMAX, adamax_step),
    ]:
        params, state, _ = _scalar_setup(algorithm)
        params.weights[0][:] = 0.75
        zero = NetworkParameters(params.specs, np.zeros(2))
        step_fn(params, zero, Hyperparameters(eta=0.5), state)
        assert params.weights[0][0, 0] == 0.75
    report(3, "optimizer step oracles")


def test_criterion_4_coulomb_counting_exactness():
    # constant current: 2.9 A for 1800 s on 2.9 Ah = exactly half
    times = np.arange(0.0, 1801.0, 1.0)
    n = times.size
    records = Telemetry(times, np.full(n, 3.7), np.full(n, 2.9), np.full(n, 25.0))
    soc = coulomb_count(records, 100.0, 2.9)
    assert abs(soc.soc_percent[-1] - 50.0) < 1e-9

    # piecewise-linear current: triangle ramp 0->1->0 A over 120 s,
    # closed-form charge = 60 A*s
    times = np.arange(0.0, 121.0, 1.0)
    currents = np.where(times <= 60.0, times / 60.0, (120.0 - times) / 60.0)
    n = times.size
    records = Telemetry(times, np.full(n, 3.7), currents, np.full(n, 25.0))
    soc = coulomb_count(records, 80.0, 2.0)
    expected = 80.0 - 100.0 * (60.0 / 3600.0) / 2.0
    assert abs(soc.soc_percent[-1] - expected) < 1e-9

    # generator round-trip
    params = SyntheticCellParams()
    for profile in Profile:
        cycle = generate_cycle(params, profile, duration_s=600.0, seed=5,
                               soc0_percent=90.0, amplitude_a=2.0)
        counted = coulomb_count(cycle.records, 90.0, params.capacity_ah)
        assert np.max(np.abs(counted.soc_percent - cycle.soc_percent)) < 1e-6
    report(4, "coulomb counting exactness")


def test_criterion_5_normalization():
    dm = DesignMatrix(
        features=np.array([[2.0, 1.0, 5.0, -1.0],
                           [4.0, 2.0, 6.0, 0.0],
                           [6.0, 3.0, 7.0, 1.0]]),
        targets=np.zeros(3),
    )
    stats = fit_normalization(dm)
    assert abs(stats.means[0] - 4.0) < 1e-9
    assert abs(stats.stds[0] - math.sqrt(8.0 / 3.0)) < 1e-9
    normalized = apply_normalization(dm, stats)
    expected = np.array([-1.224744871391589, 0.0, 1.224744871391589])
    assert np.max(np.abs(normalized.features[:, 0] - expected)) < 1e-9

    rng = np.random.default_rng(55)
    big = DesignMatrix(rng.normal(3.0, 11.0, size=(2000, 4)),
                       rng.uniform(0, 100, 2000))
    out = apply_normalization(big, fit_normalization(big))
    assert np.max(np.abs(out.features.mean(axis=0))) < 1e-9
    assert np.max(np.abs(out.features.std(axis=0) - 1.0)) < 1e-9
    report(5, "normalization")


def test_criterion_6_fold_properties():
    rng = np.random.default_rng(6)
    sizes = sorted({int(n) for n in rng.integers(10, 10_001, size=12)} | {10, 10_000})
    for n in sizes:
        for k in range(2, 11):
            for mode in FoldMode:
                split = make_folds(n, k=k, seed=int(rng.integers(0, 1000)), mode=mode)
                validation = [v for _, v in split.assignments]
                joined = np.concatenate(validation)
                assert joined.size == n
                assert np.unique(joined).size == n
                lengths = [v.size for v in validation]
                assert max(lengths) - min(lengths) <= 1
    report(6, "fold partition properties")


# --- desk-scale benchmark (criteria 7-9) -----------------------------------

CYCLE_SEED = 42
COMPARE_ARGS = [
    "--optimizers", "sgd,rmsprop,adamax",
    "--lr", "sgd=0.0002,rmsprop=0.02,adamax=0.05",
    "--epochs", "12",
    "--batch-size", "64",
    "--k", "4",
    "--seed", "0",
    "--omit-timing",
]


@pytest.fixture(scope="module")
def benchmark_runs(tmp_path_factory):
    """Generate the 10,000-sample cycle, then run compare twice via the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    cycle_csv = root / "mix10k.csv"
    code = cli_main([
        "generate", "--profile", "random", "--duration", "9999",
        "--sample-period-s", "1.0", "--seed", str(CYCLE_SEED),
        "--out", str(cycle_csv),
    ])
    assert code == 0
    assert sum(1 for _ in open(cycle_csv)) == 10_001  # header + 10,000 samples

    runs = []
    for tag in ("first", "second"):
        out_csv = root / f"results_{tag}.csv"
        table_txt = root / f"table_{tag}.txt"
        logs_dir = root / f"logs_{tag}"
        code = cli_main([
            "compare", "--data", str(cycle_csv),
            "--out", str(out_csv), "--out-table", str(table_txt),
            "--logs-dir", str(logs_dir), *COMPARE_ARGS,
        ])
        assert code == 0
        runs.append({"csv": out_csv, "table": table_txt, "logs": logs_dir})
    return runs


def _parse_results(csv_path):
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "cycle,optimizer,mae,mse,rmse,seconds,seed"
    rows = {}
    for line in lines[1:]:
        cycle, optimizer, mae, mse, rmse, seconds, seed = line.split(",")
        rows[optimizer] = {"mae": float(mae), "mse": float(mse),
                           "rmse": float(rmse)}
    return rows


def _final_log_losses(logs_dir, optimizer):
    log = logs_dir / f"mix10k_{optimizer}_final.csv"
    lines = log.read_text().splitlines()
    first = float(lines[1].split(",")[1])
    last = float(lines[-1].split(",")[1])
    return first, last


def test_criterion_7_desk_scale_learning(benchmark_runs):
    run = benchmark_runs[0]
    results = _parse_results(run["csv"])
    for optimizer in ("sgd", "rmsprop", "adamax"):
        epoch1, final = _final_log_losses(run["logs"], optimizer)
        assert final <= 0.5 * epoch1, (
            f"{optimizer}: training MSE {epoch1} -> {final} did not halve"
        )
    assert results["adamax"]["mae"] < 2.0
    report(7, "desk-scale learning, adamax test MAE "
              f"{results['adamax']['mae']:.3f}%")


def test_criterion_8_optimizer_choice_matters(benchmark_runs):
    results = _parse_results(benchmark_runs[0]["csv"])
    maes = [r["mae"] for r in results.values()]
    assert len(maes) == 3
    spread = max(maes) - min(maes)
    assert spread > 0.1, f"best-worst MAE spread {spread} too small"
    for r in results.values():
        assert r["mae"] <= r["rmse"] + 1e-12
    report(8, f"optimizer choice margin {spread:.3f}% MAE")


def test_criterion_9_byte_identical_repeat(benchmark_runs):
    first, second = benchmark_runs
    assert first["csv"].read_bytes() == second["csv"].read_bytes()
    assert first["table"].read_bytes() == second["table"].read_bytes()
    for log in sorted(p.name for p in first["logs"].glob("*.csv")):
        assert (first["logs"] / log).read_bytes() == \
            (second["logs"] / log).read_bytes()
    report(9, "byte-identical repeat of compare")
