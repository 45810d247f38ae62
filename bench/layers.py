"""Per-layer metrics from the spans a traced run wrote.

Each metric belongs to one package module (the layer) and is computed from
the spans of the calls into it; see NOTES.md for which end-to-end metric
and workload each one should move.
"""

from __future__ import annotations

import math

NAME, THREAD, START, END, SELF, EXTRA = range(6)


def percentile_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile of durations in seconds, in milliseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return 1000.0 * ordered[rank - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(
    setup_spans: list[list],
    spans: list[list],
    jobs: int,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Every per-layer metric, by the name BENCHMARK.json lists it under.

    ``setup_spans`` come from the traced set-up commands and feed only the
    ``synthetic`` metrics; ``spans`` come from the traced measured command.
    """
    def of(name: str, source: list[list] = spans) -> list[list]:
        return [s for s in source if s[NAME] == name]

    def busy(selected: list[list]) -> float:
        return sum(s[END] - s[START] for s in selected)

    def durations(selected: list[list]) -> list[float]:
        return [s[END] - s[START] for s in selected]

    m: dict[str, float] = {}
    for fn in ("generate_cycle", "write_cycle_csv"):
        m[f"synthetic.{fn}.busy_s"] = busy(of(f"synthetic.{fn}", setup_spans))

    ingest = of("data.ingest_csv")
    m["data.ingest_csv.busy_s"] = busy(ingest)
    m["data.ingest_csv.rows_per_s"] = _ratio(
        sum(s[EXTRA]["rows"] for s in ingest), busy(ingest)
    )
    m["data.coulomb_count.busy_s"] = busy(of("data.coulomb_count"))
    m["data.build_design_matrix.busy_s"] = busy(of("data.build_design_matrix"))

    forwards = of("network.forward")
    step_fwd = [s for s in forwards if s[EXTRA].get("step")]
    eval_fwd = [s for s in forwards if not s[EXTRA].get("step")]
    backs = of("network.backward")
    m["network.forward_step.calls"] = len(step_fwd)
    m["network.forward_step.busy_s"] = busy(step_fwd)
    m["network.forward_step.p50_ms"] = percentile_ms(durations(step_fwd), 50)
    m["network.forward_step.p99_ms"] = percentile_ms(durations(step_fwd), 99)
    m["network.forward_eval.calls"] = len(eval_fwd)
    m["network.forward_eval.rows"] = sum(s[EXTRA]["rows"] for s in eval_fwd)
    m["network.forward_eval.busy_s"] = busy(eval_fwd)
    m["network.backward.calls"] = len(backs)
    m["network.backward.busy_s"] = busy(backs)
    m["network.backward.p50_ms"] = percentile_ms(durations(backs), 50)
    m["network.backward.p99_ms"] = percentile_ms(durations(backs), 99)
    flop = sum(s[EXTRA]["flop"] for s in forwards + backs)
    m["network.gflop_computed"] = flop / 1e9
    m["network.gflops_achieved"] = _ratio(flop / 1e9, busy(forwards) + busy(backs))
    m["network.load_model.busy_s"] = busy(of("network.load_model"))

    steps = of("optimizers.optimizer_step")
    m["optimizers.step.calls"] = len(steps)
    m["optimizers.step.busy_s"] = busy(steps)
    m["optimizers.step.p50_ms"] = percentile_ms(durations(steps), 50)
    m["optimizers.step.p99_ms"] = percentile_ms(durations(steps), 99)
    for algorithm in ("sgd", "rmsprop", "adamax"):
        m[f"optimizers.{algorithm}.busy_s"] = busy(
            [s for s in steps if s[EXTRA]["algorithm"] == algorithm]
        )
    step_bytes = sum(s[EXTRA]["bytes"] for s in steps)
    m["optimizers.step.bytes_computed"] = step_bytes
    m["optimizers.step.gbps_achieved"] = _ratio(step_bytes / 1e9, busy(steps))

    trains = of("harness.train")
    m["harness.steps"] = len(steps)
    m["harness.steps_per_s"] = _ratio(len(steps), busy(trains))
    m["harness.train.calls"] = len(trains)
    m["harness.train.busy_s"] = busy(trains)
    m["harness.train.self_s"] = sum(s[SELF] for s in trains)

    # pool tasks are the (cycle, optimizer) runs; the pool phase runs from
    # the first task's start to the last task's end
    tasks = of("harness.run_single_experiment")
    if tasks:
        pool_wall = max(s[END] for s in tasks) - min(s[START] for s in tasks)
        m["harness.parallel_efficiency"] = _ratio(busy(tasks), jobs * pool_wall)
        m["harness.worker_idle_s"] = max(0.0, jobs * pool_wall - busy(tasks))
    else:
        m["harness.parallel_efficiency"] = 0.0
        m["harness.worker_idle_s"] = 0.0

    (root,) = of("cli.main")
    m["cli.self_s"] = root[SELF]
    m["trace.coverage"] = _ratio(root[END] - root[START] - root[SELF], traced_wall_s)
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return m
