"""Run the socbench CLI with a timing span around every call into a module.

Usage: python3 bench/traced_cli.py SPANS_JSON socbench-args...

The wrappers replace each traced function on every socbench module that
holds it, so callers that imported it by name (``from .network import
forward`` in harness and cli) see the wrapper too. Spans stay in memory and
are written to SPANS_JSON as a list of
``[name, thread, start_s, end_s, self_s, extra]`` when the command ends,
whatever its exit code. ``self_s`` is the span's time minus the time of
the spans it directly caused on the same thread.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

from socbench import cli, data, harness, network, optimizers, synthetic

MODULES = (synthetic, data, network, optimizers, harness, cli)

TRACED = {
    synthetic: ("generate_cycle", "write_cycle_csv"),
    data: (
        "ingest_csv",
        "coulomb_count",
        "build_design_matrix",
        "fit_normalization",
        "apply_normalization",
    ),
    network: ("init_network", "forward", "backward", "load_model", "save_model"),
    optimizers: ("optimizer_step",),
    harness: (
        "prepare_cycle",
        "train",
        "cross_validate",
        "run_single_experiment",
        "run_comparison",
    ),
}


def _gemm_dims(params) -> list[tuple[int, int]]:
    return [(s.input_dim, s.output_dim) for s in params.specs]


def _forward_extra(args, result) -> dict:
    rows = args[1].shape[0]
    flop = sum(2 * rows * i * o for i, o in _gemm_dims(args[0]))
    return {"rows": rows, "flop": flop, "cache": id(result[1])}


def _backward_extra(args, result) -> dict:
    rows = args[1].inputs.shape[0]
    # dW = delta.T @ a_prev on every layer, delta @ W below the top layer
    flop = sum(
        2 * rows * i * o * (2 if layer else 1)
        for layer, (i, o) in enumerate(_gemm_dims(args[0]))
    )
    return {"rows": rows, "flop": flop}


def _step_extra(args, result) -> dict:
    params, _, _, state = args
    n = sum(w.size + b.size for w, b in zip(params.weights, params.biases))
    arrays = 2 + bool(state.slot_a) + bool(state.slot_b)  # params, grads, slots
    return {"algorithm": state.algorithm.value, "bytes": 8 * n * arrays}


def _ingest_extra(args, result) -> dict:
    return {"rows": len(result.records)}


EXTRAS = {
    "network.forward": _forward_extra,
    "network.backward": _backward_extra,
    "optimizers.optimizer_step": _step_extra,
    "data.ingest_csv": _ingest_extra,
}


class Tracer:
    """Collects spans from every thread; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        extra_of = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time of direct children on this thread
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
            extra = extra_of(args, result) if extra_of else {}
            if name == "network.backward":
                self._mark_step_forward(args[1])
            self_s = end - start - frame[0]
            span = [name, threading.get_ident(), start, end, self_s, extra]
            with self._lock:
                self.spans.append(span)
            if name == "network.forward":
                self._local.last_forward = span
            return result

        return wrapper

    def _mark_step_forward(self, cache) -> None:
        # a forward whose cache feeds backward() is a training-step forward;
        # every other forward is a full-set evaluation pass
        last = getattr(self._local, "last_forward", None)
        if last is not None and last[5]["cache"] == id(cache):
            last[5]["step"] = True

    def install(self) -> None:
        for owner, names in TRACED.items():
            short = owner.__name__.rsplit(".", 1)[1]
            for fn_name in names:
                original = getattr(owner, fn_name)
                wrapped = self.wrap(f"{short}.{fn_name}", original)
                for module in MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def run_main(self, argv: list[str]) -> int:
        return self.wrap("cli.main", cli.main)(argv)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_main(argv)
    finally:
        for span in tracer.spans:
            span[5].pop("cache", None)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
