"""Record the reference outputs the benchmark holds every run to.

Run from the repository root, on a commit whose outputs are trusted:

    python3 bench/record_reference.py 0-31 42

For each seed it sets up compare-serial and evaluate-long once, runs the
measured command once, checks it, and stores the output digests in
bench/reference.json under the key of the workload's inputs and flags.
compare-jobs2 shares compare-serial's key, so it must reproduce the serial
output byte for byte.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run as bench


def parse_seeds(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        first, _, last = spec.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return sorted(set(seeds))


def main(argv: list[str]) -> int:
    seeds = parse_seeds(argv) or [bench.DEFAULT_SEED]
    reference = {}
    if bench.REFERENCE.is_file():
        reference = json.loads(bench.REFERENCE.read_text(encoding="utf-8"))
    for name in ("compare-serial", "evaluate-long"):
        w = replace(bench.WORKLOADS[name], setup_reps=1)
        recorded = reference.setdefault(bench.reference_key(w), {})
        for seed in seeds:
            outcome = bench.run_workload(w, seed, 0.0, trace=False, expected=None)
            verifier = outcome.verifier
            if verifier.failures:
                print(f"{name} seed {seed}: {verifier.failures}", file=sys.stderr)
                return 1
            recorded[str(seed)] = verifier.expected
            print(f"{name} seed {seed}: {verifier.expected}", flush=True)
    for key in reference:
        reference[key] = dict(sorted(reference[key].items(), key=lambda kv: int(kv[0])))
    bench.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
