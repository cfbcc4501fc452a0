"""The repository benchmark: one command, four workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload collect --seed 1 --seconds 5 --trace 0

``--workload`` is one of ``collect``, ``serve``, ``whatif`` and
``ordinate`` (each module's docstring says why it exists).  The seed
generates the workload's inputs; the program only ever sees those
inputs.  ``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` additionally runs a traced pass and reports
the per-layer metrics instead.  Metric names, units and bounds are read
from ``BENCHMARK.json`` at the checkout root.

The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it a report with the environment (nproc, Python and
numpy versions, git sha or source hash, seed, fsync policy), every
correctness check, and the workload's own named figures.  Every
correctness check counts as one attempted operation and a failed check
as a failed one.  Without the program sources next to it the command
exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import traceback

sys.dont_write_bytecode = True  # leave no caches beside the sources

import harness  # noqa: E402

WORKLOADS = ("collect", "serve", "whatif", "ordinate")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(argv)
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    try:
        ctx = harness.prepare(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = importlib.import_module(args.workload).run(ctx)
        if ctx.trace:
            # Layers a workload never enters spend no share of its wall.
            for metric in spec["per_layer"]:
                outcome.per_layer.setdefault(metric["name"], 0.0)
        metrics = spec["per_layer"] if ctx.trace else spec["end_to_end"]
        harness.emit(ctx, outcome, metrics, harness.provenance(ctx))
    except Exception:  # the run failed: no result line, non-zero exit
        traceback.print_exc()
        return 1
    finally:
        harness.cleanup(ctx)
    return 0


if __name__ == "__main__":
    sys.exit(main())
