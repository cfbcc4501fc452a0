"""Benchmark suites behind the committed ``BENCH_*.json`` files.

Each suite module measures one layer and declares its gate tables;
:mod:`repro.bench.harness` is the one scaffold they share (smoke
switch, dataset resolution, timing, gates, writer).  Reachable three
ways: the ``repro-roots`` bench subcommands, ``benchmarks/bench_suites.py``
under pytest-benchmark, and tier-1 smoke tests (``REPRO_BENCH_SMOKE=1``)
that keep every harness from rotting.
"""

from repro.bench.archive import run_archive_suite
from repro.bench.harness import BenchResult, is_smoke_mode
from repro.bench.ingest import run_ingest_suite
from repro.bench.perf import run_perf_suite
from repro.bench.robustness import run_robustness_suite
from repro.bench.scale import run_scale_suite
from repro.bench.scenario import run_scenario_suite
from repro.bench.serving import run_serving_suite

__all__ = [
    "BenchResult",
    "is_smoke_mode",
    "run_archive_suite",
    "run_ingest_suite",
    "run_perf_suite",
    "run_robustness_suite",
    "run_scale_suite",
    "run_scenario_suite",
    "run_serving_suite",
]
