"""Full-size runs of the seven ``BENCH_*.json`` suites.

Each suite carries its own gate table (:mod:`repro.bench.harness`):
correctness gates hold in every mode, timing floors only at full size.
This driver runs every suite once under ``benchmark.pedantic``, prints
its summary, and requires no gate or floor to fail.  Under
``REPRO_BENCH_SMOKE=1`` the same run is a quick harness check.  The
committed ``BENCH_*.json`` files are regenerated with the matching
``repro-roots`` bench subcommand, not from here.
"""

from __future__ import annotations

import pytest

import repro.bench
from benchmarks.conftest import emit

#: (runner in :mod:`repro.bench`, the file it writes)
SUITES = [
    ("run_perf_suite", "BENCH_ordination.json"),
    ("run_archive_suite", "BENCH_archive.json"),
    ("run_ingest_suite", "BENCH_ingest.json"),
    ("run_serving_suite", "BENCH_serving.json"),
    ("run_robustness_suite", "BENCH_robustness.json"),
    ("run_scale_suite", "BENCH_scale.json"),
    ("run_scenario_suite", "BENCH_scenario.json"),
]


@pytest.mark.parametrize("runner, filename", SUITES, ids=[s[1] for s in SUITES])
def test_suite(benchmark, capsys, tmp_path, runner, filename):
    output = tmp_path / filename
    suite = benchmark.pedantic(
        getattr(repro.bench, runner),
        kwargs={"output": output},
        rounds=1,
        iterations=1,
    )
    emit(capsys, "\n".join(suite.summary_lines()))
    assert output.exists()
    assert suite.failures() == []
