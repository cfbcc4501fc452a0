"""Smoke-mode wiring of the serving benchmark into tier-1.

``REPRO_BENCH_SMOKE=1`` trims :func:`repro.bench.run_serving_suite` to
the two-provider sub-corpus and a short concurrency ladder; the
full-size run — and the committed floors (≥ 10x binary-index cold
start, daemon p50 within 5x of warm in-process) — lives in
``benchmarks/bench_suites.py``.  The correctness gates hold
unconditionally here: the mmap-backed index must answer element-wise
identically to the JSON path on every probe, and the ladder must
report p50/p99 at ≥ 3 concurrency levels.
"""

from __future__ import annotations

import json

from repro.bench import run_serving_suite
from repro.bench.serving import CONCURRENCY_LEVELS


class TestServingSmoke:
    def test_smoke_suite_runs_and_writes(self, smoke_env, dataset, tmp_path):
        output = tmp_path / "BENCH_serving.json"
        suite = run_serving_suite(dataset, output=output)

        results = suite.results
        assert results["mode"] == "smoke"
        assert set(results) == {
            "schema",
            "mode",
            "env",
            "providers",
            "snapshots",
            "fingerprints",
            "cold_start",
            "equivalence",
            "warm",
            "daemon",
        }

        # Correctness gates hold in every mode: the mapped trust.bin is
        # the index rebuilt from manifests, through every query surface.
        assert suite.failures() == []
        equivalence = results["equivalence"]
        assert equivalence["index_identical"] is True
        assert equivalence["trusted_on_identical"] is True
        assert equivalence["ever_shipped_identical"] is True
        assert equivalence["in_force_identical"] is True
        assert equivalence["ok"] is True
        assert equivalence["trusted_on_checked"] > 0
        assert equivalence["ever_shipped_checked"] > 0

        # The acceptance shape: p50/p99 at ≥ 3 concurrency levels.
        levels = results["daemon"]["levels"]
        assert len(levels) >= 3
        assert [level["concurrency"] for level in levels] == list(CONCURRENCY_LEVELS)
        for level in levels:
            assert level["p50_ms"] > 0
            assert level["p99_ms"] >= level["p50_ms"]
            assert level["requests"] > 0

        assert results["cold_start"]["floor"]["min_speedup"] == 10.0
        assert results["daemon"]["overhead"]["floor"]["max_ratio"] == 5.0
        assert results["daemon"]["startup_s"] > 0

        payload = json.loads(output.read_text())
        assert payload == results

        lines = "\n".join(suite.summary_lines())
        assert "cold start" in lines and "daemon overhead" in lines
