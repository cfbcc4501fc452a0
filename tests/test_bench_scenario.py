"""Smoke-mode wiring of the scenario-engine benchmark into tier-1.

``REPRO_BENCH_SMOKE=1`` trims :func:`repro.bench.run_scenario_suite` to
a two-provider, three-date grid with a two-chain workload and a 15 ms
simulated fetch; the full-size run — and the ≥2x pool / ≥5x warm-cache
floors it enforces — lives in ``benchmarks/bench_suites.py``.  The
determinism gates hold unconditionally here: serial, parallel, cold,
and warm sweeps must serialize to byte-identical canonical run JSON
and the warm sweep must be pure cache hits.
"""

from __future__ import annotations

import json

from repro.bench import run_scenario_suite


class TestScenarioSmoke:
    def test_smoke_suite_runs_and_writes(self, smoke_env, corpus, tmp_path):
        output = tmp_path / "BENCH_scenario.json"
        suite = run_scenario_suite(corpus, output=output)

        results = suite.results
        assert results["mode"] == "smoke"
        assert set(results) == {
            "schema",
            "mode",
            "env",
            "grid",
            "serial",
            "parallel",
            "cold",
            "warm",
            "floor",
            "correctness",
        }

        assert suite.failures() == []
        correctness = results["correctness"]
        assert correctness["serial_parallel_identical"] is True
        assert correctness["cold_warm_identical"] is True
        assert correctness["serial_cold_identical"] is True
        assert correctness["warm_all_hits"] is True
        assert correctness["impact_nonzero"] is True

        # Shape sanity: the grid matches the smoke configuration and
        # the warm sweep really was answered from the cache.
        grid = results["grid"]
        assert grid["cells"] == len(grid["providers"]) * len(grid["dates"])
        assert results["warm"]["cache_hits"] == grid["cells"]
        assert results["cold"]["cache_misses"] == grid["cells"]
        assert results["floor"]["min_parallel_speedup"] == 2.0
        assert results["floor"]["min_warm_speedup"] == 5.0

        payload = json.loads(output.read_text())
        assert payload == results

        lines = "\n".join(suite.summary_lines())
        assert "smoke" in lines and "speedup" in lines
