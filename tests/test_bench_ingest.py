"""Smoke-mode wiring of the incremental-ingest benchmark into tier-1.

``REPRO_BENCH_SMOKE=1`` trims :func:`repro.bench.run_ingest_suite` to
the two-provider sub-corpus; the full-size run — and the ≥10x
delta-vs-full speedup floor it enforces — lives in
``benchmarks/bench_suites.py``.  The correctness gates hold
unconditionally here: the delta-maintained archive must land on the
same catalog hash and byte-identical persisted index as a from-scratch
ingest, verify clean, and have ingested exactly one tag per origin.
"""

from __future__ import annotations

import json

from repro.bench import run_ingest_suite


class TestIngestSmoke:
    def test_smoke_suite_runs_and_writes(self, smoke_env, dataset, tmp_path):
        output = tmp_path / "BENCH_ingest.json"
        suite = run_ingest_suite(dataset, output=output)

        results = suite.results
        assert results["mode"] == "smoke"
        assert set(results) == {
            "schema",
            "mode",
            "env",
            "origins",
            "full",
            "delta",
            "speedup",
            "floor",
            "correctness",
        }

        assert suite.failures() == []
        correctness = results["correctness"]
        assert correctness["catalog_match"] is True
        assert correctness["index_identical"] is True
        assert correctness["index_fresh"] is True
        assert correctness["verify_ok"] is True
        assert correctness["delta_is_one_tag_per_origin"] is True

        # Shape sanity: the delta side really was one tag per origin.
        assert results["delta"]["snapshots"] == results["origins"]
        assert results["full"]["snapshots"] > results["origins"]
        assert results["floor"]["min_speedup"] == 10.0

        payload = json.loads(output.read_text())
        assert payload == results

        lines = "\n".join(suite.summary_lines())
        assert "smoke" in lines and "speedup" in lines
