"""Smoke-mode wiring of the archive benchmarks into the tier-1 suite.

``REPRO_BENCH_SMOKE=1`` trims :func:`repro.bench.run_archive_suite` to
a couple of providers and a handful of snapshots; the full-size run —
and the ≥10x warm-query floor it enforces — lives in
``benchmarks/bench_suites.py``.  Here the correctness gates still hold
unconditionally: byte-idempotent re-ingest, identity reconstruction,
archive/live distance agreement, and a clean ``verify``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import run_archive_suite
from repro.bench.harness import SMOKE_ENV, SMOKE_PROVIDERS, SMOKE_SNAPSHOTS_PER_PROVIDER


class TestArchiveSmoke:
    def test_smoke_suite_runs_and_writes(self, smoke_env, dataset, tmp_path):
        output = tmp_path / "BENCH_archive.json"
        suite = run_archive_suite(dataset, output=output)

        results = suite.results
        assert results["mode"] == "smoke"
        assert results["providers"] == SMOKE_PROVIDERS
        assert results["snapshots"] == SMOKE_PROVIDERS * SMOKE_SNAPSHOTS_PER_PROVIDER
        assert set(results) == {
            "schema",
            "mode",
            "env",
            "snapshots",
            "providers",
            "ingest",
            "query",
            "scrape_analyze",
            "reconstruct",
            "distance",
            "verify",
        }

        # Correctness gates hold even on the trimmed corpus.
        assert suite.failures() == []
        assert results["ingest"]["idempotent"] is True
        assert results["reconstruct"]["identical"] is True
        assert results["distance"]["max_abs_diff"] == 0.0
        assert results["distance"]["labels_match"] is True
        assert results["verify"]["ok"] is True

        # The trimmed corpus still deduplicates across snapshots.
        assert results["ingest"]["objects_written"] > 0
        assert results["ingest"]["objects_deduplicated"] > 0
        assert results["query"]["answers"] > 0

        # Timings exist and are positive — ratios are noise at this size.
        for section, key in (
            ("ingest", "cold_s"),
            ("ingest", "reingest_s"),
            ("query", "cold_s"),
            ("query", "warm_s"),
            ("scrape_analyze", "total_s"),
            ("reconstruct", "cold_s"),
            ("reconstruct", "warm_s"),
            ("distance", "archive_s"),
            ("verify", "verify_s"),
        ):
            assert results[section][key] > 0.0

        on_disk = json.loads(output.read_text())
        assert on_disk == results
        assert suite.output_path == output

    def test_summary_lines_render(self, smoke_env, dataset):
        suite = run_archive_suite(dataset)
        lines = suite.summary_lines()
        assert any("smoke" in line for line in lines)
        assert any("idempotent=True" in line for line in lines)
        assert any("vs scrape" in line for line in lines)
        assert suite.output_path is None

    def test_explicit_smoke_overrides_env(self, monkeypatch, dataset):
        monkeypatch.delenv(SMOKE_ENV, raising=False)
        suite = run_archive_suite(dataset, smoke=True)
        assert suite.results["mode"] == "smoke"
