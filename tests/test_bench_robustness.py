"""Smoke-mode wiring of the robustness benchmarks into the tier-1 suite.

``REPRO_BENCH_SMOKE=1`` trims :func:`repro.bench.run_robustness_suite`
to a couple of providers, a handful of snapshots, and one kill-matrix
cell per write site; the full-size run — and the ≤10% journal-overhead
budget it enforces — lives in ``benchmarks/bench_suites.py``.  Here
the correctness gates still hold unconditionally: every kill-matrix
cell converges back to the undamaged catalog, repair of a damaged
corpus leaves ``verify`` clean, degraded queries serve the intact
remainder, and a re-ingest restores everything.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import run_robustness_suite
from repro.bench.harness import SMOKE_ENV
from repro.bench.robustness import DAMAGE_OBJECTS, DAMAGE_TMP_FILES

pytestmark = pytest.mark.chaos  # crashes writers, kills workers


@pytest.fixture(scope="module")
def env_smoke_run(dataset, tmp_path_factory):
    """One env-selected smoke run, shared by the tests that read it."""
    output = tmp_path_factory.mktemp("robustness") / "BENCH_robustness.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(SMOKE_ENV, "1")
        # Smoke archives are throwaway; skip the fsync syscalls.
        patch.setenv("REPRO_ARCHIVE_FSYNC", "0")
        return run_robustness_suite(dataset, output=output), output


class TestRobustnessSmoke:
    def test_smoke_suite_runs_and_writes(self, env_smoke_run):
        suite, output = env_smoke_run
        results = suite.results
        assert results["mode"] == "smoke"
        assert set(results) == {
            "schema",
            "mode",
            "env",
            "snapshots",
            "providers",
            "overhead",
            "kill_matrix",
            "repair_damaged",
            "fleet",
        }

        assert suite.failures() == []
        # Every kill-matrix cell crashed, repaired, and converged.
        matrix = results["kill_matrix"]
        assert matrix["cells"] == matrix["sites"] > 0
        assert matrix["all_converged"] is True
        assert matrix["failures"] == []

        # Repair of a realistically damaged corpus heals it end to end.
        damaged = results["repair_damaged"]
        assert damaged["objects_flipped"] == DAMAGE_OBJECTS
        assert damaged["tmp_swept"] >= DAMAGE_TMP_FILES
        assert damaged["verify_ok"] is True
        assert damaged["restored"] is True
        assert 0 < damaged["served_snapshots"] < damaged["total_snapshots"]
        assert (
            damaged["served_snapshots"] + damaged["snapshots_quarantined"]
            == damaged["total_snapshots"]
        )
        assert damaged["reported_quarantined"] == damaged["snapshots_quarantined"]

        # The fleet kill matrix: every availability/drain/shed/re-dispatch
        # gate holds even at smoke size.
        fleet = results["fleet"]
        assert fleet["gates"]["all_met"] is True, fleet["gates"]
        assert fleet["kill_storm"]["kills"] > 0
        assert fleet["kill_storm"]["failed"] == 0
        assert fleet["drain"]["dropped"] == 0
        assert fleet["drain"]["force_killed"] == 0
        assert fleet["shed"]["sheds"] > 0
        assert fleet["shed"]["retry_after_all_present"] is True
        assert fleet["redispatch"]["identical"] is True
        assert fleet["redispatch"]["redispatches"] > 0

        # Timings exist and are positive — ratios are noise at this size.
        for section, key in (
            ("overhead", "baseline_s"),
            ("overhead", "journaled_s"),
            ("overhead", "durable_s"),
            ("kill_matrix", "repair_total_s"),
            ("repair_damaged", "repair_s"),
            ("repair_damaged", "reingest_s"),
        ):
            assert results[section][key] > 0.0

        on_disk = json.loads(output.read_text())
        assert on_disk == results
        assert suite.output_path == output

    def test_summary_lines_render(self, env_smoke_run):
        lines = env_smoke_run[0].summary_lines()
        assert any("smoke" in line for line in lines)
        assert any("all_converged=True" in line for line in lines)
        assert any("restored=True" in line for line in lines)

    def test_explicit_smoke_overrides_env(self, monkeypatch, dataset):
        monkeypatch.delenv(SMOKE_ENV, raising=False)
        monkeypatch.setenv("REPRO_ARCHIVE_FSYNC", "0")
        suite = run_robustness_suite(dataset, smoke=True)
        assert suite.results["mode"] == "smoke"
        assert suite.output_path is None
