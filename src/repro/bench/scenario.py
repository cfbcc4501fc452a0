"""Scenario-engine benchmarks — the numbers behind ``BENCH_scenario.json``.

The scenario engine exists to make ecosystem what-ifs cheap to sweep:
a (provider, date) grid of bulk chain validations, parallelized across
a process pool and cached by content hash in the archive.  This suite
measures both levers against the Symantec phased-removal scenario:

- **serial vs parallel**: the same grid swept with ``workers=1`` and
  ``workers=4``.  Snapshot access is given a fixed simulated fetch
  latency per cell (the same latent-origin device as the collection
  benches — this container has one CPU, so the I/O-bound shape is what
  a pool can actually overlap), and the full-mode floor demands ≥ 2x.
- **cold vs warm**: the same sweep against an empty result cache and
  again once every cell is cached.  Warm cells skip validation *and*
  the simulated fetch, so the full-mode floor demands ≥ 5x.

Correctness gates run in every mode: serial, parallel, cold, and warm
sweeps must produce byte-identical canonical run JSON, the warm sweep
must be 100% cache hits, and the scenario must actually bite (nonzero
population impact after the final removal batch).

``REPRO_BENCH_SMOKE=1`` shrinks the grid, workload, and latency to
ride inside tier-1.
"""

from __future__ import annotations

import tempfile
from datetime import date
from pathlib import Path

from repro.archive.manifest import Archive
from repro.archive.ingest import ingest_dataset
from repro.bench.harness import BenchResult, Gate, SuiteSpec, ratio, resolve_smoke, timed
from repro.scenario.engine import ScenarioEngine
from repro.scenario.impact import population_impact
from repro.scenario.model import ChainSpec, Scenario
from repro.scenario.report import run_to_json
from repro.simulation.incidents import symantec_phased_scenario

#: Pool size of the parallel side (the floor is defined at 4 workers).
PARALLEL_WORKERS = 4
#: Simulated per-cell snapshot fetch latency.  Full mode uses 300 ms —
#: enough for the overlapped fetches to dominate the pool's fixed costs
#: (forking a large heap, each worker loading its own archive index)
#: on a single-CPU container, which is what the floor is about.
FETCH_LATENCY_FULL_S = 0.3
FETCH_LATENCY_SMOKE_S = 0.015

_PROVIDERS_FULL = ("nss", "microsoft", "debian", "ubuntu")
_PROVIDERS_SMOKE = ("nss", "microsoft")

_DATES_FULL = (
    date(2020, 5, 1),   # before the NSS v53 marking
    date(2020, 5, 20),  # marking in effect
    date(2020, 6, 1),
    date(2020, 6, 26),  # batch 1 removal
    date(2020, 7, 15),
    date(2020, 9, 1),
    date(2020, 12, 11),  # batch 2 removal
    date(2021, 1, 15),
)
_DATES_SMOKE = (date(2020, 5, 1), date(2020, 6, 1), date(2021, 1, 15))


def _summary_lines(r: dict) -> list[str]:
    return [
        f"mode            : {r['mode']} ({r['grid']['cells']} cells, "
        f"{r['grid']['chains']} chains, fetch latency "
        f"{r['grid']['fetch_latency_s'] * 1000:.0f} ms)",
        f"serial sweep    : {r['serial']['total_s']:.4f} s",
        f"parallel sweep  : {r['parallel']['total_s']:.4f} s "
        f"({r['parallel']['workers']} workers)",
        f"parallel speedup: {r['parallel']['speedup']:.2f}x "
        f"(floor {r['floor']['min_parallel_speedup']:.0f}x, "
        f"met={r['floor']['parallel_met']})",
        f"cold sweep      : {r['cold']['total_s']:.4f} s",
        f"warm sweep      : {r['warm']['total_s']:.4f} s "
        f"({r['warm']['cache_hits']} cache hits)",
        f"warm speedup    : {r['warm']['speedup']:.2f}x "
        f"(floor {r['floor']['min_warm_speedup']:.0f}x, "
        f"met={r['floor']['warm_met']})",
        f"determinism     : serial==parallel="
        f"{r['correctness']['serial_parallel_identical']}, cold==warm="
        f"{r['correctness']['cold_warm_identical']}, "
        f"impact_nonzero={r['correctness']['impact_nonzero']}",
    ]


SUITE = SuiteSpec(
    render=_summary_lines,
    gates=(
        Gate("correctness.serial_parallel_identical", "==", True, "pool sweep == serial sweep"),
        Gate("correctness.cold_warm_identical", "==", True, "cached sweep == computed sweep"),
        Gate("correctness.serial_cold_identical", "==", True, "cached engine == uncached"),
        Gate("correctness.warm_all_hits", "==", True, "warm sweep is all cache hits"),
        Gate("correctness.impact_nonzero", "==", True, "the final removal breaks someone"),
    ),
    floors=(
        Gate(
            "parallel.speedup", ">=", 2.0, "4-worker pool vs serial when fetches dominate",
            record=("floor", "min_parallel_speedup", "parallel_met"),
        ),
        Gate(
            "warm.speedup", ">=", 5.0, "warm vs cold result cache",
            record=("floor", "min_warm_speedup", "warm_met"),
        ),
    ),
)


def _bench_scenario(smoke: bool) -> Scenario:
    providers = _PROVIDERS_SMOKE if smoke else _PROVIDERS_FULL
    dates = _DATES_SMOKE if smoke else _DATES_FULL
    scenario = symantec_phased_scenario(providers=providers, dates=dates)
    if smoke:
        # Trim the workload (keygen per chain is the compile cost):
        # one chain per removal batch still exercises both phases.
        scenario = Scenario(
            name=scenario.name,
            description=scenario.description,
            edits=scenario.edits,
            workload=(
                ChainSpec(
                    issuer="symantec-class3-g1",
                    domain="class3.example",
                    not_before=date(2019, 12, 1),
                ),
                ChainSpec(
                    issuer="symantec-legacy-1",
                    domain="legacy.example",
                    not_before=date(2019, 12, 1),
                ),
            ),
            providers=providers,
            dates=dates,
        )
    return scenario


def run_scenario_suite(
    corpus=None,
    *,
    smoke: bool | None = None,
    rounds: int = 1,
    output: Path | str | None = None,
) -> BenchResult:
    """Run all four sweeps and optionally write ``BENCH_scenario.json``."""
    smoke = resolve_smoke(smoke)
    if corpus is None:
        from repro.simulation import default_corpus

        corpus = default_corpus()

    scenario = _bench_scenario(smoke)
    latency = FETCH_LATENCY_SMOKE_S if smoke else FETCH_LATENCY_FULL_S

    with tempfile.TemporaryDirectory(prefix="repro-scenario-bench-") as tmp:
        archive = Archive(Path(tmp) / "archive", create=True)
        ingest_dataset(archive, corpus.dataset, providers=scenario.providers)

        def engine(*, workers: int, use_cache: bool) -> ScenarioEngine:
            return ScenarioEngine(
                archive,
                corpus=corpus,
                workers=workers,
                use_cache=use_cache,
                fetch_latency_s=latency,
            )

        serial_engine = engine(workers=1, use_cache=False)
        serial_engine.compile(scenario)  # warm the mint memo off the clock
        serial_s, serial_run = timed(
            lambda: serial_engine.run(scenario),
            rounds=rounds,
            suite="scenario",
            section="serial",
        )

        parallel_engine = engine(workers=PARALLEL_WORKERS, use_cache=False)
        parallel_engine.compile(scenario)
        parallel_s, parallel_run = timed(
            lambda: parallel_engine.run(scenario),
            rounds=rounds,
            suite="scenario",
            section="parallel",
        )

        cached_engine = engine(workers=1, use_cache=True)
        cached_engine.compile(scenario)

        def cold_sweep():
            cached_engine.cache.clear()
            return cached_engine.run(scenario)

        cold_s, cold_run = timed(
            cold_sweep, rounds=rounds, suite="scenario", section="cold"
        )
        warm_s, warm_run = timed(
            lambda: cached_engine.run(scenario),
            rounds=rounds,
            suite="scenario",
            section="warm",
        )

        serial_json = run_to_json(serial_run)
        impact = population_impact(serial_run)
        final_date = max(serial_run.dates)
        impact_nonzero = any(
            (series.fraction_on(final_date) or 0.0) > 0.0 for series in impact.series
        )
        correctness = {
            "serial_parallel_identical": serial_json == run_to_json(parallel_run),
            "cold_warm_identical": run_to_json(cold_run) == run_to_json(warm_run),
            "serial_cold_identical": serial_json == run_to_json(cold_run),
            "warm_all_hits": warm_run.stats.cache_hits == warm_run.stats.cells,
            "impact_nonzero": impact_nonzero,
        }
        results = {
            "grid": {
                "providers": list(serial_run.providers),
                "dates": [d.isoformat() for d in serial_run.dates],
                "cells": len(serial_run.cells),
                "chains": len(serial_run.chain_keys),
                "fetch_latency_s": latency,
            },
            "serial": {"total_s": serial_s},
            "parallel": {
                "total_s": parallel_s,
                "workers": PARALLEL_WORKERS,
                "speedup": ratio(serial_s, parallel_s),
            },
            "cold": {"total_s": cold_s, "cache_misses": cold_run.stats.cache_misses},
            "warm": {
                "total_s": warm_s,
                "cache_hits": warm_run.stats.cache_hits,
                "speedup": ratio(cold_s, warm_s),
            },
            "floor": {},  # the floors' bounds and verdicts, filled in by finish
            "correctness": correctness,
        }
    return SUITE.finish(results, smoke=smoke, output=output)
