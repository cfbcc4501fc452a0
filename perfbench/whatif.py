"""``whatif``: sweep seeded registry incidents over every provider and month.

Why this workload: it is the only one that runs ``repro.verify`` chain
validation and revocation in the loop, and it rebuilds whole snapshots
from archived objects (``ArchiveQuery.snapshot_at`` through the content
store) for every distinct store state.  ``ScenarioEngine`` evaluates
the (provider, month) grid on 2 pool workers against a fresh result
cache, so every cell is computed.

The seed picks four registry incidents inside the grid's window and
which of four treatments each gets: removal, a ``server-distrust-after``
marking, a OneCRL push or a CRLSet block.  The workload chains are
fixed, so compiling them mints the same leaf keys for every seed:
compile is on the clock, because users pay it on every run, and must
not vary with the seed.
"""

from __future__ import annotations

import random
import shutil
import time
from datetime import date, timedelta

from harness import Context, Outcome, counter_total, histogram_sum, median, peak_rss_mb
from harness import NULL_TRACER, Tracer, repeat_setup
from inputs import corpus_archive, seed_label

SETUP_REPETITIONS = 2
WORKERS = 2
#: Timed sweeps per run, at least; more while --seconds last.  The
#: first sweep of a process runs about 15% slower than the rest, and
#: the median of three leaves it out.
MIN_SWEEPS = 3
#: First days of 36 months from July 2017: 10 providers x 36 dates,
#: with five registry incidents inside the window.
MONTHS = tuple(date(2017 + (m + 6) // 12, (m + 6) % 12 + 1, 1) for m in range(36))
#: One workload chain under a root of each incident family (every
#: other one through an intermediate), valid across the whole grid.
CHAIN_ROOTS = (
    "symantec-class3-g1",
    "symantec-legacy-1",
    "wosign-ca",
    "startcom-ca",
    "cnnic-root",
    "certinomis-root",
    "taiwan-grca",
    "pspprocert",
)
EDIT_STYLES = ("remove", "distrust-after", "revoke:onecrl", "revoke:crlset")


def scenario_for(seed: int):
    """The seeded incident set as one phased scenario."""
    from repro.scenario.model import ChainSpec, Edit, Scenario
    from repro.simulation.incidents import INCIDENTS

    rng = random.Random(seed_label(seed, "whatif"))
    # Incidents inside the grid's window, each handled in a different
    # style, so every seed pays for one of each kind of edit.
    in_window = [i for i in INCIDENTS if MONTHS[0] < i.nss_removal <= MONTHS[-1]]
    chosen = sorted(rng.sample(in_window, len(EDIT_STYLES)), key=lambda i: i.key)
    styles = rng.sample(EDIT_STYLES, len(EDIT_STYLES))
    edits = []
    for incident, style in zip(chosen, styles):
        kind, _, mechanism = style.partition(":")
        for slug in incident.root_slugs:
            edits.append(
                Edit(
                    kind=kind,
                    root=slug,
                    effective=incident.nss_removal,
                    distrust_after=(
                        incident.nss_removal - timedelta(days=365)
                        if kind == "distrust-after"
                        else None
                    ),
                    mechanism=mechanism or None,
                    comment=f"{incident.key} ({style})",
                )
            )
    workload = tuple(
        ChainSpec(
            issuer=slug,
            domain=f"{slug}.example",
            not_before=date(2014, 6, 1),
            lifetime_days=3650,
            via_intermediate=k % 2 == 1,
        )
        for k, slug in enumerate(CHAIN_ROOTS)
    )
    return Scenario(
        name=f"perfbench-whatif-{seed}",
        description="seeded registry incidents over every provider and month",
        edits=tuple(edits),
        workload=workload,
        dates=MONTHS,
    )


def _setup(ctx: Context, corpus):
    """A fresh paper-corpus archive and the seeded scenario."""
    return corpus_archive(ctx, corpus.dataset), scenario_for(ctx.seed)


def sweep(archive, corpus, scenario, *, workers: int, tracer=NULL_TRACER):
    """One timed sweep on a fresh engine over an emptied result cache."""
    from repro.archive.cache import ResultCache
    from repro.scenario.engine import ScenarioEngine

    ResultCache(archive.root, ScenarioEngine.CACHE_NAMESPACE).clear()
    start = time.perf_counter()
    with tracer.span("scenario.open"):
        engine = ScenarioEngine(archive, corpus=corpus, workers=workers, use_cache=True)
    result = engine.run(scenario)
    return time.perf_counter() - start, result


def run(ctx: Context) -> Outcome:
    from repro.scenario.report import run_to_json
    from repro.simulation import default_corpus

    corpus = default_corpus()
    outcome = Outcome()
    reps = 1 if ctx.trace else SETUP_REPETITIONS
    setup_s, (archive, scenario) = repeat_setup(
        lambda: _setup(ctx, corpus), reps, lambda state: shutil.rmtree(state[0].root)
    )
    walls, runs = [], []
    while len(walls) < MIN_SWEEPS or sum(walls) < ctx.seconds:
        wall, result = sweep(archive, corpus, scenario, workers=WORKERS)
        walls.append(wall)
        runs.append(result)
        outcome.attempted += result.stats.cells
    cells = runs[-1].stats.cells
    peak = max(peak_rss_mb(), peak_rss_mb(children=True))

    if ctx.trace:
        serial = _trace(outcome, archive, corpus, scenario, median(walls))
    else:
        _, serial = sweep(archive, corpus, scenario, workers=1)
    reference = run_to_json(serial)
    outcome.check("parallel_equals_serial", all(run_to_json(r) == reference for r in runs))
    outcome.check("fresh_cache", all(r.stats.cache_hits == 0 for r in runs))
    outcome.check(
        "scenario_bites",
        any(not c["valid"] for cell in serial.cells for c in cell["chains"].values()),
    )

    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "throughput_per_s": cells / median(walls),
        "latency_p50_ms": median(walls) * 1e3,
    }
    outcome.report.update({
        "whatif.cells": cells,
        "whatif.chains": len(serial.chain_keys),
        "whatif.edits": len(scenario.edits),
        "whatif.incidents": sorted({e.comment for e in scenario.edits}),
        "whatif.sweeps": len(walls),
        "whatif.sweep_s": walls,
        "whatif.cells_per_s": cells / median(walls),
        "whatif.workers": WORKERS,
        "fsync": "off while ingesting the archive in set-up",
        "setup_repetitions": reps,
    })
    return outcome


def _trace(outcome: Outcome, archive, corpus, scenario, untraced_wall):
    """Stage split of a parallel sweep, then a serial sweep traced inside.

    Pool workers are forked, so wrappers cannot report from them: the
    per-call costs of ``ArchiveQuery.snapshot_at`` and
    ``ChainValidator.validate`` come from the serial sweep (the
    reference the correctness check needs anyway), as shares of its
    wall.
    """
    from repro.archive import ArchiveQuery
    from repro.archive.cache import ResultCache
    from repro.obs import telemetry_session
    from repro.verify.chain import ChainValidator

    # Stages come from the engine's own stage timers; opening the
    # engine and the cache writes after the validate stage are the
    # benchmark's spans around the rest of ScenarioEngine.run.
    with telemetry_session() as telemetry, Tracer() as tracer:
        tracer.wrap(ResultCache, "put", "archive.cache_put", layer=True)
        wall, result = sweep(archive, corpus, scenario, workers=WORKERS, tracer=tracer)
    registry = telemetry.registry
    stages = {
        stage: histogram_sum(registry, "repro_scenario_stage_seconds", stage=stage)
        for stage in ("compile", "grid", "validate")
    }
    with Tracer() as serial_tracer:
        serial_tracer.wrap(ArchiveQuery, "snapshot_at", "archive.snapshot_at")
        serial_tracer.wrap(ChainValidator, "validate", "verify.validate")
        serial_wall, serial = sweep(archive, corpus, scenario, workers=1)
    attributed = sum(stages.values()) + tracer.layer_s
    outcome.per_layer.update(
        {
            **{f"scenario.{stage}_frac": s / wall for stage, s in stages.items()},
            "scenario.open_frac": tracer.seconds["scenario.open"] / wall,
            "archive.cache_put_frac": tracer.seconds["archive.cache_put"] / wall,
            "archive.snapshot_at_frac": serial_tracer.seconds["archive.snapshot_at"] / serial_wall,
            "verify.validate_frac": serial_tracer.seconds["verify.validate"] / serial_wall,
            "verify.validations": serial_tracer.calls["verify.validate"],
            "scenario.cache_misses": counter_total(
                registry, "repro_scenario_cache_total", outcome="miss"
            ),
            "scenario.redispatches": result.stats.redispatches,
            "wall_s": wall,
            "unattributed_s": wall - attributed,
            "unattributed_frac": (wall - attributed) / wall,
            "trace_overhead_frac": wall / untraced_wall - 1.0,
        }
    )
    outcome.report["trace.stage_s"] = stages
    outcome.report["trace.serial_wall_s"] = serial_wall
    outcome.report["trace.serial_calls"] = dict(serial_tracer.calls)
    return serial
