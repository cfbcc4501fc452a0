"""Incremental-ingest benchmarks — the numbers behind ``BENCH_ingest.json``.

The continuous-ingestion watcher exists so a new origin tag costs a
*delta* ingest (scrape one tag, patch the persisted index) instead of
the full re-ingest a batch pipeline would do.  This suite measures
that trade directly:

- **full**: a watch cycle over empty checkpoints — every origin tag is
  scraped, ingested, and indexed from scratch (the path the watcher
  replaces).
- **delta**: a watch cycle against an archive already caught up to
  all-but-one tag per origin — only the newest tag per origin is
  scraped, and the index is patched in place.

The full-mode floor demands the delta cycle beat the full cycle by
≥ 10x.  Correctness gates are enforced in
*every* mode: the delta-maintained archive must converge to the same
catalog hash — and byte-identical persisted index — as the
from-scratch one, verify clean, and have ingested exactly one tag per
origin.

``REPRO_BENCH_SMOKE=1`` shrinks the corpus to ride inside tier-1.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.archive import Archive, verify_archive
from repro.archive.binindex import binary_index_path, read_binary_index
from repro.bench.harness import (
    BenchResult,
    Gate,
    SuiteSpec,
    ratio,
    resolve_dataset,
    resolve_smoke,
    timed,
)
from repro.collection.faults import SimulatedClock
from repro.collection.watch import Watcher, build_watch_world
from repro.store.history import Dataset


def _summary_lines(r: dict) -> list[str]:
    return [
        f"mode            : {r['mode']} ({r['origins']} origins)",
        f"full ingest     : {r['full']['total_s']:.4f} s "
        f"({r['full']['snapshots']} snapshots)",
        f"delta ingest    : {r['delta']['total_s']:.4f} s "
        f"({r['delta']['snapshots']} snapshots, one tag per origin)",
        f"speedup         : {r['speedup']:.1f}x "
        f"(floor {r['floor']['min_speedup']:.0f}x, met={r['floor']['met']})",
        f"convergence     : catalog_match={r['correctness']['catalog_match']}, "
        f"index_identical={r['correctness']['index_identical']}, "
        f"verify_ok={r['correctness']['verify_ok']}",
    ]


SUITE = SuiteSpec(
    render=_summary_lines,
    gates=(
        Gate("correctness.catalog_match", "==", True, "delta lands on the full catalog hash"),
        Gate("correctness.index_identical", "==", True, "delta trust.bin is byte-identical"),
        Gate("correctness.index_fresh", "==", True, "delta trust.bin is pinned to the catalog"),
        Gate("correctness.verify_ok", "==", True, "the delta archive verifies clean"),
        Gate("correctness.delta_is_one_tag_per_origin", "==", True, "one new tag per origin"),
    ),
    floors=(
        Gate(
            "speedup", ">=", 10.0, "one-tag-per-origin delta cycle vs a full ingest",
            record=("floor", "min_speedup", "met"),
        ),
    ),
)


def _index_bytes(archive: Archive) -> bytes:
    """The persisted ``trust.bin``, or ``b''`` when there is none."""
    path = binary_index_path(archive)
    return path.read_bytes() if path.exists() else b""


def _index_fresh(archive: Archive) -> bool:
    """Whether ``trust.bin`` is intact and built from the live catalog."""
    index = read_binary_index(archive, archive.catalog_hash())
    if index is None:
        return False
    index.close()
    return True


def _full_cycle(root: Path, dataset: Dataset, *, index: int):
    """One watch cycle from empty checkpoints: everything is delta."""
    world = build_watch_world(dataset, hold_back=0)
    archive = Archive(root / f"full-{index}", create=True)
    watcher = Watcher(archive, world.origins, clock=SimulatedClock())
    return archive, watcher.run_cycle()


def _seed_delta(root: Path, dataset: Dataset, *, index: int):
    """An archive caught up to all-but-one tag per origin (not timed)."""
    world = build_watch_world(dataset, hold_back=1)
    archive = Archive(root / f"delta-{index}", create=True)
    Watcher(archive, world.origins, clock=SimulatedClock()).run_cycle()
    world.advance()
    return archive, world


def run_ingest_suite(
    dataset: Dataset | None = None,
    *,
    smoke: bool | None = None,
    rounds: int = 1,
    output: Path | str | None = None,
) -> BenchResult:
    """Run both sides and optionally write ``BENCH_ingest.json``."""
    smoke = resolve_smoke(smoke)
    dataset = resolve_dataset(dataset, smoke=smoke)

    with tempfile.TemporaryDirectory(prefix="repro-ingest-bench-") as tmp:
        root = Path(tmp)
        counter = iter(range(1_000_000))
        full_s, (full_archive, full_cycle) = timed(
            lambda: _full_cycle(root, dataset, index=next(counter)),
            rounds=rounds,
            suite="ingest",
            section="full",
        )

        # Each delta round consumes a pre-seeded archive: the seeding
        # (the expensive catch-up ingest) happens outside the clock.
        seeds = [_seed_delta(root, dataset, index=k) for k in range(max(rounds, 1))]

        def delta_cycle():
            archive, world = seeds.pop()
            watcher = Watcher(archive, world.origins, clock=SimulatedClock())
            return archive, watcher.run_cycle()

        delta_s, (delta_archive, delta_cycle_result) = timed(
            delta_cycle, rounds=rounds, suite="ingest", section="delta"
        )

        origins = len(full_cycle.outcomes)
        correctness = {
            "catalog_match": delta_archive.catalog_hash() == full_archive.catalog_hash(),
            "index_identical": _index_bytes(delta_archive) == _index_bytes(full_archive),
            "index_fresh": _index_fresh(delta_archive),
            "verify_ok": verify_archive(delta_archive).ok,
            "delta_is_one_tag_per_origin": delta_cycle_result.snapshots_ingested
            == origins,
        }
        results = {
            "origins": origins,
            "full": {"total_s": full_s, "snapshots": full_cycle.snapshots_ingested},
            "delta": {
                "total_s": delta_s,
                "snapshots": delta_cycle_result.snapshots_ingested,
            },
            "speedup": ratio(full_s, delta_s),
            "floor": {},  # the floor's bound and verdict, filled in by finish
            "correctness": correctness,
        }
    return SUITE.finish(results, smoke=smoke, output=output)
