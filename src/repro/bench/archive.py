"""Archive ingest/read benchmarks — the numbers behind ``BENCH_archive.json``.

The archive's reason to exist is replacing full-corpus rebuilds with
indexed disk reads, so the suite times both sides of that trade:

- **ingest**: cold ingest of the dataset into a fresh archive, then a
  re-ingest of the identical corpus (which must be byte-idempotent:
  zero new objects/manifests, unchanged catalog hash).
- **query**: a batch of point-in-time trust lookups, cold (fresh
  engine, untouched caches) vs. warm (same engine, LRU-served) — the
  workload the ROADMAP's serving goal cares about.
- **reconstruct**: rebuilding every archived snapshot into full
  :class:`RootStoreSnapshot` objects, cold vs. warm, with an equality
  check against the live dataset.
- **scrape_analyze**: the path the archive replaces — publish + scrape
  every provider and compute the distance matrix from scratch.  The
  full-mode floor demands the warm query batch beat this by ≥ 10x.
- **distance**: the archive-backed distance matrix vs. the live one
  (must agree exactly) and what it costs from manifests alone.
- **verify**: the full integrity pass, which must report a healthy
  archive.

``REPRO_BENCH_SMOKE=1`` shrinks the corpus to ride inside tier-1.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.jaccard import collect_snapshots, distance_matrix
from repro.archive import Archive, ArchiveQuery, ingest_dataset, verify_archive
from repro.bench.harness import (
    BenchResult,
    Gate,
    SuiteSpec,
    ratio,
    resolve_dataset,
    resolve_smoke,
    timed,
)
from repro.collection.publish import publish_history
from repro.collection.scrape import scrape_history
from repro.store.history import Dataset

#: How many (fingerprint, date) probes the query batch issues.
QUERY_BATCH = 16


def _summary_lines(r: dict) -> list[str]:
    return [
        f"mode                : {r['mode']} ({r['snapshots']} snapshots, "
        f"{r['providers']} providers)",
        f"cold ingest         : {r['ingest']['cold_s']:.4f} s "
        f"({r['ingest']['objects_written']} objects, "
        f"{r['ingest']['manifests_written']} manifests)",
        f"re-ingest           : {r['ingest']['reingest_s']:.4f} s "
        f"(idempotent={r['ingest']['idempotent']})",
        f"query cold          : {r['query']['cold_s']:.4f} s "
        f"({r['query']['batch']} point-in-time lookups)",
        f"query warm          : {r['query']['warm_s']:.6f} s "
        f"({r['query']['per_query_us']:.0f} us/query, "
        f"{r['query']['warm_speedup']:.1f}x over cold)",
        f"scrape+analyze      : {r['scrape_analyze']['total_s']:.4f} s "
        f"(the path the archive replaces)",
        f"warm query vs scrape: {r['query']['speedup_vs_scrape']:.0f}x",
        f"reconstruct cold    : {r['reconstruct']['cold_s']:.4f} s "
        f"({r['reconstruct']['snapshots']} snapshots, "
        f"identical={r['reconstruct']['identical']})",
        f"reconstruct warm    : {r['reconstruct']['warm_s']:.4f} s "
        f"({r['reconstruct']['warm_speedup']:.1f}x)",
        f"archive distance    : {r['distance']['archive_s']:.4f} s "
        f"(max |diff| vs live {r['distance']['max_abs_diff']:.2e})",
        f"verify              : {r['verify']['verify_s']:.4f} s "
        f"(ok={r['verify']['ok']})",
    ]


SUITE = SuiteSpec(
    render=_summary_lines,
    gates=(
        Gate("ingest.idempotent", "==", True, "re-ingesting unchanged data writes nothing"),
        Gate("reconstruct.identical", "==", True, "rebuilt snapshots equal the live ones"),
        Gate("distance.max_abs_diff", "==", 0.0, "archive distance matrix equals the live one"),
        Gate("distance.labels_match", "==", True, "archive matrix has the live row labels"),
        Gate("verify.ok", "==", True, "archive verify reports a healthy archive"),
    ),
    floors=(
        Gate("query.speedup_vs_scrape", ">=", 10.0, "warm query batch vs scrape+analyze"),
        Gate("query.warm_speedup", ">=", 2.0, "LRU-warm vs cold query batch"),
        Gate("reconstruct.warm_speedup", ">=", 2.0, "cache-warm vs cold reconstruction"),
    ),
)


def _query_batch(query: ArchiveQuery, size: int) -> list[tuple[str, object]]:
    """A deterministic probe set spread across fingerprints and dates."""
    fingerprints = sorted(query.index.postings)
    dates = sorted(
        entry.taken_at
        for timeline in query.index.timelines.values()
        for entry in timeline
    )
    probes = []
    for k in range(size):
        fp = fingerprints[(k * len(fingerprints)) // size]
        when = dates[(k * len(dates)) // size]
        probes.append((fp, when))
    return probes


def _bench_ingest(archive_root: Path, dataset: Dataset, *, rounds: int) -> dict:
    # Cold ingest must start from nothing each round: use per-round dirs.
    counter = iter(range(1_000_000))

    def cold():
        target = Archive(archive_root / f"cold-{next(counter)}", create=True)
        return target, ingest_dataset(target, dataset)

    cold_s, (archive, report) = timed(
        cold, rounds=rounds, suite="archive", section="ingest_cold"
    )
    hash_before = archive.catalog_hash()
    reingest_s, reingest = timed(
        lambda: ingest_dataset(archive, dataset),
        rounds=1,
        suite="archive",
        section="ingest_reingest",
    )
    idempotent = (
        reingest.objects_written == 0
        and reingest.manifests_written == 0
        and archive.catalog_hash() == hash_before
    )
    return archive, {
        "cold_s": cold_s,
        "objects_written": report.objects_written,
        "objects_deduplicated": report.objects_deduplicated,
        "manifests_written": report.manifests_written,
        "reingest_s": reingest_s,
        "idempotent": idempotent,
        "catalog_hash": hash_before,
    }


def _bench_query(archive: Archive, *, rounds: int) -> dict:
    probes = _query_batch(ArchiveQuery(archive), QUERY_BATCH)

    def run(query: ArchiveQuery):
        return [query.trusted_on(fp, when) for fp, when in probes]

    # Cold: a fresh engine per round — index load plus first-touch I/O.
    cold_s, _ = timed(
        lambda: run(ArchiveQuery(archive)),
        rounds=rounds,
        suite="archive",
        section="query_cold",
    )
    # Warm: one engine, caches populated by a priming pass.
    engine = ArchiveQuery(archive)
    run(engine)
    warm_s, observations = timed(
        lambda: run(engine), rounds=max(rounds, 3), suite="archive", section="query_warm"
    )
    return engine, {
        "batch": len(probes),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "per_query_us": warm_s / len(probes) * 1e6,
        "warm_speedup": ratio(cold_s, warm_s),
        "answers": sum(len(obs) for obs in observations),
    }


def _bench_scrape_analyze(dataset: Dataset, *, rounds: int) -> dict:
    """The full no-archive pipeline: re-scrape everything, then analyze."""

    def run():
        collected = Dataset()
        for provider in dataset.providers:
            collected.add_history(
                scrape_history(provider, publish_history(dataset[provider]))
            )
        return distance_matrix(collect_snapshots(collected))

    total_s, _ = timed(run, rounds=rounds, suite="archive", section="scrape_analyze")
    return {"total_s": total_s}


def _bench_reconstruct(archive: Archive, dataset: Dataset, *, rounds: int) -> dict:
    def run(query: ArchiveQuery) -> Dataset:
        return query.dataset()

    cold_s, _ = timed(
        lambda: run(ArchiveQuery(archive)),
        rounds=rounds,
        suite="archive",
        section="reconstruct_cold",
    )
    engine = ArchiveQuery(archive)
    run(engine)
    warm_s, rebuilt = timed(
        lambda: run(engine), rounds=rounds, suite="archive", section="reconstruct_warm"
    )
    identical = all(
        rebuilt[provider].snapshots == dataset[provider].snapshots
        for provider in dataset.providers
    )
    return {
        "snapshots": rebuilt.total_snapshots(),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": ratio(cold_s, warm_s),
        "identical": identical,
    }


def _bench_distance(
    engine: ArchiveQuery, dataset: Dataset, *, rounds: int
) -> dict:
    live = distance_matrix(collect_snapshots(dataset))
    archive_s, archived = timed(
        lambda: engine.distance_matrix(),
        rounds=rounds,
        suite="archive",
        section="distance_archive",
    )
    return {
        "archive_s": archive_s,
        "max_abs_diff": float(np.abs(archived.matrix - live.matrix).max()),
        "labels_match": archived.labels == live.labels,
    }


def _bench_verify(archive: Archive) -> dict:
    verify_s, report = timed(
        lambda: verify_archive(archive), rounds=1, suite="archive", section="verify"
    )
    return {
        "verify_s": verify_s,
        "ok": report.ok,
        "objects_checked": report.objects_checked,
        "manifests_checked": report.manifests_checked,
    }


def run_archive_suite(
    dataset: Dataset | None = None,
    *,
    smoke: bool | None = None,
    rounds: int = 1,
    output: Path | str | None = None,
) -> BenchResult:
    """Run every archive section and optionally write ``BENCH_archive.json``."""
    smoke = resolve_smoke(smoke)
    dataset = resolve_dataset(dataset, smoke=smoke)

    with tempfile.TemporaryDirectory(prefix="repro-archive-bench-") as tmp:
        root = Path(tmp)
        archive, ingest = _bench_ingest(root, dataset, rounds=rounds)
        engine, query = _bench_query(archive, rounds=rounds)
        scrape_analyze = _bench_scrape_analyze(dataset, rounds=rounds)
        query["speedup_vs_scrape"] = ratio(scrape_analyze["total_s"], query["warm_s"])
        results = {
            "snapshots": dataset.total_snapshots(),
            "providers": len(dataset.providers),
            "ingest": ingest,
            "query": query,
            "scrape_analyze": scrape_analyze,
            "reconstruct": _bench_reconstruct(archive, dataset, rounds=rounds),
            "distance": _bench_distance(engine, dataset, rounds=rounds),
            "verify": _bench_verify(archive),
        }
    return SUITE.finish(results, smoke=smoke, output=output)
