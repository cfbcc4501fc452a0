"""``collect``: scrape the ten providers' native artifacts into a durable archive.

Why this workload: it is the paper's collection step (Section 3.1) and
the only workload where archive *writes* dominate.  Every pass parses
the 649 published artifacts (certdata.txt, authroot.stl, JKS, PEM
bundles, cert directories, Apple plists, the Node.js header) through
``repro.formats``, ``repro.asn1`` and ``repro.x509``, archives them
through ``ArchiveWriter`` with fsync on, and then ingests a seeded
synthetic population tail into the same archive, so delta index
maintenance and the ``trust.bin`` rewrite are on the clock too.

Set-up is publishing the artifacts: the vendors' work, not the
collector's.  The unit of work is one snapshot scraped and durably
archived; the user-visible operation is one whole collection pass.
"""

from __future__ import annotations

import os
import shutil

from harness import NULL_TRACER, Context, Outcome, Tracer, counter_total, histogram_sum, hit_rate
from harness import median, peak_rss_mb, repeat_setup, timed
from inputs import CORPUS_CATALOG_HASH, catalog_hash_of, directory_bytes, population_tail

#: Snapshots in the seeded population tail ingested after the scrape.
TAIL_SNAPSHOTS = 120
SETUP_REPETITIONS = 1


def _publish(corpus, seed: int):
    from repro.collection import publish_history

    origins = {p: publish_history(corpus.dataset[p]) for p in corpus.dataset.providers}
    return origins, population_tail(corpus, seed, TAIL_SNAPSHOTS)


def _collect_pass(ctx: Context, origins, tail, tracer=NULL_TRACER) -> dict:
    """One collection: scrape + durable archive, then the tail ingest."""
    from repro.archive import Archive, ArchiveWriter, set_fsync
    from repro.collection import scrape_history
    from repro.store.history import Dataset
    from repro.x509.certificate import clear_certificate_intern_pool

    clear_certificate_intern_pool()
    archive = Archive(ctx.fresh_dir("collect-archive"), create=True)
    previous = set_fsync(True)  # timed collection is durable
    try:
        scraped = Dataset()
        writer = ArchiveWriter(archive)
        for provider, origin in origins.items():
            with tracer.span("collection.scrape"):
                history = scrape_history(provider, origin)
            scraped.add_history(history)
            for snapshot in history:
                with tracer.span("archive.add_snapshot"):
                    writer.add_snapshot(snapshot)
        with tracer.span("archive.commit"):
            writer.commit()
        base_hash = archive.catalog_hash()
        writer = ArchiveWriter(archive)
        for snapshot in tail.all_snapshots():
            with tracer.span("archive.add_snapshot"):
                writer.add_snapshot(snapshot)
        with tracer.span("archive.commit"):
            writer.commit()
    finally:
        set_fsync(previous)
    return {"archive": archive, "scraped": scraped, "base_hash": base_hash}


def _check(outcome: Outcome, corpus, result: dict, tail) -> None:
    from repro.archive import verify_archive
    from repro.store.provider import PROVIDERS, StoreFormat

    archive, scraped = result["archive"], result["scraped"]
    outcome.check("corpus_catalog_hash", catalog_hash_of(corpus.dataset) == CORPUS_CATALOG_HASH)
    outcome.check("archive_matches_scrape", result["base_hash"] == catalog_hash_of(scraped))
    outcome.check("verify_archive", verify_archive(archive).ok)
    outcome.check(
        "archived_snapshots",
        len(archive.read_catalog()) == corpus.dataset.total_snapshots() + tail.total_snapshots(),
    )
    # The scrape must reproduce the corpus.  JKS keystores carry no
    # per-purpose trust (the scraper trusts every purpose), so for JKS
    # providers the comparison is per snapshot on the root set only.
    same = scraped.providers == corpus.dataset.providers
    for provider in corpus.dataset.providers if same else ():
        expected = list(corpus.dataset[provider].snapshots)
        got = list(scraped[provider].snapshots)
        if PROVIDERS[provider].store_format is StoreFormat.JKS:
            same &= [(s.version, s.taken_at, s.fingerprints()) for s in expected] == [
                (s.version, s.taken_at, s.fingerprints()) for s in got
            ]
        else:
            same &= expected == got
    outcome.check("scrape_equals_corpus", same)


def run(ctx: Context) -> Outcome:
    from repro.simulation import default_corpus

    corpus = default_corpus()
    outcome = Outcome()
    reps = 1 if ctx.trace else SETUP_REPETITIONS
    setup_s, (origins, tail) = repeat_setup(lambda: _publish(corpus, ctx.seed), reps)
    snapshots = corpus.dataset.total_snapshots() + tail.total_snapshots()

    walls, result = [], None
    while not walls or sum(walls) < ctx.seconds:
        if result is not None:
            shutil.rmtree(result["archive"].root)
            result = None  # one pass's scraped dataset alive at a time
        wall, result = timed(_collect_pass, ctx, origins, tail)
        walls.append(wall)
        outcome.attempted += snapshots
    peak = peak_rss_mb()
    _check(outcome, corpus, result, tail)

    outcome.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "throughput_per_s": snapshots / median(walls),
        "latency_p50_ms": median(walls) * 1e3,
    }
    outcome.report.update({
        "collect.snapshots": snapshots,
        "collect.passes": len(walls),
        "collect.pass_s": walls,
        "collect.snapshots_per_s": snapshots / median(walls),
        "fsync": "on for the timed pass; not used while publishing",
    })
    if ctx.trace:
        shutil.rmtree(result["archive"].root)
        _trace(ctx, outcome, origins, tail, snapshots, median(walls))
    return outcome


def _trace(ctx: Context, outcome: Outcome, origins, tail, snapshots, untraced_wall) -> None:
    import repro.archive.ingest as ingest
    from repro.obs import telemetry_session
    from repro.x509.certificate import certificate_intern_stats

    with telemetry_session() as telemetry, Tracer() as tracer:
        # Index maintenance and fsync happen inside add_snapshot/commit.
        for name in ("apply_index_delta", "persist_index", "load_index"):
            tracer.wrap(ingest, name, "archive.index_delta")
        tracer.wrap(os, "fsync", "archive.fsync")
        wall, result = timed(_collect_pass, ctx, origins, tail, tracer)
        intern = certificate_intern_stats()
    registry = telemetry.registry
    written = counter_total(registry, "repro_archive_objects_total", outcome="written")
    deduplicated = counter_total(
        registry, "repro_archive_objects_total", outcome="deduplicated"
    )
    outcome.per_layer.update({
        "collection.scrape_frac": tracer.seconds["collection.scrape"] / wall,
        "archive.add_snapshot_frac": tracer.seconds["archive.add_snapshot"] / wall,
        "archive.commit_frac": tracer.seconds["archive.commit"] / wall,
        "formats.parse_frac": histogram_sum(registry, "repro_formats_parse_seconds") / wall,
        "formats.parse_calls": counter_total(registry, "repro_formats_parse_total"),
        "x509.intern_hit_rate": intern.hit_rate,
        "archive.journal_frac": histogram_sum(registry, "repro_archive_journal_seconds") / wall,
        "archive.index_delta_frac": tracer.seconds["archive.index_delta"] / wall,
        "archive.objects_written": written,
        "archive.objects_deduplicated": deduplicated,
        "archive.put_useful_ratio": hit_rate(written, deduplicated),
        "archive.fsyncs": tracer.calls["archive.fsync"],
        "archive.fsync_frac": tracer.seconds["archive.fsync"] / wall,
        "archive.bytes_per_snapshot": directory_bytes(result["archive"].root) / snapshots,
        "wall_s": wall,
        "unattributed_s": wall - tracer.layer_s,
        "unattributed_frac": (wall - tracer.layer_s) / wall,
        "trace_overhead_frac": wall / untraced_wall - 1.0,
    })
    outcome.report["trace.layer_s"] = dict(tracer.seconds)
    outcome.report["trace.calls"] = dict(tracer.calls)
