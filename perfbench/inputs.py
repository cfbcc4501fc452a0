"""Seeded inputs shared by the workloads.

The corpus is always the default catalog (another catalog seed would
mint new roots with pure-Python RSA keygen); the benchmark seed only
varies what is layered on top of it.  Every seeded input has a fixed
size, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import hashlib

#: Catalog hash of the default corpus archived as generated.
CORPUS_CATALOG_HASH = "3ee205dbc2cfac7d950620af4b9284ead9e02a6d452628db989ad50cb89f3bde"


def seed_label(seed: int, purpose: str) -> str:
    return f"perfbench/{purpose}/{seed}"


def population_tail(corpus, seed: int, snapshots: int):
    """Exactly ``snapshots`` synthetic derivative snapshots for ``seed``.

    Synthetic providers are drawn in index order until the count is
    reached; the last one is cut short, so the size never varies.
    """
    from repro.simulation import PopulationSpec, synthesize_population
    from repro.store.history import Dataset, StoreHistory

    # ~23 snapshots per synthetic provider, but some seeds draw short
    # histories: ask for a margin, double it until enough, then trim.
    providers = max(2, snapshots // 12)
    while True:
        spec = PopulationSpec(providers=providers, seed=seed_label(seed, "population"))
        population = synthesize_population(corpus, spec, include_base=False)
        if population.total_snapshots() >= snapshots:
            break
        providers *= 2
    tail = Dataset()
    remaining = snapshots
    for provider in population.providers:
        if remaining == 0:
            break
        kept = list(population[provider].snapshots)[:remaining]
        tail.add_history(StoreHistory(provider, snapshots=kept))
        remaining -= len(kept)
    return tail


def corpus_archive(ctx, *datasets):
    """A fresh archive holding ``datasets``, ingested with fsync off.

    Building the archive is set-up, not the measured work, so it skips
    the durability cost the ``collect`` workload measures.
    """
    from repro.archive import Archive, ingest_dataset, set_fsync

    archive = Archive(ctx.fresh_dir(f"{ctx.workload}-archive"), create=True)
    previous = set_fsync(False)
    try:
        for dataset in datasets:
            ingest_dataset(archive, dataset)
    finally:
        set_fsync(previous)
    return archive


def catalog_hash_of(dataset) -> str:
    """The catalog hash an archive holding exactly ``dataset`` has."""
    from repro.archive import CatalogRow, SnapshotManifest, serialize_catalog

    rows = []
    for snapshot in dataset.all_snapshots():
        manifest = SnapshotManifest.from_snapshot(snapshot)
        rows.append(
            CatalogRow(
                provider=manifest.provider,
                version=manifest.version,
                taken_at=manifest.taken_at,
                manifest_id=manifest.manifest_id,
                entries=len(manifest),
            )
        )
    return hashlib.sha256(serialize_catalog(rows)).hexdigest()


def directory_bytes(path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
