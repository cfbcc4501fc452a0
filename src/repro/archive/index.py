"""The inverted index over the archive catalog, in memory.

Two indexes turn the high-value queries from catalog scans into direct
lookups:

- **fingerprint postings**: certificate fingerprint → sorted
  ``(provider, version, taken_at)`` postings — one per snapshot that
  contains the root.  Answers "who ever shipped X, and in which
  releases?" without opening a single manifest.
- **provider timelines**: provider → the date-ordered ``(taken_at,
  version, manifest_id)`` release timeline.  Point-in-time resolution
  ("the snapshot in force on date D") is a ``bisect`` over this list.

:func:`build_index` scans the catalog and manifests into an
:class:`ArchiveIndex`; :func:`apply_index_delta` patches one with a
writer session's changes and lands on exactly what a rebuild would.
The index is persisted in one form only, the mmap-able ``index/trust.bin``
(:mod:`repro.archive.binindex`), whose loader rebuilds it from the
manifests whenever the file is missing, stale or damaged.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import date
from typing import Iterable

from repro.archive.manifest import Archive
from repro.errors import ArchiveError


@dataclass(frozen=True)
class Posting:
    """One appearance of a fingerprint: a (provider, release) pair."""

    provider: str
    version: str
    taken_at: date


@dataclass(frozen=True)
class TimelineEntry:
    """One release on a provider's timeline."""

    taken_at: date
    version: str
    manifest_id: str
    entries: int


@dataclass(frozen=True)
class ArchiveIndex:
    """A freshly built (or fully decoded) index, ready to query."""

    catalog_hash: str
    postings: dict  # fingerprint -> tuple[Posting, ...]
    timelines: dict  # provider -> tuple[TimelineEntry, ...] (date-ordered)

    @property
    def providers(self) -> list[str]:
        return sorted(self.timelines)

    @property
    def fingerprint_count(self) -> int:
        return len(self.postings)

    def postings_for(self, fingerprint: str) -> tuple[Posting, ...]:
        return self.postings.get(fingerprint, ())

    def timeline(self, provider: str) -> tuple[TimelineEntry, ...]:
        try:
            return self.timelines[provider]
        except KeyError as exc:
            raise ArchiveError(f"no provider {provider!r} in archive") from exc

    def in_force(self, provider: str, when: date) -> TimelineEntry | None:
        """The release in force at ``when`` (latest taken on or before).

        Both edges answer "no snapshot" (None) explicitly rather than
        falling through to the bisect arithmetic: an empty timeline has
        nothing to resolve, and a ``when`` before the first release
        must *not* index ``position - 1 == -1`` (which would silently
        wrap to the provider's *last* snapshot).
        """
        timeline = self.timeline(provider)
        if not timeline:
            return None  # provider known, but no snapshots on record
        position = bisect_right(timeline, when, key=lambda t: t.taken_at)
        if position == 0:
            return None  # `when` predates the first release
        return timeline[position - 1]


def build_index(archive: Archive) -> ArchiveIndex:
    """Scan catalog + manifests into a fresh in-memory index."""
    catalog_hash = archive.catalog_hash()
    if catalog_hash is None:
        raise ArchiveError(f"archive {archive.root} has no catalog (nothing ingested?)")
    postings: dict[str, list[Posting]] = {}
    timelines: dict[str, list[TimelineEntry]] = {}
    for row in archive.read_catalog():
        timelines.setdefault(row.provider, []).append(
            TimelineEntry(
                taken_at=row.taken_at,
                version=row.version,
                manifest_id=row.manifest_id,
                entries=row.entries,
            )
        )
        manifest = archive.read_manifest(row.provider, row.manifest_id)
        for entry in manifest.entries:
            postings.setdefault(entry.fingerprint, []).append(
                Posting(provider=row.provider, version=row.version, taken_at=row.taken_at)
            )
    for timeline in timelines.values():
        timeline.sort(key=lambda t: (t.taken_at, t.version))
    for plist in postings.values():
        plist.sort(key=lambda p: (p.provider, p.taken_at.isoformat(), p.version))
    return ArchiveIndex(
        catalog_hash=catalog_hash,
        postings={fp: tuple(ps) for fp, ps in postings.items()},
        timelines={p: tuple(ts) for p, ts in timelines.items()},
    )


def apply_index_delta(
    base: ArchiveIndex,
    changes: Iterable[tuple],
    catalog_hash: str,
) -> ArchiveIndex:
    """A new index equal to rebuilding after ``changes``, without the scan.

    ``base`` is any index whose ``postings``/``timelines`` are mappings:
    an :class:`ArchiveIndex` or the mapped ``trust.bin`` of the session's
    starting catalog (:class:`~repro.archive.binindex.BinaryIndex`).

    ``changes`` is what one writer session did: ``(old_row, old_fingerprints,
    manifest)`` triples where ``old_row`` is the superseded
    :class:`~repro.archive.manifest.CatalogRow` (None for a brand-new
    snapshot) and ``manifest`` the snapshot's new manifest.  Postings
    and timelines are patched in place and re-sorted with exactly the
    :func:`build_index` sort keys, so the persisted bytes come out
    identical to a full rebuild — the kill-matrix test depends on that.
    """
    postings = {fp: list(ps) for fp, ps in base.postings.items()}
    timelines = {p: list(ts) for p, ts in base.timelines.items()}
    for old_row, old_fingerprints, manifest in changes:
        new_fingerprints = {entry.fingerprint for entry in manifest.entries}
        posting = Posting(
            provider=manifest.provider, version=manifest.version, taken_at=manifest.taken_at
        )
        entry = TimelineEntry(
            taken_at=manifest.taken_at,
            version=manifest.version,
            manifest_id=manifest.manifest_id,
            entries=len(manifest),
        )
        timeline = timelines.setdefault(manifest.provider, [])
        if old_row is not None:
            # Same (provider, version, taken_at) key, new content: the
            # Posting value is unchanged, so only the fingerprint sets'
            # symmetric difference needs touching.
            for fp in set(old_fingerprints) - new_fingerprints:
                plist = postings.get(fp, [])
                if posting in plist:
                    plist.remove(posting)
                if not plist:
                    postings.pop(fp, None)
            for fp in new_fingerprints - set(old_fingerprints):
                postings.setdefault(fp, []).append(posting)
            for position, existing in enumerate(timeline):
                if (existing.taken_at, existing.version) == (entry.taken_at, entry.version):
                    timeline[position] = entry
                    break
            else:
                timeline.append(entry)
        else:
            for fp in new_fingerprints:
                postings.setdefault(fp, []).append(posting)
            timeline.append(entry)
    for timeline in timelines.values():
        timeline.sort(key=lambda t: (t.taken_at, t.version))
    for plist in postings.values():
        plist.sort(key=lambda p: (p.provider, p.taken_at.isoformat(), p.version))
    return ArchiveIndex(
        catalog_hash=catalog_hash,
        postings={fp: tuple(ps) for fp, ps in postings.items()},
        timelines={p: tuple(ts) for p, ts in timelines.items()},
    )
