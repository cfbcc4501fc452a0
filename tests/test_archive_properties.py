"""Property tests for the archive: round-trip identity and idempotence.

Two invariants the storage layer promises, checked over randomized
sub-corpora drawn from the session dataset:

- **ingest → reconstruct is the identity**: whatever subset of
  snapshots goes in, exactly those snapshots come back out, equal in
  every field (fingerprints, trust bits, dates, ordering).
- **double-ingest is byte-idempotent**: re-ingesting what the archive
  already holds writes zero objects, zero manifests, and leaves the
  catalog hash unchanged.

A third, over synthetic manifests: the fragment-assembled manifest
encoding is byte-identical to a whole-payload ``json.dumps``.

The examples draw from the real corpus rather than synthesizing
certificates, so the properties are exercised against the same trust
shapes (partial distrust, purpose splits, removals) the analyses see.
"""

from __future__ import annotations

import json
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.archive import Archive, ArchiveQuery, ManifestEntry, SnapshotManifest, ingest_dataset
from repro.store.history import Dataset, StoreHistory
from repro.store.purposes import TrustLevel, TrustPurpose

# Archive round-trips hit the disk per example: keep the example count
# small and the deadline off so tier-1 stays fast and unflaky.
ARCHIVE_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def sub_corpus_picks(draw):
    """Per-provider (start, stop, step) slices — decoded lazily against
    the session dataset inside the test, so the strategy itself stays
    independent of fixture values."""
    n_providers = draw(st.integers(min_value=1, max_value=3))
    picks = []
    for _ in range(n_providers):
        picks.append(
            (
                draw(st.integers(min_value=0, max_value=9)),  # provider index (mod)
                draw(st.integers(min_value=0, max_value=20)),  # slice start
                draw(st.integers(min_value=1, max_value=12)),  # slice length
                draw(st.integers(min_value=1, max_value=3)),  # stride
            )
        )
    return picks


def _materialize(dataset: Dataset, picks) -> Dataset:
    """A small Dataset holding the picked snapshot slices."""
    sub = Dataset()
    for provider_pick, start, length, stride in picks:
        provider = dataset.providers[provider_pick % len(dataset.providers)]
        if provider in sub:
            continue
        snapshots = dataset[provider].snapshots[start : start + length * stride : stride]
        if snapshots:
            sub.add_history(StoreHistory(provider, snapshots=list(snapshots)))
    if not sub.providers:  # degenerate draw: fall back to one snapshot
        first = dataset.providers[0]
        sub.add_history(StoreHistory(first, snapshots=[dataset[first].snapshots[0]]))
    return sub


@given(picks=sub_corpus_picks())
@ARCHIVE_SETTINGS
def test_ingest_reconstruct_is_identity(dataset, picks):
    sub = _materialize(dataset, picks)
    with tempfile.TemporaryDirectory(prefix="repro-archive-prop-") as tmp:
        archive = Archive(Path(tmp) / "arch", create=True)
        report = ingest_dataset(archive, sub)
        assert report.snapshots_added == sub.total_snapshots()

        rebuilt = ArchiveQuery(archive).dataset()
        assert rebuilt.providers == sub.providers
        for provider in sub.providers:
            assert rebuilt[provider].snapshots == sub[provider].snapshots


@given(picks=sub_corpus_picks())
@ARCHIVE_SETTINGS
def test_double_ingest_writes_nothing(dataset, picks):
    sub = _materialize(dataset, picks)
    with tempfile.TemporaryDirectory(prefix="repro-archive-prop-") as tmp:
        archive = Archive(Path(tmp) / "arch", create=True)
        first = ingest_dataset(archive, sub)
        assert first.objects_written > 0
        hash_before = archive.catalog_hash()

        again = ingest_dataset(archive, sub)
        assert again.objects_written == 0
        assert again.manifests_written == 0
        assert again.snapshots_unchanged == sub.total_snapshots()
        assert archive.catalog_hash() == hash_before


_manifest_entries = st.builds(
    ManifestEntry,
    fingerprint=st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
    trust=st.lists(
        st.tuples(
            st.sampled_from([p.value for p in TrustPurpose]),
            st.sampled_from([lv.value for lv in TrustLevel]),
        ),
        max_size=4,
    ).map(tuple),
    distrust_after=st.one_of(
        st.none(), st.datetimes(timezones=st.just(timezone.utc)).map(datetime.isoformat)
    ),
)


@given(
    provider=st.text(min_size=1, max_size=12),
    version=st.text(max_size=16),  # non-ASCII included: \u escapes
    taken_at=st.dates(),
    entries=st.lists(_manifest_entries, max_size=6).map(tuple),
)
@settings(max_examples=200, deadline=None)
def test_manifest_serialize_is_canonical_json(provider, version, taken_at, entries):
    """Fragment-assembled manifests equal a whole-payload ``json.dumps``:
    empty entries, empty trust, distrust dates, any ``version`` text."""
    manifest = SnapshotManifest(provider, version, taken_at, entries)
    expected = json.dumps(manifest.to_payload(), sort_keys=True, indent=1) + "\n"
    assert manifest.serialize() == expected.encode("ascii")
    assert SnapshotManifest.from_payload(json.loads(manifest.serialize())) == manifest
