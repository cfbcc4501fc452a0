"""A keyed result cache living beside the archive's object store.

The scenario engine sweeps (provider, date) grids whose per-cell answer
is fully determined by content hashes: the snapshot manifest in force,
the scenario definition, and the engine version.  :class:`ResultCache`
stores those answers as JSON blobs under ``<archive>/cache/<namespace>/``
using the same two-hex sharding and atomic-write discipline as the CAS,
so repeated sweeps, phased-schedule steps, and baseline re-runs are
disk reads instead of recomputation.

The cache is strictly an accelerator: entries are keyed by a SHA-256
the *caller* derives from content hashes, and ``archive gc``-style
deletion of the whole directory is always safe.  Each entry stores the
SHA-256 of its JSON payload on a first line, so a damaged or truncated
entry — even one whose flipped bytes still parse as JSON — reads as a
miss, never as a plausible wrong value.

Damage **self-heals**: a torn or corrupted entry is not just a miss —
on first read it is moved into the archive quarantine
(``<archive>/quarantine/cache/<namespace>/``) so the next sweep's
recompute-and-``put`` rewrites a clean entry instead of tripping over
the same broken bytes forever.  Heals are counted in
``repro_archive_cache_heal_total`` per namespace.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.archive.io import atomic_write_bytes
from repro.obs.instrument import count

#: Directory (under the archive root) holding all result caches.
CACHE_DIR = "cache"

_KEY_LENGTH = 64  # hex sha256


def cache_key(payload: dict) -> str:
    """Derive a cache key from a dict of content hashes / parameters.

    The payload must be JSON-serializable with deterministic content
    (hashes, names, ISO dates — not floats of measured time).
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Sharded JSON blob cache under ``<archive>/cache/<namespace>/``."""

    def __init__(self, archive_root: Path | str, namespace: str):
        if not namespace or "/" in namespace:
            raise ValueError(f"bad cache namespace {namespace!r}")
        self.archive_root = Path(archive_root)
        self.root = self.archive_root / CACHE_DIR / namespace
        self.namespace = namespace

    def _path(self, key: str) -> Path:
        if len(key) != _KEY_LENGTH or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys are lowercase hex sha256, got {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str):
        """The cached value for ``key``, or None on miss/damage.

        An entry whose payload does not match its stored checksum is
        damaged, whether or not its bytes still parse as JSON.  A
        damaged entry is quarantined on the way out (self-heal): the
        miss triggers a recompute, the recompute's ``put`` writes clean
        bytes, and the broken original is preserved for forensics under
        the archive quarantine instead of shadowing every future read.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        checksum, _, payload = raw.partition(b"\n")
        if checksum == hashlib.sha256(payload).hexdigest().encode():
            return json.loads(payload)
        self._quarantine(path)
        return None  # torn or corrupted entry: treat as a miss

    def _quarantine(self, path: Path) -> None:
        # Lazy import: repair is a higher layer (it imports the catalog
        # machinery); only the directory-name constant is shared.
        from repro.archive.repair import QUARANTINE_DIR

        target_dir = self.archive_root / QUARANTINE_DIR / CACHE_DIR / self.namespace
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            path.replace(target_dir / f"{path.name}.corrupt")
        except OSError:
            return  # racing reader already healed it (or FS is read-only)
        count("repro_archive_cache_heal_total", namespace=self.namespace)

    def put(self, key: str, value) -> None:
        """Store ``value`` (JSON-serializable) under ``key`` atomically."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
        data = hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload
        atomic_write_bytes(path, data, site=f"cache.{self.namespace}.put")

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(
            1
            for shard in self.root.iterdir()
            if shard.is_dir()
            for entry in shard.iterdir()
            if entry.suffix == ".json"
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.suffix == ".json":
                    entry.unlink()
                    removed += 1
        return removed
