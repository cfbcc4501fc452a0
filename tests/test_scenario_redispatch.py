"""Chunk re-dispatch after pool-worker death, and cache self-healing.

The scenario engine's determinism contract (serial == parallel bytes)
must survive its pool workers dying: a killed chunk breaks the whole
``ProcessPoolExecutor``, so the engine rebuilds a fresh pool and
re-dispatches the failed block's uncomputed cells — split in half per
retry, so a poisonous cell is isolated while the healthy half
completes — under a bounded ``chunk_retries`` budget that fails the
sweep with :class:`ScenarioPoolError` instead of spinning.

:class:`PoolChaos` is the deterministic injection device (kill the
worker evaluating a named ``provider@date`` cell); the kill classes
carry the ``chaos`` marker.  The :class:`ResultCache` self-heal tests
ride along: a damaged entry is quarantined on first read so the
recompute's ``put`` rewrites clean bytes.
"""

from __future__ import annotations

import json
from datetime import date

import pytest

from repro.archive import Archive, ingest_dataset
from repro.archive.cache import CACHE_DIR, ResultCache, cache_key
from repro.archive.repair import QUARANTINE_DIR
from repro.errors import ScenarioPoolError, ValidationError
from repro.obs import telemetry_session
from repro.scenario import PoolChaos, ScenarioEngine, run_to_json
from repro.scenario import engine as engine_module
from repro.scenario.model import ChainSpec, Scenario

PROVIDERS = ("microsoft", "nss")
DATES = (date(2020, 5, 1), date(2020, 7, 1), date(2021, 1, 15))
ROOT = "common-d2"  # present in both stores across the whole window
CHAIN = ChainSpec(issuer=ROOT, domain="victim.example", not_before=date(2020, 1, 1))


@pytest.fixture(scope="module")
def archive(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("redispatch-archive")
    archive = Archive(root / "archive", create=True)
    ingest_dataset(archive, corpus.dataset, providers=PROVIDERS)
    return archive


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        name="redispatch",
        edits=(),
        workload=(CHAIN,),
        providers=PROVIDERS,
        dates=DATES,
    )


def _engine(archive, corpus, **kwargs) -> ScenarioEngine:
    # The cache would answer the grid without ever touching the pool,
    # so every engine here runs uncached.
    return ScenarioEngine(archive, corpus=corpus, use_cache=False, **kwargs)


def _chaos_for(scenario: Scenario, marker_dir, **kwargs) -> PoolChaos:
    """Kill whichever worker reaches the grid's very first cell."""
    label = f"{scenario.providers[0]}@{scenario.dates[0].isoformat()}"
    return PoolChaos(kill_cells=(label,), marker_dir=str(marker_dir), **kwargs)


@pytest.mark.chaos
class TestChunkRedispatch:
    def test_killed_worker_redispatches_to_identical_bytes(
        self, archive, corpus, scenario, tmp_path
    ):
        serial = _engine(archive, corpus).run(scenario)
        assert serial.stats.redispatches == 0

        chaotic = _engine(
            archive,
            corpus,
            workers=4,
            chaos=_chaos_for(scenario, tmp_path),
        ).run(scenario)

        # The first worker to reach the marked cell died (die_once), the
        # block was re-dispatched, and the merged result is bytes-equal
        # to the serial run — the determinism contract survives chaos.
        assert chaotic.stats.redispatches >= 1
        assert run_to_json(chaotic) == run_to_json(serial)

    def test_lethal_cell_exhausts_the_retry_budget(
        self, archive, corpus, scenario, tmp_path
    ):
        # Without die_once the marked cell kills every worker that ever
        # reaches it: the halving re-dispatch must hit its bound and
        # fail typed, not spin forever.
        engine = _engine(
            archive,
            corpus,
            workers=4,
            chunk_retries=2,
            chaos=_chaos_for(scenario, tmp_path, die_once=False),
        )
        with pytest.raises(ScenarioPoolError, match="chunk_retries=2"):
            engine.run(scenario)

    def test_zero_retry_budget_fails_on_first_death(
        self, archive, corpus, scenario, tmp_path
    ):
        engine = _engine(
            archive,
            corpus,
            workers=4,
            chunk_retries=0,
            chaos=_chaos_for(scenario, tmp_path),
        )
        with pytest.raises(ScenarioPoolError, match="chunk_retries=0"):
            engine.run(scenario)

    def test_serial_path_never_arms_chaos(self, archive, corpus, scenario, tmp_path):
        # workers=1 evaluates inline, where an armed kill would take the
        # engine itself down — so the serial path must not pass chaos
        # through, even when configured.
        engine = _engine(
            archive,
            corpus,
            workers=1,
            chaos=_chaos_for(scenario, tmp_path, die_once=False),
        )
        run = engine.run(scenario)
        assert run.stats.redispatches == 0
        assert len(run.cells) == len(PROVIDERS) * len(DATES)

    def test_negative_retry_budget_rejected(self, archive, corpus):
        with pytest.raises(ValidationError, match="chunk_retries"):
            _engine(archive, corpus, chunk_retries=-1)


class TestResultCacheSelfHeal:
    def _damaged_cache(self, tmp_path):
        cache = ResultCache(tmp_path, "scenario")
        key = cache_key({"cell": "heal"})
        cache.put(key, {"ok": True})
        path = tmp_path / CACHE_DIR / "scenario" / key[:2] / f"{key}.json"
        path.write_bytes(b"\x00torn{")
        return cache, key, path

    def test_damaged_entry_is_quarantined_on_first_read(self, tmp_path):
        cache, key, path = self._damaged_cache(tmp_path)
        assert cache.get(key) is None  # a miss…
        # …that MOVED the broken bytes out of the read path entirely,
        assert not path.exists()
        quarantined = (
            tmp_path / QUARANTINE_DIR / CACHE_DIR / "scenario" / f"{key}.json.corrupt"
        )
        assert quarantined.read_bytes() == b"\x00torn{"
        # …so the recompute's put lands clean and the next read hits.
        cache.put(key, {"ok": True, "healed": True})
        assert cache.get(key) == {"ok": True, "healed": True}
        assert quarantined.exists()  # forensics survive the heal

    def test_heal_is_counted_per_namespace(self, tmp_path):
        with telemetry_session() as telemetry:
            cache, key, _ = self._damaged_cache(tmp_path)
            assert cache.get(key) is None
            families = {
                family["name"]: family for family in telemetry.registry.to_dict()
            }
            heal = families["repro_archive_cache_heal_total"]
            assert heal["series"] == [
                {"labels": {"namespace": "scenario"}, "value": 1}
            ]

    def test_intact_entries_are_never_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path, "scenario")
        key = cache_key({"cell": "intact"})
        cache.put(key, {"value": 7})
        assert cache.get(key) == {"value": 7}
        assert not (tmp_path / QUARANTINE_DIR).exists()

    def test_no_byte_flip_reads_as_a_different_value(self, tmp_path):
        """Flip every byte of a stored entry, one at a time, with several
        masks: each read returns the value that was put or a miss."""
        cache = ResultCache(tmp_path, "scenario")
        key = cache_key({"cell": "flip"})
        value = {"affected": 12, "chains": {"a": True, "b": False}, "label": "x1"}
        cache.put(key, value)
        path = tmp_path / CACHE_DIR / "scenario" / key[:2] / f"{key}.json"
        stored = path.read_bytes()
        for offset in range(len(stored)):
            for mask in (0x01, 0x05, 0x80, 0xFF):
                damaged = bytearray(stored)
                damaged[offset] ^= mask
                path.write_bytes(bytes(damaged))
                assert cache.get(key) in (None, value), (offset, mask)
        path.write_bytes(stored)
        assert cache.get(key) == value

    def test_old_format_entries_are_not_counted_as_heals(
        self, corpus, scenario, tmp_path, monkeypatch
    ):
        """A cache filled before entries carried a checksum line is never
        addressed, so upgrading neither quarantines it nor counts heals."""
        archive = Archive(tmp_path / "archive", create=True)
        ingest_dataset(archive, corpus.dataset, providers=PROVIDERS)
        cache = ResultCache(archive.root, ScenarioEngine.CACHE_NAMESPACE)

        def put_without_checksum(self, key, value):
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(value, sort_keys=True))

        with monkeypatch.context() as old:
            old.setattr(engine_module, "ENGINE_VERSION", 1)
            old.setattr(ResultCache, "put", put_without_checksum)
            before = ScenarioEngine(archive, corpus=corpus).run(scenario)
        assert len(cache) == len(PROVIDERS) * len(DATES)

        with telemetry_session() as telemetry:
            after = ScenarioEngine(archive, corpus=corpus).run(scenario)
            names = {family["name"] for family in telemetry.registry.to_dict()}
        assert "repro_archive_cache_heal_total" not in names
        assert not (archive.root / QUARANTINE_DIR / CACHE_DIR).exists()
        assert run_to_json(after) == run_to_json(before)
        assert len(cache) == 2 * len(PROVIDERS) * len(DATES)

    def test_quarantined_names_do_not_collide_across_namespaces(self, tmp_path):
        # Two namespaces can quarantine entries independently; each
        # lands under its own directory.
        for namespace in ("scenario", "other"):
            cache = ResultCache(tmp_path, namespace)
            key = cache_key({"ns": namespace})
            cache.put(key, {"ok": True})
            path = tmp_path / CACHE_DIR / namespace / key[:2] / f"{key}.json"
            path.write_text("{broken")
            assert cache.get(key) is None
            assert (
                tmp_path / QUARANTINE_DIR / CACHE_DIR / namespace
                / f"{key}.json.corrupt"
            ).exists()
