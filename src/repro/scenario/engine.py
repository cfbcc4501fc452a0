"""The scenario engine: bulk what-if evaluation over an archive.

:class:`ScenarioEngine` takes a :class:`~repro.scenario.model.Scenario`
and answers, for every (provider, evaluation date) cell of the grid:
which workload chains still validate once the scenario's edits are in
effect?  Snapshots come from :class:`~repro.archive.query.ArchiveQuery`
(the archive itself is never mutated), edits are applied in memory by
:mod:`repro.scenario.edits`, and every chain runs through the full
:class:`~repro.verify.chain.ChainValidator` path — expiry, CA bits,
EKU, ``server-distrust-after``, and revocation
(OneCRL/CRLSet/OCSP) when the scenario pushes any.

Three performance layers, because a phased-removal sweep multiplies
providers x dates x chains:

- **Compile once.**  Slug resolution, leaf/intermediate minting, and
  revocation material are built one time into a picklable
  :class:`CompiledScenario` (certificates travel as DER, keys as their
  integer dataclass) shared by every cell.
- **Process pool.**  Cells are split into contiguous per-worker blocks
  (provider-major order, so a block stays inside one provider's
  timeline and its snapshot cache) and merged back in block order —
  results are byte-identical to a serial run, the same discipline as
  ``scrape_history(workers=N)``.  ``workers=1`` runs the identical
  chunk function inline.
- **Keyed result cache.**  A cell's answer is fully determined by
  (engine version, snapshot manifest id, provider, date, scenario
  digest), so it is cached in the archive-adjacent
  :class:`~repro.archive.cache.ResultCache`; warm sweeps — phased
  schedules revisit most cells — skip validation *and* the simulated
  snapshot fetch entirely.

``fetch_latency_s`` models the per-cell snapshot fetch of a remote
archive (the same latent-origin device as the collection benches); the
bench suite uses it to measure pool and cache speedups with an
I/O-bound shape, and it defaults to 0 (no sleep) for real runs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from datetime import date, timedelta
from multiprocessing import get_context
from pathlib import Path

from repro.archive.cache import ResultCache, cache_key
from repro.archive.manifest import Archive
from repro.archive.query import ArchiveQuery
from repro.crypto.rng import DeterministicRandom
from repro.crypto.rsa import generate_rsa_key
from repro.errors import ScenarioPoolError, ValidationError
from repro.obs.instrument import count, set_gauge, stage_timer
from repro.scenario.edits import (
    CompiledEdit,
    RevocationMaterial,
    apply_edits,
    materialize_revocation,
    to_moment,
)
from repro.scenario.model import ChainSpec, Scenario
from repro.simulation.corpus import Corpus, default_corpus
from repro.verify.chain import ChainValidator
from repro.verify.issuance import issue_intermediate, issue_server_leaf
from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate
from repro.x509.extensions import ExtendedKeyUsage, SubjectAltName
from repro.x509.name import Name
from repro.asn1.oid import EKU_SERVER_AUTH

#: Bumped whenever cell semantics or the cache entry format change;
#: part of every cache key, so entries of an older format are never
#: read (2: entries carry a payload checksum line).
ENGINE_VERSION = 2

#: Chains that cannot be evaluated because no snapshot is in force.
NO_SNAPSHOT = "no-snapshot"

_HEX = set("0123456789abcdef")


@dataclass(frozen=True)
class CompiledChain:
    """One workload chain, compiled to picklable primitives.

    ``ders`` is leaf-first and excludes the anchor (the validator finds
    anchors in the store); non-leaf elements are offered to the
    validator as intermediates.
    """

    key: str
    issuer_slug: str
    issuer_fingerprint: str
    ders: tuple[bytes, ...]


@dataclass(frozen=True)
class CompiledMaterial:
    """Revocation material for one edited root, as primitives.

    The private key rides along as its dataclass (RSA and EC keys are
    plain dataclasses of integers, picklable by construction).
    """

    fingerprint: str
    root_der: bytes
    key: object
    issued_ders: tuple[bytes, ...]


@dataclass(frozen=True)
class CompiledScenario:
    """Everything a worker needs, resolved and picklable."""

    name: str
    digest: str
    edits: tuple[CompiledEdit, ...]
    chains: tuple[CompiledChain, ...]
    material: tuple[CompiledMaterial, ...]


@dataclass
class RunStats:
    """Execution accounting (kept out of the canonical result bytes)."""

    workers: int = 1
    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_skips: int = 0
    chains_validated: int = 0
    #: Chunk re-dispatches after a pool worker died mid-block.
    redispatches: int = 0


@dataclass(frozen=True)
class PoolChaos:
    """Deterministic pool-worker kill injection (test/bench device).

    The same philosophy as :mod:`repro.archive.chaos`, one layer up:
    instead of crashing a write at a named site, kill the *process*
    evaluating a named grid cell.  ``kill_cells`` are ``provider@iso``
    labels; with ``die_once`` each label kills only the first worker
    that reaches it (a marker file on disk survives the re-dispatch, so
    the retried chunk completes), without it the cell is lethal every
    time — how the bench proves the retry budget actually bounds.

    Only the *pool* path arms this: a serial run evaluates chunks
    inline, where ``os._exit`` would take the caller down with it.
    """

    kill_cells: tuple[str, ...]
    marker_dir: str
    die_once: bool = True
    exit_code: int = 113

    def maybe_kill(self, provider: str, when: date) -> None:
        label = f"{provider}@{when.isoformat()}"
        if label not in self.kill_cells:
            return
        if self.die_once:
            marker = Path(self.marker_dir) / f"{label}.killed"
            try:
                marker.touch(exist_ok=False)
            except OSError:
                return  # this cell already claimed its kill: survive
        os._exit(self.exit_code)


@dataclass(frozen=True)
class ScenarioRun:
    """The evaluated grid: one payload dict per (provider, date) cell.

    ``cells`` is provider-major ordered and JSON-canonical — the bench
    suite asserts byte-identity of its serialization across serial,
    parallel, and cached executions.
    """

    scenario: Scenario
    digest: str
    providers: tuple[str, ...]
    dates: tuple[date, ...]
    chain_keys: tuple[str, ...]
    cells: tuple[dict, ...]
    stats: RunStats = field(compare=False)

    def cell(self, provider: str, when: date) -> dict | None:
        iso = when.isoformat()
        for payload in self.cells:
            if payload["provider"] == provider and payload["date"] == iso:
                return payload
        return None

    def outcomes(self, provider: str, when: date) -> dict[str, dict] | None:
        """chain key -> {"valid", "reason"} for one cell (or None)."""
        payload = self.cell(provider, when)
        return payload["chains"] if payload is not None else None


# -- the per-chunk worker (module level: must be picklable by name) ------


def _run_chunk(
    archive_root: str,
    compiled: CompiledScenario,
    cells: list[tuple[str, date]],
    fetch_latency_s: float,
    chaos: PoolChaos | None = None,
) -> list[dict]:
    """Evaluate a contiguous block of grid cells against the archive.

    Runs identically inline (serial mode) and inside a forked pool
    worker; everything it needs arrives via arguments, and it builds
    its own :class:`ArchiveQuery` so no live handles cross the fork.
    """
    query = ArchiveQuery(archive_root)
    chains = [
        (spec, tuple(Certificate.from_der(der) for der in spec.ders))
        for spec in compiled.chains
    ]
    intermediates = [cert for _, certs in chains for cert in certs[1:]]
    material = {
        m.fingerprint: RevocationMaterial(
            root=Certificate.from_der(m.root_der),
            root_key=m.key,
            issued=tuple(Certificate.from_der(der) for der in m.issued_ders),
        )
        for m in compiled.material
    }

    validators: dict[tuple, ChainValidator] = {}
    results: list[dict] = []
    for provider, when in cells:
        if chaos is not None:
            chaos.maybe_kill(provider, when)
        if fetch_latency_s > 0:
            time.sleep(fetch_latency_s)  # simulated remote snapshot fetch
        snapshot = query.snapshot_at(provider, when)
        if snapshot is None:
            results.append(
                {
                    "provider": provider,
                    "date": when.isoformat(),
                    "version": None,
                    "chains": {
                        spec.key: {"valid": False, "reason": NO_SNAPSHOT}
                        for spec, _ in chains
                    },
                }
            )
            continue
        checker = materialize_revocation(compiled.edits, material, provider, when)
        # One validator per distinct edited-store state: the edited
        # snapshot is a pure function of (release, active store edits),
        # so a phased sweep revisiting the same state reuses the issuer
        # index and signature memo instead of rebuilding per cell.
        store_key = (
            provider,
            snapshot.version,
            tuple(
                sorted(
                    e.label
                    for e in compiled.edits
                    if e.kind != "revoke" and e.applies(provider, when)
                )
            ),
        )
        validator = validators.get(store_key)
        if validator is None:
            edited = apply_edits(snapshot, compiled.edits, when)
            validator = ChainValidator(store=edited, intermediates=list(intermediates))
            validators[store_key] = validator
        validator.revocation = checker
        moment = to_moment(when)
        outcomes = {}
        for spec, certs in chains:
            result = validator.validate(certs[0], moment)
            outcomes[spec.key] = {"valid": result.valid, "reason": result.reason}
        results.append(
            {
                "provider": provider,
                "date": when.isoformat(),
                "version": snapshot.version,
                "chains": outcomes,
            }
        )
    return results


# -- the engine ----------------------------------------------------------


class ScenarioEngine:
    """Evaluates scenarios against one archive.

    Args:
        archive: the archive directory (or an :class:`Archive`).
        corpus: simulation corpus for slug resolution and minting
            (defaults to the shared process corpus).
        workers: process-pool size; 1 means serial (same code path).
        use_cache: consult/populate the archive-adjacent result cache.
        fetch_latency_s: simulated per-cell snapshot fetch latency.
        chunk_retries: how many times a grid block whose pool worker
            died may be re-dispatched (split in half per retry) before
            the sweep fails with :class:`ScenarioPoolError`.
        chaos: deterministic pool-worker kill injection (tests/bench).
    """

    CACHE_NAMESPACE = "scenario"

    def __init__(
        self,
        archive: Archive | str,
        *,
        corpus: Corpus | None = None,
        workers: int = 1,
        use_cache: bool = True,
        fetch_latency_s: float = 0.0,
        chunk_retries: int = 2,
        chaos: PoolChaos | None = None,
    ):
        self.archive = archive if isinstance(archive, Archive) else Archive(archive)
        self._corpus = corpus
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if chunk_retries < 0:
            raise ValidationError(f"chunk_retries must be >= 0, got {chunk_retries}")
        self.workers = workers
        self.use_cache = use_cache
        self.fetch_latency_s = fetch_latency_s
        self.chunk_retries = chunk_retries
        self.chaos = chaos
        self.query = ArchiveQuery(self.archive)
        self.cache = ResultCache(self.archive.root, self.CACHE_NAMESPACE)
        #: minted workload chains, memoized per spec — a baseline and
        #: its scenario share one workload, and pure-Python RSA keygen
        #: is the expensive part of compiling it
        self._chain_cache: dict[ChainSpec, CompiledChain] = {}

    @property
    def corpus(self) -> Corpus:
        if self._corpus is None:
            self._corpus = default_corpus()
        return self._corpus

    # -- compilation ------------------------------------------------------

    def _resolve_fingerprint(self, root: str) -> str:
        corpus = self.corpus
        if root in corpus.specs_by_slug:
            return corpus.fingerprint(root)
        lowered = root.lower()
        if len(lowered) == 64 and set(lowered) <= _HEX:
            return lowered
        raise ValidationError(
            f"unknown root {root!r}: neither a catalog slug nor a sha256 fingerprint"
        )

    def _resolve_issuer_slug(self, issuer: str) -> str:
        corpus = self.corpus
        if issuer in corpus.specs_by_slug:
            return issuer
        slug = corpus.slug_for(issuer.lower())
        if slug is not None:
            return slug
        raise ValidationError(
            f"workload issuer {issuer!r} is not a catalog root (chains need a mintable key)"
        )

    def _mint_chain(self, spec: ChainSpec) -> CompiledChain:
        cached = self._chain_cache.get(spec)
        if cached is not None:
            return cached
        compiled = self._mint_chain_uncached(spec)
        self._chain_cache[spec] = compiled
        return compiled

    def _mint_chain_uncached(self, spec: ChainSpec) -> CompiledChain:
        corpus = self.corpus
        slug = self._resolve_issuer_slug(spec.issuer)
        root_spec = corpus.specs_by_slug[slug]
        issued_at = to_moment(spec.not_before)
        if not spec.via_intermediate:
            leaf = issue_server_leaf(
                root_spec,
                corpus.mint,
                spec.domain,
                not_before=issued_at,
                lifetime_days=spec.lifetime_days,
            )
            ders = (leaf.der,)
        else:
            intermediate, ca_key = issue_intermediate(
                root_spec,
                corpus.mint,
                f"{spec.domain} Issuing CA",
                not_before=issued_at - timedelta(days=30),
            )
            leaf = self._issue_from_intermediate(intermediate, ca_key, spec, issued_at)
            ders = (leaf.der, intermediate.der)
        return CompiledChain(
            key=f"{slug}/{spec.domain}",
            issuer_slug=slug,
            issuer_fingerprint=corpus.fingerprint(slug),
            ders=ders,
        )

    @staticmethod
    def _issue_from_intermediate(intermediate, ca_key, spec: ChainSpec, issued_at):
        """A server leaf under a scenario intermediate (same idiom as
        :func:`repro.verify.issuance.issue_server_leaf`, but signed by
        the intermediate's key)."""
        import hashlib

        rng = DeterministicRandom(f"scenario-leaf/{spec.issuer}/{spec.domain}")
        leaf_key = generate_rsa_key(1024, rng)
        serial = (
            int.from_bytes(
                hashlib.sha256(f"scenario/{spec.issuer}/{spec.domain}".encode()).digest()[:8],
                "big",
            )
            | 1
        )
        builder = (
            CertificateBuilder()
            .subject(Name.build(common_name=spec.domain, organization=f"{spec.domain} operator"))
            .issuer(intermediate.subject)
            .serial(serial)
            .valid(issued_at, issued_at + timedelta(days=spec.lifetime_days))
            .public_key(leaf_key.public_key)
            .ca(False)
            .add_extension(SubjectAltName(dns_names=(spec.domain,)).to_extension())
            .add_extension(ExtendedKeyUsage(purposes=(EKU_SERVER_AUTH,)).to_extension())
        )
        return builder.sign(ca_key, "sha256", issuer_public_key=intermediate.public_key)

    def compile(self, scenario: Scenario) -> CompiledScenario:
        """Resolve roots, mint the workload, gather revocation material."""
        corpus = self.corpus
        edits = tuple(
            CompiledEdit.from_edit(edit, self._resolve_fingerprint(edit.root))
            for edit in scenario.edits
        )
        chains = tuple(self._mint_chain(spec) for spec in scenario.workload_or_default())

        revoke_fps = {e.fingerprint for e in edits if e.kind == "revoke"}
        material = []
        for fingerprint in sorted(revoke_fps):
            slug = corpus.slug_for(fingerprint)
            if slug is None:
                raise ValidationError(
                    f"revoke edit targets {fingerprint[:12]}…, which is not a "
                    "catalog root (no key to sign revocation data with)"
                )
            root_spec = corpus.specs_by_slug[slug]
            issued = tuple(
                cert_der
                for chain in chains
                if chain.issuer_fingerprint == fingerprint
                for cert_der in chain.ders
            )
            material.append(
                CompiledMaterial(
                    fingerprint=fingerprint,
                    root_der=corpus.certificate(slug).der,
                    key=corpus.mint.key_for(root_spec),
                    issued_ders=issued,
                )
            )
        return CompiledScenario(
            name=scenario.name,
            digest=scenario.digest(),
            edits=edits,
            chains=chains,
            material=tuple(material),
        )

    # -- execution --------------------------------------------------------

    def _grid(self, scenario: Scenario) -> tuple[tuple[str, ...], tuple[date, ...]]:
        providers = scenario.providers or tuple(self.query.providers)
        if not providers:
            raise ValidationError("the archive holds no providers to evaluate against")
        return tuple(providers), scenario.dates_or_default()

    def _cell_cache_key(self, compiled: CompiledScenario, provider: str, when: date):
        """The content-hash key for one cell, or None (uncacheable).

        Cells with no snapshot in force are not cached: absence is not
        content-addressed, and a later ingest may fill the hole.
        """
        entry = self.query.index.in_force(provider, when)
        if entry is None:
            return None
        return cache_key(
            {
                "engine": ENGINE_VERSION,
                "scenario": compiled.digest,
                "manifest": entry.manifest_id,
                "provider": provider,
                "when": when.isoformat(),
            }
        )

    def run(self, scenario: Scenario) -> ScenarioRun:
        """Evaluate the full (provider, date) grid for one scenario."""
        stats = RunStats(workers=self.workers)
        with stage_timer(
            "scenario.compile",
            "repro_scenario_stage_seconds",
            metric_labels={"stage": "compile"},
            scenario=scenario.name,
        ):
            compiled = self.compile(scenario)
            providers, dates = self._grid(scenario)

        cells = [(provider, when) for provider in providers for when in dates]
        stats.cells = len(cells)

        with stage_timer(
            "scenario.grid",
            "repro_scenario_stage_seconds",
            metric_labels={"stage": "grid"},
            cells=str(len(cells)),
        ):
            cached: dict[tuple[str, date], dict] = {}
            keys: dict[tuple[str, date], str] = {}
            pending: list[tuple[str, date]] = []
            for cell in cells:
                key = (
                    self._cell_cache_key(compiled, *cell) if self.use_cache else None
                )
                if key is None:
                    if self.use_cache:
                        stats.cache_skips += 1
                        count("repro_scenario_cache_total", outcome="skip")
                    pending.append(cell)
                    continue
                keys[cell] = key
                hit = self.cache.get(key)
                if hit is not None:
                    stats.cache_hits += 1
                    count("repro_scenario_cache_total", outcome="hit")
                    cached[cell] = hit
                else:
                    stats.cache_misses += 1
                    count("repro_scenario_cache_total", outcome="miss")
                    pending.append(cell)

        with stage_timer(
            "scenario.validate",
            "repro_scenario_stage_seconds",
            metric_labels={"stage": "validate"},
            pending=str(len(pending)),
            workers=str(self.workers),
        ):
            computed = self._evaluate(compiled, pending, stats)
        set_gauge("repro_scenario_pool_workers", float(self.workers))

        by_cell = dict(cached)
        for cell, payload in zip(pending, computed):
            by_cell[cell] = payload
            if self.use_cache and cell in keys:
                self.cache.put(keys[cell], payload)

        ordered = tuple(by_cell[cell] for cell in cells)
        for payload in ordered:
            for outcome in payload["chains"].values():
                if outcome["reason"] == NO_SNAPSHOT:
                    continue
                stats.chains_validated += 1
                count(
                    "repro_scenario_chains_total",
                    outcome="valid" if outcome["valid"] else "invalid",
                )
        return ScenarioRun(
            scenario=scenario,
            digest=compiled.digest,
            providers=providers,
            dates=dates,
            chain_keys=tuple(chain.key for chain in compiled.chains),
            cells=ordered,
            stats=stats,
        )

    def _evaluate(
        self,
        compiled: CompiledScenario,
        cells: list[tuple[str, date]],
        stats: RunStats | None = None,
    ) -> list[dict]:
        """Run pending cells serially or across the fork pool.

        Results merge by their unique (provider, date) cell into the
        original grid order, so output is invariant in ``workers`` *and*
        in how blocks were re-chunked by retries.

        A pool worker that dies mid-block breaks the whole
        ``ProcessPoolExecutor`` (one shared result pipe), so each retry
        round builds a fresh pool; the failed block's *uncomputed* cells
        are split in half and re-dispatched with an inherited retry
        counter, and a block that exhausts ``chunk_retries`` fails the
        sweep with :class:`ScenarioPoolError` instead of spinning.
        """
        if not cells:
            return []
        root = str(self.archive.root)
        if self.workers == 1:
            # Inline evaluation: no process to lose, chaos stays unarmed
            # (maybe_kill here would take the engine down with it).
            return _run_chunk(root, compiled, cells, self.fetch_latency_s)
        by_cell: dict[tuple[str, date], dict] = {}
        work = [(block, 0) for block in _split(cells, self.workers)]
        while work:
            failed: list[tuple[list[tuple[str, date]], int]] = []
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(work)),
                mp_context=get_context("fork"),
            ) as pool:
                futures = [
                    (
                        block,
                        retries,
                        pool.submit(
                            _run_chunk,
                            root,
                            compiled,
                            block,
                            self.fetch_latency_s,
                            self.chaos,
                        ),
                    )
                    for block, retries in work
                ]
                for block, retries, future in futures:
                    try:
                        results = future.result()
                    except BrokenProcessPool:
                        # This block's worker died (or the broken pool
                        # cancelled it before it ran): re-dispatch.
                        failed.append((block, retries))
                        continue
                    for cell, payload in zip(block, results):
                        by_cell[cell] = payload
            work = []
            for block, retries in failed:
                remaining = [cell for cell in block if cell not in by_cell]
                if not remaining:
                    continue
                if retries >= self.chunk_retries:
                    count("repro_scenario_redispatch_total", outcome="exhausted")
                    raise ScenarioPoolError(
                        f"grid block of {len(remaining)} cells starting at "
                        f"{remaining[0][0]}@{remaining[0][1].isoformat()} killed "
                        f"its pool worker {retries + 1} times "
                        f"(chunk_retries={self.chunk_retries})"
                    )
                if stats is not None:
                    stats.redispatches += 1
                count("repro_scenario_redispatch_total", outcome="requeued")
                # Split on retry: if one poisonous cell keeps killing
                # workers, halving isolates it while the healthy half
                # completes.
                for half in _split(remaining, 2):
                    work.append((half, retries + 1))
        return [by_cell[cell] for cell in cells]

    def run_with_baseline(self, scenario: Scenario) -> tuple[ScenarioRun, ScenarioRun]:
        """(baseline, scenario) runs over the identical grid/workload."""
        baseline = self.run(scenario.baseline())
        return baseline, self.run(scenario)


def _split(items: list, parts: int) -> list[list]:
    """Contiguous near-equal blocks, never empty, at most ``parts``."""
    parts = min(parts, len(items))
    size, excess = divmod(len(items), parts)
    blocks = []
    start = 0
    for index in range(parts):
        stop = start + size + (1 if index < excess else 0)
        blocks.append(items[start:stop])
        start = stop
    return blocks
