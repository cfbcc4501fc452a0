"""Parameterized derivative-population synthesis — the 100× corpus.

"Certificate Root Stores: Unity or Disparity?" (PAPERS.md) argues the
trust-anchor ecosystem is far wider than the paper's ten providers:
container base images, IoT/embedded stores, language runtimes, forked
distros — each one effectively an NSS derivative with its own cadence,
lag, and abandonment story.  This module synthesizes that long tail.

:func:`synthesize_policies` derives hundreds of
:class:`~repro.simulation.derivatives.DerivativePolicy` variants
deterministically from the six seeded templates: every parameter
(cadence, lag, jitter, data window, email conflation, base freeze) is a
pure function of ``sha256(seed/index)``, so the same spec always yields
byte-identical timelines.  Policies run in *organic* mode — incident
responses emerge from copying NSS with lag, never from pinned dates —
and mint **no new certificates**: the population reuses the corpus
catalog, so generation cost is snapshot assembly, not RSA keygen.

:func:`synthesize_population` drives the derivative engine over those
policies and returns a :class:`~repro.store.history.Dataset` combining
the base corpus with the synthetic providers — tens of thousands of
snapshots, ready for archive ingest and the tiled analysis substrate
(:mod:`repro.analysis.incidence`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import timedelta

from repro.errors import SimulationError
from repro.obs.instrument import stage_timer
from repro.simulation.corpus import Corpus
from repro.simulation.derivatives import (
    ALPINE_POLICY,
    AMAZONLINUX_POLICY,
    ANDROID_POLICY,
    DEBIAN_POLICY,
    NODEJS_POLICY,
    UBUNTU_POLICY,
    DerivativePolicy,
    build_derivative_history,
)
from repro.store.history import Dataset, StoreHistory

#: Seed templates the synthetic policies are perturbed from.
POPULATION_TEMPLATES: tuple[DerivativePolicy, ...] = (
    DEBIAN_POLICY,
    UBUNTU_POLICY,
    NODEJS_POLICY,
    ANDROID_POLICY,
    AMAZONLINUX_POLICY,
    ALPINE_POLICY,
)

#: Ecosystem families the long tail is drawn from (naming only — the
#: behavioural parameters come from the template + digest).
POPULATION_FAMILIES: tuple[str, ...] = ("container", "iot", "runtime", "distro")

#: Providers get a synthetic-namespace prefix so they can never collide
#: with (or accidentally trigger the bespoke behaviours of) the real
#: seeded providers.
SYNTH_PREFIX = "synth"


@dataclass(frozen=True)
class PopulationSpec:
    """Knobs for one deterministic synthetic population."""

    #: number of synthetic derivative providers
    providers: int = 240
    #: namespace seed — vary to get a structurally different population
    seed: str = "repro-population-v1"
    #: slowest allowed release cadence, in days
    max_cadence_days: int = 200
    #: fastest allowed release cadence, in days
    min_cadence_days: int = 21

    def __post_init__(self):
        if self.providers < 1:
            raise SimulationError(f"population needs >= 1 provider, got {self.providers}")
        if not 1 <= self.min_cadence_days <= self.max_cadence_days:
            raise SimulationError(
                f"bad cadence bounds [{self.min_cadence_days}, {self.max_cadence_days}]"
            )


def _digest(spec: PopulationSpec, index: int) -> bytes:
    return hashlib.sha256(f"{spec.seed}/provider/{index}".encode()).digest()


def _word(digest: bytes, offset: int) -> int:
    return digest[offset] | (digest[offset + 1] << 8)


def synthesize_policy(spec: PopulationSpec, index: int) -> DerivativePolicy:
    """The ``index``-th synthetic policy of the population, deterministically.

    Every field is a pure function of ``sha256(seed/provider/index)``:

    - family and template: bytes 0–1,
    - cadence: bytes 2–3, uniform in the spec's cadence bounds,
    - lag and jitter: bytes 4–6 (10–250 and 0–59 days),
    - data window: bytes 7–10 shrink the template's window — start
      jitters forward up to 40%, end backward up to 20%, always leaving
      at least two cadence intervals,
    - email conflation: one in four providers keeps the template's
      conflation habit (byte 11),
    - base freeze: one in eight providers abandons its NSS base halfway
      through its window (byte 12) — the Alpine story, everywhere.

    Responses are always *organic* (no pinned incident dates) and no
    new certificates are minted: synthetic stores only recombine the
    corpus catalog.
    """
    digest = _digest(spec, index)
    family = POPULATION_FAMILIES[digest[0] % len(POPULATION_FAMILIES)]
    template = POPULATION_TEMPLATES[digest[1] % len(POPULATION_TEMPLATES)]

    cadence_span = spec.max_cadence_days - spec.min_cadence_days + 1
    cadence = spec.min_cadence_days + _word(digest, 2) % cadence_span
    lag = 10 + _word(digest, 4) % 241
    jitter = digest[6] % 60

    window = (template.data_end - template.data_start).days
    start_shift = _word(digest, 7) % max(1, (window * 2) // 5)
    end_shift = digest[9] % max(1, window // 5)
    data_start = template.data_start + timedelta(days=start_shift)
    data_end = template.data_end - timedelta(days=end_shift)
    if (data_end - data_start).days < 2 * cadence:
        # Degenerate shrink: fall back to the template's full window.
        data_start, data_end = template.data_start, template.data_end

    conflate = template.conflate_email_until if digest[11] % 4 == 0 else None
    base_freeze = None
    if digest[12] % 8 == 0:
        base_freeze = data_start + timedelta(days=(data_end - data_start).days // 2)

    return DerivativePolicy(
        key=f"{SYNTH_PREFIX}-{family}-{index:04d}",
        data_start=data_start,
        data_end=data_end,
        cadence_days=cadence,
        lag_days=lag,
        lag_jitter_days=jitter,
        conflate_email_until=conflate,
        base_freeze=base_freeze,
        organic_responses=True,
    )


def synthesize_policies(spec: PopulationSpec) -> list[DerivativePolicy]:
    """All of the population's policies, in index order."""
    return [synthesize_policy(spec, index) for index in range(spec.providers)]


def synthesize_population(
    corpus: Corpus,
    spec: PopulationSpec | None = None,
    *,
    include_base: bool = True,
) -> Dataset:
    """Drive the derivative engine over a synthetic policy population.

    Args:
        corpus: the seeded corpus providing the NSS history and the
            certificate catalog (no new certs are minted).
        spec: population knobs; defaults to :class:`PopulationSpec`.
        include_base: also carry the corpus' own ten providers into the
            returned dataset (the usual shape for archive ingest).

    Returns:
        A fresh :class:`Dataset`; the base histories are shared by
        reference (snapshots are immutable), the synthetic ones are new.
    """
    if spec is None:
        spec = PopulationSpec()
    with stage_timer(
        "simulation.population",
        "repro_simulation_stage_seconds",
        metric_labels={"stage": "population"},
        providers=spec.providers,
        seed=spec.seed,
    ):
        dataset = Dataset()
        if include_base:
            for provider in corpus.dataset.providers:
                dataset.add_history(corpus.dataset[provider])
        nss_history = corpus.dataset["nss"]
        for policy in synthesize_policies(spec):
            history = StoreHistory(policy.key)
            for snapshot in build_derivative_history(
                policy.key,
                nss_history,
                corpus.specs_by_slug,
                corpus.mint,
                policy=policy,
            ):
                history.add(snapshot)
            dataset.add_history(history)
        return dataset


def spec_for_snapshot_target(
    target_snapshots: int, *, seed: str = "repro-population-v1"
) -> PopulationSpec:
    """A spec sized so the synthetic tail alone clears ``target_snapshots``.

    Sized from the population's empirical mean of ~23 snapshots per
    provider (window/cadence both digest-uniform); the 20% margin
    absorbs seed-to-seed variance.  Callers that need an exact floor
    should still check :meth:`Dataset.total_snapshots`.
    """
    if target_snapshots < 1:
        raise SimulationError(f"target must be >= 1, got {target_snapshots}")
    providers = max(1, (target_snapshots * 12) // (23 * 10))
    return PopulationSpec(providers=providers, seed=seed)
