"""Timings for the repository's performance-critical paths.

The suite measures four things, mirroring the optimization work they
guard:

- **distance**: full-dataset Jaccard distance matrix, naive per-pair
  loop vs. the tiled incidence kernel, with the element-wise
  maximum deviation between the two (must be exactly 0).
- **mds**: SMACOF stress-majorization on that matrix (the Figure 1
  embedding), whose per-iteration distance computation uses the Gram
  formulation.
- **intern**: parsing every certificate occurrence across the dataset
  with interning off (every DER parsed) vs. on (each unique DER parsed
  once, duplicates served from the pool).
- **scrape**: publishing and re-scraping provider histories serially
  vs. with ``scrape_history(workers=N)``, asserting the outputs are
  identical.  Under CPython's GIL the simulated (in-memory, CPU-bound)
  origins see little thread speedup — the measurement records whatever
  the hardware gives; real scraping is network-bound, which is what the
  worker pool is shaped for.

``REPRO_BENCH_SMOKE=1`` switches to a tiny snapshot subset, cheap
enough to ride inside the tier-1 test run.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.analysis.jaccard import collect_snapshots, distance_matrix
from repro.analysis.mds import smacof
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
from repro.x509.certificate import (
    Certificate,
    certificate_intern_stats,
    clear_certificate_intern_pool,
)

#: How many snapshots the smoke subset keeps.
SMOKE_SNAPSHOTS = 12
#: How many providers the smoke scrape section visits.
SMOKE_PROVIDERS = 1


def _summary_lines(r: dict) -> list[str]:
    return [
        f"mode                : {r['mode']} ({r['snapshots']} snapshots)",
        f"distance naive      : {r['distance']['naive_s']:.4f} s",
        f"distance vectorized : {r['distance']['vectorized_s']:.4f} s "
        f"({r['distance']['speedup']:.1f}x, max |diff| "
        f"{r['distance']['max_abs_diff']:.2e})",
        f"smacof              : {r['mds']['smacof_s']:.4f} s "
        f"({r['mds']['iterations']} iterations, stress {r['mds']['stress']:.2f})",
        f"parse fresh         : {r['intern']['fresh_s']:.4f} s "
        f"({r['intern']['certificates']} certificates)",
        f"parse interned      : {r['intern']['interned_s']:.4f} s "
        f"({r['intern']['speedup']:.1f}x, {r['intern']['unique']} unique, "
        f"hit rate {r['intern']['hit_rate']:.0%})",
        f"scrape serial       : {r['scrape']['serial_s']:.4f} s "
        f"({r['scrape']['providers']} providers, {r['scrape']['tags']} tags)",
        f"scrape workers={r['scrape']['workers']}    : "
        f"{r['scrape']['parallel_s']:.4f} s "
        f"({r['scrape']['speedup']:.2f}x, identical={r['scrape']['identical']})",
        f"scrape @{r['scrape']['latency_ms']:.0f}ms origin : "
        f"{r['scrape']['latent_serial_s']:.4f} s serial, "
        f"{r['scrape']['latent_parallel_s']:.4f} s parallel "
        f"({r['scrape']['latent_speedup']:.2f}x)",
    ]


SUITE = SuiteSpec(
    render=_summary_lines,
    gates=(
        Gate("distance.max_abs_diff", "==", 0.0, "tiled kernel equals the per-pair oracle"),
        Gate("scrape.identical", "==", True, "parallel scrape reproduces the serial one"),
    ),
    floors=(
        Gate("distance.speedup", ">=", 10.0, "tiled distance kernel vs the per-pair loop"),
        Gate("intern.speedup", ">=", 2.0, "interned vs fresh certificate parsing"),
        # Under the GIL threads cannot speed up the in-memory parse, so
        # only the latency-shaped (network-like) scrape is floored.
        Gate("scrape.latent_speedup", ">=", 1.5, "workers=4 vs serial against a latent origin"),
    ),
)


def _bench_distance(snapshots, *, rounds: int) -> dict:
    naive_s, naive = timed(
        lambda: distance_matrix(snapshots, metric="jaccard-naive"),
        rounds=rounds,
        suite="perf",
        section="distance_naive",
    )
    vectorized_s, vectorized = timed(
        lambda: distance_matrix(snapshots, metric="jaccard"),
        rounds=rounds,
        suite="perf",
        section="distance_vectorized",
    )
    max_abs_diff = float(np.abs(naive.matrix - vectorized.matrix).max())
    return {
        "naive_s": naive_s,
        "vectorized_s": vectorized_s,
        "speedup": ratio(naive_s, vectorized_s),
        "max_abs_diff": max_abs_diff,
        "matrix": vectorized.matrix,  # handed to the MDS section, stripped on dump
    }


def _bench_mds(matrix: np.ndarray, *, rounds: int) -> dict:
    smacof_s, result = timed(
        lambda: smacof(matrix, dims=2), rounds=rounds, suite="perf", section="mds_smacof"
    )
    return {
        "smacof_s": smacof_s,
        "iterations": result.iterations,
        "stress": result.stress,
        "converged": result.converged,
    }


def _bench_intern(snapshots, *, rounds: int) -> dict:
    #: every certificate *occurrence* — duplicates across providers and
    #: snapshots included, which is exactly what collection re-parses.
    ders = [e.certificate.der for s in snapshots for e in s]
    unique = len(set(ders))

    # Parsed certificates are retained for the duration of each round —
    # as collection does — so the weak-ref intern pool can actually
    # serve duplicates instead of watching each parse get collected.
    def fresh():
        clear_certificate_intern_pool()
        return [Certificate.from_der(der, intern=False) for der in ders]

    def interned():
        clear_certificate_intern_pool()
        return [Certificate.from_der(der, intern=True) for der in ders]

    fresh_s, _ = timed(fresh, rounds=rounds, suite="perf", section="intern_fresh")
    interned_s, _ = timed(interned, rounds=rounds, suite="perf", section="intern_interned")
    stats = certificate_intern_stats()
    return {
        "certificates": len(ders),
        "unique": unique,
        "fresh_s": fresh_s,
        "interned_s": interned_s,
        "speedup": ratio(fresh_s, interned_s),
        "hit_rate": stats.hit_rate,
    }


class _LatentTagged:
    """A tagged tree whose ``tree`` access stalls like a real fetch."""

    def __init__(self, tagged, latency_s: float):
        self._tagged = tagged
        self._latency_s = latency_s
        self.tag = tagged.tag
        self.released = tagged.released

    @property
    def tree(self):
        time.sleep(self._latency_s)
        return self._tagged.tree


class _LatentOrigin:
    """Wraps an origin so each tag fetch costs ``latency_s`` wall time.

    The simulated origins are in-memory dicts, so a plain scrape is
    pure CPU and (under the GIL) shows what threads cost, not what
    they buy.  Real scraping is dominated by network waits — this
    wrapper restores that shape so the workers measurement reflects
    the workload the pool exists for.
    """

    def __init__(self, base, latency_s: float):
        self._base = base
        self._latency_s = latency_s

    def __iter__(self):
        for tagged in self._base:
            yield _LatentTagged(tagged, self._latency_s)


def _bench_scrape(
    dataset: Dataset,
    providers: list[str],
    *,
    workers: int,
    rounds: int,
    latency_ms: float,
) -> dict:
    origins = {p: publish_history(dataset[p]) for p in providers}
    tags = sum(len(list(origins[p])) for p in providers)

    def run(n_workers: int, latency_s: float = 0.0):
        # Cold pool each run so every variant pays identical parse costs.
        clear_certificate_intern_pool()
        return {
            p: scrape_history(
                p,
                _LatentOrigin(origins[p], latency_s) if latency_s > 0 else origins[p],
                workers=n_workers,
            )
            for p in providers
        }

    serial_s, serial = timed(
        lambda: run(1), rounds=rounds, suite="perf", section="scrape_serial"
    )
    parallel_s, parallel = timed(
        lambda: run(workers), rounds=rounds, suite="perf", section="scrape_parallel"
    )
    latency_s = latency_ms / 1000.0
    latent_serial_s, _ = timed(
        lambda: run(1, latency_s), rounds=rounds, suite="perf", section="scrape_latent_serial"
    )
    latent_parallel_s, latent = timed(
        lambda: run(workers, latency_s),
        rounds=rounds,
        suite="perf",
        section="scrape_latent_parallel",
    )
    identical = all(
        serial[p].snapshots == parallel[p].snapshots == latent[p].snapshots
        for p in providers
    )
    return {
        "providers": len(providers),
        "tags": tags,
        "workers": workers,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": ratio(serial_s, parallel_s),
        "latency_ms": latency_ms,
        "latent_serial_s": latent_serial_s,
        "latent_parallel_s": latent_parallel_s,
        "latent_speedup": ratio(latent_serial_s, latent_parallel_s),
        "identical": identical,
    }


def run_perf_suite(
    dataset: Dataset | None = None,
    *,
    smoke: bool | None = None,
    workers: int = 4,
    rounds: int = 1,
    output: Path | str | None = None,
) -> BenchResult:
    """Run every section and optionally write ``BENCH_ordination.json``.

    Smoke mode trims the snapshot set to :data:`SMOKE_SNAPSHOTS` and
    visits one provider in the scrape section.
    """
    smoke = resolve_smoke(smoke)
    dataset = resolve_dataset(dataset, smoke=False)
    snapshots = collect_snapshots(dataset)
    providers = list(dataset.providers)
    if smoke:
        snapshots = snapshots[:SMOKE_SNAPSHOTS]
        providers = providers[:SMOKE_PROVIDERS]

    distance = _bench_distance(snapshots, rounds=rounds)
    matrix = distance.pop("matrix")
    results = {
        "snapshots": len(snapshots),
        "distance": distance,
        "mds": _bench_mds(matrix, rounds=rounds),
        "intern": _bench_intern(snapshots, rounds=rounds),
        "scrape": _bench_scrape(
            dataset,
            providers,
            workers=workers,
            rounds=rounds,
            # Real origin fetches are network round-trips (tens of ms);
            # the simulated latency must exceed per-tag CPU (~12 ms at
            # full size) for the workload to be latency-shaped at all.
            latency_ms=1.0 if smoke else 15.0,
        ),
    }
    return SUITE.finish(results, smoke=smoke, output=output)
