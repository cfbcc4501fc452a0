"""Scale benchmarks — the numbers behind ``BENCH_scale.json``.

ROADMAP item 1: grow the corpus 10–100× (synthetic derivative
populations) and keep the analysis substrate alive out-of-core.  This
suite measures — and floors, in full mode — the three claims that make
that real:

- **population + ingest**: synthesize a ≥5k-snapshot derivative
  population deterministically (no new certificate minting) and ingest
  it into a fresh archive end-to-end.
- **equivalence + memory**: the tiled distance kernel at its default
  block height must agree **element-wise exactly** with the same kernel
  run as one (n, n) tile (the dense product) on the seeded 649-snapshot
  corpus, and at population scale its peak allocation beyond the output
  buffer must undercut the one-tile run's (n, n) temporaries by a wide
  margin (tracemalloc-measured).
- **landmark MDS**: the k-landmark embed + triangulate pipeline must
  beat iteration-matched full SMACOF by ≥10× at population scale while
  staying within stress tolerance of it on the full-matrix Kruskal
  stress-1.

``REPRO_BENCH_SMOKE=1`` shrinks everything to ride inside tier-1.
"""

from __future__ import annotations

import tempfile
import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.incidence import (
    build_incidence,
    cross_distances,
    jaccard_distances,
    maxmin_landmarks,
    overlap_distances,
)
from repro.analysis.mds import kruskal_stress, landmark_mds, smacof
from repro.archive import Archive, ArchiveQuery, ingest_dataset
from repro.archive.io import set_fsync
from repro.bench.harness import (
    BenchResult,
    Gate,
    SuiteSpec,
    ratio,
    resolve_smoke,
    smoke_dataset,
    timed,
)
from repro.simulation import (
    PopulationSpec,
    default_corpus,
    synthesize_population,
)
from repro.store.history import Dataset

#: Snapshot floor the full-mode population must clear end-to-end.
FULL_TARGET_SNAPSHOTS = 5000
#: Synthetic providers in full mode (empirically ~25 snapshots each, so
#: this clears the target with margin while staying deterministic).
FULL_PROVIDERS = 260
#: Synthetic providers in smoke mode.
SMOKE_PROVIDERS = 3
#: Landmark count for the full-mode ordination comparison.
FULL_LANDMARKS = 96
#: Iteration cap shared by both SMACOF runs so the ≥10× landmark claim
#: is iteration-matched, not an artifact of differing convergence.
FULL_MDS_ITERATIONS = 48
SMOKE_LANDMARKS = 8
SMOKE_MDS_ITERATIONS = 12


def _summary_lines(r: dict) -> list[str]:
    pop, ing = r["population"], r["ingest"]
    eq, mem, mds = r["equivalence"], r["memory"], r["landmark_mds"]
    return [
        f"mode                : {r['mode']}",
        f"population          : {pop['synthesize_s']:.2f} s "
        f"({pop['providers']} synthetic providers, "
        f"{pop['total_snapshots']} snapshots total)",
        f"ingest              : {ing['ingest_s']:.2f} s "
        f"({ing['snapshots_added']} snapshots, "
        f"{ing['manifests_written']} manifests, "
        f"archived={ing['archived_snapshots']})",
        f"blocked == dense    : max |diff| {eq['max_abs_diff']:.2e} "
        f"at {eq['snapshots']} snapshots (jaccard + overlap)",
        f"sparse index        : {mem['sparse_bytes'] / 1e6:.2f} MB vs "
        f"{mem['dense_float_bytes'] / 1e6:.2f} MB dense float64 "
        f"({mem['sparse_vs_dense_float']:.2f}x)",
        f"distance overhead   : blocked {mem['blocked_overhead_bytes'] / 1e6:.1f} MB "
        f"vs dense {mem['dense_overhead_bytes'] / 1e6:.1f} MB beyond the "
        f"output ({mem['overhead_ratio']:.1f}x smaller)",
        f"full smacof         : {mds['full_s']:.2f} s "
        f"({mds['points']} points, {mds['iterations']} iteration cap, "
        f"stress1 {mds['full_stress1']:.4f})",
        f"landmark mds        : {mds['landmark_s']:.2f} s "
        f"({mds['landmarks']} landmarks, {mds['speedup']:.1f}x, "
        f"stress1 {mds['landmark_stress1']:.4f}, "
        f"excess {mds['stress1_excess']:+.4f})",
    ]


SUITE = SuiteSpec(
    render=_summary_lines,
    gates=(
        Gate("equivalence.max_abs_diff", "==", 0.0, "256-row tiles equal one (n, n) tile"),
        Gate("ingest.round_trip_complete", "==", True, "the whole population is archived"),
        Gate("landmark_mds.landmark_stress1", "<", 1.0, "the landmark embedding is not noise"),
    ),
    floors=(
        Gate("population.total_snapshots", ">=", FULL_TARGET_SNAPSHOTS, "population size"),
        Gate("ingest.archived_snapshots", ">=", FULL_TARGET_SNAPSHOTS, "archived population"),
        Gate("memory.sparse_vs_dense_float", "<=", 0.5, "CSR vs dense float64 incidence bytes"),
        Gate("memory.overhead_ratio", ">=", 8.0, "one-tile vs tiled peak beyond the output"),
        Gate("landmark_mds.speedup", ">=", 10.0, "landmark MDS vs iteration-matched SMACOF"),
        Gate("landmark_mds.stress1_excess", "<=", 0.15, "landmark vs full SMACOF stress-1"),
    ),
)


def _tracemalloc_peak(fn: Callable[[], object]) -> tuple[int, object]:
    """Peak bytes allocated (python-side) while running ``fn``."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        value = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, value


def _bench_population(
    corpus, *, providers: int, include_base: bool
) -> tuple[Dataset, dict]:
    spec = PopulationSpec(providers=providers)
    synthesize_s, dataset = timed(
        lambda: synthesize_population(corpus, spec, include_base=include_base),
        suite="scale",
        section="population_synthesize",
    )
    return dataset, {
        "providers": providers,
        "seed": spec.seed,
        "synthesize_s": synthesize_s,
        "base_snapshots": corpus.dataset.total_snapshots(),
        "total_snapshots": dataset.total_snapshots(),
        "synthetic_snapshots": dataset.total_snapshots()
        - (corpus.dataset.total_snapshots() if include_base else 0),
    }


def _bench_ingest(root: Path, dataset: Dataset) -> dict:
    archive = Archive(root / "scale-archive", create=True)
    previous = set_fsync(False)  # measure ingest work, not disk sync policy
    try:
        ingest_s, report = timed(
            lambda: ingest_dataset(archive, dataset),
            suite="scale",
            section="ingest",
        )
    finally:
        set_fsync(previous)
    query = ArchiveQuery(archive)
    archived = sum(
        len(query.index.timeline(provider)) for provider in query.providers
    )
    return {
        "ingest_s": ingest_s,
        "snapshots_seen": report.snapshots_seen,
        "snapshots_added": report.snapshots_added,
        "objects_written": report.objects_written,
        "manifests_written": report.manifests_written,
        "providers": len(report.providers),
        "archived_snapshots": archived,
        "round_trip_complete": archived == dataset.total_snapshots(),
    }


def _bench_equivalence(base_dataset: Dataset) -> dict:
    """256-row tiles vs one (n, n) tile on the *seeded* corpus."""
    snapshots = base_dataset.all_snapshots()
    incidence = build_incidence(snapshots)
    n = incidence.n_rows
    dense_jaccard_s, dense_jaccard = timed(
        lambda: jaccard_distances(incidence, block_rows=n),
        suite="scale",
        section="dense_jaccard",
    )
    blocked_jaccard_s, blocked_jaccard = timed(
        lambda: jaccard_distances(incidence, block_rows=256),
        suite="scale",
        section="blocked_jaccard",
    )
    jaccard_diff = float(np.abs(dense_jaccard - blocked_jaccard).max())
    overlap_diff = float(
        np.abs(
            overlap_distances(incidence, block_rows=n)
            - overlap_distances(incidence, block_rows=256)
        ).max()
    )
    return {
        "snapshots": len(snapshots),
        "dense_jaccard_s": dense_jaccard_s,
        "blocked_jaccard_s": blocked_jaccard_s,
        "jaccard_max_abs_diff": jaccard_diff,
        "overlap_max_abs_diff": overlap_diff,
        "max_abs_diff": max(jaccard_diff, overlap_diff),
    }


def _bench_memory(dataset: Dataset) -> dict:
    """Peak-allocation accounting at population scale (tracemalloc)."""
    snapshots = dataset.all_snapshots()
    n = len(snapshots)
    sparse_peak, incidence = _tracemalloc_peak(lambda: build_incidence(snapshots))
    # The one-tile product materializes every row as one float64 slab
    # for the matmul; that is the honest storage baseline for the CSR
    # index.
    dense_peak, _ = _tracemalloc_peak(lambda: incidence.slab(0, n))
    dense_bool_bytes = n * incidence.n_cols
    dense_float_bytes = dense_bool_bytes * 8
    output_bytes = n * n * 8
    dense_distance_peak, _ = _tracemalloc_peak(
        lambda: jaccard_distances(incidence, block_rows=n)
    )
    blocked_distance_peak, _ = _tracemalloc_peak(lambda: jaccard_distances(incidence))
    dense_overhead = max(0, dense_distance_peak - output_bytes)
    blocked_overhead = max(0, blocked_distance_peak - output_bytes)
    return {
        "snapshots": n,
        "universe": incidence.n_cols,
        "nnz": incidence.nnz,
        "sparse_bytes": int(incidence.nbytes),
        "dense_bool_bytes": dense_bool_bytes,
        "dense_float_bytes": dense_float_bytes,
        "sparse_vs_dense_float": incidence.nbytes / dense_float_bytes,
        "sparse_build_peak_bytes": int(sparse_peak),
        "dense_build_peak_bytes": int(dense_peak),
        "distance_output_bytes": output_bytes,
        "dense_distance_peak_bytes": int(dense_distance_peak),
        "blocked_distance_peak_bytes": int(blocked_distance_peak),
        "dense_overhead_bytes": int(dense_overhead),
        "blocked_overhead_bytes": int(blocked_overhead),
        "overhead_ratio": ratio(dense_overhead, blocked_overhead),
    }


def _bench_landmark_mds(
    dataset: Dataset, *, landmarks: int, max_iterations: int
) -> dict:
    """Landmark embed+triangulate vs iteration-matched full SMACOF."""
    snapshots = dataset.all_snapshots()
    incidence = build_incidence(snapshots)
    full_matrix = jaccard_distances(incidence)

    full_s, full_result = timed(
        lambda: smacof(full_matrix, dims=2, max_iterations=max_iterations),
        suite="scale",
        section="mds_full",
    )

    def landmark_pipeline():
        picked = maxmin_landmarks(incidence, landmarks)
        cross = cross_distances(incidence, picked)
        return landmark_mds(
            cross, picked, dims=2, max_iterations=max_iterations
        )

    landmark_s, landmark_result = timed(
        landmark_pipeline,
        suite="scale",
        section="mds_landmark",
    )
    # Quality on equal footing: full-matrix Kruskal stress-1 of both
    # embeddings against the same dissimilarities.
    full_stress1 = kruskal_stress(full_matrix, full_result.embedding)
    landmark_stress1 = kruskal_stress(full_matrix, landmark_result.embedding)
    return {
        "points": incidence.n_rows,
        "landmarks": landmarks,
        "iterations": max_iterations,
        "full_s": full_s,
        "landmark_s": landmark_s,
        "speedup": ratio(full_s, landmark_s),
        "full_stress1": full_stress1,
        "landmark_stress1": landmark_stress1,
        "landmark_cross_stress1": landmark_result.cross_stress1,
        "stress1_excess": landmark_stress1 - full_stress1,
    }


def run_scale_suite(
    *,
    smoke: bool | None = None,
    providers: int | None = None,
    landmarks: int | None = None,
    output: Path | str | None = None,
) -> BenchResult:
    """Run every section and optionally write ``BENCH_scale.json``.

    Smoke mode synthesizes a 3-provider tail and runs the same
    end-to-end path (population → ingest → equivalence → memory →
    landmark MDS) on it, leaving the floors to full mode.
    """
    smoke = resolve_smoke(smoke)
    if providers is None:
        providers = SMOKE_PROVIDERS if smoke else FULL_PROVIDERS
    if landmarks is None:
        landmarks = SMOKE_LANDMARKS if smoke else FULL_LANDMARKS
    max_iterations = SMOKE_MDS_ITERATIONS if smoke else FULL_MDS_ITERATIONS

    corpus = default_corpus()
    dataset, population = _bench_population(
        # Smoke skips the 649 base snapshots so the ingest stays cheap
        # enough to ride inside tier-1; full mode ingests base + tail.
        corpus, providers=providers, include_base=not smoke
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        ingest = _bench_ingest(Path(tmp), dataset)

    # Smoke runs equivalence and ordination on a trimmed seeded corpus.
    base = smoke_dataset(corpus.dataset, 3, 8) if smoke else corpus.dataset
    mds_dataset = base if smoke else dataset
    results = {
        "target_snapshots": 0 if smoke else FULL_TARGET_SNAPSHOTS,
        "population": population,
        "ingest": ingest,
        "equivalence": _bench_equivalence(base),
        "memory": _bench_memory(mds_dataset),
        "landmark_mds": _bench_landmark_mds(
            mds_dataset, landmarks=landmarks, max_iterations=max_iterations
        ),
    }
    return SUITE.finish(results, smoke=smoke, output=output)
