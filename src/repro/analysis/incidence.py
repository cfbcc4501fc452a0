"""The fingerprint incidence relation and its tiled distance kernels.

The ordination (Section 4) needs every pairwise set comparison between
snapshot fingerprint sets.  Doing that per pair is O(n² · |store|) in
pure Python; at the paper's 619 snapshots it is already the dominant
cost, and at CT-log scale (Korzhitskii & Carlsson) it is intractable.

This module maps the snapshot list onto one snapshots ×
fingerprint-universe membership relation, stored CSR-style
(:class:`IncidenceMatrix`): one ``int32`` column id per (snapshot,
fingerprint) incidence plus a row-pointer array — the same postings
shape as the archive's persisted fingerprint index, a few percent of a
dense float64 matrix's footprint at real store densities.  Every
pairwise statistic then falls out of products of densified row slabs:

- intersections: ``A @ B.T`` per (block × block) tile (exact — counts
  are small integers, and float64 represents them and their quotients
  identically to Python's int/int division),
- set sizes: the row-pointer differences,
- unions: inclusion–exclusion, ``|A| + |B| − |A ∩ B|``.

:func:`jaccard_distances` and :func:`overlap_distances` compute the full
matrix tile by tile: beyond the output buffer only two (block ×
universe) slabs and one (block × block) tile are live.  A ``block_rows``
of at least n is the dense product in one tile.  Every tiling gives the
same bits, and every one reproduces the per-pair formulas of
:mod:`repro.analysis.jaccard` element for element (including the
empty-set conventions).  :func:`cross_distances` produces the (k, n)
landmark-to-everything strip that :func:`repro.analysis.mds.landmark_mds`
consumes without forming an (n, n) matrix, and :func:`maxmin_landmarks`
picks well-spread pivot rows, one strip per landmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.obs.instrument import stage_timer
from repro.store.purposes import TrustPurpose
from repro.store.snapshot import RootStoreSnapshot

#: Default row-block height for the tiled products.  At typical
#: fingerprint-universe widths (a few thousand columns) a 512-row
#: float64 slab is ~10–20 MB — big enough for BLAS-shaped matmuls,
#: small enough that two slabs never rival the dense matrix.
DEFAULT_BLOCK_ROWS = 512


@dataclass(frozen=True)
class IncidenceMatrix:
    """CSR-style snapshots × fingerprints membership relation.

    Attributes:
        labels: (provider, taken_at, version) per row, in input order.
        fingerprints: the sorted fingerprint universe, one per column.
        indptr: int64 array of length ``n_rows + 1``; row ``i``'s
            column ids are ``indices[indptr[i]:indptr[i + 1]]``.
        indices: int32 column ids, sorted within each row.
    """

    labels: tuple[tuple[str, date, str], ...]
    fingerprints: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        if self.indptr.shape != (len(self.labels) + 1,):
            raise AnalysisError(
                f"indptr length {self.indptr.shape} does not match "
                f"{len(self.labels)} rows"
            )
        if int(self.indptr[-1]) != len(self.indices):
            raise AnalysisError(
                f"indptr final value {int(self.indptr[-1])} does not match "
                f"{len(self.indices)} stored incidences"
            )
        if len(self.indices) and int(self.indices.max()) >= len(self.fingerprints):
            raise AnalysisError("column id exceeds the fingerprint universe")

    # -- shape and size ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_cols(self) -> int:
        return len(self.fingerprints)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def nbytes(self) -> int:
        """Bytes held by the index arrays (the representation's footprint)."""
        return self.indptr.nbytes + self.indices.nbytes

    @property
    def set_sizes(self) -> np.ndarray:
        """Per-snapshot fingerprint-set cardinality (int64 vector)."""
        return np.diff(self.indptr)

    def row_set(self, index: int) -> frozenset[str]:
        """The fingerprint set of one snapshot, reconstructed from the row."""
        columns = self.indices[self.indptr[index] : self.indptr[index + 1]]
        return frozenset(self.fingerprints[int(k)] for k in columns)

    # -- dense slabs -------------------------------------------------------

    def slab(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` densified as a float64 (block × universe) slab."""
        stop = min(stop, self.n_rows)
        width = stop - start
        slab = np.zeros((width, self.n_cols), dtype=np.float64)
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        if hi > lo:
            segment_sizes = self.set_sizes[start:stop]
            rows = np.repeat(np.arange(width), segment_sizes)
            slab[rows, self.indices[lo:hi]] = 1.0
        return slab

    def rows_slab(self, rows: Sequence[int]) -> np.ndarray:
        """Arbitrary rows densified as a float64 (len(rows) × universe) slab."""
        slab = np.zeros((len(rows), self.n_cols), dtype=np.float64)
        for out_row, index in enumerate(rows):
            lo, hi = int(self.indptr[index]), int(self.indptr[index + 1])
            slab[out_row, self.indices[lo:hi]] = 1.0
        return slab


def incidence_from_sets(
    labels: Iterable[tuple[str, date, str]],
    sets: list[frozenset[str]],
) -> IncidenceMatrix:
    """Build an :class:`IncidenceMatrix` from per-snapshot fingerprint sets.

    The fingerprint universe is the sorted union across all sets, so
    column order is deterministic regardless of input order.
    """
    labels = tuple(labels)
    if len(labels) != len(sets):
        raise AnalysisError(f"{len(labels)} labels but {len(sets)} fingerprint sets")
    if not sets:
        raise AnalysisError("no snapshots to index")
    universe = sorted(frozenset().union(*sets))
    column = {fingerprint: k for k, fingerprint in enumerate(universe)}
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    chunks: list[np.ndarray] = []
    for row, fingerprints in enumerate(sets):
        columns = np.sort(
            np.fromiter((column[f] for f in fingerprints), dtype=np.int32, count=len(fingerprints))
        )
        chunks.append(columns)
        indptr[row + 1] = indptr[row] + len(columns)
    indices = np.concatenate(chunks)
    return IncidenceMatrix(
        labels=labels, fingerprints=tuple(universe), indptr=indptr, indices=indices
    )


def build_incidence(
    snapshots: list[RootStoreSnapshot],
    *,
    purpose: TrustPurpose | None = TrustPurpose.SERVER_AUTH,
) -> IncidenceMatrix:
    """The incidence relation over ``snapshots``' fingerprint sets."""
    if not snapshots:
        raise AnalysisError("no snapshots to index")
    with stage_timer(
        "analysis.incidence",
        "repro_analysis_stage_seconds",
        metric_labels={"stage": "incidence"},
        snapshots=len(snapshots),
    ):
        labels = tuple((s.provider, s.taken_at, s.version) for s in snapshots)
        sets = [s.fingerprints(purpose) for s in snapshots]
        return incidence_from_sets(labels, sets)


# -- tile arithmetic (shared empty-set conventions) ------------------------
#
# Peak memory per tile is the count tile plus one float64 and one or two
# boolean temporaries of the same shape.  Every count is a small exact
# integer, so the in-place arithmetic is bit-identical to the expression
# form and to every other tiling.


def _jaccard_tile(
    intersections: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
) -> np.ndarray:
    """1 − |A∩B| / |A∪B| for one tile, in place over the count tile.

    Two empty sets are at distance 0.0, matching
    :func:`repro.analysis.jaccard.jaccard_distance`.
    """
    unions = np.add.outer(sizes_a, sizes_b)
    unions -= intersections  # |A| + |B| − |A∩B|, in place
    empty = unions == 0.0  # both sets empty (intersection is 0 there too)
    np.maximum(unions, 1.0, out=unions)  # safe divisor; numerator is 0 where it mattered
    intersections /= unions
    np.subtract(1.0, intersections, out=intersections)
    intersections[empty] = 0.0
    return intersections


def _overlap_tile(
    intersections: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
) -> np.ndarray:
    """1 − |A∩B| / min(|A|,|B|) for one tile, in place.

    When the smaller set is empty the distance is 0.0 for two empty
    sets and 1.0 otherwise, matching
    :func:`repro.analysis.jaccard.overlap_distance`.
    """
    smaller = np.minimum.outer(sizes_a, sizes_b)
    some_empty = smaller == 0.0
    both_empty = np.logical_and.outer(sizes_a == 0.0, sizes_b == 0.0)
    np.maximum(smaller, 1.0, out=smaller)
    intersections /= smaller
    np.subtract(1.0, intersections, out=intersections)
    intersections[some_empty] = 1.0
    intersections[both_empty] = 0.0
    return intersections


_TILES: dict[str, Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = {
    "jaccard": _jaccard_tile,
    "overlap": _overlap_tile,
}


def _tiled_distances(
    incidence: IncidenceMatrix, metric: str, block_rows: int
) -> np.ndarray:
    if block_rows < 1:
        raise AnalysisError(f"block_rows must be >= 1, got {block_rows}")
    tile_fn = _TILES[metric]
    n = incidence.n_rows
    with stage_timer(
        "analysis.distance",
        "repro_analysis_stage_seconds",
        metric_labels={"stage": "distance"},
        metric_name=metric,
        snapshots=n,
    ):
        sizes = incidence.set_sizes.astype(np.float64)
        if block_rows >= n:  # one tile: the count buffer becomes the output
            slab = incidence.slab(0, n)
            out = tile_fn(slab @ slab.T, sizes, sizes)
        else:
            out = np.empty((n, n), dtype=np.float64)
            for a0 in range(0, n, block_rows):
                a1 = min(a0 + block_rows, n)
                slab_a = incidence.slab(a0, a1)
                for b0 in range(a0, n, block_rows):
                    b1 = min(b0 + block_rows, n)
                    slab_b = slab_a if b0 == a0 else incidence.slab(b0, b1)
                    tile = tile_fn(slab_a @ slab_b.T, sizes[a0:a1], sizes[b0:b1])
                    out[a0:a1, b0:b1] = tile
                    if b0 != a0:
                        out[b0:b1, a0:a1] = tile.T
        np.fill_diagonal(out, 0.0)
    return out


def jaccard_distances(
    incidence: IncidenceMatrix, *, block_rows: int = DEFAULT_BLOCK_ROWS
) -> np.ndarray:
    """The full Jaccard distance matrix, 1 − |A∩B| / |A∪B|, tile by tile."""
    return _tiled_distances(incidence, "jaccard", block_rows)


def overlap_distances(
    incidence: IncidenceMatrix, *, block_rows: int = DEFAULT_BLOCK_ROWS
) -> np.ndarray:
    """The overlap-coefficient distance matrix, 1 − |A∩B| / min(|A|,|B|)."""
    return _tiled_distances(incidence, "overlap", block_rows)


def cross_distances(
    incidence: IncidenceMatrix,
    rows: Sequence[int],
    *,
    metric: str = "jaccard",
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> np.ndarray:
    """Distances from the selected rows to **every** row: a (k, n) strip.

    This is the landmark-MDS input: k pivot rows against the whole
    corpus, computed per column-block so the working set is the
    (k × universe) pivot slab plus one (block × universe) slab — never
    an (n, n) matrix.  Row ``i`` equals row ``rows[i]`` of the full
    matrix exactly.
    """
    if metric not in _TILES:
        raise AnalysisError(f"unknown metric {metric!r}")
    rows = [int(r) for r in rows]
    n = incidence.n_rows
    if any(r < 0 or r >= n for r in rows):
        raise AnalysisError(f"row index out of range for {n} rows")
    tile_fn = _TILES[metric]
    sizes = incidence.set_sizes.astype(np.float64)
    pivot_slab = incidence.rows_slab(rows)
    pivot_sizes = sizes[rows]
    out = np.empty((len(rows), n), dtype=np.float64)
    for b0 in range(0, n, block_rows):
        b1 = min(b0 + block_rows, n)
        slab_b = incidence.slab(b0, b1)
        out[:, b0:b1] = tile_fn(pivot_slab @ slab_b.T, pivot_sizes, sizes[b0:b1])
    for strip_row, index in enumerate(rows):
        out[strip_row, index] = 0.0  # the full matrix's zeroed diagonal
    return out


def maxmin_landmarks(
    incidence: IncidenceMatrix,
    k: int,
    *,
    metric: str = "jaccard",
    first: int = 0,
) -> tuple[int, ...]:
    """Greedy farthest-point (maxmin) landmark selection.

    Starting from row ``first``, repeatedly adds the row with the
    largest minimum distance to the rows already chosen (lowest index
    wins ties), the standard pivot heuristic for landmark MDS: k
    distance strips, no (n, n) matrix.  Deterministic.
    """
    n = incidence.n_rows
    if k < 2:
        raise AnalysisError(f"need at least two landmarks, got {k}")
    if k > n:
        raise AnalysisError(f"cannot pick {k} landmarks from {n} rows")
    if first < 0 or first >= n:
        raise AnalysisError(f"first landmark {first} out of range for {n} rows")
    chosen = [first]
    min_distance = cross_distances(incidence, [first], metric=metric)[0].copy()
    min_distance[first] = -1.0  # never re-chosen
    for _ in range(k - 1):
        candidate = int(np.argmax(min_distance))
        chosen.append(candidate)
        strip = cross_distances(incidence, [candidate], metric=metric)[0]
        np.minimum(min_distance, strip, out=min_distance)
        min_distance[candidate] = -1.0
    return tuple(sorted(chosen))
