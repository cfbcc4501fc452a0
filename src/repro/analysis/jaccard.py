"""Pairwise Jaccard distances over root store snapshots (Section 4).

The ordination pipeline flattens every provider's snapshots into one
labelled list and computes the condensed pairwise distance matrix over
their TLS-trusted fingerprint sets.  An alternative overlap-coefficient
distance is provided for the ablation benchmark.

The matrix is computed through the shared incidence substrate
(:mod:`repro.analysis.incidence`): one CSR snapshots × fingerprints
relation, tiled matrix products, inclusion–exclusion unions.  The
historical per-pair set arithmetic survives behind the
``"jaccard-naive"`` / ``"overlap-naive"`` metrics as the equivalence
oracle — both paths produce element-wise identical float64 matrices
because every count involved is a small exact integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from repro.analysis.incidence import (
    build_incidence,
    jaccard_distances,
    overlap_distances,
)
from repro.errors import AnalysisError
from repro.obs.instrument import stage_timer
from repro.store.history import Dataset
from repro.store.purposes import TrustPurpose
from repro.store.snapshot import RootStoreSnapshot


@dataclass(frozen=True)
class LabelledMatrix:
    """A square distance matrix plus the snapshot labels of its axes."""

    labels: tuple[tuple[str, date, str], ...]  # (provider, taken_at, version)
    matrix: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        if self.matrix.shape != (n, n):
            raise AnalysisError(
                f"matrix shape {self.matrix.shape} does not match {n} labels"
            )

    @property
    def providers(self) -> tuple[str, ...]:
        return tuple(label[0] for label in self.labels)


def jaccard_distance(a: frozenset[str], b: frozenset[str]) -> float:
    """1 - |A ∩ B| / |A ∪ B|; 0.0 for two empty sets."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union


def overlap_distance(a: frozenset[str], b: frozenset[str]) -> float:
    """1 - |A ∩ B| / min(|A|, |B|) (the ablation alternative)."""
    smaller = min(len(a), len(b))
    if smaller == 0:
        return 0.0 if not a and not b else 1.0
    return 1.0 - len(a & b) / smaller


def collect_snapshots(
    dataset: Dataset,
    *,
    since: date | None = None,
    providers: tuple[str, ...] | None = None,
) -> list[RootStoreSnapshot]:
    """All snapshots (optionally filtered), in (provider, date) order.

    The paper's Figure 1 restricts to 2011-2021; pass ``since`` for that.
    """
    result = []
    for provider in dataset.providers:
        if providers is not None and provider not in providers:
            continue
        for snapshot in dataset[provider]:
            if since is not None and snapshot.taken_at < since:
                continue
            result.append(snapshot)
    return result


#: metric name -> per-pair distance function (the naive oracle path).
_PAIRWISE = {"jaccard": jaccard_distance, "overlap": overlap_distance}
#: metric name -> tiled incidence kernel (the fast path).
_VECTORIZED = {"jaccard": jaccard_distances, "overlap": overlap_distances}


def _require_purpose_support(
    snapshots: list[RootStoreSnapshot], purpose: TrustPurpose | None
) -> None:
    """Reject snapshots that cannot express the requested purpose.

    A non-empty snapshot whose entries carry no statement at all for
    ``purpose`` would contribute an empty fingerprint set and sit at
    distance 1.0 from everything — a silent artifact of the purpose
    vocabulary, not a measurement.  Name the offender instead.
    """
    if purpose is None:
        return
    for snapshot in snapshots:
        if len(snapshot) == 0:
            continue
        if not any(e.level_for(purpose) is not None for e in snapshot):
            raise AnalysisError(
                f"snapshot {snapshot.provider}@{snapshot.version} "
                f"({snapshot.taken_at:%Y-%m-%d}) has no trust statement for "
                f"{purpose}; its empty fingerprint set would poison the "
                f"distance matrix"
            )


def distance_matrix(
    snapshots: list[RootStoreSnapshot],
    *,
    purpose: TrustPurpose | None = TrustPurpose.SERVER_AUTH,
    metric: str = "jaccard",
) -> LabelledMatrix:
    """Pairwise distances between snapshot fingerprint sets.

    ``metric`` is ``"jaccard"`` or ``"overlap"`` (the tiled incidence
    kernels), or ``"jaccard-naive"`` / ``"overlap-naive"`` for
    the original per-pair loop kept as the equivalence oracle.
    """
    if not snapshots:
        raise AnalysisError("no snapshots to compare")
    base = metric.removesuffix("-naive")
    if base not in _PAIRWISE:
        raise AnalysisError(f"unknown metric {metric!r}")
    _require_purpose_support(snapshots, purpose)
    labels = tuple((s.provider, s.taken_at, s.version) for s in snapshots)

    if metric.endswith("-naive"):
        with stage_timer(
            "analysis.distance",
            "repro_analysis_stage_seconds",
            metric_labels={"stage": "distance"},
            metric_name=metric,
            snapshots=len(snapshots),
        ):
            fn = _PAIRWISE[base]
            sets = [s.fingerprints(purpose) for s in snapshots]
            n = len(sets)
            matrix = np.zeros((n, n), dtype=np.float64)
            for i in range(n):
                for j in range(i + 1, n):
                    d = fn(sets[i], sets[j])
                    matrix[i, j] = d
                    matrix[j, i] = d
            return LabelledMatrix(labels=labels, matrix=matrix)

    incidence = build_incidence(snapshots, purpose=purpose)
    return LabelledMatrix(labels=labels, matrix=_VECTORIZED[base](incidence))
