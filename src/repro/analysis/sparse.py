"""Older import names of the tiled kernels in :mod:`repro.analysis.incidence`.

``blocked_jaccard_distances`` is :func:`~repro.analysis.incidence.jaccard_distances`
itself; ``cross_distances`` and ``maxmin_landmarks`` are re-exported
unchanged.
"""

from repro.analysis.incidence import (
    cross_distances,
    jaccard_distances as blocked_jaccard_distances,
    maxmin_landmarks,
)

__all__ = ["blocked_jaccard_distances", "cross_distances", "maxmin_landmarks"]
