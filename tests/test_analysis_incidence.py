"""Equivalence and property tests for the incidence substrate.

The tiled Jaccard/overlap kernels must match the naive per-pair
implementation **element-wise exactly**, at every tiling — these tests
are the contract that lets ``distance_matrix`` route through
:mod:`repro.analysis.incidence` while keeping the old loop as the
oracle behind ``*-naive`` metrics.  The CSR representation, the
degenerate corpora and landmark selection are covered in
``tests/test_analysis_sparse.py``.
"""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    build_incidence,
    collect_snapshots,
    cross_distances,
    distance_matrix,
    incidence_from_sets,
    jaccard_distance,
    jaccard_distances,
    overlap_distance,
    overlap_distances,
)
from repro.analysis.incidence import IncidenceMatrix
from repro.errors import AnalysisError
from repro.store import RootStoreSnapshot, TrustEntry
from repro.store.purposes import TrustLevel, TrustPurpose
from tests.conftest import make_cert

POOL_SIZE = 8


@pytest.fixture(scope="module")
def cert_pool(rsa_key):
    """A pool of distinct small certificates for randomized snapshots."""
    return tuple(
        make_cert(rsa_key, f"Pool Root {i}", serial=100 + i) for i in range(POOL_SIZE)
    )


def _snapshots_from_subsets(cert_pool, subsets):
    """One snapshot per index subset, drawing entries from the pool."""
    return [
        RootStoreSnapshot.build(
            "prov",
            date(2020, 1, 1),
            str(row),
            [TrustEntry.make(cert_pool[i]) for i in sorted(subset)],
        )
        for row, subset in enumerate(subsets)
    ]


#: Lists of 2..6 subsets of the pool, empty subsets included.
_subset_lists = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=POOL_SIZE - 1), max_size=POOL_SIZE),
    min_size=2,
    max_size=6,
)


class TestVectorizedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_subset_lists)
    def test_jaccard_matches_naive(self, cert_pool, subsets):
        snapshots = _snapshots_from_subsets(cert_pool, subsets)
        naive = distance_matrix(snapshots, metric="jaccard-naive")
        fast = distance_matrix(snapshots, metric="jaccard")
        assert np.array_equal(naive.matrix, fast.matrix)
        assert fast.labels == naive.labels

    @settings(max_examples=60, deadline=None)
    @given(_subset_lists)
    def test_overlap_matches_naive(self, cert_pool, subsets):
        snapshots = _snapshots_from_subsets(cert_pool, subsets)
        naive = distance_matrix(snapshots, metric="overlap-naive")
        fast = distance_matrix(snapshots, metric="overlap")
        assert np.array_equal(naive.matrix, fast.matrix)

    def test_all_empty_snapshots(self, cert_pool):
        snapshots = _snapshots_from_subsets(cert_pool, [frozenset(), frozenset()])
        for metric in ("jaccard", "overlap"):
            labelled = distance_matrix(snapshots, metric=metric)
            assert labelled.matrix.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_empty_vs_nonempty(self, cert_pool):
        snapshots = _snapshots_from_subsets(cert_pool, [frozenset(), frozenset({0, 1})])
        jaccard = distance_matrix(snapshots, metric="jaccard")
        overlap = distance_matrix(snapshots, metric="overlap")
        assert jaccard.matrix[0, 1] == 1.0
        assert overlap.matrix[0, 1] == 1.0  # the smaller set is empty

    def test_disjoint_sets(self, cert_pool):
        snapshots = _snapshots_from_subsets(
            cert_pool, [frozenset({0, 1, 2}), frozenset({3, 4})]
        )
        labelled = distance_matrix(snapshots, metric="jaccard")
        assert labelled.matrix[0, 1] == 1.0

    def test_full_seeded_dataset_identical(self, dataset):
        """The acceptance bar: element-wise identity on the full corpus."""
        snapshots = collect_snapshots(dataset)
        for metric in ("jaccard", "overlap"):
            naive = distance_matrix(snapshots, metric=f"{metric}-naive")
            fast = distance_matrix(snapshots, metric=metric)
            assert np.array_equal(naive.matrix, fast.matrix)
            assert fast.matrix.dtype == np.float64
            assert np.array_equal(fast.matrix, fast.matrix.T)


class TestIncidenceMatrix:
    def test_shape_and_universe(self, cert_pool):
        snapshots = _snapshots_from_subsets(
            cert_pool, [frozenset({0, 1}), frozenset({1, 2})]
        )
        incidence = build_incidence(snapshots)
        assert (incidence.n_rows, incidence.n_cols) == (2, 3)
        assert incidence.nnz == 4
        assert list(incidence.fingerprints) == sorted(incidence.fingerprints)
        assert incidence.set_sizes.tolist() == [2, 2]

    def test_row_set_roundtrip(self, cert_pool):
        snapshots = _snapshots_from_subsets(
            cert_pool, [frozenset({0, 3}), frozenset(), frozenset({1})]
        )
        incidence = build_incidence(snapshots)
        for row, snapshot in enumerate(snapshots):
            assert incidence.row_set(row) == snapshot.fingerprints(
                TrustPurpose.SERVER_AUTH
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            IncidenceMatrix(
                labels=(("p", date(2020, 1, 1), "1"),),
                fingerprints=("aa", "bb"),
                indptr=np.array([0, 1, 2], dtype=np.int64),  # two rows
                indices=np.array([0, 1], dtype=np.int32),
            )
        with pytest.raises(AnalysisError):
            IncidenceMatrix(
                labels=(("p", date(2020, 1, 1), "1"),),
                fingerprints=("aa",),
                indptr=np.array([0, 1], dtype=np.int64),
                indices=np.array([1], dtype=np.int32),  # beyond the universe
            )

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            build_incidence([])

    def test_distance_functions_reject_nothing_symmetric(self, cert_pool):
        snapshots = _snapshots_from_subsets(
            cert_pool, [frozenset({0}), frozenset({0, 1}), frozenset({2})]
        )
        incidence = build_incidence(snapshots)
        for fn in (jaccard_distances, overlap_distances):
            matrix = fn(incidence)
            assert np.array_equal(matrix, matrix.T)
            assert np.allclose(np.diag(matrix), 0.0)


def _oracle(sets, pair_fn) -> np.ndarray:
    """The per-pair loop of ``distance_matrix``'s ``*-naive`` metrics."""
    n = len(sets)
    matrix = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = pair_fn(sets[i], sets[j])
    return matrix


_KERNELS = (
    ("jaccard", jaccard_distances, jaccard_distance),
    ("overlap", overlap_distances, overlap_distance),
)

#: Fingerprint-set stand-ins, empty sets included.
_set_lists = st.lists(
    st.frozensets(st.sampled_from([f"fp-{i:02d}" for i in range(POOL_SIZE)])),
    min_size=1,
    max_size=9,
)


class TestTilingExactness:
    """Every tiling equals the per-pair oracle bit for bit."""

    def _check(self, sets):
        labels = [(f"p{i}", date(2020, 1, 1), str(i)) for i in range(len(sets))]
        incidence = incidence_from_sets(labels, sets)
        n = incidence.n_rows
        rows = list(range(0, n, 2))
        for metric, kernel, pair_fn in _KERNELS:
            expected = _oracle(sets, pair_fn)
            for block_rows in (1, 2, 3, 7, n, n + 5):
                assert np.array_equal(kernel(incidence, block_rows=block_rows), expected)
                strip = cross_distances(
                    incidence, rows, metric=metric, block_rows=block_rows
                )
                assert np.array_equal(strip, expected[rows])

    @settings(max_examples=60, deadline=None)
    @given(_set_lists)
    def test_tiled_kernels_equal_oracle(self, sets):
        self._check(sets)

    def test_empty_set_conventions(self):
        self._check([frozenset()])
        self._check([frozenset()] * 4)
        self._check([frozenset(), frozenset({"a", "b"}), frozenset(), frozenset({"b"})])

    def test_seeded_corpus_every_tiling(self, dataset):
        """Tilings agree on the full corpus; ``distance_matrix``'s default
        tiling is held to the oracle by ``test_full_seeded_dataset_identical``."""
        snapshots = collect_snapshots(dataset)
        incidence = build_incidence(snapshots)
        n = incidence.n_rows
        for metric, kernel, _ in _KERNELS:
            expected = distance_matrix(snapshots, metric=metric).matrix
            for block_rows in (97, n, n + 5):
                assert np.array_equal(kernel(incidence, block_rows=block_rows), expected)

    def test_block_rows_validated(self):
        incidence = incidence_from_sets([("p", date(2020, 1, 1), "1")], [frozenset({"a"})])
        with pytest.raises(AnalysisError):
            jaccard_distances(incidence, block_rows=0)


class TestPurposeValidation:
    def test_unsupported_purpose_named(self, cert_pool):
        """A non-empty snapshot silent on the purpose raises, naming it."""
        silent = RootStoreSnapshot.build(
            "quiet-provider",
            date(2020, 1, 1),
            "v9",
            [
                TrustEntry(certificate=cert_pool[0], trust=())  # no statements at all
            ],
        )
        speaking = RootStoreSnapshot.build(
            "loud", date(2020, 1, 1), "1", [TrustEntry.make(cert_pool[1])]
        )
        with pytest.raises(AnalysisError, match="quiet-provider"):
            distance_matrix([speaking, silent])

    def test_distrust_statement_counts_as_support(self, cert_pool):
        """DISTRUSTED is still a statement — the store speaks the purpose."""
        distrusting = RootStoreSnapshot.build(
            "d",
            date(2020, 1, 1),
            "1",
            [
                TrustEntry.make(
                    cert_pool[0], {TrustPurpose.SERVER_AUTH: TrustLevel.DISTRUSTED}
                )
            ],
        )
        other = RootStoreSnapshot.build(
            "e", date(2020, 1, 1), "1", [TrustEntry.make(cert_pool[1])]
        )
        labelled = distance_matrix([distrusting, other])
        assert labelled.matrix[0, 1] == 1.0  # empty trusted set vs one root

    def test_purpose_none_skips_validation(self, cert_pool):
        silent = RootStoreSnapshot.build(
            "quiet", date(2020, 1, 1), "1", [TrustEntry(certificate=cert_pool[0], trust=())]
        )
        labelled = distance_matrix([silent, silent], purpose=None)
        assert labelled.matrix[0, 1] == 0.0
