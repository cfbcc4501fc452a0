"""CSR representation, tiling and landmark tests for the one incidence type.

The contract: every tiling of the kernels in
:mod:`repro.analysis.incidence` is **element-wise identical** (not
merely close) to the same kernel run as one (n, n) tile — the dense
product — across arbitrary subset corpora: empty sets, single
snapshots, and degenerate all-empty universes included.  Exactness
against the per-pair oracle lives in ``tests/test_analysis_incidence.py``.
``repro.analysis.sparse`` keeps only the older import names of three
of these functions.
"""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sparse
from repro.analysis.incidence import (
    IncidenceMatrix,
    build_incidence,
    cross_distances,
    incidence_from_sets,
    jaccard_distances,
    maxmin_landmarks,
    overlap_distances,
)
from repro.errors import AnalysisError
from repro.store import RootStoreSnapshot, TrustEntry
from repro.store.purposes import TrustPurpose
from tests.conftest import make_cert

POOL_SIZE = 8


@pytest.fixture(scope="module")
def cert_pool(rsa_key):
    return tuple(
        make_cert(rsa_key, f"Sparse Pool Root {i}", serial=300 + i)
        for i in range(POOL_SIZE)
    )


def _snapshots_from_subsets(cert_pool, subsets):
    return [
        RootStoreSnapshot.build(
            "prov",
            date(2020, 1, 1),
            str(row),
            [TrustEntry.make(cert_pool[i]) for i in sorted(subset)],
        )
        for row, subset in enumerate(subsets)
    ]


def _sets_from_subsets(subsets):
    """Fingerprint-set stand-ins built straight from index subsets."""
    return [frozenset(f"fp-{i:02d}" for i in subset) for subset in subsets]


def _labels(n):
    return [(f"p{i}", date(2020, 1, 1), str(i)) for i in range(n)]


#: Lists of 1..7 subsets of the pool, empty subsets included —
#: single-snapshot corpora are part of the contract.
_subset_lists = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=POOL_SIZE - 1), max_size=POOL_SIZE),
    min_size=1,
    max_size=7,
)


class TestBlockedEqualsDense:
    """Any ``block_rows`` equals the one-tile (dense) run of the same kernel."""

    @settings(max_examples=60, deadline=None)
    @given(_subset_lists, st.integers(min_value=1, max_value=9))
    def test_jaccard_elementwise_identical(self, subsets, block_rows):
        sets = _sets_from_subsets(subsets)
        incidence = incidence_from_sets(_labels(len(sets)), sets)
        dense = jaccard_distances(incidence, block_rows=incidence.n_rows)
        blocked = jaccard_distances(incidence, block_rows=block_rows)
        assert np.array_equal(blocked, dense)  # exact, not allclose
        # The older import names are the same functions, not second copies.
        assert sparse.blocked_jaccard_distances is jaccard_distances
        assert sparse.cross_distances is cross_distances
        assert sparse.maxmin_landmarks is maxmin_landmarks

    @settings(max_examples=60, deadline=None)
    @given(_subset_lists, st.integers(min_value=1, max_value=9))
    def test_overlap_elementwise_identical(self, subsets, block_rows):
        sets = _sets_from_subsets(subsets)
        incidence = incidence_from_sets(_labels(len(sets)), sets)
        dense = overlap_distances(incidence, block_rows=incidence.n_rows)
        blocked = overlap_distances(incidence, block_rows=block_rows)
        assert np.array_equal(blocked, dense)

    @settings(max_examples=40, deadline=None)
    @given(_subset_lists)
    def test_cross_rows_match_full_matrix(self, subsets):
        sets = _sets_from_subsets(subsets)
        incidence = incidence_from_sets(_labels(len(sets)), sets)
        rows = list(range(0, incidence.n_rows, 2))
        for metric, kernel in (
            ("jaccard", jaccard_distances),
            ("overlap", overlap_distances),
        ):
            full = kernel(incidence, block_rows=3)
            strip = cross_distances(incidence, rows, metric=metric, block_rows=3)
            assert np.array_equal(strip, full[rows])

    def test_snapshot_builder_matches_dense_builder(self, cert_pool):
        """``build_incidence`` densifies to the boolean membership matrix
        built directly from the snapshots' fingerprint sets."""
        snapshots = _snapshots_from_subsets(
            cert_pool, [frozenset({0, 1}), frozenset(), frozenset({1, 2, 5})]
        )
        sets = [s.fingerprints(TrustPurpose.SERVER_AUTH) for s in snapshots]
        universe = sorted(frozenset().union(*sets))
        dense = np.array([[f in row for f in universe] for row in sets], dtype=float)
        incidence = build_incidence(snapshots)
        assert incidence.labels == tuple(
            (s.provider, s.taken_at, s.version) for s in snapshots
        )
        assert incidence.fingerprints == tuple(universe)
        assert np.array_equal(incidence.slab(0, incidence.n_rows), dense)
        assert incidence.set_sizes.tolist() == [2, 0, 3]
        from_sets = incidence_from_sets(incidence.labels, sets)
        assert np.array_equal(from_sets.indptr, incidence.indptr)
        assert np.array_equal(from_sets.indices, incidence.indices)

    def test_purpose_filter_forwarded(self, cert_pool):
        snapshots = _snapshots_from_subsets(cert_pool, [frozenset({0}), frozenset({1})])
        incidence = build_incidence(snapshots, purpose=TrustPurpose.SERVER_AUTH)
        for row, snapshot in enumerate(snapshots):
            assert incidence.row_set(row) == snapshot.fingerprints(TrustPurpose.SERVER_AUTH)


class TestDegenerateCorpora:
    def test_single_snapshot(self):
        incidence = incidence_from_sets(_labels(1), [frozenset({"fp-01", "fp-02"})])
        for fn in (jaccard_distances, overlap_distances):
            matrix = fn(incidence)
            assert matrix.shape == (1, 1)
            assert matrix[0, 0] == 0.0

    def test_single_empty_snapshot(self):
        incidence = incidence_from_sets(_labels(1), [frozenset()])
        assert incidence.n_cols == 0
        assert jaccard_distances(incidence).tolist() == [[0.0]]

    def test_all_empty_corpus_conventions(self):
        """All-empty-purpose snapshots: everything at distance 0."""
        incidence = incidence_from_sets(_labels(4), [frozenset()] * 4)
        assert jaccard_distances(incidence).max() == 0.0
        assert overlap_distances(incidence).max() == 0.0

    def test_empty_vs_nonempty_conventions(self):
        incidence = incidence_from_sets(
            _labels(3), [frozenset(), frozenset({"a", "b"}), frozenset()]
        )
        jaccard = jaccard_distances(incidence)
        overlap = overlap_distances(incidence)
        assert jaccard[0, 1] == 1.0  # empty vs non-empty
        assert jaccard[0, 2] == 0.0  # empty vs empty
        assert overlap[0, 1] == 1.0  # the smaller set is empty
        assert overlap[0, 2] == 0.0  # both empty
        assert np.array_equal(jaccard, jaccard.T)
        assert np.array_equal(overlap, overlap.T)

    def test_no_snapshots_rejected(self):
        with pytest.raises(AnalysisError):
            incidence_from_sets([], [])
        with pytest.raises(AnalysisError):
            build_incidence([])


class TestSparseRepresentation:
    def test_csr_invariants_and_nbytes(self):
        sets = [frozenset({"c", "a"}), frozenset(), frozenset({"b", "c", "d"})]
        incidence = incidence_from_sets(_labels(3), sets)
        assert incidence.indptr.dtype == np.int64
        assert incidence.indices.dtype == np.int32
        assert incidence.indptr.tolist() == [0, 2, 2, 5]
        assert incidence.nnz == 5
        assert incidence.nbytes == incidence.indptr.nbytes + incidence.indices.nbytes
        # Universe is the sorted union; in-row columns strictly increase.
        assert incidence.fingerprints == ("a", "b", "c", "d")
        for row in range(3):
            columns = incidence.indices[incidence.indptr[row] : incidence.indptr[row + 1]]
            assert (np.diff(columns) > 0).all()

    def test_row_set_roundtrip(self):
        sets = [frozenset({"x", "y"}), frozenset(), frozenset({"z"})]
        incidence = incidence_from_sets(_labels(3), sets)
        for row, expected in enumerate(sets):
            assert incidence.row_set(row) == expected

    def test_slab_is_float64_incidence(self):
        sets = [frozenset({"a"}), frozenset({"a", "b"}), frozenset()]
        incidence = incidence_from_sets(_labels(3), sets)
        slab = incidence.slab(0, 2)
        assert slab.dtype == np.float64
        assert slab.tolist() == [[1.0, 0.0], [1.0, 1.0]]
        assert incidence.rows_slab([2, 0]).tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_mismatched_labels_rejected(self):
        with pytest.raises(AnalysisError):
            incidence_from_sets(_labels(2), [frozenset()])

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(AnalysisError):
            IncidenceMatrix(
                labels=tuple(_labels(2)),
                fingerprints=("a",),
                indptr=np.array([0, 1], dtype=np.int64),  # wrong length
                indices=np.array([0], dtype=np.int32),
            )
        with pytest.raises(AnalysisError):
            IncidenceMatrix(
                labels=tuple(_labels(1)),
                fingerprints=("a",),
                indptr=np.array([0, 2], dtype=np.int64),  # claims 2 entries
                indices=np.array([0], dtype=np.int32),
            )


class TestLandmarkSelection:
    def test_maxmin_is_deterministic_and_distinct(self):
        sets = [
            frozenset({f"fp-{i}", f"fp-{(i * 3) % 11}", "shared"}) for i in range(12)
        ]
        incidence = incidence_from_sets(_labels(12), sets)
        first = maxmin_landmarks(incidence, 5)
        second = maxmin_landmarks(incidence, 5)
        assert first == second
        assert len(set(first)) == 5
        assert all(0 <= i < 12 for i in first)
        assert first == tuple(sorted(first))

    def test_maxmin_spreads_over_clusters(self):
        """Two disjoint families: landmarks must hit both."""
        family_a = [frozenset({"a1", "a2", f"a{i}"}) for i in range(3, 9)]
        family_b = [frozenset({"b1", "b2", f"b{i}"}) for i in range(3, 9)]
        incidence = incidence_from_sets(_labels(12), family_a + family_b)
        picked = maxmin_landmarks(incidence, 2)
        sides = {index < 6 for index in picked}
        assert sides == {True, False}

    def test_maxmin_duplicate_rows_still_distinct_indices(self):
        incidence = incidence_from_sets(_labels(4), [frozenset({"a"})] * 4)
        picked = maxmin_landmarks(incidence, 3)
        assert len(set(picked)) == 3

    def test_maxmin_validation(self):
        incidence = incidence_from_sets(_labels(3), [frozenset({"a"})] * 3)
        with pytest.raises(AnalysisError):
            maxmin_landmarks(incidence, 1)
        with pytest.raises(AnalysisError):
            maxmin_landmarks(incidence, 4)
        with pytest.raises(AnalysisError):
            maxmin_landmarks(incidence, 2, first=5)

    def test_cross_distances_validation(self):
        incidence = incidence_from_sets(_labels(2), [frozenset({"a"}), frozenset({"b"})])
        with pytest.raises(AnalysisError):
            cross_distances(incidence, [0], metric="euclid")
        with pytest.raises(AnalysisError):
            cross_distances(incidence, [7])
