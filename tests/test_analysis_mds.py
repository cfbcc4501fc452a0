"""Unit and property tests for the SMACOF / classical / landmark MDS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    classical_mds,
    kruskal_stress,
    landmark_mds,
    smacof,
)
from repro.analysis.mds import _cross_point_distances, _pairwise_distances
from repro.errors import AnalysisError


def _distances(points: np.ndarray) -> np.ndarray:
    return _pairwise_distances(points)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(AnalysisError):
            smacof(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(AnalysisError, match="symmetric"):
            smacof(m)

    def test_rejects_negative(self):
        m = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(AnalysisError):
            smacof(m)

    def test_rejects_nonzero_diagonal(self):
        m = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(AnalysisError, match="diagonal"):
            smacof(m)

    def test_rejects_single_point(self):
        with pytest.raises(AnalysisError):
            smacof(np.zeros((1, 1)))


class TestSmacofRecovery:
    def test_recovers_euclidean_configuration(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(20, 2))
        delta = _distances(points)
        result = smacof(delta, dims=2, max_iterations=500)
        assert kruskal_stress(delta, result.embedding) < 0.02

    def test_colinear_points(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        delta = _distances(points)
        result = smacof(delta, dims=2, max_iterations=500)
        assert kruskal_stress(delta, result.embedding) < 0.01

    def test_cluster_separation_preserved(self):
        # Two tight clusters far apart must stay separated in 2-D.
        delta = np.full((8, 8), 1.0)
        delta[:4, :4] = 0.05
        delta[4:, 4:] = 0.05
        np.fill_diagonal(delta, 0.0)
        result = smacof(delta, dims=2, max_iterations=500)
        a = result.embedding[:4].mean(axis=0)
        b = result.embedding[4:].mean(axis=0)
        spread_a = np.linalg.norm(result.embedding[:4] - a, axis=1).max()
        spread_b = np.linalg.norm(result.embedding[4:] - b, axis=1).max()
        assert np.linalg.norm(a - b) > 3 * max(spread_a, spread_b)

    def test_deterministic_for_seed(self):
        delta = _distances(np.random.default_rng(2).normal(size=(10, 2)))
        r1 = smacof(delta, seed=11)
        r2 = smacof(delta, seed=11)
        assert np.allclose(r1.embedding, r2.embedding)

    def test_converged_flag(self):
        delta = _distances(np.random.default_rng(3).normal(size=(12, 2)))
        result = smacof(delta, max_iterations=500)
        assert result.converged

    def test_init_override(self):
        points = np.random.default_rng(4).normal(size=(6, 2))
        delta = _distances(points)
        result = smacof(delta, init=points)
        assert result.iterations <= 3  # already optimal
        assert result.stress < 1e-9

    def test_default_init_converges_on_large_flat_matrix(self):
        """Regression: the bench corpus (hundreds of points, Jaccard
        distances crowded near 1.0) left random-init SMACOF unconverged
        at the default 300 iterations.  The classical (Torgerson)
        default start must converge within the default budget — and
        beat a random start on both speed and final stress."""
        rng = np.random.default_rng(9)
        n = 300
        delta = rng.uniform(0.7, 1.0, size=(n, n))
        # A little cluster structure, like the provider families.
        for lo in range(0, n, 50):
            block = slice(lo, lo + 50)
            delta[block, block] = rng.uniform(0.05, 0.3, size=(50, 50))
        delta = (delta + delta.T) / 2
        np.fill_diagonal(delta, 0.0)

        result = smacof(delta, dims=2)  # default max_iterations=300
        assert result.converged, (
            f"classical-init SMACOF still unconverged after "
            f"{result.iterations} iterations (stress {result.stress:.2f})"
        )
        random_start = np.random.default_rng(0).uniform(-0.5, 0.5, size=(n, 2))
        random_result = smacof(delta, dims=2, init=random_start)
        assert result.stress <= random_result.stress


class TestClassical:
    def test_exact_on_euclidean_input(self):
        points = np.random.default_rng(5).normal(size=(15, 2))
        delta = _distances(points)
        result = classical_mds(delta, dims=2)
        assert kruskal_stress(delta, result.embedding) < 1e-9

    def test_smacof_refines_classical(self):
        # On non-Euclidean (Jaccard-like) input, SMACOF initialized at the
        # classical solution can only improve raw stress.
        rng = np.random.default_rng(6)
        delta = rng.uniform(0.2, 1.0, size=(12, 12))
        delta = (delta + delta.T) / 2
        np.fill_diagonal(delta, 0.0)
        classical = classical_mds(delta, dims=2)
        refined = smacof(delta, dims=2, init=classical.embedding, max_iterations=300)
        assert refined.stress <= classical.stress + 1e-9


class TestKruskalStress:
    def test_zero_for_perfect(self):
        points = np.random.default_rng(7).normal(size=(8, 2))
        assert kruskal_stress(_distances(points), points) < 1e-12

    def test_positive_for_distorted(self):
        points = np.random.default_rng(8).normal(size=(8, 2))
        delta = _distances(points)
        assert kruskal_stress(delta, points * [1.0, 0.0]) > 0.01


class TestStressAccounting:
    """Regression tests for the two historical stress bugs.

    ``MDSResult.stress1`` used to alias raw stress, and ``stress`` was
    measured one Guttman step behind the returned embedding.  Both
    numbers must now describe exactly the returned points.
    """

    def _jaccard_like(self, n=40, seed=13):
        rng = np.random.default_rng(seed)
        delta = rng.uniform(0.3, 1.0, size=(n, n))
        delta = (delta + delta.T) / 2
        np.fill_diagonal(delta, 0.0)
        return delta

    def test_smacof_stress_matches_returned_embedding(self):
        delta = self._jaccard_like()
        result = smacof(delta, dims=2, max_iterations=40)
        distances = _pairwise_distances(result.embedding)
        raw = float(((distances - delta) ** 2).sum() / 2.0)
        assert result.stress == pytest.approx(raw, abs=1e-12)

    def test_smacof_stress1_is_kruskal_of_embedding(self):
        delta = self._jaccard_like(seed=17)
        result = smacof(delta, dims=2, max_iterations=40)
        assert result.stress1 == pytest.approx(
            kruskal_stress(delta, result.embedding), abs=1e-12
        )
        # stress1 is a normalized ratio, not the raw sum.
        assert result.stress1 != pytest.approx(result.stress, abs=1e-9)

    def test_classical_stress1_is_kruskal_of_embedding(self):
        delta = self._jaccard_like(seed=19)
        result = classical_mds(delta, dims=2)
        assert result.stress1 == pytest.approx(
            kruskal_stress(delta, result.embedding), abs=1e-12
        )

    def test_stress1_zero_on_perfect_embedding(self):
        points = np.random.default_rng(23).normal(size=(9, 2))
        result = smacof(_distances(points), init=points)
        assert result.stress1 < 1e-9

    def test_interrupted_run_still_reports_final_configuration(self):
        """Even when the iteration budget cuts the run mid-descent, the
        reported stress belongs to the returned points (the historical
        bug reported the previous iteration's)."""
        delta = self._jaccard_like(seed=29)
        result = smacof(delta, dims=2, max_iterations=3)
        assert not result.converged
        distances = _pairwise_distances(result.embedding)
        raw = float(((distances - delta) ** 2).sum() / 2.0)
        assert result.stress == pytest.approx(raw, abs=1e-12)


class TestLandmarkMDS:
    def _cross_from_points(self, points, landmarks):
        return _cross_point_distances(points[list(landmarks)], points)

    def test_recovers_euclidean_configuration(self):
        """On Euclidean-consistent input the triangulation is exact, so
        the landmark embedding matches full-pair quality."""
        rng = np.random.default_rng(31)
        points = rng.normal(size=(120, 2))
        landmarks = tuple(range(0, 120, 6))
        cross = self._cross_from_points(points, landmarks)
        result = landmark_mds(cross, landmarks, dims=2, max_iterations=500)
        delta = _distances(points)
        assert kruskal_stress(delta, result.embedding) < 0.05
        assert result.cross_stress1 < 0.05

    def test_landmark_rows_pinned_to_smacof_positions(self):
        rng = np.random.default_rng(37)
        points = rng.normal(size=(30, 2))
        landmarks = (0, 7, 13, 22, 29)
        cross = self._cross_from_points(points, landmarks)
        result = landmark_mds(cross, landmarks, dims=2)
        assert np.array_equal(
            result.embedding[list(landmarks)], result.landmark_result.embedding
        )
        assert result.landmark_indices == landmarks
        assert result.dims == 2

    def test_landmark_smacof_stress_consistent(self):
        """The inner MDSResult obeys the same stress contract."""
        rng = np.random.default_rng(41)
        points = rng.normal(size=(25, 3))
        landmarks = (0, 3, 6, 9, 12, 15, 18, 21)
        cross = self._cross_from_points(points, landmarks)
        result = landmark_mds(cross, landmarks, dims=2, max_iterations=60)
        inner = result.landmark_result
        landmark_delta = cross[:, list(landmarks)]
        assert inner.stress1 == pytest.approx(
            kruskal_stress(landmark_delta, inner.embedding), abs=1e-12
        )

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        points = rng.normal(size=(40, 2))
        landmarks = tuple(range(0, 40, 4))
        cross = self._cross_from_points(points, landmarks)
        a = landmark_mds(cross, landmarks)
        b = landmark_mds(cross, landmarks)
        assert np.array_equal(a.embedding, b.embedding)
        assert a.cross_stress1 == b.cross_stress1

    def test_validation(self):
        good = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        landmark_mds(good, (0, 1))  # sanity: this shape is accepted
        with pytest.raises(AnalysisError, match="2-D"):
            landmark_mds(np.zeros(3), (0,))
        with pytest.raises(AnalysisError, match="landmark indices"):
            landmark_mds(good, (0,))
        with pytest.raises(AnalysisError, match="two landmarks"):
            landmark_mds(good[:1], (0,))
        with pytest.raises(AnalysisError, match="distinct"):
            landmark_mds(good, (0, 0))
        with pytest.raises(AnalysisError, match="out of range"):
            landmark_mds(good, (0, 9))
        with pytest.raises(AnalysisError, match="non-negative"):
            landmark_mds(np.array([[0.0, -1.0], [1.0, 0.0]]), (0, 1))
        with pytest.raises(AnalysisError, match="distance zero"):
            landmark_mds(np.array([[0.5, 1.0, 1.0], [1.0, 0.0, 1.0]]), (0, 1))
        with pytest.raises(AnalysisError, match="more landmarks"):
            landmark_mds(np.zeros((3, 2)), (0, 1, 2))


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 12), st.integers(0, 1000))
    def test_stress_never_negative(self, n, seed):
        rng = np.random.default_rng(seed)
        delta = rng.uniform(0.0, 1.0, size=(n, n))
        delta = (delta + delta.T) / 2
        np.fill_diagonal(delta, 0.0)
        result = smacof(delta, max_iterations=50)
        assert result.stress >= 0.0
        assert 0.0 <= kruskal_stress(delta, result.embedding) <= 1.5

    @settings(max_examples=15, deadline=None)
    @given(st.integers(4, 10))
    def test_embedding_shape(self, n):
        rng = np.random.default_rng(n)
        delta = _distances(rng.normal(size=(n, 3)))
        result = smacof(delta, dims=2, max_iterations=50)
        assert result.embedding.shape == (n, 2)
