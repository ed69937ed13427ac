import tracemalloc

import numpy as np
import pytest

from rankfuse.errors import ParameterError, ValidationError
from rankfuse.matrix_ops import ScoreMatrix
from rankfuse.metrics import GroundTruth, RetrievalMetrics, metrics_report, recall_at_k


def brute_force_recall(data: np.ndarray, gt: GroundTruth, k: int) -> float:
    hits = 0
    for q, row in enumerate(data):
        order = sorted(range(len(row)), key=lambda j: (-row[j], j))
        if gt.relevant[q] & set(order[:k]):
            hits += 1
    return hits / data.shape[0]


class TestGroundTruth:
    def test_identity(self):
        gt = GroundTruth.identity(3)
        assert gt.relevant == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_out_of_range_index(self):
        with pytest.raises(ValidationError, match="query 1"):
            GroundTruth(relevant=({0}, {5}), gallery_size=3)
        # A gallery size that is not a positive integer bounds no index.
        for size in (2.5, True, 0):
            with pytest.raises(ParameterError, match="gallery_size must be a positive integer"):
                GroundTruth(relevant=({0},), gallery_size=size)

    def test_empty_relevant_set(self):
        with pytest.raises(ValidationError, match="empty"):
            GroundTruth(relevant=({0}, set()), gallery_size=3)

    def test_from_mapping(self):
        gt = GroundTruth.from_mapping({0: [0], 1: [1, 2]}, n_queries=2, gallery_size=3)
        assert gt.relevant[1] == frozenset({1, 2})

    def test_from_mapping_missing_query(self):
        with pytest.raises(ValidationError, match="missing query 1"):
            GroundTruth.from_mapping({0: [0]}, n_queries=2, gallery_size=3)
        # A key that names no query is rejected, not dropped: the one first
        # by ``str``, also among keys of mixed types.
        for mapping, key in (
            ({0: [0], 1: [1], 5: [0]}, "5"),
            ({0: [0], 1: [1], "x": [0], 7: [1]}, "7"),
            ({0: [0], 1: [1], "1": [0]}, "'1'"),
        ):
            with pytest.raises(ValidationError, match=f"relevant map key {key} names no query"):
                GroundTruth.from_mapping(mapping, n_queries=2, gallery_size=2)
        with pytest.raises(ValidationError, match="missing query 1"):
            GroundTruth.from_mapping({0: [0], "1": [1]}, n_queries=2, gallery_size=2)


class TestRecallAtK:
    def test_diagonal_dominant_perfect(self):
        s = ScoreMatrix(np.eye(5) + 0.01)
        assert recall_at_k(s, GroundTruth.identity(5), 1) == 1.0

    def test_hand_ranked_example(self):
        # Per-query rankings: [1,2,0], [0,1,2], [2,1,0]; relevant items sit at
        # ranks 3, 2, 1, so recall climbs 1/3 -> 2/3 -> 1 as k grows.
        s = ScoreMatrix([[0.1, 0.9, 0.3], [0.8, 0.2, 0.1], [0.2, 0.3, 0.9]])
        gt = GroundTruth.identity(3)
        assert recall_at_k(s, gt, 1) == pytest.approx(1 / 3)
        assert recall_at_k(s, gt, 2) == pytest.approx(2 / 3)
        assert recall_at_k(s, gt, 3) == 1.0

    def test_k_out_of_range(self):
        s = ScoreMatrix(np.eye(3))
        with pytest.raises(ParameterError):
            recall_at_k(s, GroundTruth.identity(3), 4)

    def test_gt_must_cover_rows(self):
        s = ScoreMatrix(np.eye(3))
        with pytest.raises(ValidationError):
            recall_at_k(s, GroundTruth.identity(2), 1)

    def test_multi_relevant_queries(self):
        s = ScoreMatrix([[0.9, 0.1, 0.5]])
        gt = GroundTruth(relevant=({1, 2},), gallery_size=3)
        assert recall_at_k(s, gt, 1) == 0.0
        assert recall_at_k(s, gt, 2) == 1.0


class TestMetricsReport:
    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        s = ScoreMatrix(rng.random((20, 20)))
        report = metrics_report(s, GroundTruth.identity(20), [1, 5, 10])
        assert report.r_at[1] <= report.r_at[5] <= report.r_at[10]

    def test_full_gallery_recall_is_one(self):
        rng = np.random.default_rng(1)
        s = ScoreMatrix(rng.random((8, 8)))
        report = metrics_report(s, GroundTruth.identity(8), [8])
        assert report.r_at[8] == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for trial in range(90):
            data = rng.random((50, 50))
            gt = GroundTruth.identity(50)
            if trial >= 30:
                # Scores on five levels, so most rows tie at the relevant
                # item's value, and 1-4 relevant items per query.
                data = np.round(data * 4) / 4
                gt = GroundTruth(
                    relevant=tuple(
                        rng.choice(50, size=int(rng.integers(1, 5)), replace=False)
                        for _ in range(50)
                    ),
                    gallery_size=50,
                )
            report = metrics_report(ScoreMatrix(data), gt, [1, 5, 10])
            for k in (1, 5, 10):
                assert report.r_at[k] == brute_force_recall(data, gt, k)

    def test_peak_memory_below_one_bool_matrix(self):
        rng = np.random.default_rng(3)
        n = m = 1000
        s, gt = ScoreMatrix(rng.random((n, m))), GroundTruth.identity(n)
        tracemalloc.start()
        try:
            metrics_report(s, gt, [1, 5, 10])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Ranks are counted block by block; one n x m bool mask is n * m bytes.
        assert peak < n * m

    def test_empty_ks_rejected(self):
        s, gt = ScoreMatrix(np.eye(3)), GroundTruth.identity(3)
        for ks in ([], [2.5], [True], [1, 2.0]):
            with pytest.raises(ParameterError):
                metrics_report(s, gt, ks)
        for k in (2.5, True):
            with pytest.raises(ParameterError):
                recall_at_k(s, gt, k)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        data = rng.random((15, 12))
        gt = GroundTruth(
            relevant=tuple({int(rng.integers(0, 12))} for _ in range(15)), gallery_size=12
        )
        base = [recall_at_k(ScoreMatrix(data), gt, k) for k in (1, 3, 5)]
        for transform in (np.exp, lambda x: 3 * x + 7, lambda x: x**3):
            got = [recall_at_k(ScoreMatrix(transform(data)), gt, k) for k in (1, 3, 5)]
            assert got == base

    def test_gallery_permutation_invariance(self):
        rng = np.random.default_rng(4)
        data = rng.random((10, 10))
        gt = GroundTruth.identity(10)
        perm = rng.permutation(10)
        permuted_gt = GroundTruth(
            relevant=tuple({int(np.flatnonzero(perm == q)[0])} for q in range(10)),
            gallery_size=10,
        )
        for k in (1, 3, 10):
            assert recall_at_k(ScoreMatrix(data[:, perm]), permuted_gt, k) == recall_at_k(
                ScoreMatrix(data), gt, k
            )

    def test_report_validates_monotonicity(self):
        with pytest.raises(ValidationError):
            RetrievalMetrics(r_at={1: 0.9, 5: 0.5}, n_queries=10)

    def test_str_format(self):
        report = RetrievalMetrics(r_at={1: 0.5, 5: 1.0}, n_queries=4)
        assert str(report) == "R@1=0.5000 R@5=1.0000"
