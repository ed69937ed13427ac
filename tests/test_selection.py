import tracemalloc

import numpy as np
import pytest

from rankfuse.errors import ParameterError, ShapeError, ValidationError
from rankfuse.matrix_ops import EmbeddingMatrix, ScoreMatrix, topk_rows
from rankfuse.selection import rerank_selected, select_topk_features


def brute_force_select(guidance: np.ndarray, k: int) -> np.ndarray:
    out = np.empty((guidance.shape[0], k), dtype=np.int64)
    for i, row in enumerate(guidance):
        out[i] = sorted(range(len(row)), key=lambda j: (-row[j], j))[:k]
    return out


class TestSelectTopkFeatures:
    def test_identity_guidance(self):
        features = EmbeddingMatrix(np.arange(9.0).reshape(3, 3))
        selected = select_topk_features(features, ScoreMatrix(np.eye(3)), k=1)
        np.testing.assert_array_equal(selected.indices.ravel(), [0, 1, 2])
        np.testing.assert_array_equal(selected.features[1, 0], features.data[1])

    def test_hand_sorted_row(self):
        features = EmbeddingMatrix(np.eye(3))
        selected = select_topk_features(features, ScoreMatrix([[0.2, 0.9, 0.5]]), k=2)
        np.testing.assert_array_equal(selected.indices, [[1, 2]])
        np.testing.assert_allclose(selected.guidance_scores, [[0.9, 0.5]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        features = EmbeddingMatrix(rng.standard_normal((10, 4)))
        for _ in range(25):
            guidance = rng.random((10, 10))
            selected = select_topk_features(features, ScoreMatrix(guidance), k=5)
            np.testing.assert_array_equal(selected.indices, brute_force_select(guidance, 5))
            # Plain arrays select the same rows, and rerank the same way.
            plain = select_topk_features(features.data, guidance, k=5)
            np.testing.assert_array_equal(plain.indices, selected.indices)
            np.testing.assert_array_equal(plain.features, selected.features)
            match = rng.random((10, 5))
            assert (rerank_selected(plain, match).data.tobytes()
                    == rerank_selected(selected, match).data.tobytes())

    def test_indices_equal_topk_rows(self):
        rng = np.random.default_rng(1)
        guidance = ScoreMatrix(rng.random((8, 12)))
        features = EmbeddingMatrix(rng.standard_normal((12, 5)))
        selected = select_topk_features(features, guidance, k=4)
        np.testing.assert_array_equal(selected.indices, topk_rows(guidance, 4).indices)

    def test_feature_rows_follow_indices(self):
        rng = np.random.default_rng(2)
        features = EmbeddingMatrix(rng.standard_normal((12, 5)))
        guidance = ScoreMatrix(rng.random((8, 12)))
        selected = select_topk_features(features, guidance, k=3)
        for q in range(8):
            for j, (idx, row, score) in enumerate(selected.candidates(q)):
                np.testing.assert_array_equal(row, features.data[idx])
                assert score == selected.guidance_scores[q, j]

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(3)
        guidance = ScoreMatrix(rng.random((20, 15)))
        features = EmbeddingMatrix(rng.standard_normal((15, 3)))
        selected = select_topk_features(features, guidance, k=15)
        assert np.all(np.diff(selected.guidance_scores, axis=1) <= 0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            select_topk_features(
                EmbeddingMatrix(np.eye(4)), ScoreMatrix(np.ones((2, 3))), k=1
            )
        with pytest.raises(ShapeError):
            select_topk_features(np.eye(4), np.ones((2, 3)), k=1)

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            select_topk_features(EmbeddingMatrix(np.eye(3)), ScoreMatrix(np.eye(3)), k=4)


class TestRerankSelected:
    def test_full_selection_with_guidance_scores_keeps_ranking(self):
        rng = np.random.default_rng(4)
        guidance = ScoreMatrix(rng.random((6, 6)))
        features = EmbeddingMatrix(rng.standard_normal((6, 2)))
        selected = select_topk_features(features, guidance, k=6)
        out = rerank_selected(selected, selected.guidance_scores)
        np.testing.assert_array_equal(
            topk_rows(out, 6).indices, topk_rows(guidance, 6).indices
        )

    def test_match_scores_decide_candidate_order(self):
        guidance = ScoreMatrix([[0.1, 0.8, 0.7]])
        features = EmbeddingMatrix(np.eye(3))
        selected = select_topk_features(features, guidance, k=2)  # candidates {1, 2}
        out = rerank_selected(selected, np.array([[0.1, 0.9]]))
        assert topk_rows(out, 1).indices[0, 0] == 2

    def test_non_candidates_never_outrank_candidates(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_q, n_g, k = 4, 9, 3
            guidance = ScoreMatrix(rng.random((n_q, n_g)))
            features = EmbeddingMatrix(rng.standard_normal((n_g, 2)))
            selected = select_topk_features(features, guidance, k=k)
            out = rerank_selected(selected, rng.uniform(-5, 5, (n_q, k)))
            top = topk_rows(out, k).indices
            for q in range(n_q):
                assert set(top[q]) == set(selected.indices[q])

    def test_non_candidates_keep_guidance_order(self):
        guidance = ScoreMatrix([[0.9, 0.1, 0.5, 0.3]])
        features = EmbeddingMatrix(np.eye(4))
        selected = select_topk_features(features, guidance, k=1)  # candidate {0}
        out = rerank_selected(selected, np.array([[2.0]]))
        np.testing.assert_array_equal(topk_rows(out, 4).indices, [[0, 2, 3, 1]])

    def test_shape_mismatch(self):
        guidance = ScoreMatrix(np.eye(3))
        features = EmbeddingMatrix(np.eye(3))
        selected = select_topk_features(features, guidance, k=2)
        with pytest.raises(ShapeError):
            rerank_selected(selected, np.ones((3, 3)))

    def test_overflowing_guidance_rejected(self):
        # The guidance span exceeds the float64 maximum, so the non-candidate
        # band cannot be min-max rescaled; no numpy overflow warning either.
        guidance = ScoreMatrix([[-1e308, 1e308], [1e308, -1e308]])
        selected = select_topk_features(EmbeddingMatrix(np.eye(2)), guidance, k=1)
        with pytest.raises(ValidationError):
            rerank_selected(selected, np.ones((2, 1)))

    def test_overflowing_match_scores_rejected(self):
        # The match-score span exceeds the float64 maximum: the error names
        # the match scores, not the output matrix, and numpy does not warn.
        selected = select_topk_features(EmbeddingMatrix(np.eye(2)), ScoreMatrix(np.eye(2)), k=1)
        with pytest.raises(ValidationError, match="match scores"):
            rerank_selected(selected, np.array([[-1e308], [1e308]]))


class TestLazyFeatures:
    def test_features_and_candidates_match_the_eager_gather(self):
        rng = np.random.default_rng(14)
        bank = rng.standard_normal((40, 6))
        guidance = rng.integers(0, 4, (25, 40)).astype(float)
        selected = select_topk_features(bank, guidance, k=7)
        # The gather select_topk_features used to build up front.
        eager = bank[topk_rows(guidance, 7).indices]
        for q in (0, 11, 24, -1):
            expected = [
                (int(selected.indices[q, j]), eager[q, j], float(selected.guidance_scores[q, j]))
                for j in range(7)
            ]
            got = selected.candidates(q)
            assert [(i, s) for i, _, s in got] == [(i, s) for i, _, s in expected]
            for (_, row, _), (_, want, _) in zip(got, expected):
                assert row.dtype == want.dtype and row.tobytes() == want.tobytes()
        features = selected.features
        assert features.dtype == eager.dtype and features.shape == eager.shape
        assert features.tobytes() == eager.tobytes()
        assert selected.features is features

    def test_selection_builds_no_gather(self):
        rng = np.random.default_rng(15)
        n, m, dim, k = 200, 50, 256, 10
        bank, guidance = rng.standard_normal((m, dim)), rng.random((n, m))
        tracemalloc.start()
        try:
            selected = select_topk_features(bank, guidance, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The (n, k, dim) gather would be 4 MB; the selection itself is tiny.
        assert peak < n * k * dim * 8 / 4
        assert selected.features.shape == (n, k, dim)
