"""The benchmark's reference computations agree with rankfuse on small cases."""

import numpy as np
import pytest

import oracle
from rankfuse.ensemble import minmax_normalize
from rankfuse.matrix_ops import EmbeddingMatrix, ScoreMatrix, cosine_similarity, topk_rows
from rankfuse.metrics import GroundTruth, metrics_report


def relevant_table(relevant) -> np.ndarray:
    """Pad relevant lists to one width by repeating an item; the minimum is unchanged."""
    width = max(len(rel) for rel in relevant)
    return np.array([list(rel) + [rel[0]] * (width - len(rel)) for rel in relevant])


@pytest.mark.parametrize("max_relevant", [1, 3])
def test_rank_counting_recall_matches_metrics_report_with_ties(max_relevant):
    rng = np.random.default_rng(max_relevant)
    for _ in range(200):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 11))
        scores = rng.integers(0, 3, (n, m)).astype(float)  # small range: many ties
        relevant = [
            rng.choice(m, size=int(rng.integers(1, min(max_relevant, m) + 1)), replace=False)
            for _ in range(n)
        ]
        report = metrics_report(
            ScoreMatrix(scores), GroundTruth(relevant=tuple(relevant), gallery_size=m), range(1, m + 1)
        )
        table = relevant_table(relevant)
        literal = [
            min(int(np.sum(row > row[r]) + np.sum(row[:r] == row[r])) for r in rel)
            for row, rel in zip(scores, relevant)
        ]
        assert oracle.query_ranks(scores, table).tolist() == literal
        for k in range(1, m + 1):
            assert oracle.recall(scores, table, k) == report.r_at[k]


def test_rank_is_position_under_stable_descending_sort():
    scores = np.array([[1.0, 3.0, 3.0, 2.0]])
    ranks = [oracle.query_ranks(scores, np.array([[r]]))[0] for r in range(4)]
    assert ranks == [3, 0, 1, 2]


def test_fusion_recalls_match_whole_matrix_across_row_blocks():
    rng = np.random.default_rng(0)
    n = 2 * oracle.ROW_BLOCK + 7
    s, t = rng.random((n, 30)), rng.random((n, 30))
    rel = relevant_table([[i % 30, (i * 7) % 30] for i in range(n)])
    weights = (0.0, 0.5, 0.9)
    got = oracle.fusion_recalls(s, t, weights, rel, 3)
    assert got == [oracle.recall(oracle.fold(s, t, w), rel, 3) for w in weights]


def test_smallest_maximiser_takes_first_of_equal_values():
    assert oracle.smallest_maximiser([0.5, 0.7, 0.7, 0.1]) == 1
    assert oracle.smallest_maximiser([0.2]) == 0


def test_topk_lexsort_matches_topk_rows_on_ties():
    rng = np.random.default_rng(1)
    scores = rng.integers(0, 4, (oracle.ROW_BLOCK + 5, 12)).astype(float)
    assert np.array_equal(oracle.topk_lexsort(scores, 5), topk_rows(ScoreMatrix(scores), 5).indices)


def test_cosine_and_minmax_match_library():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((9, 4)), rng.standard_normal((11, 4))
    lib = cosine_similarity(EmbeddingMatrix(a), EmbeddingMatrix(b)).data
    assert np.max(np.abs(oracle.cosine(a, b) - lib)) <= 1e-12
    assert np.array_equal(oracle.minmax(a), minmax_normalize(a))
    assert np.array_equal(oracle.minmax(np.full((2, 2), 3.0)), np.zeros((2, 2)))
