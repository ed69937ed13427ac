"""Guidance-driven candidate selection and reranking.

A strong retrieval model's similarity matrix nominates, per text query, the
top-k gallery features worth running an expensive matching head on. The
matching scores for those candidates are then folded back into a full
queries x gallery matrix in which every candidate outranks every
non-candidate, candidates are ordered by their match scores, and
non-candidates keep their guidance ordering in a compressed band below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .matrix_ops import (
    EmbeddingMatrix,
    ScoreMatrix,
    _as_matrix,
    _value_span,
    minmax_normalize,
    topk_rows,
)

__all__ = ["SelectedFeatures", "select_topk_features", "rerank_selected"]

DEFAULT_K = 10

# Non-candidates are compressed into [0, 1]; candidates are shifted to
# [2, inf) so the bands can never interleave.
_CANDIDATE_BAND_OFFSET = 2.0


@dataclass(frozen=True)
class SelectedFeatures:
    """Top-k candidates per query: gallery indices, guidance scores, feature rows.

    The full guidance matrix is retained so reranking can place the
    unselected gallery items deterministically.
    """

    indices: np.ndarray  # (n_queries, k) int64
    guidance_scores: np.ndarray  # (n_queries, k), non-increasing per row
    features: np.ndarray  # (n_queries, k, dim)
    guidance: ScoreMatrix

    @property
    def n_queries(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    def candidates(self, query: int) -> list[tuple[int, np.ndarray, float]]:
        """(gallery_index, feature_row, guidance_score) triples for one query."""
        return [
            (int(self.indices[query, j]), self.features[query, j], float(self.guidance_scores[query, j]))
            for j in range(self.k)
        ]


def select_topk_features(
    features: EmbeddingMatrix, guidance: ScoreMatrix, k: int = DEFAULT_K
) -> SelectedFeatures:
    """For each guidance row, pick the k gallery items with the highest score.

    Ties go to the lower gallery index. ``guidance`` columns must align with
    ``features`` rows.
    """
    if guidance.n_gallery != features.n_rows:
        raise ShapeError(
            f"guidance has {guidance.n_gallery} columns but feature bank has {features.n_rows} rows"
        )
    top = topk_rows(guidance, k)
    return SelectedFeatures(
        indices=top.indices,
        guidance_scores=top.values,
        features=features.data[top.indices],
        guidance=guidance,
    )


def rerank_selected(selected: SelectedFeatures, match_scores: np.ndarray) -> ScoreMatrix:
    """Fold per-candidate match scores into a full queries x gallery matrix.

    ``match_scores`` must be (n_queries, k), aligned with
    ``selected.indices``. In the result, candidates are ordered by their
    match scores and always outrank non-candidates; non-candidates keep their
    guidance-score ordering.
    """
    scores = _as_matrix(match_scores, "match scores")
    if scores.shape != selected.indices.shape:
        raise ShapeError(
            f"match scores shape {scores.shape} does not match selection shape {selected.indices.shape}"
        )
    lo, _ = _value_span(scores, "cannot band the match scores")
    out = minmax_normalize(selected.guidance.data)
    banded = scores - lo + _CANDIDATE_BAND_OFFSET
    np.put_along_axis(out, selected.indices, banded, axis=1)
    return ScoreMatrix(out)
