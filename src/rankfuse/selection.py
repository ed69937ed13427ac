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
from functools import cached_property

import numpy as np

from .errors import ShapeError
from .matrix_ops import (
    EmbeddingMatrix,
    ScoreMatrix,
    _as_matrix,
    _data,
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

    The feature bank and the full guidance matrix are retained, as they were
    given: the bank so candidate feature rows are read only when asked for,
    and the guidance so reranking can place the unselected gallery items
    deterministically.
    """

    indices: np.ndarray  # (n_queries, k) int64
    guidance_scores: np.ndarray  # (n_queries, k), non-increasing per row
    bank: np.ndarray  # (n_gallery, dim)
    guidance: np.ndarray | ScoreMatrix

    @property
    def n_queries(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    @cached_property
    def features(self) -> np.ndarray:
        """(n_queries, k, dim) candidate feature rows, gathered on first access."""
        return self.bank[self.indices]

    def candidates(self, query: int) -> list[tuple[int, np.ndarray, float]]:
        """(gallery_index, feature_row, guidance_score) triples for one query.

        Only that query's k rows of the bank are read.
        """
        indices = self.indices[query]
        return [
            (int(i), row, float(score))
            for i, row, score in zip(indices, self.bank[indices], self.guidance_scores[query])
        ]


def select_topk_features(
    features: np.ndarray | EmbeddingMatrix, guidance: np.ndarray | ScoreMatrix, k: int = DEFAULT_K
) -> SelectedFeatures:
    """For each guidance row, pick the k gallery items with the highest score.

    Ties go to the lower gallery index. ``guidance`` columns must align with
    ``features`` rows. Either may be a wrapper or a matrix (see
    ``matrix_ops._data``).
    No (n_queries, k, dim) gather is built here; ``SelectedFeatures.features``
    builds it on first access.
    """
    bank, guide = _data(features, "features"), _data(guidance, "guidance")
    if guide.shape[1] != bank.shape[0]:
        raise ShapeError(
            f"guidance has {guide.shape[1]} columns but feature bank has {bank.shape[0]} rows"
        )
    top = topk_rows(guide, k)
    return SelectedFeatures(
        indices=top.indices, guidance_scores=top.values, bank=bank, guidance=guidance
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
    out = minmax_normalize(_data(selected.guidance, "guidance"))
    banded = scores - lo + _CANDIDATE_BAND_OFFSET
    np.put_along_axis(out, selected.indices, banded, axis=1)
    return ScoreMatrix(out)
