"""Recall@K evaluation over score matrices.

A search succeeds for a query when any of its relevant gallery items appears
among the top-k ranked columns of its score row. Ranking ties are broken by
the lower gallery index, the same order :func:`rankfuse.matrix_ops.topk_rows`
produces. Every recall figure, including the weight sweep's, comes from one
kernel, :func:`query_ranks`, which counts ranks without sorting any row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ParameterError, ValidationError
from .matrix_ops import ScoreMatrix, topk_rows  # noqa: F401  perfbench/tracer.py wraps this global

__all__ = ["GroundTruth", "RetrievalMetrics", "query_ranks", "recall_at_k", "metrics_report"]


@dataclass(frozen=True)
class GroundTruth:
    """Per-query sets of relevant gallery indices.

    ``relevant[i]`` is the non-empty set of gallery items that count as a
    correct retrieval for query i; every index must be an integer in
    [0, gallery_size). The same pairs are also kept as flat (query, item)
    index arrays for :func:`query_ranks`.
    """

    relevant: tuple
    gallery_size: int

    def __post_init__(self):
        if self.gallery_size < 1:
            raise ParameterError(f"gallery_size must be >= 1, got {self.gallery_size}")
        sets = []
        for q, rel in enumerate(self.relevant):
            try:
                members = list(rel)
            except TypeError:
                raise ValidationError(
                    f"query {q}: relevant entry {rel!r} is not a collection of gallery indices"
                ) from None
            for i in members:
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise ValidationError(f"query {q}: gallery index {i!r} is not an integer")
            items = frozenset(int(i) for i in members)
            if not items:
                raise ValidationError(f"query {q} has an empty relevant set")
            for i in items:
                if not 0 <= i < self.gallery_size:
                    raise ValidationError(
                        f"query {q} references gallery index {i}, outside [0, {self.gallery_size})"
                    )
            sets.append(items)
        if not sets:
            raise ValidationError("ground truth covers no queries")
        object.__setattr__(self, "relevant", tuple(sets))
        counts = [len(items) for items in sets]
        object.__setattr__(self, "_queries", np.repeat(np.arange(len(sets)), counts))
        object.__setattr__(self, "_items", np.fromiter(chain.from_iterable(sets), np.int64, sum(counts)))

    @property
    def n_queries(self) -> int:
        return len(self.relevant)

    @classmethod
    def identity(cls, n: int) -> "GroundTruth":
        """Query i matches gallery item i."""
        return cls(relevant=tuple({i} for i in range(n)), gallery_size=n)

    @classmethod
    def from_mapping(cls, mapping: Mapping, n_queries: int, gallery_size: int) -> "GroundTruth":
        """Build from {query_index: iterable_of_gallery_indices}."""
        rows = []
        for q in range(n_queries):
            if q not in mapping:
                raise ValidationError(f"ground truth missing query {q}")
            rows.append(mapping[q])
        return cls(relevant=tuple(rows), gallery_size=gallery_size)


@dataclass(frozen=True)
class RetrievalMetrics:
    """Recall at each requested k, plus the query count."""

    r_at: dict
    n_queries: int

    def __post_init__(self):
        ks = sorted(self.r_at)
        for k in ks:
            v = self.r_at[k]
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"R@{k} is {v!r}, outside [0, 1]")
        for lo, hi in zip(ks, ks[1:]):
            if self.r_at[lo] > self.r_at[hi]:
                raise ValidationError(
                    f"R@{lo}={self.r_at[lo]} exceeds R@{hi}={self.r_at[hi]}; recall must be monotone in k"
                )
        object.__setattr__(self, "r_at", dict(self.r_at))

    def __str__(self) -> str:
        return " ".join(f"R@{k}={self.r_at[k]:.4f}" for k in sorted(self.r_at))


def query_ranks(data: np.ndarray, gt: GroundTruth) -> np.ndarray:
    """0-based rank of each query's best-placed relevant item.

    The rank of item r in row s is ``#{j : s_j > s_r} + #{j < r : s_j == s_r}``,
    its position under a stable descending sort (ties to the lower index).
    The best-placed relevant item has the highest score, then the lowest
    index, so only that item is counted. No row is sorted: each row takes a
    ``> v`` and a ``>= v`` pass, and only rows holding a tie at v take the
    exact ``== v and j < r`` fix-up. Query q is a hit at k when its rank is
    below k.
    """
    if data.shape != (gt.n_queries, gt.gallery_size):
        raise ValidationError(
            f"ground truth ({gt.n_queries} x {gt.gallery_size}) does not cover "
            f"a score matrix of shape {data.shape}"
        )
    q, items = gt._queries, gt._items
    vals = data[q, items]
    best = np.full(gt.n_queries, -np.inf)
    np.maximum.at(best, q, vals)
    r = np.full(gt.n_queries, gt.gallery_size)
    np.minimum.at(r, q, np.where(vals == best[q], items, gt.gallery_size))
    v = best[:, None]
    ranks = np.count_nonzero(data > v, axis=1)
    # The item itself is one of the ``>= v`` entries; any other is a tie.
    tied = np.flatnonzero(np.count_nonzero(data >= v, axis=1) - ranks > 1)
    if tied.size:
        before = np.arange(gt.gallery_size) < r[tied, None]
        ranks[tied] += np.count_nonzero((data[tied] == v[tied]) & before, axis=1)
    return ranks


def recall_at_k(s: ScoreMatrix, gt: GroundTruth, k: int) -> float:
    """Fraction of queries whose top-k ranked items intersect the relevant set."""
    return metrics_report(s, gt, [k]).r_at[k]


def metrics_report(s: ScoreMatrix, gt: GroundTruth, ks: Sequence[int] | Iterable[int]) -> RetrievalMetrics:
    """Recall at every k in ``ks``.

    A single :func:`query_ranks` pass serves all requested cutoffs.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise ParameterError("ks must be non-empty")
    if ks[0] < 1 or ks[-1] > s.n_gallery:
        raise ParameterError(f"every k must be in [1, {s.n_gallery}], got {ks}")
    ranks = query_ranks(s.data, gt)
    r_at = {k: int(np.count_nonzero(ranks < k)) / s.n_queries for k in ks}
    return RetrievalMetrics(r_at=r_at, n_queries=s.n_queries)
