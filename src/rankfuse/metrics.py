"""Recall@K evaluation over score matrices.

A search succeeds for a query when any of its relevant gallery items appears
among the top-k ranked columns of its score row. Ranking ties are broken by
the lower gallery index, the same order :func:`rankfuse.matrix_ops.topk_rows`
produces. Every recall figure, including the weight sweep's, comes from one
kernel, which counts ranks without sorting any row. It has two halves:
:func:`_best_relevant` finds each query's best relevant score from its
(query, item) pairs alone, and :func:`_count_ranks` counts that score's rank
over one block of rows, through a threshold buffer and a bool mask that the
caller owns and reuses from block to block. :func:`query_ranks` runs the
first on a whole matrix and the second on row blocks, so it builds no
temporary as large as the matrix. The blocking rule lives in
:mod:`rankfuse.matrix_ops`: ``_block_rows`` sizes a block from a cell
budget, ``_BLOCK_CELLS`` for these rank kernels and a larger one for the
single-pass top-k and finite scan there, so every blocked loop in the
library sizes its blocks one way. The weight sweep in
:mod:`rankfuse.ensemble` runs the first once for its whole grid and the
second, one weight at a time, on the rows its float32 filter cannot decide
and on the blocks outside that filter's range; at k = 1 it needs no rank
at all, since a query is a hit exactly when its row's ``argmax`` (the lowest
index of the row maximum) is its lowest best relevant item.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ParameterError, ValidationError
from .matrix_ops import ScoreMatrix, _block_rows, _data, topk_rows  # noqa: F401  perfbench/tracer.py wraps topk_rows

__all__ = ["GroundTruth", "RetrievalMetrics", "query_ranks", "recall_at_k", "metrics_report"]


def _is_integer(x) -> bool:
    """True for Python and numpy integers; ``bool`` is not an index or a cutoff."""
    return not isinstance(x, bool) and isinstance(x, (int, np.integer))


@dataclass(frozen=True)
class GroundTruth:
    """Per-query sets of relevant gallery indices.

    ``relevant[i]`` is the non-empty set of gallery items that count as a
    correct retrieval for query i; every index must be an integer in
    [0, gallery_size). The same pairs are also kept as flat (query, item)
    index arrays, grouped by query, for :func:`query_ranks`.
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
                if not _is_integer(i):
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
        # Pairs are grouped by query: query q's pairs start at ``_starts[q]``.
        object.__setattr__(self, "_starts", np.cumsum(counts) - counts)

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


def _check_covers(shape: tuple, gt: GroundTruth) -> None:
    """Raise ``ValidationError`` unless ``gt`` labels every cell of a matrix of ``shape``."""
    if shape != (gt.n_queries, gt.gallery_size):
        raise ValidationError(
            f"ground truth ({gt.n_queries} x {gt.gallery_size}) does not cover "
            f"a score matrix of shape {shape}"
        )


def _best_relevant(vals: np.ndarray, gt: GroundTruth) -> tuple[np.ndarray, np.ndarray]:
    """Each query's best relevant score and the lowest gallery index holding it.

    ``vals[..., p]`` is the score at the p-th (query, item) pair of ``gt``;
    leading axes (one per weight in a sweep) are kept. Pairs are grouped by
    query, so both results come from one ``reduceat`` over the pair axis.
    """
    starts = gt._starts
    best = np.maximum.reduceat(vals, starts, axis=-1)
    at_best = np.where(vals == best[..., gt._queries], gt._items, gt.gallery_size)
    return best, np.minimum.reduceat(at_best, starts, axis=-1)


def _count_ranks(
    block: np.ndarray,
    best: np.ndarray,
    first: np.ndarray,
    thr: np.ndarray,
    mask: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """0-based rank, within each row of ``block``, of its item ``first`` scoring ``best``.

    The rank is ``#{j : s_j > v} + #{j < r : s_j == v}`` for v = ``best`` and
    r = ``first``; it is written to ``out`` (one integer per row), which is
    returned. ``thr`` (float) and ``mask`` (bool) are caller-owned buffers
    of ``block``'s shape, reused from block to block: ``thr`` is filled with
    each row's v, so both passes are same-shape comparisons into ``mask``,
    and each row's count is a ``uint8`` sum over it. The block takes a
    ``> v`` and a ``>= v`` pass; only when they show a tie at v do the rows
    holding one take the exact ``== v and j < r`` fix-up.
    """
    np.copyto(thr, best[:, None])
    np.greater(block, thr, out=mask)
    ranks = np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.uint32, out=out)
    # Each row's item is one of its ``>= v`` entries; any other is a tie. A
    # whole-block count rules ties out before any per-row count is taken.
    np.greater_equal(block, thr, out=mask)
    if np.count_nonzero(mask) > int(ranks.sum()) + len(ranks):
        at_least = np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.uint32)
        tied = np.flatnonzero(at_least - ranks > 1)
        before = np.arange(block.shape[1]) < first[tied, None]
        fix = np.count_nonzero((block[tied] == best[tied, None]) & before, axis=1)
        ranks[tied] += fix.astype(ranks.dtype)
    return ranks


def query_ranks(data: np.ndarray, gt: GroundTruth) -> np.ndarray:
    """0-based rank of each query's best-placed relevant item.

    The rank of item r in row s is ``#{j : s_j > s_r} + #{j < r : s_j == s_r}``,
    its position under a stable descending sort (ties to the lower index).
    The best-placed relevant item has the highest score, then the lowest
    index, so only that item is counted, and no row is sorted. The work is
    split in two halves that the weight sweep also calls: :func:`_best_relevant`
    reads the relevant scores, and :func:`_count_ranks` counts blocks of
    ``matrix_ops._BLOCK_CELLS`` cells through one pair of reused buffers, so no
    temporary as large as ``data`` is built. Query q is a hit at k when its
    rank is below k.
    """
    _check_covers(data.shape, gt)
    best, first = _best_relevant(data[gt._queries, gt._items], gt)
    n, m = data.shape
    rows = _block_rows(data.shape)
    thr, mask = np.empty((rows, m), best.dtype), np.empty((rows, m), bool)
    ranks = np.empty(n, np.intp)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        _count_ranks(
            data[lo:hi], best[lo:hi], first[lo:hi], thr[: hi - lo], mask[: hi - lo], ranks[lo:hi]
        )
    return ranks


def recall_at_k(s: np.ndarray | ScoreMatrix, gt: GroundTruth, k: int) -> float:
    """Fraction of queries whose top-k ranked items intersect the relevant set."""
    return metrics_report(s, gt, [k]).r_at[k]


def metrics_report(
    s: np.ndarray | ScoreMatrix, gt: GroundTruth, ks: Sequence[int] | Iterable[int]
) -> RetrievalMetrics:
    """Recall at every k in ``ks``.

    ``s`` is a ``ScoreMatrix`` or a finite float64 array, such as one
    :func:`rankfuse.io_files.load_matrix` returned. A single
    :func:`query_ranks` pass serves all requested cutoffs.
    """
    data = _data(s)
    ks = list(ks)
    bad = [k for k in ks if not _is_integer(k)]
    if bad:
        raise ParameterError(f"every k must be an integer, got {bad[0]!r}")
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise ParameterError("ks must be non-empty")
    if ks[0] < 1 or ks[-1] > gt.gallery_size:
        raise ParameterError(f"every k must be in [1, {gt.gallery_size}], got {ks}")
    ranks = query_ranks(data, gt)
    r_at = {k: int(np.count_nonzero(ranks < k)) / gt.n_queries for k in ks}
    return RetrievalMetrics(r_at=r_at, n_queries=gt.n_queries)
