"""Recall@K evaluation over score matrices.

A search succeeds for a query when any of its relevant gallery items appears
among the top-k ranked columns of its score row. Ranking ties are broken by
the lower gallery index, the same order :func:`rankfuse.matrix_ops.topk_rows`
produces. Every recall figure, including the weight sweep's, comes from one
kernel, which counts ranks without sorting any row. :func:`_best_relevant`
finds each query's best relevant score from its (query, item) pairs alone,
and :func:`_count_ranks` counts that score's exact rank. The band test
behind the count, :func:`_band_ranks`, is written once: it counts each
row's entries above a bound and proves, with one whole-block count, which
rows hold no second entry in a band below it. :func:`_count_ranks` walks
the rows in blocks of ``matrix_ops._BLOCK_CELLS`` cells, bounded by
``matrix_ops._row_blocks``, so it builds no temporary as large as the
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ParameterError, ValidationError
from .matrix_ops import ScoreMatrix, _block_rows, _data, _row_blocks, topk_rows  # noqa: F401  perfbench/tracer.py wraps topk_rows

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
        if not _is_integer(self.gallery_size) or self.gallery_size < 1:
            raise ParameterError(f"gallery_size must be a positive integer, got {self.gallery_size!r}")
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
        return cls(relevant=tuple(_relevant_rows(mapping, n_queries, int)), gallery_size=gallery_size)


def _relevant_rows(mapping: Mapping, n_queries: int, key) -> list:
    """The values of ``mapping`` at ``key(0)``, ..., ``key(n_queries - 1)``.

    Raises ``ValidationError`` naming the first query with no key, or else
    the key that names no query and sorts first by ``str``.
    """
    # The first missing key is found within len(mapping) + 1 steps, so a
    # huge n_queries builds no key list before it is rejected.
    missing = 0
    while key(missing) in mapping:
        missing += 1
    if missing < n_queries:
        raise ValidationError(f"relevant map is missing query {missing}")
    keys = [key(q) for q in range(n_queries)]
    extra = sorted(set(mapping).difference(keys), key=str)
    if extra:
        raise ValidationError(f"relevant map key {extra[0]!r} names no query")
    return [mapping[k] for k in keys]


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


def _band_ranks(x: np.ndarray, hi, lo, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each row's count of ``x > hi``, and the rows with a second entry in ``[lo, hi]``.

    ``hi`` and ``lo`` (``lo <= hi``) are scalars or arrays of ``x``'s shape,
    and every row holds one entry of its own in ``[lo, hi]``. The counts
    are summed, in ``out``'s dtype, into ``out``; ``mask`` is a bool buffer
    of ``x``'s shape. One whole-block count of ``x >= lo`` proves that no
    row holds a second entry in the band, and only otherwise are the rows
    counted one by one. Returns the indices of the rows that hold one.
    """
    np.greater(x, hi, out=mask)
    above = np.add.reduce(mask.view(np.uint8), axis=1, dtype=out.dtype, out=out)
    np.greater_equal(x, lo, out=mask)
    if np.count_nonzero(mask) == int(above.sum()) + len(above):
        return np.empty(0, np.intp)
    in_band = np.add.reduce(mask.view(np.uint8), axis=1, dtype=out.dtype) - above
    return np.flatnonzero(in_band > 1)


def _count_ranks(scores: np.ndarray, best: np.ndarray, first: np.ndarray) -> np.ndarray:
    """0-based rank, within each row of ``scores``, of its item ``first`` scoring ``best``.

    The rank is ``#{j : s_j > v} + #{j < r : s_j == v}`` for v = ``best``
    and r = ``first``. The rows are walked in blocks of ``_BLOCK_CELLS``
    cells through one threshold buffer, filled with each row's v, and one
    bool mask. :func:`_band_ranks` counts a block's ``> v`` entries and, in
    a band of width 0, finds the rows with a tie at v; only those rows take
    the exact ``== v and j < r`` fix-up.
    """
    n, m = scores.shape
    rows = _block_rows(scores.shape)
    thr, mask = np.empty((rows, m), best.dtype), np.empty((rows, m), bool)
    # numpy sums uint8 into uint32 faster than into intp.
    ranks = np.empty(n, np.uint32)
    for lo, hi in _row_blocks(n, rows):
        block, v, r, out = scores[lo:hi], best[lo:hi], first[lo:hi], ranks[lo:hi]
        t = thr[: hi - lo]
        np.copyto(t, v[:, None])
        tied = _band_ranks(block, t, t, mask[: hi - lo], out)
        if len(tied):
            before = np.arange(m) < r[tied, None]
            fix = np.count_nonzero((block[tied] == v[tied, None]) & before, axis=1)
            out[tied] += fix.astype(out.dtype)
    return ranks


def query_ranks(data: np.ndarray, gt: GroundTruth) -> np.ndarray:
    """0-based rank of each query's best-placed relevant item.

    The rank of item r in row s is ``#{j : s_j > s_r} + #{j < r : s_j == s_r}``,
    its position under a stable descending sort (ties to the lower index).
    The best-placed relevant item has the highest score, then the lowest
    index, so only that item is counted, and no row is sorted:
    :func:`_best_relevant` reads the relevant scores and :func:`_count_ranks`
    counts their ranks. Query q is a hit at k when its rank is below k.
    """
    _check_covers(data.shape, gt)
    return _count_ranks(data, *_best_relevant(data[gt._queries, gt._items], gt)).astype(np.intp)


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
