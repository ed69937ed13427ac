"""Reference computations the benchmark checks rankfuse's outputs against.

Nothing here imports rankfuse. Each check is written from the definition
rather than from the library's code path, so a fast path that goes wrong
cannot agree with itself:

* Recall@k counts ranks directly. The rank of relevant item r in a query
  row s is ``#{j : s_j > s_r} + #{j < r : s_j == s_r}``, which is the
  position r takes under a stable descending sort (ties to the lower
  index). A query's rank is the minimum over its relevant set, and the
  query is a hit at k when that rank is below k. No row is sorted.
* Top-k shortlists come from a full ``lexsort`` on (score descending,
  column ascending).
* Cosine similarity is a plain normalised matrix product.

Work is done in blocks of ``ROW_BLOCK`` rows. That keeps each block in
cache and keeps the checks' memory well below the jobs' own peak, so
``peak_rss_mb`` measures the library rather than the checks.
"""

from __future__ import annotations

import numpy as np

ROW_BLOCK = 128


def row_blocks(n: int):
    """``(lo, hi)`` bounds of consecutive blocks of ``ROW_BLOCK`` rows."""
    return ((lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK))


def _block_ranks(block: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    rows = np.arange(block.shape[0])
    cols = np.arange(block.shape[1])
    # The minimum over the relevant set is the rank of the relevant item
    # that comes first in the order (highest score, then lowest index):
    # whatever precedes it also precedes every other relevant item, and so
    # does the item itself. Count ranks for that item only.
    vals = block[rows[:, None], relevant]
    first = np.lexsort((relevant, -vals), axis=1)[:, 0]
    r = relevant[rows, first]
    v = vals[rows, first][:, None]
    rank = np.count_nonzero(block > v, axis=1)
    rank += np.count_nonzero((block == v) & (cols < r[:, None]), axis=1)
    return rank


def query_ranks(scores: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    """0-based rank of each query's best-placed relevant item."""
    out = np.empty(scores.shape[0], dtype=np.int64)
    for lo, hi in row_blocks(scores.shape[0]):
        out[lo:hi] = _block_ranks(scores[lo:hi], relevant[lo:hi])
    return out


def recall(scores: np.ndarray, relevant: np.ndarray, k: int) -> float:
    """Fraction of queries with a relevant item among the top k."""
    return int(np.count_nonzero(query_ranks(scores, relevant) < k)) / scores.shape[0]


def fusion_recalls(s: np.ndarray, t: np.ndarray, weights, relevant: np.ndarray, k: int) -> list[float]:
    """Recall@k of ``w * s + (1 - w) * t`` for every w in ``weights``.

    The fused block is built row block by row block with the same
    element-wise arithmetic as the full matrix, so it is bit-identical to it.
    """
    hits = [0] * len(weights)
    for lo, hi in row_blocks(s.shape[0]):
        for i, w in enumerate(weights):
            block = fold(s[lo:hi], t[lo:hi], w)
            hits[i] += int(np.count_nonzero(_block_ranks(block, relevant[lo:hi]) < k))
    return [h / s.shape[0] for h in hits]


def smallest_maximiser(values) -> int:
    """Index of the first occurrence of the largest value."""
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def minmax(data: np.ndarray) -> np.ndarray:
    """Affine map of a matrix onto [0, 1]; a constant matrix maps to zeros."""
    lo, hi = data.min(), data.max()
    if hi == lo:
        return np.zeros_like(data)
    return (data - lo) / (hi - lo)


def fold(s: np.ndarray, t: np.ndarray, w: float) -> np.ndarray:
    """One fusion step, ``w * s + (1 - w) * t``."""
    return w * s + (1.0 - w) * t


def topk_lexsort(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k column indices per row: score descending, then column ascending."""
    out = np.empty((scores.shape[0], k), dtype=np.int64)
    cols = np.arange(scores.shape[1])
    for lo, hi in row_blocks(scores.shape[0]):
        block = scores[lo:hi]
        order = np.lexsort((np.broadcast_to(cols, block.shape), -block), axis=-1)
        out[lo:hi] = order[:, :k]
    return out


def cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity as a normalised matrix product."""
    an = a / np.sqrt(np.einsum("ij,ij->i", a, a))[:, None]
    bn = b / np.sqrt(np.einsum("ij,ij->i", b, b))[:, None]
    return an @ bn.T
