"""Dense-matrix primitives every other module builds on.

The two wrapper types validate the invariants the rest of the library relies
on (finite entries, 2-D, float64) once, at construction, so downstream code
can stay plain numpy. Everything here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError, ShapeError, ValidationError

__all__ = [
    "EmbeddingMatrix",
    "ScoreMatrix",
    "TopKResult",
    "cosine_similarity",
    "row_softmax",
    "topk_rows",
    "l2_normalize_rows",
    "minmax_normalize",
]


# Cells in one row block of the rank kernels (``metrics.query_ranks`` and the
# weight sweep): a float64 block is 256 KB, so a block and the buffers it is
# compared into stay in cache together.
_BLOCK_CELLS = 32768
# Cells in one row block of a single pass over a matrix (the top-k and the
# finite scan). Each block is read once, so the cache matters less than the
# per-block call overhead, which made the top-k slower at 32,768 cells; at
# 2 MB, the top-k's temporaries (a block's bool filter mask and its fold)
# stay small beside any matrix large enough to be blocked.
_PASS_CELLS = 262144


def _block_rows(shape: tuple, cells: int = _BLOCK_CELLS) -> int:
    """Rows in one block of ``cells`` cells of a matrix of ``shape`` (at least 1)."""
    n, m = shape
    return min(n, max(1, cells // m))


def _row_blocks(n: int, rows: int):
    """The ``(lo, hi)`` bounds of ``n`` rows walked ``rows`` at a time."""
    for lo in range(0, n, rows):
        yield lo, min(lo + rows, n)


def _as_matrix(data, what: str) -> np.ndarray:
    """``data`` as a 2-D float64 array with at least one row and column, all finite.

    A float64 array comes back as itself, with no copy. The finite check
    walks row blocks through one reused bool buffer, so it builds no
    temporary as large as the matrix; the error still names the first
    non-finite cell by its (row, column) in the whole matrix.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{what} must be 2-D, got shape {arr.shape}")
    n, m = arr.shape
    if n < 1 or m < 1:
        raise ShapeError(f"{what} must have at least one row and one column, got {arr.shape}")
    rows = _block_rows(arr.shape, _PASS_CELLS)
    finite = np.empty((rows, m), bool)
    for lo, hi in _row_blocks(n, rows):
        ok = np.isfinite(arr[lo:hi], out=finite[: hi - lo])
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise ValidationError(f"{what} has non-finite value at ({lo + i}, {j})")
    return arr


def _check_row_sums(arr: np.ndarray, what: str) -> None:
    """Raise ``ValidationError`` at the first row of ``arr`` not summing to 1 within 1e-9."""
    sums = arr.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"{what} row {i} sums to {sums[i]!r}, expected 1 within 1e-9")


def _data(x) -> np.ndarray:
    """The matrix behind ``x``: ``x`` itself if it is an ndarray, else ``x.data``.

    Entry points that take a wrapper or a plain array tell them apart by
    ``isinstance(x, np.ndarray)``, never by the wrapper's type:
    ``perfbench/tracer.py`` swaps wrapper names for functions. An array is
    trusted to be 2-D, finite float64, like a wrapper's data, so a caller
    that holds checked data pays no second scan.
    """
    return x if isinstance(x, np.ndarray) else x.data


def _finite(cls, data: np.ndarray):
    """A ``cls`` (``EmbeddingMatrix`` or ``ScoreMatrix``) over ``data``, a 2-D
    finite float64 array the caller vouches for: nothing is scanned or copied,
    and every other field reads its default (a ``ScoreMatrix`` is no
    probability matrix)."""
    out = object.__new__(cls)
    object.__setattr__(out, "data", data)
    return out


@dataclass(frozen=True)
class EmbeddingMatrix:
    """An n_rows x n_cols bank of feature vectors, one item per row.

    Entries are widened to float64 and checked finite at construction.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_matrix(self.data, "embedding matrix"))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ScoreMatrix:
    """A queries x gallery matrix of relevance scores (higher = more relevant).

    With ``is_probability`` set, every row must sum to 1 within 1e-9 and all
    entries must lie in (0, 1]; this is enforced at construction.
    """

    data: np.ndarray
    is_probability: bool = False

    def __post_init__(self):
        arr = _as_matrix(self.data, "score matrix")
        object.__setattr__(self, "data", arr)
        if self.is_probability:
            _check_row_sums(arr, "probability")
            if np.any(arr <= 0.0) or np.any(arr > 1.0):
                i, j = np.argwhere((arr <= 0.0) | (arr > 1.0))[0]
                raise ValidationError(
                    f"probability entry at ({i}, {j}) is {arr[i, j]!r}, outside (0, 1]"
                )

    @property
    def n_queries(self) -> int:
        return self.data.shape[0]

    @property
    def n_gallery(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class TopKResult:
    """Per-row top-k gallery indices (descending score, ties to lower index)."""

    indices: np.ndarray  # (n_rows, k) int64
    values: np.ndarray  # (n_rows, k) float64

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.shape != val.shape or idx.ndim != 2:
            raise ShapeError(f"indices {idx.shape} and values {val.shape} must be equal 2-D shapes")
        if np.any(np.diff(val, axis=1) > 0):
            raise ValidationError("top-k values must be non-increasing within each row")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def k(self) -> int:
        return self.indices.shape[1]


# Below this L2 norm, a row's squares have lost precision to underflow.
_TINY_NORM = math.sqrt(sys.float_info.min)


def _unit_rows(data: np.ndarray, side: str = "") -> np.ndarray:
    """``data`` with every row divided by its L2 norm; a zero row is rejected.

    A row whose squares overflow or underflow (a norm of inf, or below
    ``_TINY_NORM``) is divided by its largest magnitude before its norm is
    taken, so huge and tiny rows still come out as unit rows.
    """
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(data, axis=1)
    rescale = np.flatnonzero(~(norms >= _TINY_NORM) | np.isinf(norms))
    peak = np.abs(data[rescale]).max(axis=1)
    zero = rescale[peak == 0.0]
    if zero.size:
        raise DegenerateInputError(f"row {zero[0]}{side} has zero norm and cannot be normalized")
    scaled = data[rescale] / peak[:, None]
    norms[rescale] = 1.0
    unit = data / norms[:, None]
    unit[rescale] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    return unit


def l2_normalize_rows(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale each row to unit L2 norm.

    Zero rows are rejected rather than mapped to zero similarity: they
    indicate an upstream feature-export bug.
    """
    return EmbeddingMatrix(_unit_rows(m.data))


def cosine_similarity(
    a: EmbeddingMatrix, b: EmbeddingMatrix, names: tuple[str, str] = ("a", "b")
) -> ScoreMatrix:
    """Pairwise cosine similarity between the rows of ``a`` and the rows of ``b``.

    Parameters
    ----------
    a, b : EmbeddingMatrix
        Feature banks with the same number of columns.
    names : (str, str)
        What a zero-row error calls ``a`` and ``b``, such as their files.

    Returns
    -------
    ScoreMatrix
        Shape (a.n_rows, b.n_rows); entry (i, j) is
        dot(a_i, b_j) / (||a_i|| * ||b_j||), in [-1, 1].
    """
    if a.n_cols != b.n_cols:
        raise ShapeError(f"feature dimensions differ: {a.n_cols} vs {b.n_cols}")
    unit_a, unit_b = _unit_rows(a.data, f" of {names[0]}"), _unit_rows(b.data, f" of {names[1]}")
    # Each entry is a dot product of two finite unit rows, at most 1 + dim*eps
    # in magnitude, so the product is finite by construction: it is wrapped
    # without ScoreMatrix's finite scan.
    return _finite(ScoreMatrix, unit_a @ unit_b.T)


def _value_span(data: np.ndarray, what: str) -> tuple[float, float]:
    """``(min, max - min)`` of ``data``; a span beyond the float64 maximum is
    rejected with ``ValidationError`` and no numpy overflow warning."""
    lo, hi = data.min(), data.max()
    with np.errstate(over="ignore"):
        span = hi - lo
    if not np.isfinite(span):
        raise ValidationError(
            f"{what}: the span from {float(lo)!r} to {float(hi)!r} is not finite"
        )
    return lo, span


def minmax_normalize(data: np.ndarray) -> np.ndarray:
    """Affine-rescale a matrix to [0, 1]; a constant matrix maps to zeros.

    A value span beyond the float64 maximum cannot be rescaled and raises
    ``ValidationError``. The result is a new float64 array, the only one
    allocated: ``(data - lo) / span`` with the division done in place.
    """
    lo, span = _value_span(data, "cannot min-max rescale")
    if span == 0:
        return np.zeros(data.shape)
    out = np.subtract(data, lo, dtype=np.float64)
    return np.divide(out, span, out=out)


def row_softmax(s: ScoreMatrix, tau: float) -> ScoreMatrix:
    """Temperature softmax over each row of a score matrix.

    Numerically stabilized by subtracting the row maximum before
    exponentiation, so arbitrarily large logits cannot overflow. True
    softmax outputs are strictly positive; entries that underflow to zero
    (logit spread beyond ~745*tau) are nudged to the smallest subnormal,
    which leaves row sums untouched in float64.
    """
    if not tau > 0:
        raise ParameterError(f"temperature must be positive, got {tau!r}")
    x = s.data / tau
    x = x - x.max(axis=1, keepdims=True)
    e = np.exp(x)
    p = e / e.sum(axis=1, keepdims=True)
    return ScoreMatrix(np.maximum(p, np.nextafter(0.0, 1.0)), is_probability=True)


def topk_rows(s: np.ndarray | ScoreMatrix, k: int) -> TopKResult:
    """The k largest entries of each row, in descending order.

    ``s`` is a ``ScoreMatrix`` or a finite float64 array (see ``_data``).

    Equal values (``0.0`` and ``-0.0`` included) go to the lower gallery
    index, both in which columns are kept and in their order, so the result
    is exactly the first k columns of a stable descending sort of the row.

    No row is sorted in full, and no row is partitioned. A threshold kernel
    (see :func:`_topk_block`) folds each row into at most 8k column-group
    maxima, takes the k-th largest of those as a proven lower bound on the
    row's k-th value, and keeps only the entries at or above it: on
    continuous scores about k of them per row. Only those survivors are
    sorted. The cost is two O(m) passes per row (the fold and the filter)
    plus a sort of the survivors, against O(m log m) for a full sort of an
    m-column row.

    The rows are walked in blocks of :data:`_PASS_CELLS` cells, each written
    into the preallocated (n, k) result, so no temporary as large as ``s``
    is built: the largest is one block's bool filter mask.
    """
    data = _data(s)
    n, n_cols = data.shape
    if not 1 <= k <= n_cols:
        raise ParameterError(f"k must be in [1, {n_cols}], got {k}")
    if k == 1:
        # argmax returns the first (lowest-index) maximum.
        idx = np.argmax(data, axis=1).reshape(-1, 1)
    else:
        idx = np.empty((n, k), np.intp)
        rows = _block_rows(data.shape, _PASS_CELLS)
        for lo, hi in _row_blocks(n, rows):
            idx[lo:hi] = _topk_block(data[lo:hi], k)
    vals = np.take_along_axis(data, idx, axis=1)
    return TopKResult(indices=idx, values=vals)


def _topk_block(data: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k largest entries, ordered as :func:`topk_rows` orders them."""
    n, n_cols = data.shape
    # Fold the row into g = min(m, 8k) column groups, group j holding columns
    # j, j + g, j + 2g, ...; the last m mod g columns are left out. Each group
    # maximum is a distinct entry of the row, so the k-th largest of them is a
    # lower bound on the row's k-th value. On a row-major block the reshape
    # is a view.
    g = min(n_cols, 8 * k)
    f = n_cols // g
    head = data[:, : f * g].reshape(n, f, g).max(axis=1)
    bound = np.partition(head, g - k, axis=1)[:, g - k, None]
    # Every row keeps at least k entries at or above its bound, and its top k
    # among them. A row keeping more than 2k has a run of ties at the bound
    # (or many entries above it): only its lowest-index ties that fit in k
    # are kept, so a tie-heavy row costs O(m), not a sort of the run.
    keep = data >= bound
    rows, cols = np.divmod(np.flatnonzero(keep), n_cols)
    counts = np.bincount(rows, minlength=n)
    heavy = np.flatnonzero(counts > 2 * k)
    if heavy.size:
        part, v = data[heavy], bound[heavy]
        above = part > v
        equal = part == v
        room = k - np.count_nonzero(above, axis=1, keepdims=True)
        keep[heavy] = above | (equal & (np.cumsum(equal, axis=1) <= room))
        rows, cols = np.divmod(np.flatnonzero(keep), n_cols)
        counts = np.bincount(rows, minlength=n)
    # Lay each row's survivors out in column order in one padded row, pad
    # with +inf keys, and stable-sort the rows by -value: ties stay in column
    # order and the padding sorts last, after at least k survivors.
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    keys = np.full((n, counts.max()), np.inf)
    keys[rows, slot] = -data[rows, cols]
    table = np.empty(keys.shape, np.intp)
    table[rows, slot] = cols
    order = np.argsort(keys, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(table, order, axis=1)
