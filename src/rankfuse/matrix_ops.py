"""Dense-matrix primitives every other module builds on.

The two wrapper types validate the invariants the rest of the library relies
on (finite entries, 2-D, float64) once, at construction, so downstream code
can stay plain numpy. Everything here is pure and safe to call concurrently.
"""

from __future__ import annotations

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


def _as_matrix(data, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{what} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{what} must have at least one row and one column, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ValidationError(f"{what} has non-finite value at ({i}, {j})")
    return arr


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
            sums = arr.sum(axis=1)
            bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
            if bad.size:
                i = int(bad[0])
                raise ValidationError(
                    f"probability row {i} sums to {sums[i]!r}, expected 1 within 1e-9"
                )
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


def _unit_rows(data: np.ndarray, side: str = "") -> np.ndarray:
    """``data`` with every row divided by its L2 norm; a zero row is rejected."""
    norms = np.linalg.norm(data, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateInputError(f"row {zero[0]}{side} has zero norm and cannot be normalized")
    return data / norms[:, None]


def l2_normalize_rows(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale each row to unit L2 norm.

    Zero rows are rejected rather than mapped to zero similarity: they
    indicate an upstream feature-export bug.
    """
    return EmbeddingMatrix(_unit_rows(m.data))


def cosine_similarity(a: EmbeddingMatrix, b: EmbeddingMatrix) -> ScoreMatrix:
    """Pairwise cosine similarity between the rows of ``a`` and the rows of ``b``.

    Parameters
    ----------
    a, b : EmbeddingMatrix
        Feature banks with the same number of columns.

    Returns
    -------
    ScoreMatrix
        Shape (a.n_rows, b.n_rows); entry (i, j) is
        dot(a_i, b_j) / (||a_i|| * ||b_j||), in [-1, 1].
    """
    if a.n_cols != b.n_cols:
        raise ShapeError(f"feature dimensions differ: {a.n_cols} vs {b.n_cols}")
    return ScoreMatrix(_unit_rows(a.data, " of a") @ _unit_rows(b.data, " of b").T)


def minmax_normalize(data: np.ndarray) -> np.ndarray:
    """Affine-rescale a matrix to [0, 1]; a constant matrix maps to zeros.

    A value span beyond the float64 maximum cannot be rescaled and raises
    ``ValidationError``.
    """
    lo, hi = data.min(), data.max()
    with np.errstate(over="ignore"):
        span = hi - lo
    if not np.isfinite(span):
        raise ValidationError(
            f"cannot min-max rescale: the span from {float(lo)!r} to {float(hi)!r} is not finite"
        )
    if span == 0:
        return np.zeros_like(data)
    return (data - lo) / span


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


def topk_rows(s: ScoreMatrix, k: int) -> TopKResult:
    """The k largest entries of each row, in descending order.

    Ties are broken by the lower gallery index so results are deterministic
    across runs and thread schedules.
    """
    n_cols = s.n_gallery
    if not 1 <= k <= n_cols:
        raise ParameterError(f"k must be in [1, {n_cols}], got {k}")
    if k == 1:
        # argmax returns the first (lowest-index) maximum: same tie-break as
        # the stable argsort below.
        idx = np.argmax(s.data, axis=1).reshape(-1, 1)
    else:
        idx = np.argsort(-s.data, axis=1, kind="stable")[:, :k]
    vals = np.take_along_axis(s.data, idx, axis=1)
    return TopKResult(indices=idx, values=vals)
