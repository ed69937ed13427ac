"""Iterative convex fusion of model score matrices.

Starting from S = 0, each model's matrix t is folded in as
S <- w * S + (1 - w) * t, where w is picked per step by sweeping a weight
grid and keeping the value that maximizes a scoring function (Recall@k) on
held-out ground truth. The default grid stops at 0.95, so every step must
take in some of its model and the tuning metric can fall from one step to
the next. Adding 1 to the grid makes every step optional (w = 1 keeps the
accumulator), and then the metric never falls. The procedure is
order-dependent on purpose: later models gradually refine the accumulated
matrix.

Because the fused operand at the first step is all-zero, every w < 1 there
produces the same ranking (positive rescaling of the first model), up to
the ties that rounding ``(1 - w) * t`` can create between close scores, and
the smallest-w tie-break keeps the sweep deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, ShapeError, ValidationError
from .matrix_ops import ScoreMatrix, _data, minmax_normalize, topk_rows  # noqa: F401  perfbench/tracer.py wraps topk_rows here
from .metrics import (
    _BLOCK_CELLS,
    GroundTruth,
    RetrievalMetrics,
    _best_relevant,
    _block_rows,
    _check_covers,
    _count_ranks,
    _is_integer,
    metrics_report,
)

__all__ = [
    "DEFAULT_WEIGHT_GRID",
    "WeightGrid",
    "RecallAtK",
    "EnsembleStep",
    "EnsembleTrace",
    "minmax_normalize",
    "sweep_weight",
    "iterative_ensemble",
    "format_trace",
]

# Default sweep values, densest just below 1 where retention pays off most.
DEFAULT_WEIGHT_GRID = (0.0, 0.5, 0.8, 0.85, 0.875, 0.9, 0.9125, 0.925, 0.9375, 0.95)

@dataclass(frozen=True)
class WeightGrid:
    """Strictly increasing retention weights, each in [0, 1]."""

    weights: tuple = DEFAULT_WEIGHT_GRID

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        if not ws:
            raise ParameterError("weight grid is empty")
        if any(not 0.0 <= w <= 1.0 for w in ws):
            raise ParameterError(f"weights must lie in [0, 1], got {ws}")
        if any(b <= a for a, b in zip(ws, ws[1:])):
            raise ParameterError(f"weights must be strictly increasing, got {ws}")
        object.__setattr__(self, "weights", ws)

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)


@dataclass(frozen=True)
class RecallAtK:
    """Scoring function: fraction of queries answered within the top k."""

    k: int = 1

    def __post_init__(self):
        if not _is_integer(self.k) or self.k < 1:
            raise ParameterError(f"metric k must be an integer >= 1, got {self.k!r}")

    @property
    def name(self) -> str:
        return f"R@{self.k}"


class EnsembleStep(NamedTuple):
    model_id: str
    chosen_w: float
    metric_value: float


@dataclass(frozen=True)
class EnsembleTrace:
    """One entry per fused model, in fusion order, the tuning metric, and final metrics."""

    steps: tuple
    metric: RecallAtK
    final_metrics: RetrievalMetrics

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


def _blend(w, s: np.ndarray, t: np.ndarray, out=None, part=None) -> np.ndarray:
    """``w * s + (1.0 - w) * t``, into ``out`` with ``part`` as scratch if given.

    The one spelling of the fold, so the recall a step records and the
    matrix it keeps come from the same operations. ``w`` is a weight or a
    column of weights.
    """
    out = np.multiply(w, s, out=out)
    part = np.multiply(1.0 - w, t, out=part)
    return np.add(out, part, out=out)


# The float32 filter of the k > 1 sweep (see _filter_ranks). Let u = 2**-24,
# float32's unit roundoff, and M = w*max|S_blk| + (1-w)*max|T_blk| for a block
# and weight. Row by row, the filter value x_j of item j approximates
# a_j - v, the float64 blend at j minus the query's best relevant score v:
# - dS_j = f32(s_j - s_lead) with |s_j - s_lead| <= 2*max|S_blk| is off by
#   u (plus 2**-53 from the float64 difference), f32(w) by u, and their
#   product rounds once more: at most 3u * 2w*max|S_blk|. The T term adds
#   3u * 2(1-w)*max|T_blk|, and their sum, at most 2M, rounds by 2uM: 8uM.
# - An offset o = f32(v - a_lead), at most 2M, is off by 2uM, and x_j = e_j - o,
#   at most 4M, rounds by 4uM: 14uM in all.
# - The float64 blends a_j are off by about 2**-52 * M each. Subnormal
#   float32 results lose at most 2**-150 each, far below u*M while M is at
#   least 2**-100, which also keeps f32(g) normal and its rounding small.
# So with g = 16uM, x_j > g proves a_j > v, x_j < -g proves a_j < v, and the
# best relevant item itself has |x| <= g. Past these bounds a block takes the
# float64 kernel: magnitudes up to 2**100 keep every float32 value (at most
# 2**103) finite, and a nonzero weight of at least 2**-100 keeps f32(w)
# normal (1 - w >= 2**-53 whenever w < 1).
_GUARD = 16 * 2.0**-24
_F32_MAX, _F32_MIN = 2.0**100, 2.0**-100


def _filter_ranks(
    ds: np.ndarray,
    dt: np.ndarray,
    w: float,
    off: np.ndarray,
    guard: float,
    x: np.ndarray,
    part: np.ndarray,
    mask: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Float32 ranks of one block at weight ``w``, and the rows they cannot decide.

    ``ds`` and ``dt`` are the block's scores less each row's lead relevant
    score, in float32, and ``off`` is each row's best relevant blend less
    its lead one, also in float32 (all zero when every row's lead is its
    best). Each row's count of ``x > guard`` is written to ``out``, whose
    dtype the counts are summed in. A row is decided when nothing but its
    best relevant item lies in ``[-guard, guard]``; one whole-block count
    proves that for every row at once, and only otherwise are the rows
    counted one by one. Returns the indices of the undecided rows. ``x``,
    ``part`` and ``mask`` are caller-owned buffers of the block's shape.
    """
    np.multiply(ds, np.float32(w), out=x)
    np.add(x, np.multiply(dt, np.float32(1.0 - w), out=part), out=x)
    if off.any():
        np.subtract(x, off[:, None], out=x)
    g = np.float32(guard)
    np.greater(x, g, out=mask)
    ranks = np.add.reduce(mask.view(np.uint8), axis=1, dtype=out.dtype, out=out)
    np.greater_equal(x, -g, out=mask)
    if np.count_nonzero(mask) == int(ranks.sum()) + len(ranks):
        return np.empty(0, np.intp)
    in_band = np.add.reduce(mask.view(np.uint8), axis=1, dtype=out.dtype) - ranks
    return np.flatnonzero(in_band > 1)


def _sweep_values(s: np.ndarray, t: np.ndarray, gt: GroundTruth, weights: tuple, k: int) -> list:
    """Recall@k of ``_blend(w, s, t)`` for every w in ``weights``, in order.

    The best relevant scores come from the (query, item) pairs alone, once
    for the whole grid. The rows are then walked in blocks, each scored for
    every w while its rows of s and t are still in cache, and the hits are
    counted per w at the end. At k = 1 a block is blended into two reused
    buffers and scored by its rows' ``argmax``, the lowest index of each
    row's maximum: a query is a hit exactly when that is its lowest best
    relevant item, so nothing is compared or counted per block. At k > 1 a
    block is copied to float32 once, less each row's lead (first) relevant
    score, and :func:`_filter_ranks` ranks it at every w, at half the bytes,
    against a guard band that bounds its rounding error. The rows it cannot
    decide, and every block or weight outside the float32 bounds, are
    blended in float64 and ranked by :func:`rankfuse.metrics._count_ranks`,
    so every rank is exact.
    """
    n, m = t.shape
    pairs = gt._queries, gt._items
    sp, tp = s[pairs], t[pairs]
    vals = _blend(np.array(weights)[:, None], sp, tp)
    best, first = _best_relevant(vals, gt)
    if k == 1:
        rows = _block_rows(t.shape)
        blend, part = np.empty((rows, m)), np.empty((rows, m))
        found = np.empty((len(weights), n), np.intp)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            a, b = blend[: hi - lo], part[: hi - lo]
            for i, wi in enumerate(weights):
                _blend(wi, s[lo:hi], t[lo:hi], out=a, part=b)
                np.argmax(a, axis=1, out=found[i, lo:hi])
        hits = np.count_nonzero(found == first, axis=1)
        return [int(h) / n for h in hits]

    # A float32 block of twice the cells has the bytes of a float64 one.
    rows = min(n, max(1, 2 * _BLOCK_CELLS // m))
    blend, part = np.empty((rows, m)), np.empty((rows, m))
    mask = np.empty((rows, m), bool)
    ds, dt, x, part32 = (np.empty((rows, m), np.float32) for _ in range(4))
    # numpy sums uint8 into uint16 faster than into uint32.
    ranks = np.empty((len(weights), n), np.uint16 if m < 2**16 else np.uint32)
    lead = gt._starts
    s_lead, t_lead, vals_lead = sp[lead], tp[lead], vals[:, lead]
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        r = hi - lo
        s_max = max(s[lo:hi].max(), -s[lo:hi].min())
        t_max = max(t[lo:hi].max(), -t[lo:hi].min())
        fits = max(s_max, t_max) <= _F32_MAX
        if fits:
            # Differences of at most 2**101: finite in float64 and in float32.
            np.subtract(s[lo:hi], s_lead[lo:hi, None], out=ds[:r])
            np.subtract(t[lo:hi], t_lead[lo:hi, None], out=dt[:r])
            off = (best[:, lo:hi] - vals_lead[:, lo:hi]).astype(np.float32)
        for i, wi in enumerate(weights):
            scale = wi * s_max + (1.0 - wi) * t_max
            q = slice(lo, hi)
            if fits and scale >= _F32_MIN and not 0.0 < wi < _F32_MIN:
                undecided = _filter_ranks(
                    ds[:r], dt[:r], wi, off[i], _GUARD * scale, x[:r], part32[:r], mask[:r],
                    ranks[i, lo:hi],
                )
                if not len(undecided):
                    continue
                q = lo + undecided
            sq = s[q]
            c = len(sq)
            a = _blend(wi, sq, t[q], out=blend[:c], part=part[:c])
            ranks[i, q] = _count_ranks(
                a, best[i, q], first[i, q], part[:c], mask[:c], np.empty(c, np.uint32)
            )
    hits = np.count_nonzero(ranks < k, axis=1)
    return [int(h) / n for h in hits]


def sweep_weight(
    s_prev: np.ndarray | ScoreMatrix,
    t_model: np.ndarray | ScoreMatrix,
    gt: GroundTruth,
    grid: WeightGrid,
    metric: RecallAtK = RecallAtK(1),
) -> tuple[float, float]:
    """Pick the retention weight maximizing the metric of w*s_prev + (1-w)*t_model.

    ``s_prev`` and ``t_model`` are finite float64 arrays of one shape, used
    as given like those of :func:`rankfuse.metrics.query_ranks`, or
    ``ScoreMatrix`` objects. Every w in the grid is scored by the recall
    kernel of :mod:`rankfuse.metrics` on the plain blend; ties go to the
    smallest w. The sweep walks blocks of query rows and scores the whole
    grid on each block while it is in cache, so it never builds a full-size
    blend; the values are the same as ranking each full blend with
    :func:`rankfuse.metrics.query_ranks`.
    """
    s, t = _data(s_prev), _data(t_model)
    if s.shape != t.shape:
        raise ShapeError(f"score matrices differ in shape: {s.shape} vs {t.shape}")
    _check_covers(t.shape, gt)
    if metric.k > gt.gallery_size:
        raise ParameterError(f"metric k must be in [1, {gt.gallery_size}], got {metric.k}")
    values = _sweep_values(s, t, gt, grid.weights, metric.k)
    # Grid order is ascending, so the first maximum is the smallest maximizer.
    best_i = values.index(max(values))
    return grid.weights[best_i], values[best_i]


def _step_matrix(x: np.ndarray | ScoreMatrix, what: str, shape, normalize: bool) -> np.ndarray:
    """A new float64 array of ``x``'s scores, min-max rescaled under ``normalize``.

    ``x`` must have ``shape``, unless that is None. The caller owns the
    result, so a fold may write over it without touching ``x``. A span that
    cannot be rescaled raises ``ValidationError`` prefixed with ``what``.
    """
    data = _data(x)
    if shape is not None and data.shape != shape:
        raise ShapeError(f"{what} has shape {data.shape}, expected {shape}")
    if not normalize:
        return np.array(data, dtype=np.float64)
    try:
        return minmax_normalize(data)
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None


def iterative_ensemble(
    models: Sequence[np.ndarray | ScoreMatrix],
    gt: GroundTruth,
    grid: WeightGrid,
    metric: RecallAtK = RecallAtK(1),
    normalize: bool = True,
    init_matrix: np.ndarray | ScoreMatrix | None = None,
    model_ids: Sequence[str] | None = None,
) -> tuple[ScoreMatrix, EnsembleTrace]:
    """Fuse an ordered list of model score matrices with per-step weight tuning.

    Parameters
    ----------
    models : sequence of ScoreMatrix or finite float64 arrays
        At least one matrix; all the same shape. Fusion order matters and is
        taken as given. ``models[i]`` is read once, when step i starts, and
        its shape is checked then, so a lazy sequence (one whose items are
        loaded when they are read) keeps one model in memory at a time.
    gt : GroundTruth
        Tuning labels for the weight sweeps (caller decides which split).
    grid, metric :
        Sweep configuration; see :func:`sweep_weight`. Each step's metric
        value is Recall@``metric.k`` of the fused matrix it keeps, and the
        trace records ``metric``.
    normalize : bool
        Min-max rescale each input matrix (and ``init_matrix``) to [0, 1]
        when its step starts. Heterogeneous models score on wildly different
        scales, so this is on by default; turn it off for raw convex fusion.
    init_matrix : ScoreMatrix or finite float64 array, optional
        Starting accumulator instead of the zero matrix, for studying
        warm-started fusion. It is never modified.
    model_ids : sequence of str, optional
        Labels for the trace; defaults to ``model-0``, ``model-1``, ...

    Arrays, told apart from ``ScoreMatrix`` by ``isinstance(x, np.ndarray)``
    as in :func:`sweep_weight`, are trusted to be finite float64, like the
    data of a ``ScoreMatrix``; only the fused matrix is validated, once. A
    model whose values span more than the float64 maximum raises
    ``ValidationError`` with a message starting ``model i: `` (``init
    matrix: `` for ``init_matrix``). A fused matrix that overflows (possible
    only without ``normalize``) raises ``ValidationError`` as well. Each
    step folds into the accumulator in place, with the step's own copy of
    its model as scratch, so neither the caller's models nor
    ``init_matrix`` is written to. The final report covers R@{1, 5, 10}
    within the gallery plus the tuning metric's k.

    Returns
    -------
    (ScoreMatrix, EnsembleTrace)
        The fused matrix and the per-step (model, weight, metric) record.
    """
    if len(models) == 0:
        raise ParameterError("need at least one model score matrix")
    ids = [f"model-{i}" for i in range(len(models))] if model_ids is None else list(model_ids)
    if len(ids) != len(models):
        raise ParameterError(f"{len(ids)} model ids for {len(models)} models")

    s = shape = None
    steps = []
    for i, model_id in enumerate(ids):
        t = _step_matrix(models[i], f"model {i}", shape, normalize)
        if s is None:
            shape = t.shape
            if init_matrix is None:
                s = np.zeros(shape)
            else:
                s = _step_matrix(init_matrix, "init matrix", shape, normalize)
        w, value = sweep_weight(s, t, gt, grid, metric)
        # Both are this call's own arrays, so the fold writes over them.
        _blend(w, s, t, out=s, part=t)
        # Free the spent scratch before the next model is read.
        del t
        steps.append(EnsembleStep(model_id=model_id, chosen_w=w, metric_value=value))

    fused = ScoreMatrix(s)
    report_ks = sorted({metric.k} | {k for k in (1, 5, 10) if k <= fused.n_gallery})
    final = metrics_report(fused, gt, report_ks)
    return fused, EnsembleTrace(steps=tuple(steps), metric=metric, final_metrics=final)


def format_trace(trace: EnsembleTrace) -> str:
    """Render a trace as key=value lines, steps labelled with its tuning metric."""
    lines = []
    for i, step in enumerate(trace.steps, start=1):
        lines.append(
            f"step={i} model={step.model_id} w={step.chosen_w!r} "
            f"{trace.metric.name}={step.metric_value:.6f}"
        )
    for k in sorted(trace.final_metrics.r_at):
        lines.append(f"final R@{k}={trace.final_metrics.r_at[k]:.6f}")
    return "\n".join(lines) + "\n"
