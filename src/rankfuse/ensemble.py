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
produces the same ranking (positive rescaling of the first model), and the
smallest-w tie-break keeps the sweep deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, ShapeError
from .matrix_ops import ScoreMatrix, minmax_normalize, topk_rows  # noqa: F401  perfbench/tracer.py wraps topk_rows here
from .metrics import (
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


def _sweep_values(s: np.ndarray, t: np.ndarray, gt: GroundTruth, weights: tuple, k: int) -> list:
    """Recall@k of ``_blend(w, s, t)`` for every w in ``weights``, in order.

    The best relevant scores come from the (query, item) pairs alone, once
    for the whole grid. The rows are then walked in blocks: each block is
    blended into two reused buffers and scored for every w while its rows of
    s and t are still in cache, and the hits are counted per w at the end.
    At k = 1 a block is scored by its rows' ``argmax``, the lowest index of
    each row's maximum: a query is a hit exactly when that is its lowest
    best relevant item, so nothing is compared or counted per block. At
    k > 1 :func:`rankfuse.metrics._count_ranks` counts ranks, with the spent
    second blend buffer as its threshold buffer and one bool mask reused for
    every block and w.
    """
    n, m = t.shape
    pairs = gt._queries, gt._items
    best, first = _best_relevant(_blend(np.array(weights)[:, None], s[pairs], t[pairs]), gt)
    rows = _block_rows(t.shape)
    blend, part = np.empty((rows, m)), np.empty((rows, m))
    mask = np.empty((rows, m), bool)
    # Per w and query: the argmax at k = 1, else the rank.
    found = np.empty((len(weights), n), np.intp if k == 1 else np.uint32)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        a, b = blend[: hi - lo], part[: hi - lo]
        for i, wi in enumerate(weights):
            _blend(wi, s[lo:hi], t[lo:hi], out=a, part=b)
            if k == 1:
                np.argmax(a, axis=1, out=found[i, lo:hi])
            else:
                _count_ranks(
                    a, best[i, lo:hi], first[i, lo:hi], b, mask[: hi - lo], found[i, lo:hi]
                )
    hits = np.count_nonzero(found == first if k == 1 else found < k, axis=1)
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
    s, t = (x if isinstance(x, np.ndarray) else x.data for x in (s_prev, t_model))
    if s.shape != t.shape:
        raise ShapeError(f"score matrices differ in shape: {s.shape} vs {t.shape}")
    _check_covers(t.shape, gt)
    if metric.k > gt.gallery_size:
        raise ParameterError(f"metric k must be in [1, {gt.gallery_size}], got {metric.k}")
    values = _sweep_values(s, t, gt, grid.weights, metric.k)
    # Grid order is ascending, so the first maximum is the smallest maximizer.
    best_i = values.index(max(values))
    return grid.weights[best_i], values[best_i]


def iterative_ensemble(
    models: Sequence[ScoreMatrix],
    gt: GroundTruth,
    grid: WeightGrid,
    metric: RecallAtK = RecallAtK(1),
    normalize: bool = True,
    init_matrix: ScoreMatrix | None = None,
    model_ids: Sequence[str] | None = None,
) -> tuple[ScoreMatrix, EnsembleTrace]:
    """Fuse an ordered list of model score matrices with per-step weight tuning.

    Parameters
    ----------
    models : sequence of ScoreMatrix
        At least one matrix; all the same shape. Fusion order matters and is
        taken as given.
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
    init_matrix : ScoreMatrix, optional
        Starting accumulator instead of the zero matrix, for studying
        warm-started fusion. It is never modified.
    model_ids : sequence of str, optional
        Labels for the trace; defaults to ``model-0``, ``model-1``, ...

    The steps fold plain arrays, finite because the inputs are
    ``ScoreMatrix`` objects; only the fused matrix is validated, once. A
    model whose values span more than the float64 maximum, or a fused
    matrix that overflows (possible only without ``normalize``), raises
    ``ValidationError``. The final report covers R@{1, 5, 10} within the
    gallery plus the tuning metric's k.

    Returns
    -------
    (ScoreMatrix, EnsembleTrace)
        The fused matrix and the per-step (model, weight, metric) record.
    """
    if len(models) == 0:
        raise ParameterError("need at least one model score matrix")
    shape = models[0].data.shape
    for i, m in enumerate(models):
        if m.data.shape != shape:
            raise ShapeError(f"model {i} has shape {m.data.shape}, expected {shape}")
    ids = [f"model-{i}" for i in range(len(models))] if model_ids is None else list(model_ids)
    if len(ids) != len(models):
        raise ParameterError(f"{len(ids)} model ids for {len(models)} models")

    if init_matrix is None:
        s = np.zeros(shape)
    elif init_matrix.data.shape != shape:
        raise ShapeError(f"init matrix has shape {init_matrix.data.shape}, expected {shape}")
    else:
        s = minmax_normalize(init_matrix.data) if normalize else init_matrix.data

    steps = []
    for model_id, m in zip(ids, models):
        t = minmax_normalize(m.data) if normalize else m.data
        w, value = sweep_weight(s, t, gt, grid, metric)
        s = _blend(w, s, t)
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
