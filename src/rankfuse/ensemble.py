"""Iterative convex fusion of model score matrices.

Starting from S = 0, each model's matrix t is folded in as
S <- w * S + (1 - w) * t, where w is picked per step by sweeping a weight
grid and keeping the value that maximizes a scoring function (Recall@k) on
held-out ground truth. Keeping 1 in the grid makes every step a no-op option,
so the tuning metric can never regress. The procedure is order-dependent on
purpose: later models gradually refine the accumulated matrix.

Because the fused operand at the first step is all-zero, every w < 1 there
produces the same ranking (positive rescaling of the first model), and the
smallest-w tie-break keeps the sweep deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, ShapeError
from .matrix_ops import ScoreMatrix, topk_rows  # noqa: F401  perfbench/tracer.py wraps this global
from .metrics import GroundTruth, RetrievalMetrics, metrics_report, query_ranks

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
        if self.k < 1:
            raise ParameterError(f"metric k must be >= 1, got {self.k}")

    @property
    def name(self) -> str:
        return f"R@{self.k}"


class EnsembleStep(NamedTuple):
    model_id: str
    chosen_w: float
    metric_value: float


@dataclass(frozen=True)
class EnsembleTrace:
    """One entry per fused model, in fusion order, plus final metrics."""

    steps: tuple
    final_metrics: RetrievalMetrics

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


def minmax_normalize(data: np.ndarray) -> np.ndarray:
    """Affine-rescale a matrix to [0, 1]; a constant matrix maps to zeros."""
    lo, hi = data.min(), data.max()
    span = hi - lo
    if span == 0:
        return np.zeros_like(data)
    return (data - lo) / span


def sweep_weight(
    s_prev: ScoreMatrix,
    t_model: ScoreMatrix,
    gt: GroundTruth,
    grid: WeightGrid,
    metric: RecallAtK = RecallAtK(1),
) -> tuple[float, float]:
    """Pick the retention weight maximizing the metric of w*s_prev + (1-w)*t_model.

    Every w in the grid is evaluated in order, each scored by one
    :func:`rankfuse.metrics.query_ranks` pass over the fused matrix; ties go
    to the smallest w.
    """
    if s_prev.data.shape != t_model.data.shape:
        raise ShapeError(
            f"score matrices differ in shape: {s_prev.data.shape} vs {t_model.data.shape}"
        )
    if gt.n_queries != t_model.n_queries or gt.gallery_size != t_model.n_gallery:
        raise ShapeError(
            f"ground truth ({gt.n_queries} x {gt.gallery_size}) does not cover "
            f"score matrices ({t_model.n_queries} x {t_model.n_gallery})"
        )
    if metric.k > t_model.n_gallery:
        raise ParameterError(f"metric k must be in [1, {t_model.n_gallery}], got {metric.k}")

    def evaluate(w: float) -> float:
        fused = ScoreMatrix(w * s_prev.data + (1.0 - w) * t_model.data)
        hits = int(np.count_nonzero(query_ranks(fused.data, gt) < metric.k))
        return hits / fused.n_queries

    values = [evaluate(w) for w in grid.weights]

    # Grid order is ascending, so a strict comparison lands on the smallest
    # maximizer.
    best_i = 0
    for i in range(1, len(values)):
        if values[i] > values[best_i]:
            best_i = i
    return grid.weights[best_i], values[best_i]


def iterative_ensemble(
    models: Sequence[ScoreMatrix],
    gt: GroundTruth,
    grid: WeightGrid,
    metric: RecallAtK = RecallAtK(1),
    normalize: bool = True,
    init_matrix: ScoreMatrix | None = None,
    model_ids: Sequence[str] | None = None,
    report_ks: Sequence[int] | None = None,
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
        value is Recall@``metric.k`` of the fused matrix it keeps.
    normalize : bool
        Min-max rescale every input matrix (and ``init_matrix``) to [0, 1]
        before fusing. Heterogeneous models score on wildly different scales,
        so this is on by default; turn it off for raw convex fusion.
    init_matrix : ScoreMatrix, optional
        Starting accumulator instead of the zero matrix, for studying
        warm-started fusion.
    model_ids : sequence of str, optional
        Labels for the trace; defaults to ``model-0``, ``model-1``, ...
    report_ks : sequence of int, optional
        Cutoffs for the final metric report; defaults to {1, 5, 10} clipped
        to the gallery size, plus the tuning metric's k.

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

    mats = [minmax_normalize(m.data) if normalize else m.data for m in models]
    if init_matrix is None:
        s = np.zeros(shape)
    else:
        if init_matrix.data.shape != shape:
            raise ShapeError(
                f"init matrix has shape {init_matrix.data.shape}, expected {shape}"
            )
        s = minmax_normalize(init_matrix.data) if normalize else init_matrix.data.copy()

    steps = []
    for model_id, t in zip(ids, mats):
        w, value = sweep_weight(ScoreMatrix(s), ScoreMatrix(t), gt, grid, metric)
        s = w * s + (1.0 - w) * t
        steps.append(EnsembleStep(model_id=model_id, chosen_w=w, metric_value=value))

    fused = ScoreMatrix(s)
    if report_ks is None:
        report_ks = sorted({metric.k} | {k for k in (1, 5, 10) if k <= fused.n_gallery})
    trace = EnsembleTrace(steps=tuple(steps), final_metrics=metrics_report(fused, gt, report_ks))
    return fused, trace


def format_trace(trace: EnsembleTrace, metric: RecallAtK = RecallAtK(1)) -> str:
    """Render a trace as a line-oriented key=value report."""
    lines = []
    for i, step in enumerate(trace.steps, start=1):
        lines.append(
            f"step={i} model={step.model_id} w={step.chosen_w!r} "
            f"{metric.name}={step.metric_value:.6f}"
        )
    for k in sorted(trace.final_metrics.r_at):
        lines.append(f"final R@{k}={trace.final_metrics.r_at[k]:.6f}")
    return "\n".join(lines) + "\n"
