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
from .matrix_ops import ScoreMatrix, minmax_normalize, topk_rows  # noqa: F401  perfbench/tracer.py wraps topk_rows here
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
    """One entry per fused model, in fusion order, the tuning metric, and final metrics."""

    steps: tuple
    metric: RecallAtK
    final_metrics: RetrievalMetrics

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


def sweep_weight(
    s_prev: ScoreMatrix,
    t_model: ScoreMatrix,
    gt: GroundTruth,
    grid: WeightGrid,
    metric: RecallAtK = RecallAtK(1),
) -> tuple[float, float]:
    """Pick the retention weight maximizing the metric of w*s_prev + (1-w)*t_model.

    Every w in the grid is evaluated in order, each scored by one
    :func:`rankfuse.metrics.query_ranks` pass over the plain blended array,
    which is finite because both inputs are; ties go to the smallest w.
    """
    if s_prev.data.shape != t_model.data.shape:
        raise ShapeError(
            f"score matrices differ in shape: {s_prev.data.shape} vs {t_model.data.shape}"
        )
    if metric.k > t_model.n_gallery:
        raise ParameterError(f"metric k must be in [1, {t_model.n_gallery}], got {metric.k}")

    def evaluate(w: float) -> float:
        ranks = query_ranks(w * s_prev.data + (1.0 - w) * t_model.data, gt)
        return int(np.count_nonzero(ranks < metric.k)) / t_model.n_queries

    values = [evaluate(w) for w in grid.weights]
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

    Each normalized model and each kept blend is validated once; a model
    whose values span more than the float64 maximum raises
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
        s = ScoreMatrix(np.zeros(shape))
    elif init_matrix.data.shape != shape:
        raise ShapeError(f"init matrix has shape {init_matrix.data.shape}, expected {shape}")
    else:
        s = ScoreMatrix(minmax_normalize(init_matrix.data)) if normalize else init_matrix

    steps = []
    for model_id, m in zip(ids, models):
        t = ScoreMatrix(minmax_normalize(m.data)) if normalize else m
        w, value = sweep_weight(s, t, gt, grid, metric)
        s = ScoreMatrix(w * s.data + (1.0 - w) * t.data)
        steps.append(EnsembleStep(model_id=model_id, chosen_w=w, metric_value=value))

    report_ks = sorted({metric.k} | {k for k in (1, 5, 10) if k <= s.n_gallery})
    final = metrics_report(s, gt, report_ks)
    return s, EnsembleTrace(steps=tuple(steps), metric=metric, final_metrics=final)


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
