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
the smallest-w tie-break keeps the sweep deterministic. The sweep uses
this: an all-zero block of rows is ranked once per step, with a band
around each row's best relevant score that bounds that rounding, and only
rows with a second score in the band are ranked again at each w.

The sweep is one walk over blocks of rows, the same for every k, into one
array of ranks. At each weight a block takes the first rule that holds:
the zero shortcut, then a weight between two anchors (below), then the
float32 filter, and an exact float64 rank count for the rows any of these
leave. k is read only where a rank turns into a hit: ``rank < k``, and
the anchors' rule for which rows are decided. What the walk leaves open it
queues as cells, over a base rank it has already written, and one exact
ranker adds each row's count over its queued cells: whenever a run of
weights has queued a block's cells, and once the walk is done.

Before any of these, a candidate prefilter bounds what can count.
A blend ``w*s_j + (1-w)*t_j`` never exceeds ``max(s_j, t_j)``, so only
items whose larger score reaches the row's lowest best relevant blend over
the grid can rank above its relevant item at any w: the upper-bound pruning
of Fagin, Lotem and Naor's Threshold Algorithm and of WAND. When a block
holds few such candidates (at most 1/16 of its cells, about 1% of them in a
person-ID search with several relevant items per query), its candidate
cells are queued at every w over a base rank of 0, and so ranked from
those cells alone. The first block with more ends the prefilter for the
step, so a step where half the cells are candidates pays for one block.

The filter ranks every row only at the grid's anchors: its ends and both
ends of every gap wider than the mean spacing (0, 0.5, 0.8 and 0.95 for
the default grid). Each item's blend less a relevant item's is linear in
w, so at a weight between two anchors a row is decided by what the filter
proved at the two: an item above the best relevant score at both stays
above it between them, and one not below the lead relevant score at
either stays below it. A row's base rank there is its count of items
above at both: k of them make it a miss, and at most k items not below the
lead at either (the lead is one) make it a hit. Only the other rows, a few
percent of them inside the default grid's dense tail, need more: their
open cells, not below the lead at either anchor and not above at both, are
queued at the weights between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, ShapeError, ValidationError
from .matrix_ops import _BLOCK_CELLS, ScoreMatrix, _block_rows, _cache_blocks, _data, _row_blocks, _row_buffer
from .matrix_ops import minmax_normalize
from .matrix_ops import topk_rows  # noqa: F401  perfbench/tracer.py wraps topk_rows here
from .metrics import (
    GroundTruth,
    RetrievalMetrics,
    _band_ranks,
    _best_relevant,
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
        try:
            ws = tuple(float(w) for w in self.weights)
        except (TypeError, ValueError):
            raise ParameterError(f"weight grid must be a sequence of numbers, got {self.weights!r}") from None
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


# The guard band of the sweep's float32 filter, which metrics._band_ranks
# tests as the band [-g, g]. Let u = 2**-24, float32's unit roundoff, and
# M = w*max|S_blk| + (1-w)*max|T_blk| for a block and weight. Row by row,
# the filter value x_j of item j approximates a_j - v, the float64 blend at
# j minus the query's best relevant score v:
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
# The same band decides rows between two anchors (see _anchors) for every
# weight there, from two masks the filter keeps at each: "above", x_j > g,
# and "ahead", e_j >= -g, where e_j is x_j before the offset is taken off and
# approximates a_j - a_lead. Take the exact lines L_j(w) = w*s_j + (1-w)*t_j,
# h_j = L_j - max_r L_r over the relevant items r, and d_j = L_j - L_lead,
# and let M_w be M at w. While M_w >= 2**-100, a float64 blend at w is within
# 2**-51 * M_w of its line: fl(w*s_j) and fl(c*t_j) each err by 2**-53 of
# their size, c = fl(1 - w) is exact for w >= 1/2 and else off by at most
# 2**-54 <= 2**-53 * (1 - w), and the sum errs by 2**-53 * M_w. With the 14uM
# and 8uM bounds above, x_j > g at an anchor w_a gives h_j(w_a) > uM_a, and
# e_j < -g gives d_j(w_a) < -7uM_a. d_j and M_w are linear in w and h_j is
# concave (a line less a max of lines), so between anchors w_a < w_b where
# the filter ran both bounds hold at every w, with M_w >= min(M_a, M_b) >=
# 2**-100, and beat the 2**-50 * M_w error of a difference of two float64
# blends there. So an entry above at both anchors scores above the best
# relevant blend at every w between them, and one ahead at neither scores
# below the lead's. A row with k entries above at both anchors misses there,
# and one with at most k entries ahead at either anchor (the lead, e = 0, is
# one) hits: its best relevant item and every item ranked before it are
# among them. Any other row's rank at each w between is its count of entries
# above at both plus the exact count over its open cells, those ahead at
# either anchor and not above at both. Where an anchor took the float64
# kernel, the weights between it and its neighbours rank every row.
# The band, around each row's best relevant raw score v, that ranks an
# all-zero S block once for every w < 1. There fl(w*s_j) is +-0, exact, and
# adding it to fl(c*t_j), c = fl(1 - w) > 0, changes no value, so each
# blend is fl(c*t_j) and ranks t_j itself up to the ties rounding makes.
# Let u = 2**-53 and M = max|T_blk|, and keep the float32 bounds, so that
# M <= 2**100 and cM >= 2**-100. Each product is off by at most
# u*cM + 2**-1075, and the band's edges fl(v +- g) by u(M + g). With
# g = 4uM, t_j > fl(v + g) gives c*t_j - c*v > c(g - uM - ug), which beats
# both products' errors, 2ucM + 2**-1074, by cuM(1 - 4u) - 2**-1074 > 0:
# fl(c*t_j) > fl(c*v). Below the band likewise fl(c*t_j) < fl(c*v). So a
# row whose band holds v alone has the same rank at every such w.
_ZERO_GUARD = 4 * 2.0**-53
# The candidate prefilter's floor under V, a row's lowest best relevant blend
# over the grid: F = fl(V - fl(_FLOOR_REL*|V| + _FLOOR_ABS)). An entry with
# A_j = max(s_j, t_j) < F blends strictly below V, so below the row's best
# relevant blend, at every grid weight, and never counts in a rank. Let
# u = 2**-53 and e = 2**-1075, a rounded product or sum x being off by at most
# u|x| + e. Rounding is monotone, w >= 0 and c = fl(1 - w) >= 0, so
# fl(w*s_j) <= fl(w*A_j), fl(c*t_j) <= fl(c*A_j) and the blend is at most
# fl(fl(w*A_j) + fl(c*A_j)). With 1 - u <= w + c <= 1 + u, that sum is at most
# A_j + (2u + u**2)|A_j| + 2e before its own rounding, so the blend is below
# A_j + 4u|A_j| + 4e = h(A_j) + 2**-1073, where h(x) = x + 2**-51 * |x| is
# strictly increasing. A_j < F then needs only h(F) + 2**-1073 <= V. The
# power-of-two product and the two roundings give G = fl(2**-50|V| + 2**-1070)
# >= (8u|V| + 2**-1070 - e)(1 - u) and h(F) <= V - G + (5u + 4u**2)(|V| + G),
# and 8u(1 - 7u) > 5u + 4u**2 and 2**-1070 * (1 - 1/32)(1 - 7u) > 2**-1073 give
# that. At every weight the row's best relevant blend, bit-equal to the
# block's own, is at least V, so the item holding it has A >= F and is a
# candidate. An infinite V (float64 overflow) gets no floor.
_FLOOR_REL, _FLOOR_ABS = 2.0**-50, 2.0**-1070
# A block is ranked from its candidate cells alone when they are at most
# 1/_SPARSE of its cells. Ranking a queued cell at all ten default weights
# costs about 112-170 ns, against 8.5-13 ns per cell for the block path; the
# candidate search, 2.9-3.9 ns per cell, is paid before either (2-core Xeon,
# numpy 2.4; quartiles of 21 sweeps each at R@1 and R@5 of a 1000 x 1000
# input with 62,000 candidates, its block path timed with the prefilter off
# right after each). Sweep by sweep the block path costs 1/14 to 1/12.5 of
# the queued one per cell, so break-even lies between about 1/14 and 1/12
# of a block's cells, and 1/16 takes only blocks whose cells cost less.
_SPARSE = 16


def _magnitude(x: np.ndarray) -> float:
    """The largest absolute value in ``x``."""
    return max(x.max(), -x.min())


def _zero_ranks(s: np.ndarray, t: np.ndarray, s_lead: np.ndarray, v: np.ndarray, mask: np.ndarray, out: np.ndarray):
    """Rank a block whose rows of ``s`` are all +-0 once for the whole grid, else ``None``.

    ``s`` and ``t`` are the block's rows, ``s_lead`` each row's lead (first)
    relevant score in ``s`` and ``v`` each row's best relevant score in
    ``t``. A nonzero lead rules the block out before ``s`` is scanned, and
    so does a ``t`` outside the float32 bounds. Otherwise each row's count
    of entries above its band goes into ``out``: its rank in every blend at
    a weight w < 1 with ``(1 - w) * t_max >= _F32_MIN`` (see
    ``_ZERO_GUARD``). Returns ``t_max`` and the rows with a second entry in
    the band, whose ranks still depend on w.
    """
    if s_lead.any() or s.any():
        return None
    t_max = _magnitude(t)
    if not _F32_MIN <= t_max <= _F32_MAX:
        return None
    g = _ZERO_GUARD * t_max
    return t_max, _band_ranks(t, v[:, None] + g, v[:, None] - g, mask, out)


def _candidates(s: np.ndarray, t: np.ndarray, floor: np.ndarray, x: np.ndarray, mask: np.ndarray):
    """The flat indices of a block's cells with ``max(s, t) >= floor``, or None past 1/16 of them.

    ``floor`` holds each row's floor (see ``_FLOOR_REL``); ``x`` and
    ``mask`` are float64 and bool scratch of the block's shape.
    """
    np.maximum(s, t, out=x)
    with _row_buffer(mask.shape[1]):
        np.greater_equal(x, floor[:, None], out=mask)
    if np.count_nonzero(mask) * _SPARSE > mask.size:
        return None
    return np.flatnonzero(mask)


def _cell_ranks(s, t, cells, weights, best, first, out, blend, part, mask) -> None:
    """Add to each row's rank, at every weight, its exact count over the queued ``cells``.

    ``cells`` are flat indices ``row * m + column`` into ``s`` and ``t``,
    and ``out[i]`` already holds each row's count over its other cells at
    ``weights[i]``: 0 for a block the candidate prefilter took, whose other
    cells blend below the row's best relevant blend ``best[i]`` (see
    ``_FLOOR_REL``), and the count proven above at both anchors for an
    undecided row (see ``_GUARD``). The exact rule of
    :func:`rankfuse.metrics._count_ranks`, ``#(a > v) + #(a == v and j < r)``
    for v = ``best[i]`` and r = ``first[i]``, is counted over the cells and
    added to ``out[i]``, so a row's cells may come in several calls.
    ``blend`` and ``part`` (float64) and ``mask`` (bool) are flat scratch of
    at least twice ``len(cells)`` cells: the second halves of ``blend`` and
    ``part`` hold the cells' s and t, and per weight the first halves and
    ``mask`` the cells' blends, their rows' v and which of them rank ahead
    of r.
    """
    c = len(cells)
    q, j = np.divmod(cells, s.shape[1])
    sq, tq = blend[c : 2 * c], part[c : 2 * c]
    sq[:] = s[q, j]
    tq[:] = t[q, j]
    for i, w in enumerate(weights):
        a = _blend(w, sq, tq, out=blend[:c], part=part[:c])
        v = np.take(best[i], q, out=part[:c])
        ahead = np.greater(a, v, out=mask[:c])
        # Every row's r ties its own v, and few other cells do.
        tied = np.flatnonzero(a == v)
        ahead[tied] = j[tied] < first[i, q[tied]]
        np.add(out[i], np.bincount(q[ahead], minlength=out.shape[1]), out=out[i], casting="unsafe")


def _drain(queue: dict, limit: int, s, t, weights, best, first, ranks, scratch: tuple) -> None:
    """Rank, and take out of ``queue``, each range holding at least ``limit`` cells.

    ``queue`` maps a range ``(a, b)`` of weight indices to a list of arrays
    of flat indices, queued at weights ``a`` to ``b - 1`` over base ranks
    already in ``ranks``. A range's arrays are joined once popped, so they
    go as soon as the join is made, and :func:`_cell_ranks` adds their
    counts with ``scratch``, its three flat buffers, at most half their
    length at a time. Drained whenever a range reaches their length, a range
    never holds two blocks' cells when the walk's scratch is a block's.
    """
    size = len(scratch[0]) // 2
    for a, b in [key for key, parts in queue.items() if sum(map(len, parts)) >= limit]:
        cells = np.concatenate(queue.pop((a, b)))
        for lo in range(0, len(cells), size):
            _cell_ranks(s, t, cells[lo : lo + size], weights[a:b], best[a:b], first[a:b], ranks[a:b], *scratch)


def _anchors(weights: tuple) -> list:
    """The indices of the grid's anchors: the weights the sweep ranks in full.

    They are the first and last weights and both ends of every gap wider
    than the mean spacing ``(w_last - w_first) / len(weights)``; a grid of
    3 or fewer weights is all anchors. For the default grid they are 0,
    0.5, 0.8 and 0.95, and the six weights between 0.8 and 0.95 rank only
    the rows those two leave undecided (see ``_GUARD``).
    """
    n = len(weights)
    if n <= 3:
        return list(range(n))
    mean = (weights[-1] - weights[0]) / n
    wide = [i for i in range(n - 1) if weights[i + 1] - weights[i] > mean]
    return sorted({0, n - 1}.union(wide, [i + 1 for i in wide]))


def _guard(w: float, s_max, t_max):
    """The guard band at weight ``w`` for rows of these magnitudes, or False.

    False where the float32 bounds fail at ``w`` and the rows take float64.
    """
    scale = w * s_max + (1.0 - w) * t_max
    return scale >= _F32_MIN and not 0.0 < w < _F32_MIN and np.float32(_GUARD * scale)


def _filter_ranks(ds, dt, off, w, g, x, part, mask, out, proof=None) -> np.ndarray:
    """The float32 filter at weight ``w``: band-count ``w * ds + (1 - w) * dt - off``.

    ``ds`` and ``dt`` are float32 rows less each row's lead relevant score,
    ``off`` each row's offset from that lead to its best relevant blend, and
    ``g`` the guard band. ``x`` and ``part`` are float32 scratch, and ``mask``
    and ``out`` go to :func:`rankfuse.metrics._band_ranks`, whose band rows
    are returned. At w = 0 and w = 1 the blend is ``dt`` or ``ds`` itself,
    read as it is, or copied into ``x`` less the offset: ``fl(0*ds) +
    fl(1*dt)`` is ``dt`` but for the sign of a zero, which neither band
    compare (``> g``, ``>= -g`` with g > 0) sees, and it makes fewer
    roundings than ``_GUARD`` allows for. Given a pair of bool buffers,
    ``proof`` keeps this anchor's two masks (see ``_GUARD``): "above",
    ``x > g``, and "ahead", ``x >= -g`` before the offset is taken off. With
    no offset in the block these are the band count's own two compares, so
    the count makes them into ``proof``.
    """
    if w == 0.0 or w == 1.0:
        e = dt if w == 0.0 else ds
    else:
        e = np.multiply(ds, np.float32(w), out=x)
        np.add(e, np.multiply(dt, np.float32(1.0 - w), out=part), out=e)
    if not off.any():
        return _band_ranks(e, g, -g, proof or mask, out)
    if proof:
        np.greater_equal(e, -g, out=proof[1])
    with _row_buffer(e.shape[1]):
        x = np.subtract(e, off[:, None], out=x)
    if proof:
        np.greater(x, g, out=proof[0])
    return _band_ranks(x, g, -g, mask, out)


def _undecided(left: tuple, right: tuple, k: int, sure: np.ndarray) -> np.ndarray:
    """The open cells of the rows two anchors' proofs leave undecided for every weight between them.

    ``left`` and ``right`` are the anchors' (above, ahead) masks from
    :func:`_filter_ranks`; ``left``'s are written over. Each row's count of
    entries above at both ends goes into ``sure``: at least k is a miss
    and, on a decided row, fewer is a hit, so ``sure`` is a valid rank for
    every decided row. A row is decided when it misses or has at most k
    entries ahead at either end. An undecided row's open cells, ahead at
    either end and not above at both, are the only ones whose order against
    its best relevant blend is not proven between the ends (see
    ``_GUARD``); they are returned as flat indices into the rows.
    """
    above = np.logical_and(left[0], right[0], out=left[0])
    np.add.reduce(above.view(np.uint8), axis=1, dtype=sure.dtype, out=sure)
    ahead = np.logical_or(left[1], right[1], out=left[1])
    rows = np.flatnonzero((sure < k) & (np.add.reduce(ahead.view(np.uint8), axis=1, dtype=sure.dtype) > k))
    i, j = np.nonzero(ahead[rows] & ~above[rows])
    return rows[i] * above.shape[1] + j


def _sweep_values(s: np.ndarray, t: np.ndarray, gt: GroundTruth, weights: tuple, k: int) -> list:
    """Recall@k of ``_blend(w, s, t)`` for every w in ``weights``, in order.

    The best relevant scores come from the (query, item) pairs alone, once
    for the whole grid. The rows are then walked in blocks, each ranked at
    every w while its rows of s and t are still in cache, into one array of
    ranks whose hits, ``ranks < k``, are counted per w at the end. The cells
    the walk leaves open go into one queue, at the weights where they are
    open, over a base rank the walk has already written. Whenever a run of
    weights has queued a block's cells, and once the walk is done,
    :func:`_drain` has :func:`_cell_ranks` add to each row's base rank its
    exact count over its queued cells, by the rule of
    :func:`rankfuse.metrics._count_ranks`, half a block's cells at a time.

    Until a block has more, a block whose cells with ``max(s, t)`` at or
    above its row's floor (its lowest best relevant blend over the grid,
    less a rounding margin; see ``_FLOOR_REL``) are at most 1/16 of its
    cells is queued whole (:func:`_candidates`): those cells at every w,
    over a base rank of 0, since no other cell can count in a rank at any w.

    Every other block is ranked at each weight by the first of these rules
    that holds:

    1. A block whose rows of s are all +-0 (the first fusion step) has been
       ranked once for the whole grid by :func:`_zero_ranks`: at every
       w < 1 within the float32 bounds, its rows rank as in t itself.
    2. A weight between two anchors (:func:`_anchors`) where the float32
       filter runs at both is decided by what the filter proved at the two
       (:func:`_undecided`): an entry proven above its row's best
       relevant score at both anchors is above it at every w between them,
       and one not proven below its lead relevant score at either is below
       it (see ``_GUARD``). Each row's base rank there is its count of
       entries above at both, which decides a row with k of them (a miss)
       or with at most k entries ahead at either anchor (a hit). The other
       rows queue their open cells, ahead at either anchor and not above
       at both, at the weights between.
    3. Within the float32 bounds, the float32 filter: the block is copied
       to float32 once, less each row's lead (first) relevant score,
       blended at every w, at half the bytes, and less each row's offset
       from that lead to its best relevant blend. The weights 0 and 1
       blend nothing: their blend is the copy of t or of s itself, read as
       it is or copied less the offset (:func:`_filter_ranks`). Its entries
       above a guard band that bounds the rounding error are counted by
       :func:`rankfuse.metrics._band_ranks`. At an anchor the filter also
       keeps the masks that rule 2 decides by (in a block with no offset,
       the band count's own two compares), and at the second anchor of a
       pair it applies rule 2 to the weights between.
    4. Otherwise the rows are blended in float64 at that w.

    Rules 1 and 3 also find the rows with a second entry in their band, and
    those rows alone go on to rule 4, whose float64 blend is ranked exactly
    by :func:`rankfuse.metrics._count_ranks`. A block holds twice
    ``_BLOCK_CELLS`` cells, so that its float32 copies have the bytes of a
    cache-sized float64 block. The calls that broadcast a per-row column
    over a block (the shifted copies, the offsets, the candidate floor and
    the zero shortcut's band) go through a one-row ufunc buffer
    (:func:`rankfuse.matrix_ops._row_buffer`). The float32 buffers and the
    proof masks are made when a block first reaches the filter, so a sweep
    that the zero shortcut or the prefilter takes whole never makes them.
    """
    n, m = t.shape
    pairs = gt._queries, gt._items
    sp, tp = s[pairs], t[pairs]
    vals = _blend(np.array(weights)[:, None], sp, tp)
    best, first = _best_relevant(vals, gt)
    # Each row's floor under its lowest best relevant blend (see _FLOOR_REL).
    floor = best.min(axis=0)
    floor -= _FLOOR_REL * np.abs(floor) + _FLOOR_ABS
    floor[np.isnan(floor)] = -np.inf
    # From t alone, for the blocks whose rows of s are all zero.
    t_best = _best_relevant(tp, gt)[0]
    # Each weight between two anchors, mapped to the two.
    anchors = _anchors(weights)
    between = {i: (a, b) for a, b in zip(anchors, anchors[1:]) for i in range(a + 1, b)}
    rows = _block_rows(t.shape, 2 * _BLOCK_CELLS)
    blend, part = np.empty((rows, m)), np.empty((rows, m))
    mask = np.empty((rows, m), bool)
    # numpy sums uint8 into uint16 faster than into uint32. The base rank of
    # a queued cell's row is 0 where the walk writes none.
    ranks = np.zeros((len(weights), n), np.uint16 if m < 2**16 else np.uint32)
    s_lead, t_lead, vals_lead = sp[gt._starts], tp[gt._starts], vals[:, gt._starts]
    # The proof masks of two anchors that bound weights, consecutive anchors
    # taking turns, after the four float32 buffers; all made on first use.
    turn = {a: 4 + j % 2 for j, a in enumerate(anchors) if {a - 1, a + 1} & between.keys()}
    scratch = []
    # The cells left open, flat indices into s and t, per range of weight indices.
    queue = {}
    flat = blend.reshape(-1), part.reshape(-1), mask.reshape(-1)
    sparse = True
    for lo, hi in _row_blocks(n, rows):
        # A range that holds a block's cells is ranked while the scratch is free.
        _drain(queue, blend.size, s, t, weights, best, first, ranks, flat)
        q, r = slice(lo, hi), hi - lo
        sq, tq = s[q], t[q]
        zero = _zero_ranks(sq, tq, s_lead[q], t_best[q], mask[:r], ranks[0, q])
        if sparse and not zero:
            # The first block with too many candidates ends the prefilter.
            cells = _candidates(sq, tq, floor[q], blend[:r], mask[:r])
            sparse = cells is not None
            if sparse:
                queue.setdefault((0, len(weights)), []).append(cells + lo * m)
                continue
        fits = not zero
        if fits:
            s_max, t_max = _magnitude(sq), _magnitude(tq)
            fits = max(s_max, t_max) <= _F32_MAX
        if fits:
            if not scratch:
                scratch.extend(np.empty((rows, m), np.float32) for _ in range(4))
                scratch.extend(np.empty((2, rows, m), bool) for _ in range(2))
            ds, dt, x32, part32 = (b[:r] for b in scratch[:4])
            # Differences of at most 2**101: finite in float64 and in float32.
            with _row_buffer(m):
                np.subtract(sq, s_lead[q, None], out=ds)
                np.subtract(tq, t_lead[q, None], out=dt)
            off = (best[:, q] - vals_lead[:, q]).astype(np.float32)
        # The float32 filter's guard band at each weight, or False.
        guards = [fits and _guard(w, s_max, t_max) for w in weights]
        for i, w in enumerate(weights):
            rest, pair = q, between.get(i)
            if zero and (1.0 - w) * zero[0] >= _F32_MIN:
                # Weight 0, the first where the rule holds, has _zero_ranks' counts.
                ranks[i, q] = ranks[0, q]
                rest = zero[1] + lo
            elif pair and guards[pair[0]] and guards[pair[1]]:
                # Ranked at the pair's second anchor (rule 2).
                continue
            elif g := guards[i]:
                proof = i in turn and tuple(scratch[turn[i]][:, :r])
                rest = _filter_ranks(ds, dt, off[i], w, g, x32, part32, mask[:r], ranks[i, q], proof) + lo
                # The pair this anchor closes, if any: the one holding weight i - 1.
                a, b = between.get(i - 1, (0, -1))
                if b == i and guards[a]:
                    cells = _undecided(tuple(scratch[turn[a]][:, :r]), proof, k, ranks[a + 1, q])
                    ranks[a + 2 : i, q] = ranks[a + 1, q]
                    queue.setdefault((a + 1, i), []).append(cells + lo * m)
            # Float64 on the rows left, if any: a block is never empty.
            if rest is q or len(rest):
                sr, tr = s[rest], t[rest]
                c = len(sr)
                x = _blend(w, sr, tr, out=blend[:c], part=part[:c])
                ranks[i, rest] = _count_ranks(x, best[i, rest], first[i, rest])
    _drain(queue, 0, s, t, weights, best, first, ranks, flat)
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

    ``s_prev`` and ``t_model`` are ``ScoreMatrix`` objects or matrices of
    one shape: a 2-D float64 array is used as given and trusted to be
    finite, like those of :func:`rankfuse.metrics.query_ranks`, and any
    other form is checked (see ``matrix_ops._data``). Every w in the grid
    is scored by the recall kernel of :mod:`rankfuse.metrics` on the plain
    blend; ties go to the smallest w. The sweep walks blocks of query rows
    and scores the whole grid on each block while it is in cache, so it
    never builds a full-size blend; the values are the same as ranking each
    full blend with :func:`rankfuse.metrics.query_ranks`.
    """
    s, t = _data(s_prev, "s_prev"), _data(t_model, "t_model")
    if s.shape != t.shape:
        raise ShapeError(f"score matrices differ in shape: {s.shape} vs {t.shape}")
    _check_covers(t.shape, gt)
    if metric.k > gt.gallery_size:
        raise ParameterError(f"metric k must be in [1, {gt.gallery_size}], got {metric.k}")
    values = _sweep_values(s, t, gt, grid.weights, metric.k)
    # Grid order is ascending, so the first maximum is the smallest maximizer.
    best_i = values.index(max(values))
    return grid.weights[best_i], values[best_i]


def _step_matrix(x: np.ndarray | ScoreMatrix, what: str, shape, normalize: bool, out=None) -> np.ndarray:
    """``x``'s scores, min-max rescaled under ``normalize``, in ``out`` or a new float64 array.

    ``x`` must have ``shape``, unless that is None; ``out``, if given, is a
    float64 array of that shape that the caller is done with. The caller
    owns the result, so a fold may write over it without touching ``x``.
    A span that cannot be rescaled raises ``ValidationError`` prefixed
    with ``what``.
    """
    data = _data(x, what)
    if shape is not None and data.shape != shape:
        raise ShapeError(f"{what} has shape {data.shape}, expected {shape}")
    out = np.empty(data.shape) if out is None else out
    if not normalize:
        np.copyto(out, data)
        return out
    try:
        return minmax_normalize(data, out)
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
    models : sequence of ScoreMatrix or matrices
        At least one matrix; all the same shape. Fusion order matters and is
        taken as given. ``models[0]`` is read before the first step, then
        ``init_matrix``, and each later ``models[i]`` once, when step i
        starts, with its shape checked then against model 0's, so a lazy
        sequence (one whose items are loaded when they are read) keeps one
        model in memory at a time.
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
    init_matrix : ScoreMatrix or matrix, optional
        Starting accumulator instead of zeros, for studying warm-started
        fusion. It is never modified, and this call lets go of it once it
        is copied into an accumulator of its own, before the first step.
    model_ids : sequence of str, optional
        Labels for the trace; defaults to ``model-0``, ``model-1``, ...

    A 2-D float64 array is trusted to be finite, like the data of a
    ``ScoreMatrix``, as in :func:`sweep_weight`, and any other form is
    checked when its step starts; only the fused matrix is validated, once. A
    model whose values span more than the float64 maximum raises
    ``ValidationError`` with a message starting ``model i: `` (``init
    matrix: `` for ``init_matrix``). A fused matrix that overflows (possible
    only without ``normalize``) raises ``ValidationError`` as well. The
    final report covers R@{1, 5, 10} within the gallery plus the tuning
    metric's k.

    Each step copies or rescales its model into one step buffer, the one
    the previous fold is done with, and folds it into the accumulator in
    place, so neither the caller's models nor ``init_matrix`` is written to,
    and a 4-model fusion makes two full-size arrays. No zero matrix is
    made: step 1 sweeps against a read-only zero view, and its fold,
    ``fl(fl((1 - w) t) + 0.0)`` whatever ``normalize`` is (the ``+ 0.0``
    turns a raw model's -0.0 to the +0.0 that ``w*0 + (1 - w)*t`` gives),
    leaves the step buffer as the accumulator. The rescale and the folds
    make two or three numpy calls over the same rows, so they walk row
    blocks of ``2 * _BLOCK_CELLS`` cells, each block's later calls reading
    it from cache (:func:`rankfuse.matrix_ops._cache_blocks`); every element
    goes through the same calls in the same order, so the bytes are those
    of whole-matrix passes.

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

    t = _step_matrix(models[0], "model 0", None, normalize)
    s = None if init_matrix is None else _step_matrix(init_matrix, "init matrix", t.shape, normalize)
    # The accumulator is a copy: let the warm start go.
    init_matrix = spare = None
    steps = []
    for i, model_id in enumerate(ids):
        if i:
            # Into the buffer the last fold is done with, once there is one.
            t = _step_matrix(models[i], f"model {i}", t.shape, normalize, spare)
        w, value = sweep_weight(np.broadcast_to(0.0, t.shape) if s is None else s, t, gt, grid, metric)
        # Both are this call's own arrays, so the fold writes over them.
        for lo, hi in _cache_blocks(t.shape):
            if s is None:
                # w * 0 + (1 - w) * t is (1 - w) * t, bar the -0.0 that + 0.0 turns to +0.0.
                np.add(np.multiply(1.0 - w, t[lo:hi], out=t[lo:hi]), 0.0, out=t[lo:hi])
            else:
                _blend(w, s[lo:hi], t[lo:hi], out=s[lo:hi], part=t[lo:hi])
        # Step 1's buffer becomes the accumulator; later ones are spare once folded.
        s, spare = (t, None) if s is None else (s, t)
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
