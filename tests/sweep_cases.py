"""A seeded differential corpus for the weight sweep, and the oracle it is checked by.

Test helper, not library code. The sweep's shortcuts (the zero block, the
float32 filter, the anchors and the candidate prefilter) each rest on a
rounding proof, and each has been broken by some family of inputs below.
``check_sweep`` compares the fast sweep with a per-point sweep and a
stable-sort rank: differential testing in McKeeman's sense ("Differential
Testing for Software", 1998). ``CASES`` names one seeded generator per
family; ``GRIDS`` and ``KS`` are the grids and cutoffs the corpus is swept
at. ``tests/test_ensemble.py`` runs a fixed slice of it against
``check_sweep``, and ``tools/sweep_digest.py`` hashes the sweep over all of
it.
"""

import zlib

import numpy as np

import rankfuse.ensemble as ens
from rankfuse.ensemble import DEFAULT_WEIGHT_GRID, RecallAtK, WeightGrid, _sweep_values, sweep_weight
from rankfuse.matrix_ops import ScoreMatrix
from rankfuse.metrics import GroundTruth, query_ranks

GRIDS = {
    "default": DEFAULT_WEIGHT_GRID,
    "default+1": DEFAULT_WEIGHT_GRID + (1.0,),
    "linspace21": tuple(np.linspace(0.0, 1.0, 21)),
    "irregular": (0.0, 0.1, 0.11, 0.12, 0.5, 0.51, 0.52, 0.7, 0.99, 1.0),
    # A weight below the float32 filter's range, between two anchors.
    "tiny": (0.0, 1e-300, 2e-300, 0.5, 0.9, 0.925, 0.95),
    "single": (0.9,),
}
KS = (1, 2, 3, 5, 10)
# Two row blocks at every k, the last partial.
N, M = 180, 400


def stable_sort_ranks(fused: np.ndarray, gt: GroundTruth) -> list:
    """Each query's best relevant position under a stable descending sort."""
    order = np.argsort(-fused, axis=1, kind="stable")
    position = np.empty_like(order)
    np.put_along_axis(position, order, np.arange(fused.shape[1])[None, :], axis=1)
    return [min(position[q, j] for j in rel) for q, rel in enumerate(gt.relevant)]


def stable_sort_recall(fused: np.ndarray, gt: GroundTruth, k: int) -> float:
    """Recall@k from each relevant item's position under a stable descending sort."""
    return sum(r < k for r in stable_sort_ranks(fused, gt)) / fused.shape[0]


def check_sweep(s, t, gt, k, grids):
    """The sweep's values and choice against a per-point sweep and a stable-sort rank."""
    for grid in grids:
        values = _sweep_values(s, t, gt, grid, k)
        per_point = [
            int(np.count_nonzero(query_ranks(w * s + (1.0 - w) * t, gt) < k)) / s.shape[0]
            for w in grid
        ]
        assert values == per_point
        assert values == [stable_sort_recall(w * s + (1.0 - w) * t, gt, k) for w in grid]
        best_i = max(range(len(grid)), key=lambda i: (per_point[i], -i))
        # Plain arrays and ScoreMatrix inputs choose alike.
        for pair in ((s, t), (ScoreMatrix(s), ScoreMatrix(t))):
            chosen = sweep_weight(*pair, gt, WeightGrid(grid), RecallAtK(k))
            assert chosen == (grid[best_i], per_point[best_i])


def prefilter_floor(s, t, gt: GroundTruth, grid) -> np.ndarray:
    """Each row's lowest best relevant blend over ``grid``, less the prefilter's margin."""
    v = np.array(
        [min(max(w * s[q, j] + (1.0 - w) * t[q, j] for j in rel) for w in grid) for q, rel in enumerate(gt.relevant)]
    )
    return v - (ens._FLOOR_REL * np.abs(v) + ens._FLOOR_ABS)


def tie_heavy(rng, shape, levels):
    """Scores on ``levels`` values in [0, 1], with a share of the zeros stored as -0.0."""
    data = rng.integers(0, levels, shape) / (levels - 1)
    data[(data == 0.0) & (rng.random(shape) < 0.5)] = -0.0
    return data


def separated(rng, n, m, effects):
    """One model per effect: standard normal scores, each row's 1-4 relevant items shifted up by it.

    Like a person-ID search, every blend leaves few cells near a row's best
    relevant score. Returns the models and their ground truth.
    """
    relevant = tuple(rng.choice(m, size=int(rng.integers(1, 5)), replace=False) for _ in range(n))
    rows, items = np.repeat(np.arange(n), [len(r) for r in relevant]), np.concatenate(relevant)
    mats = []
    for effect in effects:
        x = rng.standard_normal((n, m))
        x[rows, items] += effect
        mats.append(x)
    return mats, GroundTruth(relevant=relevant, gallery_size=m)


def multi_relevant(rng, n, m):
    """Ground truth with 1-4 relevant items per query."""
    return GroundTruth(
        relevant=tuple(rng.choice(m, size=int(rng.integers(1, 5)), replace=False) for _ in range(n)),
        gallery_size=m,
    )


def with_twins(rng, t, gt):
    """``t`` with one item per row one float64 step above or below the row's lead relevant score."""
    n, m = t.shape
    rows, r = np.arange(n), gt._items[gt._starts]
    twin = (r + rng.integers(1, m, n)) % m
    t = t.copy()
    t[rows, twin] = np.nextafter(t[rows, r], np.where(rng.random(n) < 0.5, np.inf, -np.inf))
    return t, twin


def with_misses(rng, s, t, gt, start=0):
    """Every third row from ``start`` with half its other items 2 above the rest of the row in s and t.

    Those rows miss at every w, and their candidates end the prefilter at
    the first block that holds them, so it and every later block take the
    walk.
    """
    n, m = s.shape
    for q in range(start, n, 3):
        others = np.setdiff1d(np.arange(m), list(gt.relevant[q]))
        up = rng.choice(others, m // 2, replace=False)
        s[q, up] = s[q].max() + 2.0
        t[q, up] = t[q].max() + 2.0
    return s, t, gt


def continuous(rng):
    """Uniform scores, 1-4 relevant items per row."""
    gt = multi_relevant(rng, N, M)
    return rng.random((N, M)), rng.random((N, M)), gt


def quantised(rng):
    """k-level scores: most blends tie many items with the relevant ones."""
    levels = int(rng.integers(3, 6))
    return tie_heavy(rng, (N, M), levels), tie_heavy(rng, (N, M), levels), multi_relevant(rng, N, M)


def twins(rng):
    """A twin one step above or below each lead relevant item in s, equal in t: a tie or near tie at every w."""
    s, t = rng.random((N, M)), rng.random((N, M))
    gt = multi_relevant(rng, N, M)
    s, twin = with_twins(rng, s, gt)
    t[np.arange(N), twin] = t[np.arange(N), gt._items[gt._starts]]
    return s, t, gt


def zero_twins(rng):
    """A +-0 accumulator, and in t three items one step above each row's relevant top score.

    Rounding ``(1 - w) * t`` merges them with it at some w, where the
    lowest index of the tie ranks first.
    """
    t = 0.5 + rng.random((N, M))
    r = rng.integers(0, M, N)
    rows = np.arange(N)
    t[rows, r] = np.nextafter(t.max(axis=1), np.inf)
    up = np.stack([rng.choice(np.setdiff1d(np.arange(M), [q]), 3, replace=False) for q in r])
    t[rows[:, None], up] = np.nextafter(t[rows, r], np.inf)[:, None]
    s = np.where(rng.random((N, M)) < 0.5, -0.0, 0.0)
    return s, t, GroundTruth(relevant=tuple({int(i)} for i in r), gallery_size=M)


def zero_negative(rng):
    """An all -0 accumulator and a mixed-sign t with twins."""
    gt = multi_relevant(rng, N, M)
    return np.full((N, M), -0.0), with_twins(rng, rng.random((N, M)) - 0.5, gt)[0], gt


def one_cell(rng):
    """A zero accumulator but for one cell: its block is ranked per w, the others once."""
    gt = multi_relevant(rng, N, M)
    s = np.zeros((N, M))
    s[N - 3, 7] = 0.25
    return s, with_twins(rng, rng.random((N, M)), gt)[0], gt


def mixed_sign(rng):
    """A mixed-sign accumulator and model, with twins in t."""
    gt = multi_relevant(rng, N, M)
    return rng.standard_normal((N, M)), with_twins(rng, 2.0 * rng.random((N, M)) - 1.0, gt)[0], gt


def scaled(scale):
    """A case with rows scaled by ``scale``: the first 100 and about half of the rest."""

    def make(rng):
        gt = multi_relevant(rng, N, M)
        s, t = rng.random((N, M)) - 0.25, rng.random((N, M))
        factor = np.where(rng.random(N) < 0.5, scale, 1.0)
        factor[:100] = scale
        return s * factor[:, None], t * factor[:, None], gt

    return make


def separated_rows(rng):
    """Separated multi-relevant rows: few candidates, so the prefilter takes every block."""
    (s, t), gt = separated(rng, N, M, (4.0, 3.5))
    return s, t, gt


def separated_negative(rng):
    """Separated rows shifted below zero."""
    (s, t), gt = separated(rng, N, M, (4.0, 3.5))
    return s - 20.0, t - 20.0, gt


def separated_then_walk(rng):
    """Separated rows up to row 163, then rows that end the prefilter.

    The prefilter takes the first block and the walk ranks the second.
    """
    (s, t), gt = separated(rng, N, M, (4.0, 3.5))
    return with_misses(rng, s, t, gt, start=163)


def at_floor(rng):
    """Separated rows with three flat items at the default grid's floor, one step above and one below."""
    (s, t), gt = separated(rng, N, M, (6.0, 6.0))
    floor = prefilter_floor(s, t, gt, DEFAULT_WEIGHT_GRID)
    cols = np.stack([rng.choice(np.setdiff1d(np.arange(M), list(rel)), 3, replace=False) for rel in gt.relevant])
    rows = np.arange(N)
    for c, x in zip(cols.T, (floor, np.nextafter(floor, np.inf), np.nextafter(floor, -np.inf))):
        s[rows, c] = t[rows, c] = x
    return s, t, gt


def below_floor(rng):
    """Separated rows, each with a flat relevant item b and, at a lower index, a flat item one step below.

    Some weight rounds the lower item's blend onto b's, a k = 1 miss there,
    which only the prefilter's rounding margin keeps in.
    """
    (s, t), _ = separated(rng, N, M, (0.0, 0.0))
    r = rng.integers(1, M, N)
    j = rng.integers(0, r)
    rows = np.arange(N)
    b = 4.0 + rng.random(N)
    s[rows, r] = t[rows, r] = b
    s[rows, j] = t[rows, j] = np.nextafter(b, -np.inf)
    return s, t, GroundTruth(relevant=tuple({int(i)} for i in r), gallery_size=M)


def crossing(rng):
    """Two relevant lines crossing between the default anchors 0.8 and 0.95, and flat competitors.

    The best relevant score is 0.95 at both anchors and dips to 0.875
    between them. One to three competitors stay above 0.95, some by less
    than the float32 guard band, and up to two at 0.89 or 0.91 pass the
    dip: a row can hold k - 1 items above at both anchors and miss between
    them.
    """
    s, t = 0.5 * rng.random((N, M)), 0.5 * rng.random((N, M))
    relevant = []
    for q in range(N):
        a, b, *others = rng.choice(M, size=int(rng.integers(2, 4)), replace=False)
        s[q, a], t[q, a] = 1.0, 0.0
        s[q, b], t[q, b] = 0.75, 1.75
        relevant.append({int(a), int(b), *map(int, others)})
        free = np.setdiff1d(np.arange(M), [a, b, *others])
        picks = rng.choice(free, size=5, replace=False)
        tops = picks[: int(rng.integers(1, 4))]
        s[q, tops] = t[q, tops] = 0.95 + 10.0 ** rng.uniform(-8, -1, len(tops))
        dips = picks[3 : 3 + int(rng.integers(0, 3))]
        s[q, dips] = t[q, dips] = rng.choice([0.89, 0.91], len(dips))
    return with_misses(rng, s, t, GroundTruth(relevant=tuple(relevant), gallery_size=M))


def near_k(rng):
    """Rows with k - 2 to k + 1 items (k = 5) clear above the relevant item, and nextafter twins.

    Each relevant item scores 0.5 in s and t and every other item clears it
    by 0.1, above or below; most rows also get a twin one step above or
    below it in s. A row's count of items above and not below then sits at
    each edge of the anchors' hit and miss rules.
    """
    k = 5
    high = np.zeros((N, M), bool)
    for q, h in zip(range(N), rng.integers(k - 2, k + 2, N)):
        high[q, rng.choice(np.setdiff1d(np.arange(M), [q % M, (q + 1) % M]), h, replace=False)] = True
    s = np.where(high, 0.6 + 0.4 * rng.random((N, M)), 0.4 * rng.random((N, M)))
    t = np.where(high, 0.6 + 0.4 * rng.random((N, M)), 0.4 * rng.random((N, M)))
    rows = np.arange(N)
    s[rows, rows % M] = t[rows, rows % M] = 0.5
    near = rng.random(N) < 0.6
    s[rows[near], (rows[near] + 1) % M] = np.nextafter(0.5, rng.choice([np.inf, -np.inf], near.sum()))
    t[rows[near], (rows[near] + 1) % M] = 0.5
    return with_misses(rng, s, t, GroundTruth(relevant=tuple({q % M} for q in range(N)), gallery_size=M))


CASES = {
    "continuous": continuous,
    "quantised": quantised,
    "twins": twins,
    "zero_twins": zero_twins,
    "zero_negative": zero_negative,
    "one_cell": one_cell,
    "mixed_sign": mixed_sign,
    **{f"scaled_{scale:g}": scaled(scale) for scale in (1e-300, 1e-200, 1e-30, 1e30, 1e200, 1e300)},
    "separated": separated_rows,
    "separated_negative": separated_negative,
    "separated_then_walk": separated_then_walk,
    "at_floor": at_floor,
    "below_floor": below_floor,
    "crossing": crossing,
    "near_k": near_k,
}


def case(name: str):
    """The inputs ``(s, t, gt)`` of the named case, from a seed of its own."""
    return CASES[name](np.random.default_rng(zlib.crc32(name.encode())))
