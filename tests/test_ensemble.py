import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

import rankfuse.ensemble as ens
from rankfuse.ensemble import (
    DEFAULT_WEIGHT_GRID,
    RecallAtK,
    WeightGrid,
    format_trace,
    iterative_ensemble,
    minmax_normalize,
    _sweep_values,
    sweep_weight,
)
from rankfuse.errors import ParameterError, RankfuseError, ShapeError, ValidationError
from rankfuse.matrix_ops import ScoreMatrix
from rankfuse.metrics import _BLOCK_CELLS, GroundTruth, query_ranks, recall_at_k


def complementary_pair():
    """Two 4x4 models, each answering a disjoint half of the queries.

    Model A ranks queries {0, 1} correctly with margin 0.6, model B queries
    {2, 3}; the wrong rows are nearly flat so a mid-weight fusion preserves
    both models' confident answers.
    """
    a = ScoreMatrix(
        [
            [0.9, 0.3, 0.3, 0.3],
            [0.3, 0.9, 0.3, 0.3],
            [0.3, 0.35, 0.3, 0.3],
            [0.35, 0.3, 0.3, 0.3],
        ]
    )
    b = ScoreMatrix(
        [
            [0.3, 0.35, 0.3, 0.3],
            [0.35, 0.3, 0.3, 0.3],
            [0.3, 0.3, 0.9, 0.3],
            [0.3, 0.3, 0.3, 0.9],
        ]
    )
    return a, b


def oracle_iterative(mats, gt: GroundTruth, grid, k):
    """Independent re-implementation: full sort, explicit grid scan per step."""

    def recall(fused):
        hits = 0
        for q in range(fused.shape[0]):
            order = sorted(range(fused.shape[1]), key=lambda j: (-fused[q, j], j))
            if gt.relevant[q] & set(order[:k]):
                hits += 1
        return hits / fused.shape[0]

    s = np.zeros_like(mats[0])
    chosen = []
    for t in mats:
        best_w, best_val = None, -1.0
        for w in grid:
            val = recall(w * s + (1 - w) * t)
            if val > best_val:
                best_w, best_val = w, val
        s = best_w * s + (1 - best_w) * t
        chosen.append((best_w, best_val))
    return s, chosen


class TestWeightGrid:
    def test_default_grid_values(self):
        assert DEFAULT_WEIGHT_GRID == (0.0, 0.5, 0.8, 0.85, 0.875, 0.9, 0.9125, 0.925, 0.9375, 0.95)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            WeightGrid(())

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            WeightGrid((0.5, 1.2))

    def test_non_increasing_rejected(self):
        with pytest.raises(ParameterError):
            WeightGrid((0.5, 0.5))

    def test_metric_k_validated(self):
        for k in (0, 2.5, True):
            with pytest.raises(ParameterError):
                RecallAtK(k)


class TestSweepWeight:
    def test_zero_prev_selects_smallest_weight(self):
        rng = np.random.default_rng(0)
        t = ScoreMatrix(rng.random((6, 6)))
        gt = GroundTruth.identity(6)
        zero = ScoreMatrix(np.zeros((6, 6)))
        w, value = sweep_weight(zero, t, gt, WeightGrid((0.0, 0.3, 0.6, 0.9)))
        assert w == 0.0
        assert value == recall_at_k(t, gt, 1)

    def test_singleton_grid(self):
        rng = np.random.default_rng(1)
        t = ScoreMatrix(rng.random((5, 5)))
        gt = GroundTruth.identity(5)
        w, value = sweep_weight(ScoreMatrix(np.zeros((5, 5))), t, gt, WeightGrid((0.0,)))
        assert w == 0.0
        assert value == recall_at_k(t, gt, 1)

    def test_complementary_mid_weight_wins(self):
        a, b = complementary_pair()
        gt = GroundTruth.identity(4)
        assert recall_at_k(a, gt, 1) == 0.5
        assert recall_at_k(b, gt, 1) == 0.5
        w, value = sweep_weight(a, b, gt, WeightGrid((0.0, 0.5, 1.0)))
        assert w == 0.5
        assert value == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sweep_weight(
                ScoreMatrix(np.zeros((2, 2))),
                ScoreMatrix(np.zeros((3, 3))),
                GroundTruth.identity(3),
                WeightGrid((0.5,)),
            )
        # Matrices that agree with each other but not with the ground truth,
        # as wrappers and as plain arrays, 2-D or not.
        for x in (ScoreMatrix(np.zeros((2, 2))), np.zeros((2, 2)), np.zeros(3)):
            with pytest.raises(RankfuseError):
                sweep_weight(x, x, GroundTruth.identity(3), WeightGrid((0.5,)))


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


def tie_heavy(rng, shape, levels):
    """Scores on ``levels`` values in [0, 1], with a share of the zeros stored as -0.0."""
    data = rng.integers(0, levels, shape) / (levels - 1)
    data[(data == 0.0) & (rng.random(shape) < 0.5)] = -0.0
    return data


class TestBlockedSweep:
    """The row-block sweep against a per-point sweep and a stable-sort rank."""

    # Rows per block at a gallery of 1000 columns.
    ROWS = _BLOCK_CELLS // 1000
    SHAPES = [
        (2 * ROWS + 5, 1000),  # not a whole number of blocks
        (ROWS // 2, 1000),  # fewer rows than one block
        (1, 1000),
        (3, _BLOCK_CELLS + 7),  # one row per block
    ]
    GRIDS = [DEFAULT_WEIGHT_GRID, (0.0, 0.3, 1.0), (1.0,), (0.0,)]

    def check(self, s, t, gt, k):
        check_sweep(s, t, gt, k, self.GRIDS)

    def test_tie_heavy_matches_per_point_sweep(self):
        rng = np.random.default_rng(11)
        for n, m in self.SHAPES:
            for levels in (4, 5):
                s, t = tie_heavy(rng, (n, m), levels), tie_heavy(rng, (n, m), levels)
                gt = GroundTruth(
                    relevant=tuple(
                        rng.choice(m, size=int(rng.integers(1, 5)), replace=False) for _ in range(n)
                    ),
                    gallery_size=m,
                )
                for k in (1, 5):
                    self.check(s, t, gt, k)

    def test_continuous_and_zero_prev_match_per_point_sweep(self):
        rng = np.random.default_rng(12)
        n, m = self.SHAPES[0]
        t = rng.random((n, m))
        gt = GroundTruth(relevant=tuple({int(i)} for i in rng.integers(0, m, n)), gallery_size=m)
        # S = 0 is the first fusion step.
        for s in (rng.random((n, m)), np.zeros((n, m))):
            self.check(s, t, gt, 5)

    def test_peak_memory_below_one_full_matrix(self):
        rng = np.random.default_rng(13)
        n = m = 1000
        s, t = ScoreMatrix(rng.random((n, m))), ScoreMatrix(rng.random((n, m)))
        gt = GroundTruth.identity(n)
        # k = 1 takes the argmax hit test, k = 5 the rank count.
        for k in (1, 5):
            tracemalloc.start()
            try:
                sweep_weight(s, t, gt, WeightGrid(), RecallAtK(k))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # The sweep streams row blocks; a full-size blend would be n * m * 8 bytes.
            assert peak < n * m * 8

    @staticmethod
    def with_max_at(rng, shape, columns):
        """s and t below 0.9, except 1.0 in both at each row's ``columns``.

        Every blend of s and t then peaks at exactly those columns, tied.
        """
        s, t = 0.9 * rng.random(shape), 0.9 * rng.random(shape)
        rows = np.arange(shape[0])[:, None]
        s[rows, columns] = t[rows, columns] = 1.0
        return s, t

    def test_k1_miss_when_a_lower_index_ties_the_best_relevant(self):
        rng = np.random.default_rng(14)
        n, m = self.SHAPES[0]
        r = rng.integers(1, m - 1, n)
        # Each row's one relevant item ties a twin: below it (a miss at
        # k = 1) or above it (a hit).
        lower = rng.random(n) < 0.5
        twin = np.where(lower, rng.integers(0, r), rng.integers(r + 1, m))
        s, t = self.with_max_at(rng, (n, m), np.stack([r, twin], axis=1))
        gt = GroundTruth(relevant=tuple({int(i)} for i in r), gallery_size=m)
        for k in (1, 2, 5):
            self.check(s, t, gt, k)
        grid = DEFAULT_WEIGHT_GRID
        assert _sweep_values(s, t, gt, grid, 1) == [np.count_nonzero(~lower) / n] * len(grid)
        assert _sweep_values(s, t, gt, grid, 2) == [1.0] * len(grid)

    def test_several_relevant_items_share_the_maximum(self):
        rng = np.random.default_rng(15)
        n, m = self.SHAPES[0]
        tops = np.stack([rng.choice(m, size=4, replace=False) for _ in range(n)])
        s, t = self.with_max_at(rng, (n, m), tops)
        # Two or three of the four tied columns are relevant; the lowest
        # tied column decides every k = 1 hit.
        relevant = [set(map(int, row[: int(rng.integers(2, 4))])) for row in tops]
        gt = GroundTruth(relevant=tuple(relevant), gallery_size=m)
        for k in (1, 2, 5):
            self.check(s, t, gt, k)
        hits = sum(min(row) in rel for row, rel in zip(tops.tolist(), relevant))
        grid = DEFAULT_WEIGHT_GRID
        assert _sweep_values(s, t, gt, grid, 1) == [hits / n] * len(grid)

    def test_signed_zeros_tied_at_the_row_maximum(self):
        rng = np.random.default_rng(16)
        for n, m in self.SHAPES:
            s, t = -0.1 - rng.random((n, m)), -0.1 - rng.random((n, m))
            # Three zero columns per row, each 0.0 or -0.0 in s and in t,
            # so every blend's row maximum is a mix of 0.0 and -0.0.
            zeros = np.stack([rng.choice(m, size=3, replace=False) for _ in range(n)])
            rows = np.arange(n)[:, None]
            for x in (s, t):
                x[rows, zeros] = np.where(rng.random(zeros.shape) < 0.5, -0.0, 0.0)
            gt = GroundTruth(
                relevant=tuple(
                    {int(row[rng.integers(0, 3)]), int(rng.integers(0, m))} for row in zeros
                ),
                gallery_size=m,
            )
            for k in (1, 2, 5):
                self.check(s, t, gt, k)

    def test_all_equal_rows_and_k_equal_to_gallery(self):
        rng = np.random.default_rng(17)
        grid = DEFAULT_WEIGHT_GRID
        for n, m in self.SHAPES:
            gt = GroundTruth(
                relevant=tuple(
                    rng.choice(m, size=int(rng.integers(1, 4)), replace=False) for _ in range(n)
                ),
                gallery_size=m,
            )
            # Every score in a row equal: each rank is the lowest relevant index.
            s = t = np.repeat(rng.random((n, 1)), m, axis=1)
            for k in (1, 5, m):
                self.check(s, t, gt, k)
                hits = sum(min(rel) < k for rel in gt.relevant)
                assert _sweep_values(s, t, gt, grid, k) == [hits / n] * len(grid)
            # At k = m every query is a hit, whatever the scores.
            s, t = tie_heavy(rng, (n, m), 4), tie_heavy(rng, (n, m), 4)
            self.check(s, t, gt, m)
            assert _sweep_values(s, t, gt, grid, m) == [1.0] * len(grid)

    def test_blocked_query_ranks_match_stable_sort(self):
        rng = np.random.default_rng(18)
        # Not a whole number of blocks, then one row per block.
        for n, m in (self.SHAPES[0], self.SHAPES[3]):
            for data in (rng.random((n, m)), tie_heavy(rng, (n, m), 4), np.zeros((n, m))):
                gt = GroundTruth(
                    relevant=tuple(
                        rng.choice(m, size=int(rng.integers(1, 5)), replace=False) for _ in range(n)
                    ),
                    gallery_size=m,
                )
                assert query_ranks(data, gt).tolist() == stable_sort_ranks(data, gt)


def record_reranks(monkeypatch) -> list:
    """Per call of the float64 rank kernel in the k > 1 sweep, its rows' ``first`` items.

    ``first`` is each row's lowest best relevant item: its query under
    identity truth, and its one relevant item under single-item truth.
    """
    queries = []
    count_ranks = ens._count_ranks

    def recorded(block, best, first, *args):
        queries.append(first.copy())
        return count_ranks(block, best, first, *args)

    monkeypatch.setattr(ens, "_count_ranks", recorded)
    return queries


class TestFloat32Filter:
    """The k > 1 sweep's float32 pass, its guard band and its float64 re-rank.

    Every case is checked against the per-point ``query_ranks`` sweep and a
    stable-sort rank. The re-rank is watched through ``_count_ranks``, which
    the sweep calls only for rows (or whole blocks) it does not rank in
    float32.
    """

    GRIDS = [(0.0, 0.25, 0.5, 0.9, 0.95, 1.0), (0.0, 1.0)]

    def ks(self, m):
        return (2, 5, m)

    def test_magnitudes_past_float32_take_float64_without_warning(self, monkeypatch):
        rng = np.random.default_rng(31)
        n, m = 40, 300
        gt = GroundTruth(
            relevant=tuple(rng.choice(m, size=int(rng.integers(1, 4)), replace=False) for _ in range(n)),
            gallery_size=m,
        )
        for scale in (1e-200, 1e200, 1e307):
            # Negative and positive values, each half the scale at most, so
            # no blend overflows float64.
            s, t = (rng.random((n, m)) - 0.5) * scale, (rng.random((n, m)) - 0.5) * scale
            t[:, ::7] = -t[:, ::7]
            for k in self.ks(m):
                check_sweep(s, t, gt, k, self.GRIDS)
            # Every row of every block is ranked in float64 (warnings are errors).
            queries = record_reranks(monkeypatch)
            _sweep_values(s, t, gt, self.GRIDS[0], 5)
            assert len(np.concatenate(queries)) == n * len(self.GRIDS[0])
            monkeypatch.undo()

    def test_weights_below_float32_range_take_float64(self, monkeypatch):
        rng = np.random.default_rng(32)
        n, m = 30, 200
        s, t = rng.random((n, m)), rng.random((n, m))
        gt = GroundTruth(relevant=tuple({int(i)} for i in rng.integers(0, m, n)), gallery_size=m)
        grid = (0.0, 1e-300, 2.0**-101, 0.5, 1.0)
        for k in self.ks(m):
            check_sweep(s, t, gt, k, [grid])
        queries = record_reranks(monkeypatch)
        _sweep_values(s, t, gt, grid, 5)
        # The two tiny weights only.
        assert len(np.concatenate(queries)) == 2 * n

    def test_nextafter_near_ties_in_every_row_are_reranked(self, monkeypatch):
        rng = np.random.default_rng(33)
        n, m = 150, 1000
        s, t = rng.random((n, m)), rng.random((n, m))
        rows = np.arange(n)
        r = rng.integers(0, m, n)
        twin = (r + rng.integers(1, m, n)) % m
        # The twin is one float64 step above or below the relevant item in
        # s and equal in t: a tie or a one-step gap at every w.
        up = rng.random(n) < 0.5
        s[rows, twin] = np.nextafter(s[rows, r], np.where(up, np.inf, -np.inf))
        t[rows, twin] = t[rows, r]
        gt = GroundTruth(relevant=tuple({int(i)} for i in r), gallery_size=m)
        for k in self.ks(m):
            check_sweep(s, t, gt, k, self.GRIDS)
        queries = record_reranks(monkeypatch)
        _sweep_values(s, t, gt, self.GRIDS[0], 2)
        assert np.array_equal(np.sort(np.concatenate(queries)), np.sort(np.tile(r, len(self.GRIDS[0]))))

    def test_only_rows_inside_the_band_are_reranked(self, monkeypatch):
        rng = np.random.default_rng(34)
        n, m = 150, 1000
        # Each relevant item scores 0.5 in s and t; every other item scores
        # at least 0.1 above or below it in both, so its blend stays clear of
        # the band at every w. The rows in ``near`` get one nextafter twin.
        side = rng.random((n, m)) < 0.5
        s = np.where(side, 0.6 + 0.4 * rng.random((n, m)), 0.4 * rng.random((n, m)))
        t = np.where(side, 0.6 + 0.4 * rng.random((n, m)), 0.4 * rng.random((n, m)))
        rows = np.arange(n)
        s[rows, rows] = t[rows, rows] = 0.5
        near = np.sort(rng.choice(n, size=23, replace=False))
        twin = (near + 1) % m
        s[near, twin] = np.nextafter(0.5, 1.0)
        t[near, twin] = 0.5
        gt = GroundTruth(relevant=tuple({i} for i in range(n)), gallery_size=m)
        for k in self.ks(m):
            check_sweep(s, t, gt, k, self.GRIDS)
        for grid in self.GRIDS:
            queries = record_reranks(monkeypatch)
            _sweep_values(s, t, gt, grid, 5)
            # Per w, exactly the rows in ``near``: the twin is in the band at
            # w > 0 and ties at w = 0.
            assert np.array_equal(np.sort(np.concatenate(queries)), np.repeat(near, len(grid)))
            monkeypatch.undo()

    def test_gallery_past_uint16_counts(self):
        rng = np.random.default_rng(37)
        n, m = 3, 2**16 + 5
        s, t = rng.random((n, m)), rng.random((n, m))
        # Ranks above 2**16 - 1: each relevant item scores near the bottom.
        r = np.array([m - 1, 7, 2**16])
        s[np.arange(n), r] = t[np.arange(n), r] = 1e-6
        gt = GroundTruth(relevant=tuple({int(i)} for i in r), gallery_size=m)
        for k in (2, m - 1, m):
            check_sweep(s, t, gt, k, [self.GRIDS[0]])

    def test_zero_accumulator(self):
        rng = np.random.default_rng(35)
        n, m = 70, 500
        gt = GroundTruth(relevant=tuple({int(i)} for i in rng.integers(0, m, n)), gallery_size=m)
        # The first fusion step: at w = 1 every blend is all zero, all tied.
        for t in (rng.random((n, m)), tie_heavy(rng, (n, m), 5)):
            for k in self.ks(m):
                check_sweep(np.zeros((n, m)), t, gt, k, self.GRIDS)

    def test_multi_relevant_rows_mixed_with_single_ones(self):
        rng = np.random.default_rng(36)
        n, m = 150, 1000
        s, t = rng.random((n, m)), rng.random((n, m))
        relevant = [
            set(map(int, rng.choice(m, size=int(rng.integers(1, 5)), replace=False)))
            for _ in range(n)
        ]
        gt = GroundTruth(relevant=tuple(relevant), gallery_size=m)
        # The lead relevant item is the first of each query's pairs. In every
        # row with more than one, another relevant item is the best at every
        # w, so the float32 pass needs its offset; half of those rows also
        # get a nextafter twin of that best item.
        lead = gt._items[gt._starts]
        offset_rows = 0
        for q, rel in enumerate(relevant):
            others = sorted(rel - {int(lead[q])})
            if not others:
                continue
            top = others[int(rng.integers(0, len(others)))]
            s[q, top], t[q, top] = 1.5, 1.25
            offset_rows += 1
            if rng.random() < 0.5:
                twin = int(rng.choice(sorted(set(range(m)) - rel)))
                s[q, twin] = np.nextafter(1.5, rng.choice([np.inf, -np.inf]))
                t[q, twin] = 1.25
        assert offset_rows > n // 2
        for k in self.ks(m):
            check_sweep(s, t, gt, k, self.GRIDS)


class TestIterativeEnsemble:
    def test_single_model_identity(self):
        rng = np.random.default_rng(3)
        t = ScoreMatrix(rng.random((6, 6)))
        gt = GroundTruth.identity(6)
        fused, trace = iterative_ensemble([t], gt, WeightGrid((0.0,)), normalize=False)
        np.testing.assert_array_equal(fused.data, t.data)
        assert trace.steps[0].metric_value == recall_at_k(t, gt, 1)
        assert trace.final_metrics.r_at[1] == recall_at_k(t, gt, 1)

    def test_two_identical_models_keep_ranking(self):
        rng = np.random.default_rng(4)
        t = ScoreMatrix(rng.random((8, 8)))
        gt = GroundTruth.identity(8)
        fused, _ = iterative_ensemble([t, t], gt, WeightGrid((0.0, 0.5, 1.0)))
        from rankfuse.matrix_ops import topk_rows

        np.testing.assert_array_equal(
            topk_rows(fused, 8).indices, topk_rows(t, 8).indices
        )

    def test_complementary_models_reach_perfect_recall(self):
        a, b = complementary_pair()
        gt = GroundTruth.identity(4)
        fused, trace = iterative_ensemble([a, b], gt, WeightGrid(DEFAULT_WEIGHT_GRID))
        assert trace.final_metrics.r_at[1] == 1.0
        assert recall_at_k(fused, gt, 1) == 1.0
        assert [s.metric_value for s in trace.steps] == [0.5, 1.0]

    def test_no_regression_when_skip_available(self):
        rng = np.random.default_rng(5)
        gt = GroundTruth.identity(10)
        for _ in range(30):
            models = [ScoreMatrix(rng.random((10, 10))) for _ in range(3)]
            _, trace = iterative_ensemble(models, gt, WeightGrid((0.0, 0.5, 1.0)))
            values = [s.metric_value for s in trace.steps]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_fusion_linearity(self):
        rng = np.random.default_rng(6)
        models = [ScoreMatrix(rng.random((7, 7))) for _ in range(3)]
        gt = GroundTruth.identity(7)
        fused, trace = iterative_ensemble(models, gt, WeightGrid((0.0, 0.5, 0.9)), normalize=False)
        s = np.zeros((7, 7))
        for model, step in zip(models, trace.steps):
            s = step.chosen_w * s + (1.0 - step.chosen_w) * model.data
        np.testing.assert_allclose(fused.data, s, atol=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(7)
        gt = GroundTruth.identity(5)
        # Continuous scores at k = 1, then k = 3, then scores rounded to five
        # levels so fused rows hold exact ties at both k.
        cases = [(1, False)] * 25 + [(3, False)] * 25 + [(1, True)] * 25 + [(3, True)] * 25
        for k, tied in cases:
            mats = [rng.random((5, 5)) for _ in range(3)]
            if tied:
                mats = [np.round(m * 4) / 4 for m in mats]
            grid = (0.0, 0.25, 0.5, 0.75, 1.0)
            fused, trace = iterative_ensemble(
                [ScoreMatrix(m) for m in mats],
                gt,
                WeightGrid(grid),
                metric=RecallAtK(k),
                normalize=False,
            )
            oracle_s, oracle_steps = oracle_iterative(mats, gt, grid, k=k)
            assert [s.chosen_w for s in trace.steps] == [w for w, _ in oracle_steps]
            assert [s.metric_value for s in trace.steps] == [v for _, v in oracle_steps]
            np.testing.assert_array_equal(fused.data, oracle_s)

    def test_init_matrix_warm_start(self):
        rng = np.random.default_rng(8)
        init = ScoreMatrix(rng.random((6, 6)))
        t = ScoreMatrix(rng.random((6, 6)))
        gt = GroundTruth.identity(6)
        fused, trace = iterative_ensemble(
            [t], gt, WeightGrid((1.0,)), normalize=False, init_matrix=init
        )
        # w = 1 keeps the warm start untouched.
        np.testing.assert_array_equal(fused.data, init.data)
        assert trace.steps[0].chosen_w == 1.0

    def test_normalization_rescales_heterogeneous_scales(self):
        base = np.array([[0.9, 0.1], [0.1, 0.9]])
        small = ScoreMatrix(base)
        huge = ScoreMatrix(base * 1e6)
        gt = GroundTruth.identity(2)
        fused, _ = iterative_ensemble([huge, small], gt, WeightGrid((0.5,)))
        assert fused.data.max() <= 1.0
        assert recall_at_k(fused, gt, 1) == 1.0

    def test_normalized_overflow_rejected(self):
        # The span exceeds the float64 maximum, so min-max cannot rescale it;
        # it must raise without a numpy overflow warning.
        wide = ScoreMatrix([[-1e308, 1e308], [1e308, -1e308]])
        with pytest.raises(ValidationError):
            iterative_ensemble([wide], GroundTruth.identity(2), WeightGrid((0.5,)))

    def test_overflow_names_the_model_or_warm_start(self):
        wide = np.array([[-1e308, 1e308], [1e308, -1e308]])
        gt, grid = GroundTruth.identity(2), WeightGrid((0.5,))
        with pytest.raises(ValidationError, match="^model 1: cannot min-max rescale: the span"):
            iterative_ensemble([np.eye(2), wide], gt, grid)
        with pytest.raises(ValidationError, match="^init matrix: cannot min-max rescale"):
            iterative_ensemble([np.eye(2)], gt, grid, init_matrix=wide)

    def test_empty_model_list_rejected(self):
        with pytest.raises(ParameterError):
            iterative_ensemble([], GroundTruth.identity(2), WeightGrid((0.5,)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            iterative_ensemble(
                [ScoreMatrix(np.eye(2)), ScoreMatrix(np.eye(3))],
                GroundTruth.identity(2),
                WeightGrid((0.5,)),
            )

    def test_model_id_count_checked(self):
        with pytest.raises(ParameterError):
            iterative_ensemble(
                [ScoreMatrix(np.eye(2))],
                GroundTruth.identity(2),
                WeightGrid((0.5,)),
                model_ids=["a", "b"],
            )


class Recording(Sequence):
    """A sequence of matrices that records every index read from it."""

    def __init__(self, items):
        self.items = list(items)
        self.reads = []

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads.append(i)
        return self.items[i]


class TestStreamedFusion:
    """``iterative_ensemble`` reads each model once, at its step, and writes to no input."""

    def test_each_model_read_once_in_order(self):
        rng = np.random.default_rng(31)
        gt = GroundTruth.identity(6)
        for init in (None, rng.random((6, 6))):
            models = Recording(rng.random((6, 6)) for _ in range(4))
            iterative_ensemble(models, gt, WeightGrid((0.0, 0.5, 0.9)), init_matrix=init)
            assert models.reads == [0, 1, 2, 3]

    def test_count_errors_before_any_read(self):
        gt = GroundTruth.identity(2)
        empty = Recording([])
        with pytest.raises(ParameterError):
            iterative_ensemble(empty, gt, WeightGrid((0.5,)))
        models = Recording([np.eye(2), np.eye(2)])
        with pytest.raises(ParameterError):
            iterative_ensemble(models, gt, WeightGrid((0.5,)), model_ids=["a"])
        assert empty.reads == models.reads == []

    def test_shape_checked_when_its_step_starts(self):
        gt = GroundTruth.identity(2)
        models = Recording([np.eye(2), np.eye(2), np.eye(3), np.eye(2)])
        with pytest.raises(ShapeError, match=r"model 2 has shape \(3, 3\), expected \(2, 2\)"):
            iterative_ensemble(models, gt, WeightGrid((0.5,)))
        assert models.reads == [0, 1, 2]
        models = Recording([ScoreMatrix(np.eye(2))])
        with pytest.raises(ShapeError, match=r"init matrix has shape \(3, 3\)"):
            iterative_ensemble(models, gt, WeightGrid((0.5,)), init_matrix=np.eye(3))

    def test_inputs_bit_unchanged_and_fold_matches_out_of_place(self):
        rng = np.random.default_rng(32)
        gt = GroundTruth(
            relevant=tuple(rng.choice(9, size=2, replace=False) for _ in range(7)), gallery_size=9
        )
        grid = (0.0, 0.5, 0.8, 0.9, 1.0)
        for normalize in (True, False):
            for with_init in (False, True):
                mats = [rng.uniform(-3, 5, (7, 9)) for _ in range(3)]
                init = rng.uniform(-1, 2, (7, 9)) if with_init else None
                before = [m.tobytes() for m in mats] + ([init.tobytes()] if with_init else [])
                results = []
                # Plain arrays, wrappers, and the same array fused twice.
                for models in (mats, [ScoreMatrix(m) for m in mats], [mats[0], mats[0], mats[1]]):
                    fused, trace = iterative_ensemble(
                        models, gt, WeightGrid(grid), RecallAtK(2), normalize, init
                    )
                    after = [m.tobytes() for m in mats] + ([init.tobytes()] if with_init else [])
                    assert after == before
                    results.append((fused, trace))
                    # Rebuild out of place: fresh w*s and (1-w)*t at every step.
                    prep = minmax_normalize if normalize else (lambda x: x)
                    s = np.zeros((7, 9)) if init is None else prep(init)
                    for m, step in zip(models, trace.steps):
                        t = prep(m if isinstance(m, np.ndarray) else m.data)
                        s = step.chosen_w * s + (1.0 - step.chosen_w) * t
                    assert fused.data.tobytes() == s.tobytes()
                assert results[0][0].data.tobytes() == results[1][0].data.tobytes()
                assert results[0][1] == results[1][1]


class TestHelpers:
    def test_minmax_normalize_range(self):
        rng = np.random.default_rng(9)
        m = rng.uniform(-7, 3, (5, 5))
        out = minmax_normalize(m)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_minmax_constant_matrix(self):
        np.testing.assert_array_equal(minmax_normalize(np.full((2, 2), 5.0)), np.zeros((2, 2)))

    def test_minmax_preserves_ranking(self):
        rng = np.random.default_rng(10)
        m = rng.uniform(-7, 3, (6, 6))
        from rankfuse.matrix_ops import topk_rows

        np.testing.assert_array_equal(
            topk_rows(ScoreMatrix(minmax_normalize(m)), 6).indices,
            topk_rows(ScoreMatrix(m), 6).indices,
        )

    def test_format_trace(self):
        a, b = complementary_pair()
        gt = GroundTruth.identity(4)
        _, trace = iterative_ensemble(
            [a, b], gt, WeightGrid((0.0, 0.5, 1.0)), model_ids=["alpha", "beta"]
        )
        text = format_trace(trace)
        assert "step=1 model=alpha" in text
        assert "step=2 model=beta" in text
        assert "final R@1=1.000000" in text
        # Step lines carry the metric the fusion was tuned by.
        _, trace = iterative_ensemble([a, b], gt, WeightGrid((0.0, 0.5, 1.0)), metric=RecallAtK(2))
        steps = [line for line in format_trace(trace).splitlines() if line.startswith("step=")]
        assert len(steps) == 2
        assert all(" R@2=" in line for line in steps)
