import hashlib
import sys
import threading
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
from rankfuse.matrix_ops import _BLOCK_CELLS, _CACHE_CELLS, ScoreMatrix
from rankfuse.metrics import GroundTruth, query_ranks, recall_at_k
from rankfuse.synth import SynthConfig, gen_model_scores

import sweep_cases
from sweep_cases import check_sweep, prefilter_floor, separated, stable_sort_ranks, tie_heavy
from test_matrix_ops import small_blocks


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

    @staticmethod
    def near_limit(rng, n, m):
        """Two n x m models whose every row has 62 candidates for the prefilter.

        Each row has its relevant item (identity truth) at 0.5 and 61 items
        above it, the rest below 0.4 (see TestCandidatePrefilter). That is
        just under the limit of 1/16 of a block's cells, 62.5 per row of
        1000, so every block is ranked from its gathered candidates.
        """
        above = np.stack([rng.choice(np.setdiff1d(np.arange(m), [q]), 61, replace=False) for q in range(n)])
        models = []
        for _ in range(2):
            x = 0.4 * rng.random((n, m))
            x[np.arange(n)[:, None], above] = 0.6 + 0.4 * rng.random((n, 61))
            np.fill_diagonal(x, 0.5)
            models.append(ScoreMatrix(x))
        return models

    @staticmethod
    def crossing_lines(rng, n, m):
        """Two n x m models whose every row's items cross its relevant one between 0.8 and 0.95.

        Each row's relevant item (identity truth) scores 0.5 in both, and
        every other item s = 0.5 + d and t = 0.5 - 9d for a d in (0, 0.05],
        which blends to 0.5 + d(10w - 9): below the relevant item at 0.8 and
        above it at 0.95. Every item is a candidate, so the prefilter stops
        at the first block, and at any k below m the anchors 0.8 and 0.95
        leave every row undecided with every cell open, so all n * m cells
        are queued at the six weights between.
        """
        d = 0.05 * (1 - rng.random((n, m)))
        s, t = 0.5 + d, 0.5 - 9 * d
        np.fill_diagonal(s, 0.5)
        np.fill_diagonal(t, 0.5)
        return ScoreMatrix(s), ScoreMatrix(t)

    @staticmethod
    def traced_peak(s, t, gt, k) -> int:
        """The traced peak, in bytes, of one default-grid ``sweep_weight`` at Recall@k."""
        tracemalloc.start()
        try:
            sweep_weight(s, t, gt, WeightGrid(), RecallAtK(k))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_below_one_full_matrix(self, monkeypatch):
        rng = np.random.default_rng(13)
        n = m = 1000
        gt = GroundTruth.identity(n)
        near_limit = self.near_limit(rng, n, m)
        random = [ScoreMatrix(rng.random((n, m))) for _ in range(2)]
        for (s, t), sparse in ((random, False), (near_limit, True)):
            # One walk, the same at k = 1 and at k = 5.
            for k in (1, 5):
                tried = record_candidates(monkeypatch)
                peak = self.traced_peak(s, t, gt, k)
                monkeypatch.undo()
                # The prefilter stops at the first random block and takes
                # every near-limit one.
                counts = [None if cells is None else len(cells) for cells in tried]
                assert counts == ([62 * r for r in block_heights(n, m)] if sparse else [None])
                # The sweep streams row blocks; a full-size blend would be n * m * 8 bytes.
                assert peak < n * m * 8
        # The queue of cells stays under two blocks' cells a run of weights,
        # however many rows the anchors leave undecided, at every k.
        s, t = self.crossing_lines(rng, n, m)
        cell_ranks = ens._cell_ranks
        for k in (1, 5):
            queued = dict.fromkeys(DEFAULT_WEIGHT_GRID, 0)

            def counted(s, t, cells, weights, *args):
                for w in weights:
                    queued[w] += len(cells)
                return cell_ranks(s, t, cells, weights, *args)

            monkeypatch.setattr(ens, "_cell_ranks", counted)
            peak = self.traced_peak(s, t, gt, k)
            monkeypatch.undo()
            assert queued == {w: n * m if 0.8 < w < 0.95 else 0 for w in DEFAULT_WEIGHT_GRID}
            assert peak < n * m * 8

    def test_no_float32_scratch_at_r5_where_no_block_reaches_the_filter(self, monkeypatch):
        rng = np.random.default_rng(19)
        n = m = 1000
        gt = GroundTruth.identity(n)
        t = ScoreMatrix(rng.random((n, m)))
        grid = len(DEFAULT_WEIGHT_GRID)
        # An all-zero accumulator takes the zero shortcut in every block, and
        # the near-limit pair the prefilter; neither runs the float32 filter,
        # whose scratch (four float32 buffers and two pairs of bool masks of
        # a block, 20 bytes a cell: 1.3 MB here) it must not make.
        cells = block_heights(n, m)[0] * m
        cases = [
            ((ScoreMatrix(np.zeros((n, m))), t), 0),
            # The prefilter queues each block's candidates, 62,000 flat
            # indices here, and drains them once they reach a block's cells:
            # fewer than 17/16 of a block's cells, 8.5 bytes a block cell,
            # which the drain joins into one copy. Each half-block slice of
            # the joined cells then adds a row and a column index and at most
            # one gathered row index a cell, 12 bytes a block cell: 20.5 in
            # all, within 21.
            (self.near_limit(rng, n, m), 21 * cells),
        ]
        filter_ranks = ens._filter_ranks
        for (s, t), queue in cases:
            filtered = []
            monkeypatch.setattr(ens, "_filter_ranks", lambda *args: filtered.append(args) or filter_ranks(*args))
            peaks = [self.traced_peak(s, t, gt, k) for k in (1, 5)]
            monkeypatch.undo()
            assert not filtered
            # The walk's own buffers: a block of float64 blend and scratch and
            # a bool mask (17 bytes a cell), and per weight and row at most
            # eight float64 or int64 values (the relevant blends, each row's
            # best and lead relevant blend and item, the ranks and their
            # temporaries), and the queue.
            assert max(peaks) < 17 * cells + 64 * grid * n + queue

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


def record_reranks(monkeypatch) -> dict:
    """Per weight, the ``first`` items of each call of the sweep's float64 rank kernel.

    ``first`` is each row's lowest best relevant item: its query under
    identity truth, and its one relevant item under single-item truth. The
    sweep blends the rows it ranks in float64 at one weight just before it
    ranks them, so each call is filed under the weight of the last blend.
    """
    queries, last = {}, [None]
    blend, count_ranks = ens._blend, ens._count_ranks

    def blended(w, *args, **kwargs):
        if np.ndim(w) == 0:
            last[0] = w
        return blend(w, *args, **kwargs)

    def counted(block, best, first, *args):
        queries.setdefault(last[0], []).append(first.copy())
        return count_ranks(block, best, first, *args)

    monkeypatch.setattr(ens, "_blend", blended)
    monkeypatch.setattr(ens, "_count_ranks", counted)
    return queries


def reranked_at(queries: dict, w) -> np.ndarray:
    """The sorted ``first`` items ranked in float64 at weight ``w``."""
    return np.sort(np.concatenate(queries.get(w, [np.empty(0, np.intp)])))


def record_cell_ranks(monkeypatch) -> dict:
    """Per weight, the cells of each call of the sweep's exact cell ranker ``_cell_ranks``.

    A call ranks its cells, flat indices ``row * m + column``, at a run of
    weights, and they are filed under each of them; ``reranked_at`` sorts
    the cells filed under one weight.
    """
    queued = {}
    cell_ranks = ens._cell_ranks

    def recorded(s, t, cells, weights, *args):
        for w in weights:
            queued.setdefault(w, []).append(cells.copy())
        return cell_ranks(s, t, cells, weights, *args)

    monkeypatch.setattr(ens, "_cell_ranks", recorded)
    return queued


def undecided_cells(s, t, gt, wa, wb, k, tol) -> np.ndarray:
    """The open cells of the rows whose rank between anchor weights ``wa`` and ``wb`` the two leave open.

    From the float64 blends at the anchors: an entry is above when it scores
    more than ``tol`` over its row's best relevant blend, and ahead when it
    scores no more than ``tol`` under its lead relevant item's. A row is
    undecided with fewer than k entries above at both anchors and more than
    k ahead at either, and its open cells are those ahead at either and not
    above at both; they are returned as flat indices ``row * m + column``.
    The same cells at a tiny and at a wide ``tol`` show that no entry lies
    where rounding could decide it.
    """
    rows, lead = np.arange(s.shape[0]), gt._items[gt._starts]
    above, ahead = True, False
    for w in (wa, wb):
        a = w * s + (1.0 - w) * t
        best = np.array([a[q, sorted(rel)].max() for q, rel in enumerate(gt.relevant)])
        above = above & (a > best[:, None] + tol)
        ahead = ahead | (a >= a[rows, lead][:, None] - tol)
    sure, count = np.count_nonzero(above, axis=1), np.count_nonzero(ahead, axis=1)
    open_cells = ahead & ~above
    open_cells[(sure >= k) | (count <= k)] = False
    return np.flatnonzero(open_cells)


def exact_undecided_cells(s, t, gt, wa, wb, k) -> np.ndarray:
    """:func:`undecided_cells`, after checking that rounding decides none of them."""
    cells = undecided_cells(s, t, gt, wa, wb, k, 1e-9)
    assert np.array_equal(cells, undecided_cells(s, t, gt, wa, wb, k, 1e-5))
    return cells


def exact_undecided_rows(s, t, gt, wa, wb, k) -> np.ndarray:
    """The rows of :func:`exact_undecided_cells`: an undecided row has at least two open cells."""
    return np.unique(exact_undecided_cells(s, t, gt, wa, wb, k) // s.shape[1])


class TestFloat32Filter:
    """The sweep's float32 pass, its guard band and its float64 re-rank.

    Every case is checked against the per-point ``query_ranks`` sweep and a
    stable-sort rank. The re-rank is watched through ``_count_ranks``, which
    the sweep calls only for rows (or whole blocks) it does not rank in
    float32.
    """

    GRIDS = [(0.0, 0.25, 0.5, 0.9, 0.95, 1.0), (0.0, 1.0)]

    def ks(self, m):
        return (1, 2, 5, m)

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
            assert {w: len(reranked_at(queries, w)) for w in queries} == dict.fromkeys(self.GRIDS[0], n)
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
        assert {w: len(reranked_at(queries, w)) for w in queries} == {1e-300: n, 2.0**-101: n}

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
        grid = self.GRIDS[0]
        assert [grid[i] for i in ens._anchors(grid)] == [0.0, 0.25, 0.5, 0.9, 1.0]
        queries = record_reranks(monkeypatch)
        queued = record_cell_ranks(monkeypatch)
        _sweep_values(s, t, gt, grid, 2)
        # Every row holds its twin in the band: each anchor re-ranks every
        # row in float64. 0.95, between the anchors 0.9 and 1.0, re-ranks no
        # row and ranks the open cells of the undecided rows alone.
        cells = exact_undecided_cells(s, t, gt, 0.9, 1.0, 2)
        assert 0 < len(np.unique(cells // m)) < n
        for w in grid:
            assert np.array_equal(reranked_at(queries, w), [] if w == 0.95 else np.sort(r))
            assert np.array_equal(reranked_at(queued, w), cells if w == 0.95 else [])

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
        # Every row has hundreds of items above its relevant item at every w,
        # so the anchors 0.9 and 1.0 leave no row undecided for 0.95.
        undecided = exact_undecided_rows(s, t, gt, 0.9, 1.0, 5)
        assert not len(undecided)
        for grid in self.GRIDS:
            anchors = [grid[i] for i in ens._anchors(grid)]
            queries = record_reranks(monkeypatch)
            _sweep_values(s, t, gt, grid, 5)
            # Per anchor, exactly the rows in ``near``: the twin is in the
            # band at w > 0 and ties at w = 0. Between anchors, none.
            for w in grid:
                assert np.array_equal(reranked_at(queries, w), near if w in anchors else [])
            monkeypatch.undo()

    def test_grid_ends_read_the_block_or_copy_it_less_the_offset(self, monkeypatch):
        rng = np.random.default_rng(36)
        m = 400
        rows = 2 * _BLOCK_CELLS // m
        n = 2 * rows
        s, t = rng.random((n, m)), rng.random((n, m))
        # The first block's rows have one relevant item, so no offset: w = 0
        # and w = 1 read its dt and ds as they are. The second block's have
        # three, most of them led by an item that is not their best, so
        # that block is copied less the offset.
        sizes = [1] * rows + [3] * rows
        gt = GroundTruth(relevant=tuple(rng.choice(m, size=z, replace=False) for z in sizes), gallery_size=m)
        filter_ranks, seen = ens._filter_ranks, set()

        def recorded(ds, dt, off, w, *args):
            seen.add((w, bool(off.any()), bool(args[-1])))
            return filter_ranks(ds, dt, off, w, *args)

        monkeypatch.setattr(ens, "_filter_ranks", recorded)
        # The ends bound no weights, or keep proof masks: 1 as the closing
        # anchor of 0.8 in the default grid plus 1, 0 as the opening one of 0.1.
        grids = [(0.0, 1.0), (0.0, 0.5, 1.0), DEFAULT_WEIGHT_GRID + (1.0,), (0.0, 0.05, 0.1, 1.0)]
        for k in self.ks(m):
            check_sweep(s, t, gt, k, grids)
        assert seen >= {(w, off, proof) for w in (0.0, 1.0) for off in (False, True) for proof in (False, True)}

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


def record_band_counts(monkeypatch) -> list:
    """Per call of the sweep's band count, the number of rows it counted."""
    rows = []
    band_ranks = ens._band_ranks

    def recorded(x, *args):
        rows.append(len(x))
        return band_ranks(x, *args)

    monkeypatch.setattr(ens, "_band_ranks", recorded)
    return rows


def record_blends(monkeypatch) -> list:
    """Per float64 blend of the sweep at one weight, the number of rows it blended."""
    rows = []
    blend = ens._blend

    def recorded(w, s, t, *args, **kwargs):
        if np.ndim(w) == 0:
            rows.append(len(s))
        return blend(w, s, t, *args, **kwargs)

    monkeypatch.setattr(ens, "_blend", recorded)
    return rows


def record_candidates(monkeypatch) -> list:
    """Per block the candidate prefilter tries, its candidate cells, or None past its limit."""
    tried = []
    candidates = ens._candidates

    def recorded(*args):
        cells = candidates(*args)
        tried.append(cells)
        return cells

    monkeypatch.setattr(ens, "_candidates", recorded)
    return tried


def block_heights(n: int, m: int) -> list:
    """The heights of the sweep's row blocks over an n x m matrix, the same at every k."""
    rows = 2 * _BLOCK_CELLS // m
    return [min(rows, n - lo) for lo in range(0, n, rows)]


class TestZeroAccumulator:
    """A block whose rows of s are all +-0, as at the first fusion step.

    Such a block ranks t itself at every w < 1 within the float32 bounds, so
    it is counted once for the whole grid and only rows with a near tie in t
    are ranked again per w. Every case is checked against the per-point
    ``query_ranks`` sweep and a stable-sort rank.
    """

    N, M = 150, 1000
    GRIDS = [DEFAULT_WEIGHT_GRID, (0.0, 0.5, 1 - 2**-52, 1.0), (1e-300, 0.3), (1.0,)]

    def check(self, s, t, gt):
        for k in (1, 2, 5, t.shape[1]):
            check_sweep(s, t, gt, k, self.GRIDS)

    @staticmethod
    def multi_relevant(rng, n, m):
        return GroundTruth(
            relevant=tuple(rng.choice(m, size=int(rng.integers(1, 5)), replace=False) for _ in range(n)),
            gallery_size=m,
        )

    def test_near_ties_merged_by_rounding(self):
        rng = np.random.default_rng(41)
        n, m = self.N, self.M
        t = 0.5 + rng.random((n, m))
        # The relevant item at column 0 tops its row but for three columns
        # one float64 step above it. Rounding (1 - w) * t merges them with
        # it at some w, and column 0, the lowest index, then ranks first.
        t[:, 0] = np.nextafter(t.max(axis=1), np.inf)
        rows = np.arange(n)[:, None]
        t[rows, np.stack([rng.choice(np.arange(1, m), 3, replace=False) for _ in range(n)])] = (
            np.nextafter(t[:, 0], np.inf)[:, None]
        )
        gt = GroundTruth(relevant=tuple({0} for _ in range(n)), gallery_size=m)
        self.check(np.zeros((n, m)), t, gt)
        values = _sweep_values(np.zeros((n, m)), t, gt, DEFAULT_WEIGHT_GRID, 1)
        # No merge at w = 0, and some at a later w.
        assert values[0] == 0.0 < max(values)

    def test_negative_zero_and_mixed_blocks(self):
        rng = np.random.default_rng(42)
        n, m = self.N, self.M
        gt = self.multi_relevant(rng, n, m)
        t = rng.random((n, m))
        mixed = np.zeros((n, m))
        # One nonzero cell: its block is ranked per w, the others once.
        mixed[n // 2, 7] = 0.25
        for s in (np.full((n, m), -0.0), np.where(rng.random((n, m)) < 0.5, -0.0, 0.0), mixed):
            self.check(s, t, gt)

    def test_negative_and_tied_t(self):
        rng = np.random.default_rng(43)
        n, m = self.N, self.M
        gt = self.multi_relevant(rng, n, m)
        rows, r = np.arange(n), gt._items[gt._starts]
        for t in (-rng.random((n, m)), rng.random((n, m)) - 0.5, -tie_heavy(rng, (n, m), 5)):
            # A twin one step from the lead relevant item, above or below.
            twin = (r + rng.integers(1, m, n)) % m
            t[rows, twin] = np.nextafter(t[rows, r], np.where(rng.random(n) < 0.5, np.inf, -np.inf))
            self.check(np.zeros((n, m)), t, gt)

    def test_multi_relevant_rows_tied_in_t(self):
        rng = np.random.default_rng(44)
        n, m = self.N, self.M
        gt = self.multi_relevant(rng, n, m)
        t = rng.random((n, m))
        # Every relevant item of a row tops it, all tied or a step apart.
        for q, rel in enumerate(gt.relevant):
            top = t[q].max()
            for i in rel:
                t[q, i] = np.nextafter(top, np.inf) if rng.random() < 0.5 else top
        self.check(np.zeros((n, m)), t, gt)

    def test_zero_relevant_pairs_over_a_nonzero_block(self):
        # Every relevant pair of s is zero and every other cell is not, so
        # only the scan of s itself keeps the block from the zero shortcut.
        rng = np.random.default_rng(0)
        t = rng.random((50, 50))
        s = rng.random((50, 50))
        np.fill_diagonal(s, 0.0)
        gt = GroundTruth.identity(50)
        for k in (1, 5):
            check_sweep(s, t, gt, k, [DEFAULT_WEIGHT_GRID])
        # From w = 0.5 on, no relevant item ranks in its row's top 5.
        assert _sweep_values(s, t, gt, DEFAULT_WEIGHT_GRID, 5)[1:] == [0.0] * 9

    def test_magnitudes_past_the_bounds_take_the_per_weight_path(self, monkeypatch):
        rng = np.random.default_rng(45)
        n, m = 40, 300
        gt = self.multi_relevant(rng, n, m)
        for scale in (1e-200, 1e200):
            t = (rng.random((n, m)) - 0.5) * scale
            for k in (1, 2, m):
                check_sweep(np.zeros((n, m)), t, gt, k, self.GRIDS)
            # Every row is ranked in float64 at every weight.
            queries = record_reranks(monkeypatch)
            _sweep_values(np.zeros((n, m)), t, gt, DEFAULT_WEIGHT_GRID, 5)
            assert {w: len(reranked_at(queries, w)) for w in queries} == dict.fromkeys(DEFAULT_WEIGHT_GRID, n)
            monkeypatch.undo()

    def test_one_band_count_per_block(self, monkeypatch):
        rng = np.random.default_rng(46)
        n, m = self.N, self.M
        s, t = rng.random((n, m)), rng.random((n, m))
        gt = self.multi_relevant(rng, n, m)
        # Every third row's relevant items top it at both anchors, so at
        # k = 1 a row with two or more of them is left undecided: the
        # anchors do not prove its lead relevant item first between them.
        for q in range(0, n, 3):
            rel = sorted(gt.relevant[q])
            s[q, rel], t[q, rel] = 1 + rng.random(len(rel)), 1 + rng.random(len(rel))
        grid = DEFAULT_WEIGHT_GRID
        # Every k walks blocks of 2 * _BLOCK_CELLS cells.
        rows = 2 * _BLOCK_CELLS // m
        for k in (1, 5):
            counted = record_band_counts(monkeypatch)
            reranked = record_reranks(monkeypatch)
            blended = record_blends(monkeypatch)
            _sweep_values(np.zeros((n, m)), t, gt, grid, k)
            assert len(counted) == -(-n // rows) and sum(counted) == n
            # No near ties: no row is blended or ranked again at any weight.
            assert not reranked and not blended
            monkeypatch.undo()
            # A nonzero s: one count per block at each of the anchors 0, 0.5,
            # 0.8 and 0.95, and none at the six weights between 0.8 and 0.95,
            # which rank the undecided rows' open cells.
            counted = record_band_counts(monkeypatch)
            queued = record_cell_ranks(monkeypatch)
            _sweep_values(s, t, gt, grid, k)
            assert counted == default_grid_band_counts(n, rows)
            open_cells = exact_undecided_cells(s, t, gt, 0.8, 0.95, k)
            assert len(open_cells)
            for w in grid[3:9]:
                assert np.array_equal(reranked_at(queued, w), open_cells)
            monkeypatch.undo()


def default_grid_band_counts(n: int, rows: int) -> list:
    """The rows of each band count of a default-grid sweep over blocks of ``rows`` rows.

    Each block is counted whole at the anchors 0, 0.5, 0.8 and 0.95. The six
    weights between 0.8 and 0.95 count no band: they rank the rows those
    two leave undecided from their open cells.
    """
    return [min(rows, n - lo) for lo in range(0, n, rows) for _ in range(4)]


class TestAnchorPruning:
    """Weights between two anchors rank only the open cells of the rows the anchors leave undecided.

    Every case is checked against the per-point ``query_ranks`` sweep and a
    stable-sort rank; the structure is watched through the band count, the
    float64 rank kernel and the exact cell ranker.
    """

    GRIDS = [
        (0.0, 0.3, 1.0),
        (0.0, 0.25, 0.5, 0.75, 1.0),
        DEFAULT_WEIGHT_GRID,
        DEFAULT_WEIGHT_GRID + (1.0,),
        tuple(np.linspace(0.0, 1.0, 21)),
        (0.0, 0.1, 0.11, 0.12, 0.5, 0.51, 0.52, 0.7, 0.99, 1.0),
    ]

    def test_anchors_come_from_the_grid(self):
        def anchors(grid):
            return [grid[i] for i in ens._anchors(grid)]

        assert anchors(DEFAULT_WEIGHT_GRID) == [0.0, 0.5, 0.8, 0.95]
        assert anchors(DEFAULT_WEIGHT_GRID + (1.0,)) == [0.0, 0.5, 0.8, 1.0]
        # No weight between anchors: 3 weights or fewer, or no gap narrower
        # than the mean spacing.
        for grid in self.GRIDS[:2] + [self.GRIDS[4], (0.5,), (0.0, 0.001, 0.002)]:
            assert anchors(grid) == list(grid)
        assert anchors(self.GRIDS[5]) == [0.0, 0.12, 0.5, 0.52, 0.7, 0.99, 1.0]

    def test_random_inputs_match_per_point_sweep(self):
        rng = np.random.default_rng(51)
        n, m = 90, 300
        kinds = [
            lambda: rng.random((n, m)),
            lambda: tie_heavy(rng, (n, m), 4),
            lambda: np.round(rng.random((n, m)), 2),
            lambda: 1e3 * rng.random((n, m)),
        ]
        for make in kinds:
            s = make()
            # Independent and closely related models: the second leaves
            # most rows decided and many near the line between hit and miss.
            for t in (make(), s + 0.05 * make()):
                gt = GroundTruth(
                    relevant=tuple(
                        rng.choice(m, size=int(rng.integers(1, 4)), replace=False) for _ in range(n)
                    ),
                    gallery_size=m,
                )
                for k in (2, 3, 5, 10):
                    check_sweep(s, t, gt, k, self.GRIDS)

    def test_relevant_lines_crossing_between_anchors(self, monkeypatch):
        rng = np.random.default_rng(52)
        n, m = 120, 400
        s, t = 0.5 * rng.random((n, m)), 0.5 * rng.random((n, m))
        relevant = []
        for q in range(n):
            a, b, *others = rng.choice(m, size=int(rng.integers(2, 4)), replace=False)
            # Two relevant lines, w and 1.75 - w, cross at 0.875: the best
            # relevant score is 0.95 at the anchors 0.8 and 0.95 and dips to
            # 0.875 between them. A third relevant item scores low.
            s[q, a], t[q, a] = 1.0, 0.0
            s[q, b], t[q, b] = 0.75, 1.75
            relevant.append({int(a), int(b), *map(int, others)})
            free = np.setdiff1d(np.arange(m), [a, b, *others])
            picks = rng.choice(free, size=5, replace=False)
            # One to three flat competitors above 0.95, some by less than the
            # guard band: above the best relevant score at both anchors and
            # so at every weight between them.
            tops = picks[: int(rng.integers(1, 4))]
            s[q, tops] = t[q, tops] = 0.95 + 10.0 ** rng.uniform(-8, -1, len(tops))
            # Flat competitors at 0.89 or 0.91: below it at both anchors but
            # above it around the crossing.
            dips = picks[3 : 3 + int(rng.integers(0, 3))]
            s[q, dips] = t[q, dips] = rng.choice([0.89, 0.91], len(dips))
        # Every third row gets misses instead, whose candidates end the
        # prefilter at the first block, so that the blocks take the walk.
        s, t, gt = sweep_cases.with_misses(rng, s, t, GroundTruth(relevant=tuple(relevant), gallery_size=m))
        for k in (2, 3, 4, 5):
            check_sweep(s, t, gt, k, self.GRIDS[2:4])
            # One block, walked; its anchors 0.8 and 0.95 leave rows
            # undecided at every weight between them.
            tried = record_candidates(monkeypatch)
            queued = record_cell_ranks(monkeypatch)
            _sweep_values(s, t, gt, DEFAULT_WEIGHT_GRID, k)
            monkeypatch.undo()
            assert tried == [None]
            assert set(queued) == set(DEFAULT_WEIGHT_GRID[3:9])
        # Recall at 0.875 falls below its value at both anchors around it.
        values = _sweep_values(s, t, gt, DEFAULT_WEIGHT_GRID, 3)
        assert values[4] < min(values[2], values[9])

    def test_default_grid_reranks_only_undecided_rows_between_anchors(self, monkeypatch):
        rng = np.random.default_rng(53)
        n, m, k = 150, 1000, 5
        grid = DEFAULT_WEIGHT_GRID
        # Each relevant item scores 0.5 in s and t, and every other item
        # clears it by 0.1 in both, above or below. A row has hundreds of
        # items above it (a miss at every w), k - 1, or k - 2 or none. The
        # rows in ``near`` also get a nextafter twin, in the band at every
        # w > 0. A row with k - 1 items above is undecided between the
        # anchors 0.8 and 0.95 only with a twin: with the item itself, more
        # than k items are then not below it.
        high = rng.random((n, m)) < rng.choice([0.0, 0.5], n)[:, None]
        few = rng.choice(n, size=60, replace=False)
        for q, h in zip(few, rng.choice([k - 1, k - 2], len(few))):
            high[q] = False
            high[q, rng.choice(np.setdiff1d(np.arange(m), [q, (q + 1) % m]), h, replace=False)] = True
        s = np.where(high, 0.6 + 0.4 * rng.random((n, m)), 0.4 * rng.random((n, m)))
        t = np.where(high, 0.6 + 0.4 * rng.random((n, m)), 0.4 * rng.random((n, m)))
        rows = np.arange(n)
        s[rows, rows] = t[rows, rows] = 0.5
        near = np.sort(rng.choice(n, size=75, replace=False))
        s[near, (near + 1) % m] = np.nextafter(0.5, 1.0)
        t[near, (near + 1) % m] = 0.5
        gt = GroundTruth(relevant=tuple({i} for i in range(n)), gallery_size=m)
        undecided = exact_undecided_rows(s, t, gt, 0.8, 0.95, k)
        assert np.array_equal(undecided, np.intersect1d(near, rows[high.sum(axis=1) == k - 1]))
        assert len(undecided) > 5
        check_sweep(s, t, gt, k, [grid])
        counted = record_band_counts(monkeypatch)
        queries = record_reranks(monkeypatch)
        queued = record_cell_ranks(monkeypatch)
        _sweep_values(s, t, gt, grid, k)
        # The anchors band-count every row and re-rank the rows in ``near``
        # in float64. The six weights between 0.8 and 0.95 do neither, and
        # rank the open cells of the undecided rows alone: each row's
        # relevant item and its twin.
        cells = exact_undecided_cells(s, t, gt, 0.8, 0.95, k)
        assert np.array_equal(cells, np.ravel(undecided[:, None] * (m + 1) + [0, 1]))
        for w in grid:
            anchor = w in (0.0, 0.5, 0.8, 0.95)
            assert np.array_equal(reranked_at(queries, w), near if anchor else [])
            assert np.array_equal(reranked_at(queued, w), [] if anchor else cells)
        assert counted == default_grid_band_counts(n, 2 * _BLOCK_CELLS // m)

    def test_anchors_with_an_offset_keep_the_lead_ahead_mask(self, monkeypatch):
        rng = np.random.default_rng(57)
        n, m, k = 100, 60, 2
        s, t = rng.random((n, m)), rng.random((n, m))
        # Row 0's lead relevant item 0 sits flat at 0.1, over the rest of
        # the row below 0.05. Its relevant items 1 and 2 cross: each is the
        # best at one anchor, 0.8 and 0.95, at 0.58, and both blend to 0.55
        # at 0.875. Items 3 and 4 sit flat at 0.565, below the best relevant
        # blend at both anchors and above it between them, so the row misses
        # at R@2 from 0.85 to 0.9. Only "ahead" of the lead, taken before
        # the offset from the lead to the best is, leaves the row
        # undecided: taken after it, no more than items 1 and 2 are ahead
        # at either anchor, which would decide a hit.
        s[0], t[0] = 0.05 * rng.random((2, m))
        s[0, :5] = 0.1, 0.5, 0.6, 0.565, 0.565
        t[0, :5] = 0.1, 0.9, 0.2, 0.565, 0.565
        gt = GroundTruth(relevant=({0, 1, 2},) + tuple({int(i)} for i in rng.integers(0, m, n - 1)), gallery_size=m)
        rank = {w: query_ranks(w * s + (1.0 - w) * t, gt)[0] for w in (0.8, 0.875, 0.95)}
        assert rank == {0.8: 0, 0.875: 2, 0.95: 0}
        proofs = []
        filter_ranks = ens._filter_ranks
        monkeypatch.setattr(ens, "_filter_ranks", lambda *args: proofs.append(args[2].any() and args[-1]) or filter_ranks(*args))
        check_sweep(s, t, gt, k, [DEFAULT_WEIGHT_GRID])
        # Both anchors kept proof masks in a block with an offset.
        assert sum(map(bool, proofs)) >= 2

    def test_undecided_tiny_rows_are_ranked_from_their_open_cells(self, monkeypatch):
        rng = np.random.default_rng(54)
        n, m, k = 150, 1000, 5
        grid = DEFAULT_WEIGHT_GRID
        # Each relevant item scores 0.5 in s and t and every other item
        # clears it by 0.1, most of them above: a miss at every w, decided
        # at the anchors. Every fifth row is random and scaled by 1e-32
        # instead, its relevant item near the top. In a block of O(1) rows the
        # anchors' guard bands hold, and they hold all of a tiny row in the
        # band, so the tiny rows are left undecided between 0.8 and 0.95 with
        # every cell open. Their magnitudes lie below the float32 filter's
        # range (2**-100, about 7.9e-31), which the exact cell ranker does
        # not need: it finishes them from those cells at all six weights.
        side = rng.random((n, m)) < 0.5
        s = np.where(side, 0.6 + 0.4 * rng.random((n, m)), 0.4 * rng.random((n, m)))
        t = np.where(side, 0.6 + 0.4 * rng.random((n, m)), 0.4 * rng.random((n, m)))
        rows = np.arange(n)
        s[rows, rows] = t[rows, rows] = 0.5
        tiny = rows[::5]
        s[tiny], t[tiny] = 1e-32 * rng.random((2, len(tiny), m))
        s[tiny, tiny], t[tiny, tiny] = 1e-32 * rng.uniform(0.99, 1.0, (2, len(tiny)))
        gt = GroundTruth(relevant=tuple({i} for i in range(n)), gallery_size=m)
        check_sweep(s, t, gt, k, [grid])
        assert 0.0 < min(_sweep_values(s, t, gt, grid, k))
        queries = record_reranks(monkeypatch)
        queued = record_cell_ranks(monkeypatch)
        _sweep_values(s, t, gt, grid, k)
        # The anchors rank the tiny rows in float64 as band rows, and every
        # weight between them ranks every cell of the tiny rows and no other.
        every_cell = (tiny[:, None] * m + np.arange(m)).ravel()
        assert np.array_equal(exact_undecided_cells(s, t, gt, 0.8, 0.95, k), every_cell)
        for w in grid:
            anchor = w in (0.0, 0.5, 0.8, 0.95)
            assert np.array_equal(reranked_at(queries, w), tiny if anchor else [])
            assert np.array_equal(reranked_at(queued, w), [] if anchor else every_cell)


def fusion_steps(mats, gt: GroundTruth, k: int) -> list:
    """The (accumulator, normalized model) pair each step of a default-grid fusion sweeps."""
    s, steps = np.zeros_like(mats[0]), []
    for x in mats:
        t = minmax_normalize(x)
        steps.append((s.copy(), t))
        w, _ = sweep_weight(s, t, gt, WeightGrid(), RecallAtK(k))
        s = w * s + (1.0 - w) * t
    return steps


class TestCandidatePrefilter:
    """Blocks with few cells that can reach a row's best relevant blend are ranked from those alone.

    A cell can count in a rank only if ``max(s, t)`` reaches its row's
    lowest best relevant blend over the grid, less a rounding margin. Every
    case is checked against the per-point ``query_ranks`` sweep and a
    stable-sort rank; the structure is watched through the prefilter, the
    band count, the float64 rank kernel and the block path's blends.
    """

    GRIDS = [
        DEFAULT_WEIGHT_GRID,
        DEFAULT_WEIGHT_GRID + (1.0,),
        tuple(np.linspace(0.0, 1.0, 21)),
        (0.0, 0.1, 0.11, 0.12, 0.5, 0.51, 0.52, 0.7, 0.99, 1.0),
        (1e-300, 0.3),
    ]
    KS = (1, 2, 5, 10)

    @staticmethod
    def record_row_blends(monkeypatch) -> list:
        """Per float64 blend of whole rows at one weight, the block path's, its row count."""
        rows = []
        blend = ens._blend

        def recorded(w, s, t, *args, **kwargs):
            if np.ndim(w) == 0 and np.ndim(s) == 2:
                rows.append(len(s))
            return blend(w, s, t, *args, **kwargs)

        monkeypatch.setattr(ens, "_blend", recorded)
        return rows

    def check(self, s, t, gt, monkeypatch, ks=KS, grids=GRIDS):
        """check_sweep at every k and grid, with the prefilter taking most blocks."""
        tried = record_candidates(monkeypatch)
        for k in ks:
            check_sweep(s, t, gt, k, grids)
        monkeypatch.undo()
        taken = sum(cells is not None for cells in tried)
        assert taken > len(tried) / 2

    def test_separated_inputs_match_per_point_sweep(self, monkeypatch):
        rng = np.random.default_rng(61)
        n, m = 64, 1000
        mats, gt = separated(rng, n, m, (4.0, 3.5, 3.0))
        norm = [minmax_normalize(x) for x in mats]
        # A later step's accumulator and model, normalized and raw.
        for s, t in ((0.5 * norm[0] + 0.5 * norm[1], norm[2]), (mats[0] + mats[1], mats[2])):
            self.check(s, t, gt, monkeypatch)

    def test_cells_one_step_either_side_of_the_floor(self, monkeypatch):
        rng = np.random.default_rng(62)
        # One block at every k.
        n, m = 30, 1000
        (s, t), gt = separated(rng, n, m, (6.0, 6.0))
        floor = prefilter_floor(s, t, gt, DEFAULT_WEIGHT_GRID)
        # Three items per row outside its relevant set, flat at its floor,
        # one float64 step above it and one below.
        cols = np.stack([rng.choice(np.setdiff1d(np.arange(m), list(rel)), 3, replace=False) for rel in gt.relevant])
        rows = np.arange(n)
        for c, x in zip(cols.T, (floor, np.nextafter(floor, np.inf), np.nextafter(floor, -np.inf))):
            s[rows, c] = t[rows, c] = x
        self.check(s, t, gt, monkeypatch)
        tried = record_candidates(monkeypatch)
        _sweep_values(s, t, gt, DEFAULT_WEIGHT_GRID, 1)
        taken = np.zeros((n, m), bool)
        taken.flat[tried[0]] = True
        assert taken[rows, cols[:, 0]].all() and taken[rows, cols[:, 1]].all()
        assert not taken[rows, cols[:, 2]].any()

    def test_cell_below_the_floor_of_no_margin_rounds_onto_the_best_relevant_blend(self, monkeypatch):
        rng = np.random.default_rng(63)
        n, m = 96, 1000
        grid = DEFAULT_WEIGHT_GRID
        w = np.array(grid)[:, None]
        # Flat relevant scores b whose lowest blend over the grid is b itself,
        # and for which some grid weight rounds the blend of a = b less one
        # float64 step up onto b's: with no margin under b, a would be
        # dropped although it ties the relevant item there.
        pool = 1.0 + rng.random(20 * n)
        a = np.nextafter(pool, -np.inf)
        blend_b, blend_a = w * pool + (1.0 - w) * pool, w * a + (1.0 - w) * a
        b = pool[(blend_b.min(axis=0) == pool) & (blend_a >= blend_b).any(axis=0)][:n]
        assert len(b) == n
        s, t = 0.5 * rng.random((n, m)), 0.5 * rng.random((n, m))
        rows, r = np.arange(n), rng.integers(1, m, n)
        # The competitor sits below the relevant item: a tie is a k = 1 miss.
        j = rng.integers(0, r)
        s[rows, r] = t[rows, r] = b
        s[rows, j] = t[rows, j] = np.nextafter(b, -np.inf)
        gt = GroundTruth(relevant=tuple({int(i)} for i in r), gallery_size=m)
        self.check(s, t, gt, monkeypatch, ks=(1, 2), grids=[grid])
        assert min(_sweep_values(s, t, gt, grid, 1)) < 1.0

    def test_lower_index_twin_ties_the_best_relevant_blend(self, monkeypatch):
        rng = np.random.default_rng(64)
        n, m = 64, 1000
        s, t = rng.standard_normal((2, n, m))
        # One relevant item per row, far above the rest, and a twin with its
        # scores below it (a k = 1 miss at every weight) or above it (a hit).
        r = rng.integers(1, m - 1, n)
        lower = rng.random(n) < 0.5
        twin = np.where(lower, rng.integers(0, r), rng.integers(r + 1, m))
        rows = np.arange(n)
        s[rows, r] += 8.0
        t[rows, r] += 8.0
        s[rows, twin], t[rows, twin] = s[rows, r], t[rows, r]
        gt = GroundTruth(relevant=tuple({int(i)} for i in r), gallery_size=m)
        self.check(s, t, gt, monkeypatch)
        for grid in self.GRIDS:
            assert _sweep_values(s, t, gt, grid, 1) == [np.count_nonzero(~lower) / n] * len(grid)
            assert _sweep_values(s, t, gt, grid, 2) == [1.0] * len(grid)

    def test_negative_and_scaled_rows(self, monkeypatch):
        rng = np.random.default_rng(65)
        n, m = 64, 1000
        mats, gt = separated(rng, n, m, (4.0, 3.5, 3.0))
        s, t = mats[0] + mats[1], mats[2]
        # Every row below zero, some also scaled far up or down.
        scale = rng.choice([1e-300, 1.0, 1e300], n)[:, None]
        for x in (s, t):
            x -= 20.0
        self.check(s, t, gt, monkeypatch)
        self.check(s * scale, t * scale, gt, monkeypatch)

    def test_separated_steps_rank_no_block_in_full(self, monkeypatch):
        rng = np.random.default_rng(66)
        n, m = 128, 1024
        mats, gt = separated(rng, n, m, (4.0, 3.5, 3.0, 2.5))
        for k in (1, 5):
            # Steps 2-4: every block is ranked from its candidates alone.
            for s, t in fusion_steps(mats, gt, k)[1:]:
                tried = record_candidates(monkeypatch)
                blended = self.record_row_blends(monkeypatch)
                counted = record_band_counts(monkeypatch)
                reranked = record_reranks(monkeypatch)
                _sweep_values(s, t, gt, DEFAULT_WEIGHT_GRID, k)
                monkeypatch.undo()
                assert len(tried) == len(block_heights(n, m))
                assert all(cells is not None for cells in tried)
                assert not blended and not counted and not reranked

    def test_fuse_like_steps_try_one_block(self, monkeypatch):
        n = 600
        cfg = SynthConfig(n_items=n, n_models=4, model_skill=(0.6, 0.5, 0.4, 0.3), seed=7)
        mats = [x.data for x in gen_model_scores(cfg)]
        gt = GroundTruth.identity(n)
        for k in (1, 5):
            steps = fusion_steps(mats, gt, k)
            for i, (s, t) in enumerate(steps):
                tried = record_candidates(monkeypatch)
                _sweep_values(s, t, gt, DEFAULT_WEIGHT_GRID, k)
                monkeypatch.undo()
                # The first step's all-zero blocks are ranked once for the
                # whole grid; at each later step the first block has too
                # many candidates and ends the prefilter.
                assert tried == ([] if i == 0 else [None])


class TestSweepCorpus:
    """A fixed slice of the differential corpus in ``sweep_cases`` against ``check_sweep``.

    Each case is checked at the grids and cutoffs listed for it, chosen so
    that every shortcut's known mutations fail here: a zero guard band, a
    prefilter floor without its margin, ``_undecided`` taking a miss at
    k - 1 or a hit at k + 1 entries or returning every ahead cell as open,
    queued cells set over its first anchor too or over a base rank other
    than 0, and ``_cell_ranks`` writing its count instead of adding it.
    The R@1 entries take the anchors too, and catch the first two of the
    ``_undecided`` mutations at k = 1; the third changes nothing there, as
    an undecided row then has no entry above at both anchors. About 5 s.
    """

    SLICE = {
        "continuous": [("default", 1), ("default", 2), ("linspace21", 10)],
        "quantised": [("default+1", 5), ("irregular", 1), ("single", 1)],
        "twins": [("irregular", 2), ("default", 10)],
        "zero_twins": [("default", 1), ("linspace21", 2)],
        "zero_negative": [("default", 3), ("tiny", 1)],
        "one_cell": [("default", 1), ("default+1", 2)],
        "mixed_sign": [("default", 2), ("irregular", 5)],
        "scaled_1e-300": [("default", 5)],
        "scaled_1e-200": [("default+1", 2)],
        "scaled_1e-30": [("default", 3)],
        "scaled_1e+30": [("irregular", 10)],
        "scaled_1e+200": [("tiny", 2)],
        "scaled_1e+300": [("default", 1)],
        "separated": [("default", 1), ("linspace21", 5)],
        "separated_negative": [("irregular", 2)],
        "separated_then_walk": [("default", 1), ("default", 5)],
        "at_floor": [("default", 2)],
        "below_floor": [("default", 1)],
        "crossing": [("default", 1), ("default", 3), ("tiny", 1), ("tiny", 2)],
        "near_k": [("default", 5), ("single", 5)],
    }

    def test_slice_names_every_case(self):
        assert list(self.SLICE) == list(sweep_cases.CASES)

    @pytest.mark.parametrize("name", list(SLICE))
    def test_case_matches_per_point_sweep(self, name):
        s, t, gt = sweep_cases.case(name)
        for grid, k in self.SLICE[name]:
            check_sweep(s, t, gt, k, [sweep_cases.GRIDS[grid]])

    @pytest.mark.parametrize("name", ["separated", "separated_then_walk", "at_floor", "below_floor"])
    def test_prefilter_takes_exactly_the_cells_at_or_above_the_floor(self, name, monkeypatch):
        s, t, gt = sweep_cases.case(name)
        n, m = s.shape
        floor = prefilter_floor(s, t, gt, DEFAULT_WEIGHT_GRID)
        top = np.maximum(s, t)
        for k in (1, 5):
            tried = record_candidates(monkeypatch)
            _sweep_values(s, t, gt, DEFAULT_WEIGHT_GRID, k)
            monkeypatch.undo()
            assert any(cells is not None for cells in tried)
            lo = 0
            for cells, rows in zip(tried, block_heights(n, m)):
                taken = np.flatnonzero(top[lo : lo + rows] >= floor[lo : lo + rows, None])
                if cells is None:
                    assert len(taken) * ens._SPARSE > rows * m
                else:
                    assert np.array_equal(cells, taken)
                lo += rows


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

    def test_zero_warm_starts_match_independent_oracle(self):
        rng = np.random.default_rng(10)
        n, m = 30, 40
        gt = GroundTruth(relevant=tuple({int(i)} for i in rng.integers(0, m, n)), gallery_size=m)
        grid = (0.0, 0.25, 0.5, 1 - 2**-52, 1.0)
        for k in (1, 3) * 8:
            mats = [rng.random((n, m)) for _ in range(3)]
            # A constant warm start rescales to zeros, and a -0.0 one is
            # zero already; raw negative scores fuse without rescaling.
            for init, normalize in ((np.full((n, m), 7.0), True), (np.full((n, m), -0.0), False)):
                inputs = mats if normalize else [-x for x in mats]
                fused, trace = iterative_ensemble(
                    inputs, gt, WeightGrid(grid), metric=RecallAtK(k), normalize=normalize,
                    init_matrix=init,
                )
                oracle_s, oracle_steps = oracle_iterative(
                    [minmax_normalize(x) for x in inputs] if normalize else inputs, gt, grid, k=k
                )
                assert [(s.chosen_w, s.metric_value) for s in trace.steps] == oracle_steps
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


def fusion_instance(n: int, m: int):
    """Four n x m models, a warm start, and the (n, 2) relevant items of each query.

    Every model holds -0.0 in three cells, and the first also the smallest
    subnormal below zero, which a step-1 scale can round to -0.0. A raw
    fusion must turn them to +0.0 at step 1, as ``w * 0 + (1 - w) * t``
    does, and later folds keep the sign of those all -0.0 cells.
    """
    rng = np.random.default_rng(41)
    mats = [rng.uniform(-3, 5, (n, m)) for _ in range(4)]
    for mat in mats:
        mat[0, :3] = -0.0
    mats[0][1 % n, :3] = -5e-324
    init = rng.uniform(-1, 2, (n, m))
    relevant = np.array([rng.choice(m, 2, replace=False) for _ in range(n)])
    return mats, init, relevant


def rebuilt_bytes(mats, init, normalize: bool, weights) -> str:
    """The sha256 of the fused matrix rebuilt out of place, one whole-matrix numpy call a pass."""
    prep = (lambda x: (x - x.min()) / (x.max() - x.min())) if normalize else (lambda x: x)
    s = np.zeros(mats[0].shape) if init is None else prep(init)
    for m, w in zip(mats, weights):
        s = w * s + (1.0 - w) * prep(m)
    return hashlib.sha256(s.tobytes()).hexdigest()


class TestBlockedFusion:
    """Fusion passes over row blocks give the bytes of whole-matrix passes."""

    CONFIGS = (("normalize", True, False), ("raw", False, False), ("init", True, True))

    @staticmethod
    def fused(mats, init, relevant, normalize, with_init) -> bytes:
        gt = GroundTruth(relevant=tuple(map(tuple, relevant.tolist())), gallery_size=init.shape[1])
        start = init if with_init else None
        fused, trace = iterative_ensemble(mats, gt, WeightGrid(), RecallAtK(2), normalize, start)
        return fused.data.tobytes() + repr(trace).encode()

    def test_four_models_make_two_full_size_arrays(self, monkeypatch):
        # 400 x 200 is past one sweep block, so only the step buffers are full-size.
        mats, init, relevant = fusion_instance(400, 200)
        made, empty = [], np.empty

        def counted(shape, dtype=float, *args, **kwargs):
            if tuple(np.atleast_1d(shape)) == (400, 200) and np.dtype(dtype) == np.float64:
                made.append(shape)
            return empty(shape, dtype, *args, **kwargs)

        monkeypatch.setattr(np, "empty", counted)
        for _, normalize, with_init in self.CONFIGS:
            made.clear()
            self.fused(mats, init, relevant, normalize, with_init)
            # The step buffer and the accumulator: model 0's buffer, or the warm start's copy.
            assert len(made) == 2

    def test_concurrent_callers_get_the_serial_bytes(self, monkeypatch):
        mats, init, relevant = fusion_instance(30, 20)
        want = [self.fused(mats, init, relevant, *c[1:]) for c in self.CONFIGS]
        small_blocks(monkeypatch, 2)
        got, errors = [], []

        def caller():
            try:
                for _ in range(4):
                    got.append([self.fused(mats, init, relevant, *c[1:]) for c in self.CONFIGS])
            except BaseException as exc:
                errors.append(exc)

        # Two callers walking one-row blocks, each under its own row buffer, switched often.
        callers = [threading.Thread(target=caller) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert errors == []
        assert got == [want] * 8

    # One row; blocks of 65, 65 and 1 rows (at 3000 cells, of 3 rows and a
    # last of 2); one-row blocks; a fuse-sized instance of 600 x 1000.
    @pytest.mark.parametrize("n, m", [(1, 1000), (131, 1000), (3, 2 * _BLOCK_CELLS + 5), (600, 1000)])
    def test_blocks_cut_unevenly(self, monkeypatch, n, m):
        mats, init, relevant = fusion_instance(n, m)
        gt = GroundTruth(relevant=tuple(map(tuple, relevant.tolist())), gallery_size=m)
        for cells in (_CACHE_CELLS, 3000):
            small_blocks(monkeypatch, cells)
            for _, normalize, with_init in self.CONFIGS:
                start = init if with_init else None
                fused, trace = iterative_ensemble(mats, gt, WeightGrid(), RecallAtK(2), normalize, start)
                weights = [step.chosen_w for step in trace.steps]
                assert hashlib.sha256(fused.data.tobytes()).hexdigest() == rebuilt_bytes(mats, start, normalize, weights)

    def test_fusion_starts_no_thread(self, monkeypatch):
        mats, init, relevant = fusion_instance(600, 1000)

        def refused(thread):
            raise AssertionError(f"fusion started a thread: {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refused)
        for _, normalize, with_init in self.CONFIGS:
            self.fused(mats, init, relevant, normalize, with_init)
        assert minmax_normalize(mats[0]).shape == (600, 1000)


class TestUfuncBuffer:
    """Every public call leaves numpy's ufunc buffer size as it found it, on error too.

    The sweep cuts the buffer to one row around the calls that broadcast a
    per-row column (see ``matrix_ops._row_buffer``).
    """

    @staticmethod
    def instance():
        rng = np.random.default_rng(58)
        n, m = 150, 500
        mats = [rng.random((n, m)) for _ in range(3)]
        gt = GroundTruth(relevant=tuple(rng.choice(m, size=1 + q % 3, replace=False) for q in range(n)), gallery_size=m)
        return mats, gt

    def test_sweeps_and_fusion_leave_the_buffer_size(self):
        mats, gt = self.instance()
        before = np.getbufsize()
        for k in (1, 5):
            sweep_weight(np.zeros(mats[0].shape), mats[0], gt, WeightGrid(), RecallAtK(k))
            assert np.getbufsize() == before
            sweep_weight(mats[0], mats[1], gt, WeightGrid(DEFAULT_WEIGHT_GRID + (1.0,)), RecallAtK(k))
            assert np.getbufsize() == before
            iterative_ensemble(mats, gt, WeightGrid(), RecallAtK(k))
            assert np.getbufsize() == before

    # np.greater runs inside the row buffer in the zero shortcut's band
    # count, and np.subtract in the float32 filter's shifted copies.
    @pytest.mark.parametrize("name, zero", [("greater", True), ("subtract", False)])
    def test_an_error_inside_the_row_buffer_restores_it(self, monkeypatch, name, zero):
        mats, gt = self.instance()
        s = np.zeros(mats[0].shape) if zero else mats[0]
        before, ufunc = np.getbufsize(), getattr(np, name)

        def failing(*args, **kwargs):
            if np.getbufsize() < before:
                raise RuntimeError("inside the row buffer")
            return ufunc(*args, **kwargs)

        monkeypatch.setattr(np, name, failing)
        with pytest.raises(RuntimeError, match="inside the row buffer"):
            sweep_weight(s, mats[1], gt, WeightGrid(), RecallAtK(5))
        assert np.getbufsize() == before


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


class TestPinnedBytes:
    """Fused bytes, chosen weights, traces and ranks pinned as sha256 literals.

    Each digest covers k = 1, 3, 5 and 10, with and without ``normalize``
    and a warm start, on one kind of input. At 70 x 1000 the float64 rank
    kernel walks three row blocks and the float32 pass two, so a change to
    either blocking or to a tie rule moves a digest.
    """

    DIGESTS = {
        "continuous": "a5cc35ed34837286e6301818f3c00e9c6668d8d70c1e7d620c628d8606442a34",
        "tie_heavy": "b9ff9ea04e4c0affecd2cfe214ea5eb5ed3132c4f459e9a6d44859bd25ce11f6",
        "multi": "69b0269209d5cd62f8d36891e066c8b560bfe71ddcec58433b1f7d1f474cc5f8",
        "separated": "99b5a7ae61611a4dc2e9f46a9c07733f9a3d9a967e8cfe8aff1e8a020a247998",
    }

    @staticmethod
    def inputs(kind):
        rng = np.random.default_rng(51)
        n, m = 70, 1000
        if kind == "separated":
            mats, gt = separated(rng, n, m, (3.0, 2.6, 2.3, 2.0))
            return mats[:3], mats[3], gt
        if kind == "tie_heavy":
            mats = [tie_heavy(rng, (n, m), levels) for levels in (3, 4, 5)]
            init = tie_heavy(rng, (n, m), 4)
        else:
            mats = [rng.uniform(-1, 2, (n, m)) for _ in range(3)]
            init = rng.uniform(-1, 2, (n, m))
        if kind == "multi":
            relevant = tuple(
                rng.choice(m, size=int(rng.integers(1, 5)), replace=False) for _ in range(n)
            )
        else:
            relevant = tuple({int(i)} for i in rng.integers(0, m, n))
        return mats, init, GroundTruth(relevant=relevant, gallery_size=m)

    @pytest.mark.parametrize("kind", sorted(DIGESTS))
    def test_fusion_bytes_pinned(self, kind):
        mats, init, gt = self.inputs(kind)
        h = hashlib.sha256()
        for k in (1, 3, 5, 10):
            for normalize in (True, False):
                for warm in (None, init):
                    fused, trace = iterative_ensemble(
                        mats, gt, WeightGrid(DEFAULT_WEIGHT_GRID), RecallAtK(k), normalize, warm
                    )
                    h.update(fused.data.tobytes())
                    h.update(repr([step.chosen_w for step in trace.steps]).encode())
                    h.update(format_trace(trace).encode())
        assert h.hexdigest() == self.DIGESTS[kind]

    def test_query_ranks_pinned(self):
        rng = np.random.default_rng(52)
        data = tie_heavy(rng, (300, 400), 3)
        gt = GroundTruth(
            relevant=tuple(
                rng.choice(400, size=int(rng.integers(1, 4)), replace=False) for _ in range(300)
            ),
            gallery_size=400,
        )
        ranks = query_ranks(data, gt)
        assert ranks[:10].tolist() == [100, 183, 18, 62, 376, 75, 314, 4, 223, 154]
        assert hashlib.sha256(ranks.astype(np.int64).tobytes()).hexdigest() == (
            "400b44f2d0d441588a4e71a824cd3d9c0dc9d8ab7a30d84b7497dcbcf37c3d97"
        )
