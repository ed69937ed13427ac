import numpy as np
import pytest

from rankfuse.ensemble import (
    DEFAULT_WEIGHT_GRID,
    RecallAtK,
    WeightGrid,
    format_trace,
    iterative_ensemble,
    minmax_normalize,
    sweep_weight,
)
from rankfuse.errors import ParameterError, RankfuseError, ShapeError, ValidationError
from rankfuse.matrix_ops import ScoreMatrix
from rankfuse.metrics import GroundTruth, recall_at_k


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
        with pytest.raises(ParameterError):
            RecallAtK(0)


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
        # Matrices that agree with each other but not with the ground truth.
        with pytest.raises(RankfuseError):
            sweep_weight(
                ScoreMatrix(np.zeros((2, 2))),
                ScoreMatrix(np.zeros((2, 2))),
                GroundTruth.identity(3),
                WeightGrid((0.5,)),
            )


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
