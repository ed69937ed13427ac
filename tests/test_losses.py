import math

import numpy as np
import pytest

from rankfuse.errors import ParameterError, ShapeError, ValidationError
from rankfuse.losses import (
    ImageTensor,
    ItmBatch,
    LossKind,
    LossReport,
    MaskSpec,
    MlmBatch,
    finite_diff_grad_check,
    itc_loss,
    itm_loss,
    mim_loss,
    mim_loss_grad,
    mlm_loss,
    total_loss,
)


def random_itm_batch(rng, n=8):
    return ItmBatch(rng.integers(0, 2, n), rng.uniform(0.05, 0.95, n))


def random_mlm_batch(rng, positions=6, vocab=7):
    pred = rng.uniform(0.05, 1.0, (positions, vocab))
    pred /= pred.sum(axis=1, keepdims=True)
    return MlmBatch(pred, rng.integers(0, vocab, positions))


def random_mim_inputs(rng, shape=(2, 4, 4)):
    original = rng.uniform(0.0, 1.0, shape)
    reconstructed = original + rng.uniform(-0.5, 0.5, shape)
    flags = rng.random(shape) < 0.6
    flags[:, 0, 0] = True
    return reconstructed, original, MaskSpec(flags)


class TestContrastiveLoss:
    def test_singleton_is_zero(self):
        assert itc_loss(np.array([[42.0]]), tau=1.0) == 0.0

    def test_identity_2x2(self):
        # Both directions give -log(e/(e+1)) on each diagonal entry.
        expected = -math.log(math.e / (math.e + 1.0))
        assert itc_loss(np.eye(2), tau=1.0) == pytest.approx(expected, abs=1e-12)
        assert itc_loss(np.eye(2), tau=1.0) == pytest.approx(0.31326169, abs=1e-8)

    def test_saturated_diagonal(self):
        assert itc_loss(np.diag([100.0, 100.0, 100.0]), tau=1.0) <= 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            itc_loss(np.ones((2, 3)), tau=1.0)

    def test_bad_tau_rejected(self):
        with pytest.raises(ParameterError):
            itc_loss(np.eye(2), tau=-0.5)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert itc_loss(rng.uniform(-2, 2, (5, 5)), tau=0.07) >= 0.0

    def test_decreases_as_diagonal_grows(self):
        rng = np.random.default_rng(1)
        sim = rng.uniform(-1, 1, (6, 6))
        losses = [
            itc_loss(sim + off * np.eye(6), tau=0.5) for off in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestMatchingLoss:
    def test_perfect_prediction(self):
        assert itm_loss(ItmBatch([1], [1.0])) <= 1e-11

    def test_half_probability(self):
        assert itm_loss(ItmBatch([1], [0.5])) == pytest.approx(0.69314718, abs=1e-8)

    def test_mixed_pair(self):
        expected = (-math.log(0.9) - math.log(0.8)) / 2.0
        assert itm_loss(ItmBatch([1, 0], [0.9, 0.2])) == pytest.approx(expected, abs=1e-12)
        assert itm_loss(ItmBatch([1, 0], [0.9, 0.2])) == pytest.approx(0.16425, abs=1e-5)

    def test_empty_batch_rejected(self):
        with pytest.raises(ParameterError):
            ItmBatch([], [])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            ItmBatch([1, 0], [0.5])

    def test_non_binary_label(self):
        with pytest.raises(ValidationError):
            ItmBatch([0.5], [0.5])
        # A probability outside [0, 1] is named by its position too.
        for prob in (1.5, -0.1, np.nan):
            with pytest.raises(ValidationError, match="prob at position 1"):
                ItmBatch([1, 0], [0.5, prob])

    def test_label_symmetry_exact(self):
        # Dyadic probabilities so 1 - p is computed without rounding; the
        # symmetry then holds bit-for-bit.
        rng = np.random.default_rng(2)
        for _ in range(50):
            labels = rng.integers(0, 2, 10)
            probs = rng.integers(1, 1024, 10) / 1024.0
            assert itm_loss(ItmBatch(labels, probs)) == itm_loss(
                ItmBatch(1 - labels, 1.0 - probs)
            )

    def test_label_symmetry_general_probs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            labels = rng.integers(0, 2, 10)
            probs = rng.uniform(0.01, 0.99, 10)
            assert itm_loss(ItmBatch(labels, probs)) == pytest.approx(
                itm_loss(ItmBatch(1 - labels, 1.0 - probs)), abs=1e-14
            )

    def test_saturated_probs_stay_finite(self):
        assert np.isfinite(itm_loss(ItmBatch([1, 0], [0.0, 1.0])))


class TestMaskedTokenLoss:
    def test_perfect_prediction(self):
        assert mlm_loss(MlmBatch([[0.0, 1.0, 0.0]], [1])) == 0.0

    def test_uniform_over_four(self):
        assert mlm_loss(MlmBatch([[0.25] * 4], [2])) == pytest.approx(math.log(4), abs=1e-12)

    def test_two_positions(self):
        batch = MlmBatch([[0.5, 0.5, 0.0, 0.0], [0.25] * 4], [0, 3])
        expected = (math.log(2) + math.log(4)) / 2
        assert mlm_loss(batch) == pytest.approx(expected, abs=1e-12)
        assert mlm_loss(batch) == pytest.approx(1.03972077, abs=1e-8)

    @pytest.mark.parametrize("vocab", [2, 10, 1000])
    def test_uniform_equals_log_vocab(self, vocab):
        batch = MlmBatch(np.full((3, vocab), 1.0 / vocab), [0, vocab // 2, vocab - 1])
        assert mlm_loss(batch) == pytest.approx(math.log(vocab), abs=1e-10)

    def test_row_not_normalized_rejected(self):
        with pytest.raises(ValidationError, match="sums to"):
            MlmBatch([[0.5, 0.4]], [0])
        # A negative, infinite or NaN entry is named before any row sum.
        for bad in (-0.5, np.inf, np.nan):
            with pytest.raises(ValidationError, match=r"predicted\[0, 0\]"):
                MlmBatch([[bad, 0.0]], [0])

    def test_target_out_of_range(self):
        with pytest.raises(ValidationError, match="outside"):
            MlmBatch([[0.5, 0.5]], [2])
        # A target that is not an integer is named, not truncated.
        for target in (0.7, 1.0, np.nan, True):
            with pytest.raises(ValidationError, match="at position 1 is not an integer"):
                MlmBatch([[0.5, 0.5]] * 2, [0, target])

    def test_empty_batch_rejected(self):
        with pytest.raises(ParameterError):
            MlmBatch(np.zeros((0, 4)), [])


class TestImageReconstructionLoss:
    def test_perfect_reconstruction(self):
        img = np.arange(8.0).reshape(1, 2, 4)
        mask = MaskSpec(np.ones_like(img, dtype=bool))
        assert mim_loss(img, img, mask) == 0.0

    def test_constant_difference(self):
        img = np.zeros((1, 2, 2))
        mask = MaskSpec(np.ones_like(img, dtype=bool))
        assert mim_loss(img + 0.5, img, mask) == pytest.approx(0.5, abs=1e-15)

    def test_average_over_images(self):
        original = np.zeros((2, 2, 2))
        recon = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        mask = MaskSpec(np.ones_like(original, dtype=bool))
        assert mim_loss(recon, original, mask) == pytest.approx(0.5, abs=1e-15)

    def test_masked_only_mean(self):
        original = np.zeros((1, 2, 2))
        recon = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        flags = np.zeros((1, 2, 2), dtype=bool)
        flags[0, 0, 0] = True
        assert mim_loss(recon, original, MaskSpec(flags)) == 1.0

    def test_raw_l1_variant_counts_all_elements(self):
        original = np.zeros((1, 2, 2))
        recon = np.full((1, 2, 2), 0.25)
        flags = np.zeros((1, 2, 2), dtype=bool)
        flags[0, 0, 0] = True
        assert mim_loss(recon, original, MaskSpec(flags), normalize=False) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mim_loss(np.zeros((1, 2, 2)), np.zeros((1, 3, 2)), MaskSpec(np.ones((1, 2, 2), bool)))

    def test_empty_mask_rejected(self):
        img = np.zeros((1, 2, 2))
        with pytest.raises(ParameterError):
            mim_loss(img, img, MaskSpec(np.zeros((1, 2, 2), dtype=bool)))

    def test_empty_mask_rejected_by_loss_and_gradient(self):
        img = np.zeros((1, 2, 2))
        mask = MaskSpec(np.zeros((1, 2, 2), dtype=bool))
        for normalize in (True, False):
            for fn in (mim_loss, mim_loss_grad):
                with pytest.raises(ParameterError):
                    fn(img, img, mask, normalize=normalize)
        with pytest.raises(ParameterError):
            finite_diff_grad_check(LossKind.MIM, (img, img, mask))

    def test_image_tensor_rejects_nan(self):
        with pytest.raises(ValidationError):
            ImageTensor([np.nan])

    def test_mask_ratio(self):
        flags = np.zeros((1, 2, 2), dtype=bool)
        flags[0, 0, :] = True
        assert MaskSpec(flags).mask_ratio == 0.5
        # 0/1 flags of another dtype are read as booleans; other values are named.
        assert MaskSpec(flags.astype(np.float64)).mask_ratio == 0.5
        for bad in (0.5, 2, np.nan):
            with pytest.raises(ValidationError, match=r"mask flag at \(0, 1, 0\)"):
                MaskSpec([[[1, 0], [bad, 0]]])


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss(0, 0, 0, 0).total == 0.0

    def test_unit_components_default_weight(self):
        report = total_loss(1, 1, 1, 1)
        assert report.total == 3.1356
        assert report.alpha == 0.1356

    def test_mixed_components(self):
        assert total_loss(0.5, 0, 0, 2.0).total == 0.7712

    def test_negative_component_rejected(self):
        with pytest.raises(ValidationError):
            total_loss(-0.1, 0, 0, 0)

    def test_report_recompute_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            itc, itm, mlm, mim = rng.uniform(0, 5, 4)
            r = total_loss(itc, itm, mlm, mim)
            assert r.total == r.itc + r.itm + r.mlm + r.alpha * r.mim

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValidationError):
            LossReport(itc=1, itm=1, mlm=1, mim=1, alpha=0.1356, total=3.2)


class TestGradientChecks:
    def test_itc_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            sim = rng.uniform(-1, 1, (4, 4))
            assert finite_diff_grad_check(LossKind.ITC, (sim, 0.07)) < 1e-4

    def test_itm_worked_example(self):
        err = finite_diff_grad_check(LossKind.ITM, ItmBatch([1, 0], [0.9, 0.2]))
        assert err < 1e-4

    def test_itm_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert finite_diff_grad_check(LossKind.ITM, random_itm_batch(rng)) < 1e-4

    def test_mlm_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            assert finite_diff_grad_check(LossKind.MLM, random_mlm_batch(rng)) < 1e-4

    def test_mim_away_from_kinks(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            assert finite_diff_grad_check(LossKind.MIM, random_mim_inputs(rng)) < 1e-4
        # The raw-L1 variant, against central differences at every element
        # away from a kink, masked or not.
        eps = 1e-6
        for _ in range(5):
            rec, org, mask = random_mim_inputs(rng)
            grad = mim_loss_grad(rec, org, mask, normalize=False)
            for idx in zip(*np.nonzero(np.abs(rec - org) > 1e-3)):
                up, down = rec.copy(), rec.copy()
                up[idx] += eps
                down[idx] -= eps
                diff = mim_loss(up, org, mask, normalize=False) - mim_loss(down, org, mask, normalize=False)
                assert diff / (2 * eps) == pytest.approx(grad[idx], rel=1e-4)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ParameterError):
            finite_diff_grad_check(LossKind.ITM, ItmBatch([1], [0.5]), epsilon=1e-2)

    def test_invalid_inputs_propagate(self):
        with pytest.raises(ShapeError):
            finite_diff_grad_check(LossKind.ITC, (np.ones((2, 3)), 1.0))
