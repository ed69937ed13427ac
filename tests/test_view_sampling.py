import numpy as np
import pytest

from rankfuse.errors import ParameterError, ShapeError
from rankfuse.view_sampling import (
    VIEW_STD,
    Branch,
    CropSpec,
    ViewDecision,
    apply_transform,
    sample_decision,
    sample_decisions,
)


class TestDecisionSampling:
    def test_threshold_above(self):
        d = ViewDecision(sampled_value=0.7, branch=Branch.LOCAL)
        assert d.branch is Branch.LOCAL

    def test_threshold_below(self):
        d = ViewDecision(sampled_value=0.3, branch=Branch.GLOBAL)
        assert d.branch is Branch.GLOBAL

    def test_inconsistent_branch_rejected(self):
        with pytest.raises(ParameterError):
            ViewDecision(sampled_value=0.7, branch=Branch.GLOBAL)
        # A count of decisions is an integer; a bool is not one.
        for count in (2.5, True):
            with pytest.raises(ParameterError, match="count must be an integer"):
                sample_decisions(np.random.default_rng(0), count)

    def test_std_matches_variance_one_sixth(self):
        assert VIEW_STD**2 == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_branch_split_is_fair(self):
        rng = np.random.default_rng(123)
        decisions = sample_decisions(rng, 100_000)
        frac_local = sum(d.branch is Branch.LOCAL for d in decisions) / len(decisions)
        assert abs(frac_local - 0.5) < 0.01

    def test_same_seed_identical_sequence(self):
        a = sample_decisions(np.random.default_rng(7), 500)
        b = sample_decisions(np.random.default_rng(7), 500)
        assert [(d.sampled_value, d.branch) for d in a] == [
            (d.sampled_value, d.branch) for d in b
        ]

    def test_values_are_unclipped(self):
        rng = np.random.default_rng(0)
        values = [sample_decision(rng).sampled_value for _ in range(10_000)]
        assert min(values) < 0.0 and max(values) > 1.0

    def test_sample_statistics(self):
        rng = np.random.default_rng(9)
        values = np.array([d.sampled_value for d in sample_decisions(rng, 50_000)])
        assert values.mean() == pytest.approx(0.5, abs=0.01)
        assert values.var() == pytest.approx(1.0 / 6.0, abs=0.01)


def gradient_image(h, w):
    return np.arange(h * w, dtype=np.float64).reshape(h, w)


class TestApplyTransform:
    def test_global_is_whole_image_resize(self):
        img = gradient_image(8, 8)
        d = ViewDecision(sampled_value=0.3, branch=Branch.GLOBAL)
        out = apply_transform(img, d, CropSpec(), np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, img)

    def test_full_area_crop_equals_global(self):
        img = gradient_image(6, 10)
        rng = np.random.default_rng(1)
        local = ViewDecision(sampled_value=0.9, branch=Branch.LOCAL)
        out = apply_transform(
            img, local, CropSpec(min_scale=1.0, max_scale=1.0, aspect_jitter=0.0), rng
        )
        np.testing.assert_array_equal(out.data, img)

    def test_quarter_area_crop_side_lengths(self):
        img = gradient_image(8, 8)
        rng = np.random.default_rng(2)
        local = ViewDecision(sampled_value=0.9, branch=Branch.LOCAL)
        spec = CropSpec(min_scale=0.25, max_scale=0.25, aspect_jitter=0.0)
        out = apply_transform(img, local, spec, rng, out_hw=(4, 4))
        # A 4x4 region resized to 4x4 is the region itself: contiguous values.
        region = out.data
        assert region.shape == (4, 4)
        top, left = int(region[0, 0]) // 8, int(region[0, 0]) % 8
        assert top + 4 <= 8 and left + 4 <= 8
        np.testing.assert_array_equal(region, img[top : top + 4, left : left + 4])

    def test_output_shape_branch_independent(self):
        rng = np.random.default_rng(3)
        spec = CropSpec(min_scale=0.3, max_scale=0.9)
        for h, w in [(2, 2), (5, 9), (16, 4)]:
            img = gradient_image(h, w)
            for branch, value in [(Branch.LOCAL, 0.9), (Branch.GLOBAL, 0.1)]:
                out = apply_transform(
                    img, ViewDecision(value, branch), spec, rng, out_hw=(3, 3)
                )
                assert out.data.shape == (3, 3)

    def test_channels_preserved(self):
        img = np.stack([gradient_image(6, 6)] * 3, axis=-1)
        d = ViewDecision(sampled_value=0.9, branch=Branch.LOCAL)
        out = apply_transform(img, d, CropSpec(), np.random.default_rng(4), out_hw=(4, 4))
        assert out.data.shape == (4, 4, 3)

    def test_crop_always_inside_bounds(self):
        rng = np.random.default_rng(5)
        img = gradient_image(7, 11)
        spec = CropSpec(min_scale=0.2, max_scale=1.0, aspect_jitter=0.5)
        d = ViewDecision(sampled_value=0.9, branch=Branch.LOCAL)
        for _ in range(500):
            out = apply_transform(img, d, spec, rng, out_hw=(2, 2))
            assert np.all(out.data >= 0) and np.all(out.data < 77)

    def test_same_seed_same_crop(self):
        img = gradient_image(9, 9)
        spec = CropSpec(min_scale=0.2, max_scale=0.8, aspect_jitter=0.3)
        d = ViewDecision(sampled_value=0.9, branch=Branch.LOCAL)
        a = apply_transform(img, d, spec, np.random.default_rng(42), out_hw=(5, 5))
        b = apply_transform(img, d, spec, np.random.default_rng(42), out_hw=(5, 5))
        np.testing.assert_array_equal(a.data, b.data)

    def test_bilinear_option(self):
        img = gradient_image(4, 4)
        d = ViewDecision(sampled_value=0.1, branch=Branch.GLOBAL)
        out = apply_transform(img, d, CropSpec(), np.random.default_rng(0),
                              out_hw=(8, 8), interp="bilinear")
        assert out.data.shape == (8, 8)
        assert np.all(np.diff(out.data, axis=1) >= 0)  # monotone along the gradient
        # An H x W x C image is resized channel by channel.
        rgb = apply_transform(np.stack([img, 2 * img, -img], axis=-1), d, CropSpec(),
                              np.random.default_rng(0), out_hw=(8, 8), interp="bilinear")
        assert rgb.data.shape == (8, 8, 3)
        for c, scale in enumerate((1, 2, -1)):
            np.testing.assert_allclose(rgb.data[..., c], scale * out.data, rtol=1e-12, atol=0)

    def test_empty_image_rejected(self):
        d = ViewDecision(sampled_value=0.1, branch=Branch.GLOBAL)
        with pytest.raises(ShapeError):
            apply_transform(np.zeros((0, 3)), d, CropSpec(), np.random.default_rng(0))
        # An output size that is not a pair of integers, on either branch.
        for d in (d, ViewDecision(sampled_value=0.9, branch=Branch.LOCAL)):
            for out_hw in ((2.7, 3), (True, 3), (float("nan"), 3)):
                with pytest.raises(ParameterError, match="out_hw must hold integers"):
                    apply_transform(np.zeros((4, 4)), d, CropSpec(), np.random.default_rng(0), out_hw)

    def test_bad_crop_spec(self):
        with pytest.raises(ParameterError):
            CropSpec(min_scale=0.9, max_scale=0.5)
        with pytest.raises(ParameterError):
            CropSpec(min_scale=0.0)
        with pytest.raises(ParameterError):
            CropSpec(aspect_jitter=-1.0)
        for jitter in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="aspect_jitter must be finite"):
                CropSpec(aspect_jitter=jitter)
