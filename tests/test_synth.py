import numpy as np
import pytest

from rankfuse.errors import ParameterError
from rankfuse.matrix_ops import cosine_similarity
from rankfuse.metrics import GroundTruth, recall_at_k
from rankfuse.synth import SynthConfig, gen_model_scores, gen_paired_embeddings


class TestConfig:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.n_models == len(cfg.model_skill)

    def test_too_few_items(self):
        with pytest.raises(ParameterError):
            SynthConfig(n_items=1)
        # Integer fields take integers only, and a seed is not negative.
        for field, value in (("n_items", 2.5), ("n_items", True), ("dim", 4.0),
                             ("seed", 1.5), ("seed", -1), ("n_models", 2.0)):
            with pytest.raises(ParameterError, match=f"{field} must be an integer"):
                SynthConfig(**{field: value})
        # A noise scale is finite.
        for value in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="noise_sigma must be finite"):
                SynthConfig(noise_sigma=value)

    def test_skill_count_mismatch(self):
        with pytest.raises(ParameterError):
            SynthConfig(n_models=3, model_skill=(0.5,))

    def test_skill_out_of_range(self):
        with pytest.raises(ParameterError):
            SynthConfig(n_models=1, model_skill=(1.5,))


class TestPairedEmbeddings:
    def test_deterministic(self):
        cfg = SynthConfig(n_items=20, dim=8, noise_sigma=0.3, seed=5)
        t1, i1, g1 = gen_paired_embeddings(cfg)
        t2, i2, g2 = gen_paired_embeddings(cfg)
        assert t1.data.tobytes() == t2.data.tobytes()
        assert i1.data.tobytes() == i2.data.tobytes()
        assert g1.relevant == g2.relevant

    def test_noiseless_pairing_is_perfect(self):
        cfg = SynthConfig(n_items=50, dim=8, noise_sigma=0.0, seed=1)
        text, image, gt = gen_paired_embeddings(cfg)
        scores = cosine_similarity(text, image)
        assert recall_at_k(scores, gt, 1) == 1.0

    def test_heavy_noise_destroys_retrieval(self):
        cfg = SynthConfig(n_items=100, dim=8, noise_sigma=10.0, seed=2)
        text, image, gt = gen_paired_embeddings(cfg)
        scores = cosine_similarity(text, image)
        assert recall_at_k(scores, gt, 1) < 0.2

    def test_identity_ground_truth(self):
        cfg = SynthConfig(n_items=10, dim=4, seed=3)
        _, _, gt = gen_paired_embeddings(cfg)
        assert gt.relevant == tuple(frozenset({i}) for i in range(10))


class TestModelScores:
    def test_deterministic(self):
        cfg = SynthConfig(n_items=30, dim=4, seed=4, n_models=2, model_skill=(0.6, 0.8))
        a = gen_model_scores(cfg)
        b = gen_model_scores(cfg)
        for m1, m2 in zip(a, b):
            assert m1.data.tobytes() == m2.data.tobytes()

    def test_perfect_skill(self):
        cfg = SynthConfig(n_items=40, dim=4, seed=5, n_models=1, model_skill=(1.0,))
        (scores,) = gen_model_scores(cfg)
        assert recall_at_k(scores, GroundTruth.identity(40), 1) == 1.0

    def test_zero_skill_is_near_random(self):
        cfg = SynthConfig(n_items=200, dim=4, seed=6, n_models=1, model_skill=(0.0,))
        (scores,) = gen_model_scores(cfg)
        assert recall_at_k(scores, GroundTruth.identity(200), 1) <= 1 / 200 + 0.05

    def test_skill_controls_hit_rate(self):
        cfg = SynthConfig(n_items=500, dim=4, seed=7, n_models=2, model_skill=(0.3, 0.9))
        low, high = gen_model_scores(cfg)
        gt = GroundTruth.identity(500)
        r_low = recall_at_k(low, gt, 1)
        r_high = recall_at_k(high, gt, 1)
        assert abs(r_low - 0.3) < 0.07
        assert abs(r_high - 0.9) < 0.07

    def test_models_error_independently(self):
        cfg = SynthConfig(n_items=1000, dim=4, seed=8, n_models=2, model_skill=(0.5, 0.5))
        a, b = gen_model_scores(cfg)
        gt_idx = np.arange(1000)
        hit_a = np.argmax(a.data, axis=1) == gt_idx
        hit_b = np.argmax(b.data, axis=1) == gt_idx
        both = np.mean(hit_a & hit_b)
        # Independent ~Bernoulli(0.5) hits agree about a quarter of the time.
        assert abs(both - 0.25) < 0.06
