"""Deterministic synthetic retrieval instances for tests and demos.

Paired embeddings come from a shared latent vector plus independent Gaussian
noise, so retrieval difficulty is a single knob (``noise_sigma``). Model
score matrices are built the other way around: each model answers a query
correctly with its configured skill probability, independently across
models, which makes ensemble gains predictable from first principles
(two skill-p models can be fused up to 1 - (1-p)^2 correct).

Everything is a pure function of the seed; child streams keep the embedding
and score draws independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .matrix_ops import EmbeddingMatrix, ScoreMatrix
from .metrics import GroundTruth, _is_integer

__all__ = ["SynthConfig", "gen_paired_embeddings", "gen_model_scores"]

# Correct answers get this score against a U[0,1) background, which keeps the
# true match on top at any convex fusion weight after min-max normalization.
_CORRECT_SCORE = 2.0


@dataclass(frozen=True)
class SynthConfig:
    n_items: int = 100
    dim: int = 16
    noise_sigma: float = 0.1
    seed: int = 0
    n_models: int = 2
    model_skill: tuple = field(default=(0.7, 0.7))

    def __post_init__(self):
        for name, low in (("n_items", 2), ("dim", 2), ("seed", 0), ("n_models", 0)):
            v = getattr(self, name)
            if not _is_integer(v) or v < low:
                raise ParameterError(f"{name} must be an integer >= {low}, got {v!r}")
        if not np.isfinite(self.noise_sigma):
            raise ParameterError(f"noise_sigma must be finite, got {self.noise_sigma!r}")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma!r}")
        skills = tuple(float(s) for s in self.model_skill)
        if len(skills) != self.n_models:
            raise ParameterError(
                f"{len(skills)} skill values for n_models={self.n_models}"
            )
        if any(not 0.0 <= s <= 1.0 for s in skills):
            raise ParameterError(f"model skills must lie in [0, 1], got {skills}")
        object.__setattr__(self, "model_skill", skills)


def gen_paired_embeddings(cfg: SynthConfig) -> tuple[EmbeddingMatrix, EmbeddingMatrix, GroundTruth]:
    """Text/image embedding banks whose row i share a latent vector.

    Both sides are the latent plus independent Normal(0, noise_sigma) noise;
    the ground truth is the identity pairing.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    latent = rng.standard_normal((cfg.n_items, cfg.dim))
    text = latent + cfg.noise_sigma * rng.standard_normal((cfg.n_items, cfg.dim))
    image = latent + cfg.noise_sigma * rng.standard_normal((cfg.n_items, cfg.dim))
    return EmbeddingMatrix(text), EmbeddingMatrix(image), GroundTruth.identity(cfg.n_items)


def gen_model_scores(cfg: SynthConfig) -> list[ScoreMatrix]:
    """One score matrix per configured model.

    Model m puts the true match on top for a query with probability
    ``model_skill[m]`` (by planting a dominant score over a uniform
    background); otherwise the whole row is uniform noise, so the true match
    still wins by luck with probability ~1/n_items. Errors are independent
    across models.
    """
    rng = np.random.default_rng([cfg.seed, 1])
    out = []
    for skill in cfg.model_skill:
        correct = rng.random(cfg.n_items) < skill
        scores = rng.random((cfg.n_items, cfg.n_items))
        rows = np.flatnonzero(correct)
        scores[rows, rows] = _CORRECT_SCORE
        out.append(ScoreMatrix(scores))
    return out
