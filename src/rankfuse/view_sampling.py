"""Probabilistic local/global view routing for images.

A draw from Normal(mean=0.5, variance=1/6) decides per image whether a random
region-of-interest crop (local view, fine detail) or the whole image (global
view, holistic context) is fed downstream. The raw sample is kept unclipped:
only the >0.5 comparison matters, and the threshold sits at the mean, so the
branch split is a fair coin.

Everything is driven by a caller-owned ``numpy.random.Generator`` so the same
seed reproduces the exact decision sequence and crop rectangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, ShapeError
from .losses import ImageTensor
from .metrics import _is_integer

__all__ = [
    "VIEW_STD",
    "Branch",
    "ViewDecision",
    "CropSpec",
    "sample_decision",
    "sample_decisions",
    "apply_transform",
]

# Standard deviation matching a variance of 1/6.
VIEW_STD = math.sqrt(1.0 / 6.0)


class Branch(Enum):
    LOCAL = "local"
    GLOBAL = "global"


@dataclass(frozen=True)
class ViewDecision:
    """One routing decision: the raw sample and the branch it selects."""

    sampled_value: float
    branch: Branch

    def __post_init__(self):
        expected = Branch.LOCAL if self.sampled_value > 0.5 else Branch.GLOBAL
        if self.branch is not expected:
            raise ParameterError(
                f"branch {self.branch} inconsistent with sampled value {self.sampled_value!r}"
            )


@dataclass(frozen=True)
class CropSpec:
    """Geometry of the local view's region-of-interest crop.

    The crop covers an area fraction drawn uniformly from
    [min_scale, max_scale]; aspect_jitter widens or narrows the region by a
    factor drawn from [1/(1+j), 1+j].
    """

    min_scale: float = 0.5
    max_scale: float = 0.9
    aspect_jitter: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.min_scale <= 1.0 and 0.0 < self.max_scale <= 1.0):
            raise ParameterError(
                f"scales must be in (0, 1], got ({self.min_scale!r}, {self.max_scale!r})"
            )
        if self.min_scale > self.max_scale:
            raise ParameterError(
                f"min_scale {self.min_scale!r} exceeds max_scale {self.max_scale!r}"
            )
        if not np.isfinite(self.aspect_jitter):
            raise ParameterError(f"aspect_jitter must be finite, got {self.aspect_jitter!r}")
        if self.aspect_jitter < 0:
            raise ParameterError(f"aspect_jitter must be >= 0, got {self.aspect_jitter!r}")


def sample_decision(rng: np.random.Generator) -> ViewDecision:
    """Draw one routing decision from a seeded generator."""
    value = float(rng.normal(0.5, VIEW_STD))
    return ViewDecision(sampled_value=value, branch=Branch.LOCAL if value > 0.5 else Branch.GLOBAL)


def sample_decisions(rng: np.random.Generator, count: int) -> list[ViewDecision]:
    """Draw ``count`` decisions; equals ``count`` sequential :func:`sample_decision` calls."""
    if not _is_integer(count):
        raise ParameterError(f"count must be an integer, got {count!r}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    return [sample_decision(rng) for _ in range(count)]


def _resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img.shape[:2]
    rows = np.minimum(((np.arange(out_h) + 0.5) * h / out_h).astype(np.int64), h - 1)
    cols = np.minimum(((np.arange(out_w) + 0.5) * w / out_w).astype(np.int64), w - 1)
    return img[np.ix_(rows, cols)]


def _resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).reshape(-1, 1)
    fx = (xs - x0).reshape(1, -1)
    if img.ndim == 3:
        fy = fy[..., None]
        fx = fx[..., None]
    top = img[np.ix_(y0, x0)] * (1 - fx) + img[np.ix_(y0, x1)] * fx
    bot = img[np.ix_(y1, x0)] * (1 - fx) + img[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


_RESIZERS = {"nearest": _resize_nearest, "bilinear": _resize_bilinear}


def apply_transform(
    image: ImageTensor | np.ndarray,
    decision: ViewDecision,
    crop: CropSpec,
    rng: np.random.Generator,
    out_hw: tuple[int, int] | None = None,
    interp: str = "nearest",
) -> ImageTensor:
    """Apply the branch selected by ``decision`` to one image.

    Local: a random rectangle with area fraction in
    [crop.min_scale, crop.max_scale] is extracted (always fully inside the
    image; oversize requests are clamped to the bounds) and resized to
    ``out_hw``. Global: the whole image is resized to ``out_hw``. The output
    shape is identical for both branches. ``out_hw`` defaults to the input's
    own height and width.

    The generator is consumed in a fixed order (area fraction, aspect factor,
    top, left) on the local branch and not at all on the global branch.
    """
    img = image.data if isinstance(image, ImageTensor) else ImageTensor(image).data
    if img.ndim not in (2, 3) or img.shape[0] < 1 or img.shape[1] < 1:
        raise ShapeError(f"expected a non-empty HxW or HxWxC image, got shape {img.shape}")
    if interp not in _RESIZERS:
        raise ParameterError(f"interp must be one of {sorted(_RESIZERS)}, got {interp!r}")
    resize = _RESIZERS[interp]
    h, w = img.shape[:2]
    out_h, out_w = (h, w) if out_hw is None else out_hw
    if not (_is_integer(out_h) and _is_integer(out_w)):
        raise ParameterError(f"out_hw must hold integers, got ({out_h}, {out_w})")
    if out_h < 1 or out_w < 1:
        raise ParameterError(f"output size must be positive, got ({out_h}, {out_w})")

    if decision.branch is Branch.GLOBAL:
        return ImageTensor(resize(img, out_h, out_w))

    frac = float(rng.uniform(crop.min_scale, crop.max_scale))
    aspect = float(rng.uniform(1.0 / (1.0 + crop.aspect_jitter), 1.0 + crop.aspect_jitter))
    crop_h = int(np.clip(round(h * math.sqrt(frac / aspect)), 1, h))
    crop_w = int(np.clip(round(w * math.sqrt(frac * aspect)), 1, w))
    top = int(rng.integers(0, h - crop_h + 1))
    left = int(rng.integers(0, w - crop_w + 1))
    region = img[top : top + crop_h, left : left + crop_w]
    return ImageTensor(resize(region, out_h, out_w))
