"""The four training-objective loss kernels and their verification harness.

Each loss has a matching analytic gradient (with respect to the array a
training loop would backpropagate into) plus a central-finite-difference
checker, so the kernels can be trusted without any autograd framework.

All probabilities are clamped to [1e-12, 1 - 1e-12] before logs: the
binary-cross-entropy and token-likelihood formulas are undefined at 0/1 and
upstream heads routinely saturate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, ShapeError, ValidationError
from .matrix_ops import ScoreMatrix, _as_array, _check_row_sums
from .metrics import _is_integer

__all__ = [
    "CLAMP_EPS",
    "DEFAULT_MIM_WEIGHT",
    "ItmBatch",
    "MlmBatch",
    "ImageTensor",
    "MaskSpec",
    "LossReport",
    "LossKind",
    "itc_loss",
    "itc_loss_grad",
    "itm_loss",
    "itm_loss_grad",
    "mlm_loss",
    "mlm_loss_grad",
    "mim_loss",
    "mim_loss_grad",
    "total_loss",
    "finite_diff_grad_check",
]

CLAMP_EPS = 1e-12

# Weight on the image-reconstruction term in the combined objective.
DEFAULT_MIM_WEIGHT = 0.1356


# ---------------------------------------------------------------------------
# Batch containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ItmBatch:
    """A batch of image-text matching decisions.

    ``labels`` are the ground-truth {0, 1} pair labels, ``probs`` the
    predicted matching probabilities.
    """

    labels: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        labels = _as_array(self.labels, "labels").ravel()
        probs = _as_array(self.probs, "probs").ravel()
        if labels.size == 0:
            raise ParameterError("matching batch is empty")
        if labels.shape != probs.shape:
            raise ShapeError(f"labels ({labels.size}) and probs ({probs.size}) differ in length")
        if not np.all((labels == 0.0) | (labels == 1.0)):
            bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))[0]
            raise ValidationError(f"label at position {bad} is {labels[bad]!r}, expected 0 or 1")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0) or np.any(probs > 1.0):
            bad = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0)))[0]
            raise ValidationError(f"prob at position {bad} is {probs[bad]!r}, outside [0, 1]")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class MlmBatch:
    """Predicted token distributions at masked positions plus the true tokens.

    ``predicted`` has one row per masked position over a vocabulary of size V;
    each row must sum to 1 within 1e-9. ``target_index`` gives the correct
    token id per position.
    """

    predicted: np.ndarray
    target_index: np.ndarray

    def __post_init__(self):
        pred = _as_array(self.predicted, "predicted")
        # Kept as objects, so a float, bool or NaN target is named, not truncated.
        targets = np.asarray(self.target_index, dtype=object).ravel()
        if pred.ndim != 2:
            raise ShapeError(f"predicted must be 2-D (positions x vocab), got {pred.shape}")
        if pred.shape[0] == 0:
            raise ParameterError("masked-token batch is empty")
        if targets.size != pred.shape[0]:
            raise ShapeError(
                f"{targets.size} target indices for {pred.shape[0]} predicted rows"
            )
        bad = ~(np.isfinite(pred) & (pred >= 0.0))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(f"predicted[{i}, {j}] is {pred[i, j]!r}, expected finite and >= 0")
        _check_row_sums(pred, "predicted")
        for i, t in enumerate(targets):
            if not _is_integer(t):
                raise ValidationError(f"target index {t!r} at position {i} is not an integer")
        targets = targets.astype(np.int64)
        vocab = pred.shape[1]
        oob = np.flatnonzero((targets < 0) | (targets >= vocab))
        if oob.size:
            i = int(oob[0])
            raise ValidationError(
                f"target index {targets[i]} at position {i} outside [0, {vocab})"
            )
        object.__setattr__(self, "predicted", pred)
        object.__setattr__(self, "target_index", targets)

    @property
    def vocab_size(self) -> int:
        return self.predicted.shape[1]

    def __len__(self) -> int:
        return self.predicted.shape[0]


@dataclass(frozen=True)
class ImageTensor:
    """A float array of arbitrary shape holding image (or image-batch) data."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.data, "image")
        if not np.all(np.isfinite(arr)):
            flat = int(np.flatnonzero(~np.isfinite(arr.ravel()))[0])
            raise ValidationError(f"image has non-finite value at flat index {flat}")
        object.__setattr__(self, "data", arr)

    @property
    def element_count(self) -> int:
        return self.data.size


@dataclass(frozen=True)
class MaskSpec:
    """Boolean flags marking which elements of an image batch are masked."""

    masked_flags: np.ndarray

    def __post_init__(self):
        flags = self.masked_flags
        if not (isinstance(flags, np.ndarray) and flags.dtype == np.bool_):
            flags = _as_array(flags, "masked_flags")
            bad = (flags != 0) & (flags != 1)
            if bad.any():
                at = tuple(int(i) for i in np.argwhere(bad)[0])
                raise ValidationError(f"mask flag at {at} is {flags[at]!r}, expected 0 or 1")
            flags = flags.astype(bool)
        object.__setattr__(self, "masked_flags", flags)

    @property
    def mask_ratio(self) -> float:
        return float(self.masked_flags.mean()) if self.masked_flags.size else 0.0


@dataclass(frozen=True)
class LossReport:
    """The four loss components, the reconstruction weight, and their sum."""

    itc: float
    itm: float
    mlm: float
    mim: float
    alpha: float
    total: float

    def __post_init__(self):
        for name in ("itc", "itm", "mlm", "mim"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValidationError(f"loss component {name} is {v!r}, expected finite and >= 0")
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise ValidationError(f"alpha is {self.alpha!r}, expected finite and >= 0")
        expected = self.itc + self.itm + self.mlm + self.alpha * self.mim
        if abs(self.total - expected) > 1e-12:
            raise ValidationError(f"total {self.total!r} differs from recomputed {expected!r}")


class LossKind(Enum):
    ITC = "itc"
    ITM = "itm"
    MLM = "mlm"
    MIM = "mim"


# ---------------------------------------------------------------------------
# Contrastive loss
# ---------------------------------------------------------------------------


def _log_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def _itc_nll(sim: np.ndarray, tau: float) -> float:
    x = sim / tau
    d = np.arange(x.shape[0])
    lsm_rows = _log_softmax(x, axis=1)
    lsm_cols = _log_softmax(x, axis=0)
    # + 0.0 folds a perfectly aligned batch's -0.0 into +0.0.
    return float(-0.5 * np.mean(lsm_rows[d, d] + lsm_cols[d, d])) + 0.0


def _check_itc_inputs(sim, tau: float) -> np.ndarray:
    arr = sim.data if isinstance(sim, ScoreMatrix) else ScoreMatrix(sim).data
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"contrastive similarity must be square, got {arr.shape}")
    if not tau > 0:
        raise ParameterError(f"temperature must be positive, got {tau!r}")
    return arr


def itc_loss(sim: ScoreMatrix | np.ndarray, tau: float) -> float:
    """Symmetric contrastive loss for an N x N in-batch similarity matrix.

    Row i / column i are the matching pair. Both retrieval directions are
    softmax-normalized from the same raw matrix at temperature ``tau``, and
    the loss is the negated mean diagonal log-probability, averaged over the
    two directions. Always finite and non-negative.
    """
    arr = _check_itc_inputs(sim, tau)
    return _itc_nll(arr, tau)


def itc_loss_grad(sim: ScoreMatrix | np.ndarray, tau: float) -> np.ndarray:
    """Gradient of :func:`itc_loss` with respect to the raw similarity matrix."""
    arr = _check_itc_inputs(sim, tau)
    x = arr / tau
    n = x.shape[0]
    p_rows = np.exp(_log_softmax(x, axis=1))
    p_cols = np.exp(_log_softmax(x, axis=0))
    eye = np.eye(n)
    return -(2.0 * eye - p_rows - p_cols) / (2.0 * n * tau)


# ---------------------------------------------------------------------------
# Matching loss
# ---------------------------------------------------------------------------


def _itm_nll(labels: np.ndarray, probs: np.ndarray) -> float:
    # Selecting q or 1-q first and taking a single log keeps the loss exactly
    # label-symmetric: flipping (labels, probs) -> (1-labels, 1-probs) routes
    # every element through the identical computation.
    q = np.where(labels == 1.0, probs, 1.0 - probs)
    q = np.clip(q, CLAMP_EPS, 1.0 - CLAMP_EPS)
    return float(np.mean(-np.log(q)))


def itm_loss(batch: ItmBatch) -> float:
    """Mean binary cross-entropy between pair labels and predicted match probabilities."""
    return _itm_nll(batch.labels, batch.probs)


def itm_loss_grad(batch: ItmBatch) -> np.ndarray:
    """Gradient of :func:`itm_loss` with respect to the predicted probabilities.

    Zero where a probability sits in the clamped region, matching the
    piecewise-constant behaviour of the clamped loss there.
    """
    p, q0 = batch.labels, batch.probs
    q = np.clip(q0, CLAMP_EPS, 1.0 - CLAMP_EPS)
    grad = (-p / q + (1.0 - p) / (1.0 - q)) / len(batch)
    grad[(q0 < CLAMP_EPS) | (q0 > 1.0 - CLAMP_EPS)] = 0.0
    return grad


# ---------------------------------------------------------------------------
# Masked-token loss
# ---------------------------------------------------------------------------


def _mlm_nll(predicted: np.ndarray, targets: np.ndarray) -> float:
    pt = predicted[np.arange(predicted.shape[0]), targets]
    return float(np.mean(-np.log(np.maximum(pt, CLAMP_EPS))))


def mlm_loss(batch: MlmBatch) -> float:
    """Mean negative log-likelihood of the correct token at each masked position."""
    return _mlm_nll(batch.predicted, batch.target_index)


def mlm_loss_grad(batch: MlmBatch) -> np.ndarray:
    """Gradient of :func:`mlm_loss` with respect to the predicted distributions.

    Only the target-token coordinates carry gradient; the distributions are
    treated as free inputs (no renormalization is assumed).
    """
    m = len(batch)
    pos = np.arange(m)
    pt = batch.predicted[pos, batch.target_index]
    grad = np.zeros_like(batch.predicted)
    live = pt > CLAMP_EPS
    grad[pos[live], batch.target_index[live]] = -1.0 / (m * pt[live])
    return grad


# ---------------------------------------------------------------------------
# Masked-image reconstruction loss
# ---------------------------------------------------------------------------


def _mim_inputs(reconstructed, original, mask: MaskSpec, normalize: bool):
    """Validated (rec, org, flags, per-image masked counts).

    The mask must select at least one element. With ``normalize`` on, every
    image must have a masked element, since its contribution is a mean over
    them.
    """
    rec = reconstructed.data if isinstance(reconstructed, ImageTensor) else ImageTensor(reconstructed).data
    org = original.data if isinstance(original, ImageTensor) else ImageTensor(original).data
    flags = mask.masked_flags
    if rec.shape != org.shape:
        raise ShapeError(f"reconstructed {rec.shape} and original {org.shape} shapes differ")
    if flags.shape != rec.shape:
        raise ShapeError(f"mask {flags.shape} does not match image shape {rec.shape}")
    if rec.ndim < 2:
        raise ShapeError(f"image batch must have a leading batch axis, got shape {rec.shape}")
    counts = flags.reshape(rec.shape[0], -1).sum(axis=1)
    if normalize and np.any(counts == 0):
        raise ParameterError(f"image {int(np.flatnonzero(counts == 0)[0])} has no masked elements")
    if not counts.any():
        raise ParameterError("mask selects no elements")
    return rec, org, flags, counts


def mim_loss(
    reconstructed: ImageTensor | np.ndarray,
    original: ImageTensor | np.ndarray,
    mask: MaskSpec,
    normalize: bool = True,
) -> float:
    """L1 reconstruction error over a batch of images (leading axis = image).

    With ``normalize`` on (the default), each image contributes the mean
    absolute difference over its *masked* elements and the result is the
    average over images. With ``normalize`` off, each image contributes the
    raw L1 sum over all of its elements instead; this variant is
    scale-dependent on image size.
    """
    rec, org, flags, counts = _mim_inputs(reconstructed, original, mask, normalize)
    n = rec.shape[0]
    absdiff = np.abs(rec - org).reshape(n, -1)
    if normalize:
        per_image = (absdiff * flags.reshape(n, -1)).sum(axis=1) / counts
    else:
        per_image = absdiff.sum(axis=1)
    return float(per_image.mean())


def mim_loss_grad(
    reconstructed: ImageTensor | np.ndarray,
    original: ImageTensor | np.ndarray,
    mask: MaskSpec,
    normalize: bool = True,
) -> np.ndarray:
    """Gradient of :func:`mim_loss` with respect to the reconstruction.

    The loss is piecewise linear; the sign convention at exact-zero
    differences follows ``np.sign`` (zero).
    """
    rec, org, flags, counts = _mim_inputs(reconstructed, original, mask, normalize)
    n = rec.shape[0]
    sign = np.sign(rec - org)
    if normalize:
        scale = counts.reshape((n,) + (1,) * (rec.ndim - 1)).astype(np.float64)
        return sign * flags / (n * scale)
    return sign / n


# ---------------------------------------------------------------------------
# Combined objective
# ---------------------------------------------------------------------------


def total_loss(
    itc: float,
    itm: float,
    mlm: float,
    mim: float,
    alpha: float = DEFAULT_MIM_WEIGHT,
) -> LossReport:
    """Combine the four components into ``itc + itm + mlm + alpha * mim``."""
    return LossReport(
        itc=float(itc),
        itm=float(itm),
        mlm=float(mlm),
        mim=float(mim),
        alpha=float(alpha),
        total=float(itc) + float(itm) + float(mlm) + float(alpha) * float(mim),
    )


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------


def _central_diff(f, x: np.ndarray, eps: float, coords: np.ndarray | None = None) -> np.ndarray:
    grad = np.zeros_like(x, dtype=np.float64)
    flat_coords = range(x.size) if coords is None else np.flatnonzero(coords.ravel())
    xp = x.astype(np.float64, copy=True)
    for i in flat_coords:
        orig = xp.flat[i]
        xp.flat[i] = orig + eps
        f_plus = f(xp)
        xp.flat[i] = orig - eps
        f_minus = f(xp)
        xp.flat[i] = orig
        grad.flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def _max_rel_error(analytic: np.ndarray, numeric: np.ndarray, coords: np.ndarray | None) -> float:
    a, n = analytic.ravel(), numeric.ravel()
    if coords is not None:
        sel = coords.ravel()
        a, n = a[sel], n[sel]
    if a.size == 0:
        return 0.0
    scale = max(np.abs(a).max(), np.abs(n).max())
    if scale == 0.0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3 * scale)
    return float((np.abs(a - n) / denom).max())


def finite_diff_grad_check(kind: LossKind, inputs, epsilon: float = 1e-6) -> float:
    """Compare a loss's analytic gradient against central finite differences.

    Parameters
    ----------
    kind : LossKind
        Which loss to check.
    inputs :
        ITC: ``(sim, tau)``; ITM: an :class:`ItmBatch`; MLM: an
        :class:`MlmBatch`; MIM: ``(reconstructed, original, mask)``.
    epsilon : float
        Central-difference step, in [1e-8, 1e-4].

    Returns
    -------
    float
        Maximum relative error over the checked input coordinates. The MIM
        loss is piecewise linear, so only masked coordinates with
        ``|reconstructed - original| > 1e-3`` (safely away from the kinks)
        are checked.
    """
    if not 1e-8 <= epsilon <= 1e-4:
        raise ParameterError(f"epsilon must be in [1e-8, 1e-4], got {epsilon!r}")

    # Each loss gives its point x, its analytic gradient there, the loss as a
    # function of x and the coordinates to check (None: all of them).
    coords = None
    if kind is LossKind.ITC:
        sim, tau = inputs
        x = _check_itc_inputs(sim, tau)
        analytic, loss = itc_loss_grad(x, tau), lambda s: _itc_nll(s, tau)
    elif kind is LossKind.ITM:
        analytic, loss = itm_loss_grad(inputs), lambda q: _itm_nll(inputs.labels, q)
        x = inputs.probs
    elif kind is LossKind.MLM:
        analytic, loss = mlm_loss_grad(inputs), lambda p: _mlm_nll(p, inputs.target_index)
        x = inputs.predicted
    elif kind is LossKind.MIM:
        reconstructed, original, mask = inputs
        x, org, flags, _ = _mim_inputs(reconstructed, original, mask, normalize=True)
        coords = flags & (np.abs(x - org) > 1e-3)
        analytic, loss = mim_loss_grad(x, org, mask), lambda r: mim_loss(r, org, mask)
    else:
        raise ParameterError(f"unknown loss kind {kind!r}")
    return _max_rel_error(analytic, _central_diff(loss, x, epsilon, coords), coords)
