"""Scoring: MSE, PSNR, single-window and tiled SSIM, and relative
sparse-code error."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "mse",
    "psnr",
    "ssim_global",
    "image_ssim",
    "relative_error",
    "PSNR_CSV_CAP",
]

# Infinite PSNR (identical signals) is written as this value in CSV exports.
PSNR_CSV_CAP = 99.0

DEFAULT_PEAK = 255.0

# ``image_ssim``'s tile side, and its tiles per pass.
_TILE_SIDE = 8
_BLOCK_TILES = 512


def _pair(x, y, axis) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as float arrays with the scored samples on the last
    axis: flattened for ``axis=None``, else with ``axis`` moved last."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    if axis is None:
        return x.reshape(-1), y.reshape(-1)
    return np.moveaxis(x, axis, -1), np.moveaxis(y, axis, -1)


def _scores(values) -> float | np.ndarray:
    """A 0-d result as a Python float, a stack of scores as an array."""
    return float(values) if np.ndim(values) == 0 else values


# The scores below take the whole arrays by default.  With ``axis`` (-1
# for a (B, n) row stack) they score along that axis, one value per
# row, and each value has the bits of a call on that row alone.


def _mse(x, y, axis):
    x, y = _pair(x, y, axis)
    d = x - y
    return np.vecdot(d, d) / x.shape[-1]


def mse(x, y, axis: int | None = None) -> float | np.ndarray:
    return _scores(_mse(x, y, axis))


def psnr(x, y, peak=DEFAULT_PEAK, axis: int | None = None) -> float | np.ndarray:
    """10*log10(peak^2 / mse); +inf for identical signals.  ``peak`` is
    a scalar or one value per score."""
    if np.count_nonzero(~(np.asarray(peak) > 0)):
        raise ValueError("peak must be positive")
    with np.errstate(divide="ignore"):
        ratio = np.asarray(peak * peak / _mse(x, y, axis))
    # math.log10, not np.log10: the two differ in the last bit on a few
    # percent of inputs, and the one-signal score has always used math.
    logs = [10.0 * math.log10(r) for r in ratio.reshape(-1).tolist()]
    return _scores(np.reshape(logs, ratio.shape))


def ssim_global(
    x,
    y,
    c1: float = (0.01 * 255.0) ** 2,
    c2: float = (0.03 * 255.0) ** 2,
) -> float | np.ndarray:
    """Structural similarity over a single window spanning the vectors.

    Acts on the last axis: two (..., n) stacks give one score per row,
    each with the bits of a call on that row alone; two vectors give a
    float.  Uses unbiased variance and covariance estimates; the default
    stabilizing constants assume the 8-bit 0..255 scale.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim == 0:
        raise ValueError("length mismatch")
    n = x.shape[-1]
    if n < 2:
        raise ValueError("need at least 2 samples")
    mx = x.mean(axis=-1)
    my = y.mean(axis=-1)
    dx = x - mx[..., None]
    dy = y - my[..., None]
    vx = np.vecdot(dx, dx) / (n - 1)
    vy = np.vecdot(dy, dy) / (n - 1)
    cov = np.vecdot(dx, dy) / (n - 1)
    lum = (2.0 * mx * my + c1) / (mx * mx + my * my + c1)
    struct = (2.0 * cov + c2) / (vx + vy + c2)
    score = lum * struct
    return float(score) if x.ndim == 1 else score


def image_ssim(a, b) -> float:
    """Mean 8-bit single-window SSIM over non-overlapping 8x8 tiles; the
    rows and columns past the last whole tile are left out.  Tiles
    are scored a band of tile rows at a time (about ``_BLOCK_TILES``
    tiles), so no image-sized copy is made."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("need two equal-shape images")
    side = _TILE_SIDE
    rows, cols = a.shape[0] // side, a.shape[1] // side
    if rows == 0 or cols == 0:
        raise ValueError(f"need an image of at least one whole {side}x{side} tile, got {a.shape}")
    band = max(1, _BLOCK_TILES // cols)

    def tiles(image, r0, r1):
        cropped = image[r0 * side : r1 * side, : cols * side].reshape(r1 - r0, side, cols, side)
        return cropped.transpose(0, 2, 1, 3).reshape(-1, side * side)

    scores = np.empty(rows * cols)
    for r0 in range(0, rows, band):
        r1 = min(r0 + band, rows)
        scores[r0 * cols : r1 * cols] = ssim_global(tiles(a, r0, r1), tiles(b, r0, r1))
    return float(np.mean(scores))


def relative_error(s_hat, s_true, axis: int | None = None) -> float | np.ndarray:
    """2-norm of the coefficient error over the 2-norm of the truth."""
    s_hat, s_true = _pair(s_hat, s_true, axis)
    denom = np.sqrt(np.vecdot(s_true, s_true))
    if np.count_nonzero(denom == 0.0):
        raise ValueError("relative error undefined for a zero reference")
    d = s_hat - s_true
    return _scores(np.sqrt(np.vecdot(d, d)) / denom)
