"""Scoring: MSE, PSNR, single-window and tiled SSIM, and relative
sparse-code error."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QualityScore",
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


@dataclass(frozen=True)
class QualityScore:
    psnr_db: float
    ssim: float
    mse: float
    rel_err: float


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    return x, y


def mse(x, y) -> float:
    x, y = _pair(x, y)
    d = x - y
    return float(d @ d) / x.size


def psnr(x, y, peak: float = DEFAULT_PEAK) -> float:
    """10*log10(peak^2 / mse); +inf for identical signals."""
    if not peak > 0:
        raise ValueError("peak must be positive")
    err = mse(x, y)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / err)


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


def image_ssim(a, b, side: int = 8, c1: float = (0.01 * 255.0) ** 2, c2: float = (0.03 * 255.0) ** 2) -> float:
    """Mean single-window SSIM over non-overlapping square tiles; the
    rows and columns past the last whole tile are left out."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("need two equal-shape images")
    rows, cols = a.shape[0] // side, a.shape[1] // side

    def tiles(image):
        cropped = image[: rows * side, : cols * side].reshape(rows, side, cols, side)
        return cropped.transpose(0, 2, 1, 3).reshape(-1, side * side)

    return float(np.mean(ssim_global(tiles(a), tiles(b), c1, c2)))


def relative_error(s_hat, s_true) -> float:
    """2-norm of the coefficient error over the 2-norm of the truth."""
    s_hat, s_true = _pair(s_hat, s_true)
    denom = float(np.linalg.norm(s_true))
    if denom == 0.0:
        raise ValueError("relative error undefined for a zero reference")
    return float(np.linalg.norm(s_hat - s_true)) / denom
