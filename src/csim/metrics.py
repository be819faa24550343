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
) -> float:
    """Structural similarity over a single window spanning the vectors.

    Uses unbiased variance and covariance estimates; the default
    stabilizing constants assume the 8-bit 0..255 scale.
    """
    x, y = _pair(x, y)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    mx = float(x.mean())
    my = float(y.mean())
    dx = x - mx
    dy = y - my
    vx = float(dx @ dx) / (n - 1)
    vy = float(dy @ dy) / (n - 1)
    cov = float(dx @ dy) / (n - 1)
    lum = (2.0 * mx * my + c1) / (mx * mx + my * my + c1)
    struct = (2.0 * cov + c2) / (vx + vy + c2)
    return lum * struct


def image_ssim(a, b, side: int = 8, c1: float = (0.01 * 255.0) ** 2, c2: float = (0.03 * 255.0) ** 2) -> float:
    """Mean single-window SSIM over non-overlapping square tiles."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("need two equal-shape images")
    scores = []
    for r in range(0, a.shape[0] - side + 1, side):
        for c in range(0, a.shape[1] - side + 1, side):
            scores.append(
                ssim_global(
                    a[r : r + side, c : c + side].reshape(-1),
                    b[r : r + side, c : c + side].reshape(-1),
                    c1,
                    c2,
                )
            )
    return float(np.mean(scores))


def relative_error(s_hat, s_true) -> float:
    """2-norm of the coefficient error over the 2-norm of the truth."""
    s_hat, s_true = _pair(s_hat, s_true)
    denom = float(np.linalg.norm(s_true))
    if denom == 0.0:
        raise ValueError("relative error undefined for a zero reference")
    return float(np.linalg.norm(s_hat - s_true)) / denom
