"""Patch-domain FIR denoising filters.

Per patch, second-order statistics of the noisy samples are estimated
empirically; the known noise variance converts them into clean/noisy
cross statistics.  Two closed-form filters follow: the classical
Wiener-Hopf solution of the least-squares problem, and the similarity-
index-optimal filter, whose system matrix replaces the full mean outer
product by a mean_weight/var_weight fraction of it.  At equal weights
the two coincide exactly.  ``denoise_patches`` runs the patches of a
stack in row-stacked passes over fixed blocks of rows; the one-patch
functions are its single-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CsimParams
from .signals import PatchGrid, extract_patches, reassemble

__all__ = [
    "PATCH_SIDE",
    "PatchStats",
    "FirFilter",
    "SingularStatsError",
    "empirical_stats",
    "mse_filter",
    "csim_filter",
    "apply_fir",
    "denoise_patches",
    "denoise_image",
]

_RIDGE_SCALE = 1e-10

# Side of the square, non-overlapping patches ``denoise_image`` filters.
PATCH_SIDE = 8

# Rows per pass of ``denoise_patches``: its temporaries are this many
# rows, not the whole stack, so a large image allocates no stack-sized
# scratch array beyond the output.  On the 4096 patches of a 512x512
# image, 1024 and 2048 ran fastest of 256 to 8192 (one pass).
_BLOCK_ROWS = 1024


class SingularStatsError(np.linalg.LinAlgError):
    """Filter system stayed singular even after the diagonal floor."""


@dataclass(frozen=True)
class PatchStats:
    """Second-order statistics of one noisy patch.

    ``autocov`` holds lags 0..m-1 of the noisy samples (unbiased
    normalization: lag products divided by count-1, matching the
    unbiased variance at lag 0); ``cov`` is the Toeplitz matrix built
    from it.  ``cross`` is the clean/noisy cross-covariance implied by
    the known noise variance, with lag 0 floored at zero when the noise
    variance exceeds the measured one (``floored`` records that).
    """

    mu_y: float
    autocov: np.ndarray
    cov: np.ndarray
    cross: np.ndarray
    sigma_n_sq: float
    sigma_x_sq: float
    floored: bool = False

    @property
    def m(self) -> int:
        return self.cross.size


@dataclass(frozen=True)
class FirFilter:
    """Causal filter taps; output[i] = sum_k taps[k] * y[i-k]."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=float)
        if taps.ndim != 1 or taps.size < 1:
            raise ValueError("expected a non-empty tap vector")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def m(self) -> int:
        return int(self.taps.size)


def _stack_stats(Y, m: int, sigma_n_sq: float):
    """Statistics of every row of a (B, n) patch stack, as the fields of
    ``PatchStats``: mu_y (B,), autocov (B, m), cov (B, m, m), cross
    (B, m) and floored (B,)."""
    m = int(m)
    if m < 1:
        raise ValueError("filter order must be positive")
    n = Y.shape[1]
    if n < 2 * m:
        raise ValueError(f"patch too short: need at least {2 * m} samples")
    sigma_n_sq = float(sigma_n_sq)
    if sigma_n_sq < 0:
        raise ValueError("noise variance must be nonnegative")

    mu = Y.mean(axis=1)
    dev = Y - mu[:, None]
    autocov = np.empty((Y.shape[0], m))
    for lag in range(m):
        autocov[:, lag] = np.vecdot(dev[:, : n - lag], dev[:, lag:]) / (n - lag - 1)
    idx = np.arange(m)
    cov = autocov[:, np.abs(idx[:, None] - idx)]
    cross = autocov.copy()
    cross[:, 0] = np.maximum(autocov[:, 0] - sigma_n_sq, 0.0)
    return mu, autocov, cov, cross, sigma_n_sq > autocov[:, 0]


def _positive_definite(A) -> np.ndarray:
    """Which matrices of a (B, m, m) stack have a Cholesky factor: the
    column-by-column recurrence run on all of them, a matrix failing at
    its first pivot that is zero or negative.  A nan pivot does not
    fail: non-finite statistics give non-finite taps, which raise."""
    L = np.zeros_like(A)
    ok = np.ones(A.shape[0], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(A.shape[-1]):
            column = A[:, j:, j] - np.vecdot(L[:, j:, :j], L[:, j, None, :j])
            ok &= ~(column[:, 0] <= 0)
            L[:, j:, j] = column / np.sqrt(np.where(ok, column[:, 0], 1.0))[:, None]
    return ok


def _stack_taps(mu, cov, cross, mean_over_var: float) -> np.ndarray:
    """Taps of every row, (B, m): the closed form
    (cov + r mu^2 J)^-1 (cross + r mu^2 ones), J the all-ones matrix and
    r = mean_over_var, in one solve per row.

    A row whose cov is not positive definite gets a 1e-10 diagonal floor
    on cov, scaled by the full system trace (or by 1 where that trace is
    0, as for an all-zero patch); a row still not positive definite
    after it raises ``SingularStatsError``.
    """
    m = cross.shape[-1]
    mu_sq = mu * mu
    weight = mean_over_var * mu_sq
    base = cov
    bad = ~_positive_definite(cov)
    if bad.any():
        scale = np.trace(cov[bad], axis1=1, axis2=2) + m * mu_sq[bad]
        scale[scale == 0.0] = 1.0  # an all-zero patch: its taps come out 0
        base = cov.copy()
        base[bad] += (_RIDGE_SCALE * scale)[:, None, None] * np.eye(m)
        if not _positive_definite(base[bad]).all():
            raise SingularStatsError("patch statistics singular even after the diagonal floor")
    rhs = cross + weight[:, None]
    taps = np.linalg.solve(base + weight[:, None, None], rhs[..., None])[..., 0]
    if not np.all(np.isfinite(taps)):
        raise ValueError("taps must be finite")
    return taps


def _stack_fir(Y, taps, out=None) -> np.ndarray:
    """Causal filtering of every row of Y by its own taps, with zero
    history: m shifted multiply-adds over the whole stack, into ``out``
    when given."""
    n = Y.shape[1]
    out = np.multiply(taps[:, :1], Y, out=out)
    for k in range(1, min(taps.shape[1], n)):
        out[:, k:] += taps[:, k : k + 1] * Y[:, : n - k]
    return out


def empirical_stats(y_patch, m: int, sigma_n_sq: float) -> PatchStats:
    """Estimate the statistics of one patch for an order-m filter.

    Requires at least 2m samples.  When the supplied noise variance
    exceeds the measured lag-0 covariance the derived clean statistics
    are floored at zero and the outcome flagged.
    """
    y = np.asarray(y_patch, dtype=float).reshape(1, -1)
    mu, autocov, cov, cross, floored = (row[0] for row in _stack_stats(y, m, sigma_n_sq))
    return PatchStats(
        mu_y=float(mu),
        autocov=autocov,
        cov=cov,
        cross=cross,
        sigma_n_sq=float(sigma_n_sq),
        sigma_x_sq=float(cross[0]),
        floored=bool(floored),
    )


def _filter(stats: PatchStats, mean_over_var: float) -> FirFilter:
    mu, cov, cross = np.array([stats.mu_y]), np.asarray(stats.cov), np.asarray(stats.cross)
    return FirFilter(_stack_taps(mu, cov[None], cross[None], mean_over_var)[0])


def mse_filter(stats: PatchStats) -> FirFilter:
    """Wiener-Hopf taps: correlation matrix inverse times cross vector."""
    return _filter(stats, 1.0)


def csim_filter(stats: PatchStats, params: CsimParams) -> FirFilter:
    """Similarity-index-optimal taps.

    Identical to the Wiener-Hopf solution when mean_weight equals
    var_weight; smaller ratios damp the mean-matching term.
    """
    return _filter(stats, params.mean_weight / params.var_weight)


def apply_fir(y, fir: FirFilter) -> np.ndarray:
    """Causal convolution with zero padding before the first sample."""
    y = np.asarray(y, dtype=float).reshape(1, -1)
    return _stack_fir(y, fir.taps[None])[0]


def denoise_patches(patches, m: int, sigma_n_sq: float, params: CsimParams | None = None):
    """Filter every row of a (B, n) patch stack by the taps estimated
    from its own statistics, in row-stacked passes over blocks of
    ``_BLOCK_ROWS`` rows: Wiener-Hopf taps without ``params``,
    similarity-optimal taps with them.

    Returns the filtered stack and the (B,) ``floored`` flags of the
    rows' statistics.  Row i has the bits of ``apply_fir`` on patch i
    with the taps of its one-patch filter.  A row whose statistics stay
    singular fails the whole stack.
    """
    patches = np.asarray(patches, dtype=float)
    if patches.ndim != 2:
        raise ValueError("expected a (B, n) stack of patches")
    mean_over_var = 1.0 if params is None else params.mean_weight / params.var_weight
    out = np.empty_like(patches)
    floored = np.empty(patches.shape[0], dtype=bool)
    # An empty stack still runs one (empty) pass, which checks m and sigma_n_sq.
    for start in range(0, max(patches.shape[0], 1), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        mu, _, cov, cross, floored[rows] = _stack_stats(patches[rows], m, sigma_n_sq)
        _stack_fir(patches[rows], _stack_taps(mu, cov, cross, mean_over_var), out[rows])
    return out, floored


def denoise_image(
    image,
    m: int,
    sigma_n_sq: float,
    params: CsimParams | None = None,
    method: str = "csim",
) -> np.ndarray:
    """Per-patch filter estimation and filtering, reassembled by averaging.

    ``method`` selects "mse" or "csim"; the latter needs ``params``.
    Patches are non-overlapping squares of side ``PATCH_SIDE``.
    """
    if method not in ("mse", "csim"):
        raise ValueError(f"unknown method {method!r}")
    if method == "csim" and params is None:
        raise ValueError("csim method needs index weights")
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or image.size == 0:
        raise ValueError("expected a non-empty 2-D image")
    grid = PatchGrid(*image.shape, side=PATCH_SIDE)
    filtered, _ = denoise_patches(
        extract_patches(image, grid), m, sigma_n_sq, params if method == "csim" else None
    )
    return reassemble(filtered, grid)
