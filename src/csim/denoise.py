"""Patch-domain FIR denoising filters.

Per patch, second-order statistics of the noisy samples are estimated
empirically; the known noise variance converts them into clean/noisy
cross statistics.  Two closed-form filters follow: the classical
Wiener-Hopf solution of the least-squares problem, and the similarity-
index-optimal filter, whose system matrix replaces the full mean outer
product by a mean_weight/var_weight fraction of it.  At equal weights
the two coincide exactly.  ``denoise_patches`` runs the patches of a
stack in passes over fixed blocks of rows.  Each pass runs along the
patch axis, one length-B lane operation per step: the statistics, one
Cholesky factorization of each system matrix, which is also its
definiteness test, forward and back substitution, and the FIR on the
transposed block.
Every lane sums in a fixed order, so a row's bits do not depend on the
block.  The one-patch functions are its single-row case.
``denoise_patches`` writes a new stack; ``denoise_image`` runs the same
passes over its own patch stack in place, then reassembles it, and
``csim denoise`` is that call plus its scores.
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

# Side of the square patches ``denoise_image`` filters.
PATCH_SIDE = 8

# Rows per pass of ``denoise_patches``: its temporaries are this many
# rows, not the whole stack, so a large image allocates no stack-sized
# scratch array beyond the output.  On the 4096 patches of a 512x512
# image at m = 6, 512 ran fastest, against 256 (1.2x slower) and 1024
# (1.2x slower), on 2 vCPUs with numpy 2.4.6.
_BLOCK_ROWS = 512


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


def _stack_stats(Y, m: int, sigma_n_sq: float):
    """Statistics of every row of a (B, n) patch stack, as the fields of
    ``PatchStats`` with row b in lane b: mu_y (B,), autocov (m, B), cov
    (m, m, B), cross (m, B) and floored (B,)."""
    m = int(m)
    if m < 1:
        raise ValueError("filter order must be positive")
    n = Y.shape[1]
    if n < 2 * m:
        raise ValueError(f"patch too short: need at least {2 * m} samples")
    sigma_n_sq = float(sigma_n_sq)
    if not 0.0 <= sigma_n_sq < np.inf:  # nan fails too
        raise ValueError(f"noise variance must be finite and nonnegative, got {sigma_n_sq}")

    mu = Y.mean(axis=1)
    dev = Y - mu[:, None]
    autocov = np.empty((m, Y.shape[0]))
    for lag in range(m):
        autocov[lag] = np.vecdot(dev[:, : n - lag], dev[:, lag:]) / (n - lag - 1)
    idx = np.arange(m)
    cov = autocov[np.abs(idx[:, None] - idx)]
    cross = autocov.copy()
    cross[0] = np.maximum(autocov[0] - sigma_n_sq, 0.0)
    return mu, autocov, cov, cross, sigma_n_sq > autocov[0]


def _cholesky(M) -> np.ndarray:
    """Cholesky factorization of every lane of an (m, m, B) stack, in
    place: column by column, each step one length-B operation per entry,
    so a lane's sums run in a fixed sequential order whatever B is.  On
    return the lower triangle holds the factor.  Returns which lanes had
    only positive pivots; a nan pivot does not fail (non-finite
    statistics give non-finite taps, which raise), and a failed lane's
    factor is garbage.  Call it under ``np.errstate`` that ignores the
    invalid, divide and overflow flags of the failed lanes."""
    failed = np.zeros(M.shape[-1], dtype=bool)
    for j in range(M.shape[0]):
        failed |= M[j, j] <= 0
        np.sqrt(M[j, j], out=M[j, j])
        M[j + 1 :, j] /= M[j, j]
        M[j + 1 :, j + 1 :] -= M[j + 1 :, None, j] * M[j + 1 :, j]
    return ~failed


def _substitute(L, b) -> np.ndarray:
    """Solve L L' x = b in place for every lane of an (m, B) right-hand
    side, by forward then back substitution on the factor that
    ``_cholesky`` leaves in the lower triangle of L."""
    m = b.shape[0]
    for j in range(m):
        b[j] /= L[j, j]
        b[j + 1 :] -= L[j + 1 :, j] * b[j]
    for j in reversed(range(m)):
        b[j] /= L[j, j]
        b[:j] -= L[j, :j] * b[j]
    return b


def _stack_taps(mu, cov, cross, mean_over_var: float) -> np.ndarray:
    """Taps of every lane of ``_stack_stats``'s (m, m, B) cov and (m, B)
    cross, as an (m, B) array: the closed form (cov + r mu^2 J)^-1
    (cross + r mu^2 ones), J the all-ones matrix and r = mean_over_var.
    Each row's system matrix M is factored once along the patch axis
    (``_cholesky``), and its pivots are the definiteness test; forward
    and back substitution then give the taps.

    A row whose M is not positive definite gets a 1e-10 diagonal floor
    on M, scaled by trace(cov) + m mu^2 (or by 1 where that is 0, as for
    an all-zero patch), and is factored again; a row still not positive
    definite after it raises ``SingularStatsError``.
    """
    m = cross.shape[0]
    mu_sq = mu * mu
    weight = mean_over_var * mu_sq
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        factor = cov + weight  # M, lane by lane
        bad = ~_cholesky(factor)
        if bad.any():
            floored = cov[:, :, bad]
            # trace(cov), summed along a contiguous copy of the diagonal: a lane's
            # sum then does not depend on how many lanes are floored
            scale = np.diagonal(floored).copy().sum(axis=-1) + m * mu_sq[bad]
            scale[scale == 0.0] = 1.0  # an all-zero patch: its taps come out 0
            floored += weight[bad]
            floored += _RIDGE_SCALE * scale * np.eye(m)[:, :, None]
            if not _cholesky(floored).all():
                raise SingularStatsError("patch statistics singular even after the diagonal floor")
            factor[:, :, bad] = floored
        taps = _substitute(factor, cross + weight)
    if not np.all(np.isfinite(taps)):
        raise ValueError("taps must be finite")
    return taps


def _stack_fir(Y, taps) -> np.ndarray:
    """Causal filtering of every lane of an (n, B) stack, sample-major,
    by its own taps (m, B), with zero history: m shifted multiply-adds,
    each over whole rows of B lanes."""
    n = Y.shape[0]
    out = taps[0] * Y
    for k in range(1, min(taps.shape[0], n)):
        out[k:] += taps[k] * Y[: n - k]
    return out


def empirical_stats(y_patch, m: int, sigma_n_sq: float) -> PatchStats:
    """Estimate the statistics of one patch for an order-m filter.

    Requires at least 2m samples and a finite noise variance of at
    least 0.  When the supplied noise variance
    exceeds the measured lag-0 covariance the derived clean statistics
    are floored at zero and the outcome flagged.
    """
    y = np.asarray(y_patch, dtype=float).reshape(1, -1)
    mu, autocov, cov, cross, floored = (lane[..., 0] for lane in _stack_stats(y, m, sigma_n_sq))
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
    return FirFilter(_stack_taps(mu, cov[..., None], cross[:, None], mean_over_var)[:, 0])


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
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    return _stack_fir(y, fir.taps[:, None])[:, 0]


def _filter_rows(patches, out, m: int, sigma_n_sq: float, mean_over_var: float) -> np.ndarray:
    """Filter every row of a (B, n) stack into the same row of ``out``,
    which may be ``patches`` itself, in passes over blocks of
    ``_BLOCK_ROWS`` rows.  A pass takes the block's statistics and its
    taps from one factor-and-solve (``_stack_taps``), both along the
    patch axis, and filters the transposed (n, B) block by them, a copy
    that is read in full before the block's rows are written.  Returns
    the (B,) ``floored`` flags."""
    floored = np.empty(patches.shape[0], dtype=bool)
    # An empty stack still runs one (empty) pass, which checks m and sigma_n_sq.
    for start in range(0, max(patches.shape[0], 1), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = patches[rows]
        mu, _, cov, cross, floored[rows] = _stack_stats(block, m, sigma_n_sq)
        taps = _stack_taps(mu, cov, cross, mean_over_var)
        out[rows] = _stack_fir(np.ascontiguousarray(block.T), taps).T
    return floored


def denoise_patches(patches, m: int, sigma_n_sq: float, params: CsimParams | None = None):
    """Filter every row of a (B, n) patch stack by the taps estimated
    from its own statistics, in passes over blocks of ``_BLOCK_ROWS``
    rows (``_filter_rows``): Wiener-Hopf taps without ``params``,
    similarity-optimal taps with them.

    Returns a new filtered stack, leaving ``patches`` as it was, and the
    (B,) ``floored`` flags of the rows' statistics.  Row i has the bits
    of ``apply_fir`` on patch i with the taps of its one-patch filter.
    A row whose statistics stay singular fails the whole stack.
    """
    patches = np.asarray(patches, dtype=float)
    if patches.ndim != 2:
        raise ValueError("expected a (B, n) stack of patches")
    mean_over_var = 1.0 if params is None else params.mean_weight / params.var_weight
    out = np.empty_like(patches)
    return out, _filter_rows(patches, out, m, sigma_n_sq, mean_over_var)


def _denoise_image(image, m: int, sigma_n_sq: float, params: CsimParams | None, method: str):
    """``denoise_image``, returning the image and the (patches,)
    ``floored`` flags of the patches' statistics."""
    if method not in ("mse", "csim"):
        raise ValueError(f"unknown method {method!r}")
    if method == "csim" and params is None:
        raise ValueError("csim method needs index weights")
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or image.size == 0:
        raise ValueError("expected a non-empty 2-D image")
    grid = PatchGrid(*image.shape, side=PATCH_SIDE)
    patches = extract_patches(image, grid)
    if np.may_share_memory(patches, image):  # one patch wide: the stack is a reshape
        patches = patches.copy()
    mean_over_var = 1.0 if method == "mse" else params.mean_weight / params.var_weight
    floored = _filter_rows(patches, patches, m, sigma_n_sq, mean_over_var)
    return reassemble(patches, grid), floored


def denoise_image(
    image,
    m: int,
    sigma_n_sq: float,
    params: CsimParams | None = None,
    method: str = "csim",
) -> np.ndarray:
    """Per-patch filter estimation and filtering, reassembled by averaging.

    ``method`` selects "mse" or "csim"; the latter needs ``params``.
    Patches are squares of side ``PATCH_SIDE`` on the image's
    ``PatchGrid``.  Where the side does not divide an image side, the
    last row or column of patches is clamped to the border and overlaps
    its neighbours, and reassembly averages the overlap.  The patch
    stack is filtered in place, so beside ``image`` the call holds only
    the stack, one block's temporaries and the output; ``image`` is
    left as it was.  ``csim denoise`` is this call plus its scores.
    """
    return _denoise_image(image, m, sigma_n_sq, params, method)[0]
