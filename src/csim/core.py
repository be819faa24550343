"""Convex similarity index on residual vectors.

The index scores the difference ``e = x - y`` between two equal-length
signals as ``mean_weight * mean(e)**2 + var_weight * var(e)`` with the
unbiased (1/(n-1)) variance.  That sum equals the quadratic form
``e @ W @ e`` for a matrix W that is a scaled identity plus a scaled
all-ones outer product, so products with W and with its square root run
in O(n) and the matrix itself is never materialized here (dense
materialization lives only in test oracles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RATIO",
    "CsimParams",
    "csim_stats",
    "csim_pair",
    "quadratic_form",
    "apply_kernel",
    "apply_kernel_sqrt",
    "kernel_eigenvalues",
    "sensitivity_ratio",
]

# The empirical var_weight/mean_weight ratio, for when no bound applies.
DEFAULT_RATIO = 4.0


@dataclass(frozen=True)
class CsimParams:
    """Weights of the similarity index.

    ``mean_weight`` multiplies the squared mean of the residual,
    ``var_weight`` its unbiased variance; both must be positive.  ``n``
    is the signal length (>= 2, the unbiased variance needs it).

    Noise-biased scoring, where a random disturbance is penalized more
    than a constant offset of equal energy, requires
    ``var_weight > mean_weight``; that is not enforced because the equal
    weight case is meaningful too (it reduces the denoising filter to
    the plain Wiener-Hopf solution).

    The properties give the coefficients of the index matrix
    W = diag_coef * I + ones_coef * ones @ ones.T and of its principal
    square root.  The all-ones direction is an eigenvector of W with
    eigenvalue mean_weight/n; every mean-zero vector is one with
    eigenvalue var_weight/(n-1).
    """

    mean_weight: float
    var_weight: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "mean_weight", float(self.mean_weight))
        object.__setattr__(self, "var_weight", float(self.var_weight))
        object.__setattr__(self, "n", int(self.n))
        if not (self.mean_weight > 0.0 and math.isfinite(self.mean_weight)):
            raise ValueError("mean_weight must be positive and finite")
        if not (self.var_weight > 0.0 and math.isfinite(self.var_weight)):
            raise ValueError("var_weight must be positive and finite")
        if self.n < 2:
            raise ValueError("signal length must be at least 2")

    @classmethod
    def for_ratio(cls, ratio: float, n: int) -> "CsimParams":
        """Weights with var_weight = n - 1 and var_weight/mean_weight = ratio."""
        var_weight = float(n - 1)
        return cls(mean_weight=var_weight / float(ratio), var_weight=var_weight, n=n)

    @classmethod
    def defaults(cls, n: int) -> "CsimParams":
        """Empirical default weights: ``for_ratio(DEFAULT_RATIO, n)``."""
        return cls.for_ratio(DEFAULT_RATIO, n)

    @property
    def diag_coef(self) -> float:
        return self.var_weight / (self.n - 1)

    @property
    def ones_coef(self) -> float:
        n = self.n
        return self.mean_weight / n**2 - self.var_weight / (n * (n - 1))

    @property
    def sqrt_diag_coef(self) -> float:
        return math.sqrt(self.diag_coef)

    @property
    def sqrt_ones_coef(self) -> float:
        return (math.sqrt(self.mean_weight / self.n) - self.sqrt_diag_coef) / self.n


def _vector(e, n: int | None = None) -> np.ndarray:
    e = np.asarray(e, dtype=float)
    if e.ndim != 1:
        raise ValueError("expected a 1-D vector")
    if n is not None and e.shape[0] != n:
        raise ValueError(f"length mismatch: expected {n}, got {e.shape[0]}")
    return e


def csim_stats(e, params: CsimParams):
    """Index value from the statistical form.

    Returns ``mean_weight * mu**2 + var_weight/(n-1) * ||e - mu||**2``
    where mu is the sample mean of the residual.  Nonnegative, zero only
    for the zero residual.  A stack of residuals (rows along the last
    axis) gives an array with one value per row; a single residual, a
    float.
    """
    e = np.asarray(e, dtype=float)
    if e.ndim == 0 or e.shape[-1] != params.n:
        raise ValueError(f"expected residuals of length {params.n}")
    mu = np.add.reduce(e, axis=-1) / e.shape[-1]  # e.mean(), bit for bit
    dev = e - (mu if e.ndim == 1 else mu[..., None])
    value = params.mean_weight * mu * mu + params.diag_coef * np.vecdot(dev, dev)
    return float(value) if e.ndim == 1 else value


def csim_pair(x, y, params: CsimParams) -> float:
    """Index between two signals; depends on them only through x - y."""
    x = _vector(x, params.n)
    y = _vector(y, params.n)
    return csim_stats(x - y, params)


def quadratic_form(e, params: CsimParams) -> float:
    """e @ W @ e evaluated as diag_coef*||e||^2 + ones_coef*(sum e)^2."""
    e = _vector(e, params.n)
    total = float(e.sum())
    return params.diag_coef * float(e @ e) + params.ones_coef * total * total


def apply_kernel(e, params: CsimParams) -> np.ndarray:
    """W @ e in O(n): scale e and add the rank-one correction."""
    e = _vector(e, params.n)
    return params.diag_coef * e + (params.ones_coef * float(e.sum()))


def apply_kernel_sqrt(e, params: CsimParams) -> np.ndarray:
    """W^(1/2) @ e in O(n); applying it twice reproduces apply_kernel."""
    e = _vector(e, params.n)
    return params.sqrt_diag_coef * e + (params.sqrt_ones_coef * float(e.sum()))


def kernel_eigenvalues(params: CsimParams) -> tuple[float, float]:
    """(repeated eigenvalue on mean-zero vectors, all-ones eigenvalue).

    The first value is var_weight/(n-1) with multiplicity n-1, the
    second mean_weight/n with the normalized all-ones eigenvector.
    """
    return params.diag_coef, params.mean_weight / params.n


def sensitivity_ratio(params: CsimParams) -> float:
    """Expected index of an i.i.d. +/-a residual over the index of the
    constant-a residual; equals trace(W) / (ones @ W @ ones), which
    simplifies to var_weight/mean_weight + 1/n."""
    return params.var_weight / params.mean_weight + 1.0 / params.n
