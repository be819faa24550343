"""Choosing the index weight ratio var_weight/mean_weight.

Two closed-form upper bounds restrict the ratio: one keeps the condition
number of the weighted pseudo-inverse operator below a cap, the other
keeps the transformed dictionary inside a restricted-isometry budget.
The selector takes the smaller feasible bound and falls back to the
empirical ``core.DEFAULT_RATIO`` (4) when neither bound applies.  A
brute-force verifier measures the actual isometry constant on every
column subset of small dictionaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import DEFAULT_RATIO, CsimParams

__all__ = [
    "KappaBound",
    "RipBound",
    "RatioSelection",
    "mutual_coherence",
    "condition_number",
    "kappa_ratio_bound",
    "rip_ratio_bound",
    "select_ratio",
    "verify_rip_bruteforce",
]

# Singular values below this fraction of the largest are treated as zero,
# and so is a kappa-bound gap within this fraction of 1/kappa^2.
_RANK_RTOL = 1e-12
# Most column subsets ``verify_rip_bruteforce`` enumerates.
_RIP_SUBSET_BUDGET = 100_000

DEFAULT_KAPPA_MAX = 4.0
DEFAULT_DELTA = 0.4


def _atoms(D) -> np.ndarray:
    """Accept a Dictionary or a plain (n, p) array."""
    atoms = getattr(D, "atoms", D)
    atoms = np.asarray(atoms, dtype=float)
    if atoms.ndim != 2:
        raise ValueError("expected a 2-D atom matrix")
    return atoms


def _unit_atoms(D) -> np.ndarray:
    """``_atoms``, rejecting a column whose norm is off 1 by more than 1e-8
    or is not finite."""
    atoms = _atoms(D)
    if not np.all(np.abs(np.linalg.norm(atoms, axis=0) - 1.0) <= 1e-8):
        raise ValueError("atoms must have unit norm")
    return atoms


@dataclass(frozen=True)
class KappaBound:
    """Result of the condition-number bound.

    The bound has the form kappa(transformed) <= ratio_coef * ratio +
    constant, so ratio_upper = (kappa_max - constant) / ratio_coef.  It
    is only usable when ratio_coef > 0 and kappa_max exceeds
    ratio_coef + constant; otherwise ``ratio_upper`` is None and
    ``reason`` names the violated hypothesis.
    """

    ratio_coef: float
    constant: float
    kappa_max: float
    ratio_upper: float | None
    reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.ratio_upper is not None


@dataclass(frozen=True)
class RipBound:
    """Result of the restricted-isometry bound for support size two_k.

    ratio_upper = num_coef / (den_coef - delta_target) when feasible,
    else None.  ``dim_threshold`` is the dimension the signal length
    must exceed; ``violated`` names the first failed hypothesis when
    infeasible.
    """

    num_coef: float
    den_coef: float
    dim_threshold: float | None
    delta_target: float
    two_k: int
    coherence: float
    ratio_upper: float | None
    violated: str | None = None

    @property
    def feasible(self) -> bool:
        return self.ratio_upper is not None


@dataclass(frozen=True)
class RatioSelection:
    """Chosen var_weight/mean_weight ratio and which bound produced it."""

    ratio: float
    source: str  # "rip-limited" | "kappa-limited" | "default-fallback"
    k_used: int
    kappa_bound: KappaBound | None = None
    rip_bound: RipBound | None = None


def mutual_coherence(D) -> float:
    """Largest absolute inner product between distinct unit-norm atoms.

    Raises if the matrix has fewer than two columns or any column norm
    deviates from 1 by more than 1e-8 (or is not finite).
    """
    atoms = _unit_atoms(D)
    if atoms.shape[1] < 2:
        raise ValueError("mutual coherence needs at least two atoms")
    gram = np.abs(atoms.T @ atoms)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def condition_number(A) -> float:
    """Ratio of the largest to the smallest nonzero singular value."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    svals = np.linalg.svd(A, compute_uv=False)
    smax = float(svals[0])
    if smax == 0.0:
        raise ValueError("condition number of an all-zero matrix is undefined")
    nonzero = svals[svals > _RANK_RTOL * smax]
    return smax / float(nonzero[-1])


def kappa_ratio_bound(D, kappa_max: float = DEFAULT_KAPPA_MAX) -> KappaBound:
    """Upper bound on the weight ratio from a condition-number cap.

    Requires a full-column-rank dictionary.  Infeasibility (rank
    deficiency, vanishing ratio coefficient, or a cap that the bound's
    own constants already exceed) is reported in the result, never
    silently replaced by a default.  A non-finite ``kappa_max`` raises
    ``ValueError``.
    """
    kappa_max = float(kappa_max)
    if not math.isfinite(kappa_max):
        raise ValueError(f"kappa_max must be finite, got {kappa_max}")
    atoms = _atoms(D)
    n, p = atoms.shape
    svals = np.linalg.svd(atoms, compute_uv=False)
    smax = float(svals[0])
    if smax == 0.0:
        raise ValueError("all-zero dictionary")
    rank = int(np.sum(svals > _RANK_RTOL * smax))
    ratio_coef = constant = float("nan")
    if p > n or rank < p:
        reason = "dictionary is not full column rank"
    else:
        kappa = smax / float(svals[-1])
        # ones @ D @ D.T @ ones is the squared norm of the atom row sums.
        rowsum_energy = float(np.sum(atoms.sum(axis=0) ** 2))
        normalized_rowsum = rowsum_energy / (n * smax * smax)
        gap = 1.0 / (kappa * kappa) - normalized_rowsum
        if abs(gap) <= _RANK_RTOL / (kappa * kappa):
            gap = 0.0  # orthonormal atoms: exactly 0, up to rounding
        ratio_coef = kappa * (n / (n - 1)) * gap
        constant = kappa * normalized_rowsum
        if ratio_coef <= 0.0:
            reason = "ratio coefficient is not positive (bound is vacuous)"
        elif kappa_max <= ratio_coef + constant:
            reason = "kappa_max does not exceed ratio_coef + constant"
        else:
            reason = None
    return KappaBound(
        ratio_coef=ratio_coef,
        constant=constant,
        kappa_max=kappa_max,
        ratio_upper=None if reason else (kappa_max - constant) / ratio_coef,
        reason=reason,
    )


def rip_ratio_bound(n: int, k: int, mu: float, delta: float) -> RipBound:
    """Upper bound on the weight ratio from a restricted-isometry budget.

    ``delta`` is the target isometry constant for support size 2k and
    ``mu`` the dictionary coherence.  Accepts any delta in (0, 1); the
    sparse-recovery uniqueness guarantee additionally needs
    delta < sqrt(2) - 1, which is the caller's concern.  The three
    feasibility hypotheses are checked in order and the first violation
    is reported.
    """
    n = int(n)
    k = int(k)
    mu = float(mu)
    delta = float(delta)
    if 2 * k <= 2:
        raise ValueError("support size 2k must exceed 2")
    if n < 2 * k:
        raise ValueError("signal length must be at least 2k")
    if not 0.0 <= mu < 1.0:
        raise ValueError("coherence must lie in [0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")

    order = 2 * k - 1
    num_coef = order * (n - 1) * (n - 1 + mu) / n**2
    den_coef = order * (n - 1 + mu * (n + 1)) / n

    violated = None
    dim_threshold = None
    slope = delta / order - mu
    if slope <= 0.0:
        violated = "mu >= delta/(2k-1)"
    else:
        disc = 1.0 - 4.0 * slope * (1.0 - mu)
        if disc >= 0.0:
            dim_threshold = (1.0 + math.sqrt(disc)) / (2.0 * slope)
            if n <= dim_threshold:
                violated = "n <= dim_threshold"
        # disc < 0: every admissible n satisfies the quadratic condition.
    if violated is None and mu > 0.0 and 2 * k > 1.0 + delta / mu:
        violated = "2k > 1 + delta/mu"
    if violated is None and den_coef <= delta:
        violated = "den_coef <= delta"

    return RipBound(
        num_coef=num_coef,
        den_coef=den_coef,
        dim_threshold=dim_threshold,
        delta_target=delta,
        two_k=2 * k,
        coherence=mu,
        ratio_upper=None if violated else num_coef / (den_coef - delta),
        violated=violated,
    )


def select_ratio(
    D,
    kappa_max: float = DEFAULT_KAPPA_MAX,
    delta: float = DEFAULT_DELTA,
    k: int | None = None,
) -> RatioSelection:
    """Pick the weight ratio as the smaller of the two feasible bounds.

    Defaults: kappa_max = 4, delta = 0.4, and 10% sparsity
    (k = floor(0.1 n)).  When both bounds are infeasible the empirical
    ``DEFAULT_RATIO`` is returned with source "default-fallback".
    """
    atoms = _atoms(D)
    n, p = atoms.shape
    if k is None:
        k = int(math.floor(0.1 * n))
    k = int(k)

    kappa_bound = kappa_ratio_bound(atoms, kappa_max)

    rip_bound = None
    if k >= 2 and 2 * k <= min(n, p):
        mu = getattr(D, "coherence", None)
        if mu is None:
            mu = mutual_coherence(atoms)
        rip_bound = rip_ratio_bound(n, k, mu, delta)

    bounds = ((rip_bound, "rip-limited"), (kappa_bound, "kappa-limited"))
    candidates = [(b.ratio_upper, source) for b, source in bounds if b is not None and b.feasible]
    fallback = (DEFAULT_RATIO, "default-fallback")
    ratio, source = min(candidates, key=lambda item: item[0], default=fallback)
    return RatioSelection(
        ratio=float(ratio),
        source=source,
        k_used=k,
        kappa_bound=kappa_bound,
        rip_bound=rip_bound,
    )


def verify_rip_bruteforce(D, params: CsimParams, two_k: int) -> float:
    """Exact isometry constant of the transformed dictionary.

    Forms the square-root-weighted atoms, then for every set of two_k
    columns measures how far the Gram submatrix spectrum strays from 1;
    the maximum of max(1 - lambda_min, lambda_max - 1) over all subsets
    is returned.  Refuses to enumerate more than 100,000 subsets.
    """
    atoms = _unit_atoms(D)
    n, p = atoms.shape
    if params.n != n:
        raise ValueError("kernel dimension does not match the dictionary")
    two_k = int(two_k)
    if not 1 <= two_k <= p:
        raise ValueError("two_k must lie in [1, p]")
    count = math.comb(p, two_k)
    if count > _RIP_SUBSET_BUDGET:
        raise ValueError(f"{count} subsets exceed the enumeration budget {_RIP_SUBSET_BUDGET}")

    col_sums = atoms.sum(axis=0)
    weighted = params.sqrt_diag_coef * atoms + params.sqrt_ones_coef * col_sums
    gram = weighted.T @ weighted

    worst = 0.0
    for subset in combinations(range(p), two_k):
        idx = np.asarray(subset)
        eigs = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
        worst = max(worst, 1.0 - float(eigs[0]), float(eigs[-1]) - 1.0)
    return worst
