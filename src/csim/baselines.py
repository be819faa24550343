"""Reference solvers for the comparison harness.

Both baselines work on the masked synthesis operator A = M D and the
objective 0.5 ||A s - y||^2 plus a sparsity term: FISTA with an l1
penalty of weight 0.01 max|A.T y| and the gradient restart of
O'Donoghue & Candes (2015), and an iterative hard-thresholding solver
with a fixed, exponentially decaying threshold schedule.  They share one
config type, `BaselineConfig`.  Like the ADMM solver, both read a row
only at its observed positions (through `solver._observed_rows`), and a
non-finite observed sample raises `NonFiniteError`.

Each iteration is separable per signal, so one loop per method
(`fista_solve_batch`, `iht_adaptive_solve_batch`) runs it on a stack of
signals at once, with the solver's row-stack conventions: every step
acts on the last axis, and a per-row value (step, l1 weight, threshold,
momentum weight) is a scalar when the rows share it and a (B, 1) column
otherwise.  `fista_solve` and `iht_adaptive_solve` are the one-signal
cases.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dictionaries import Dictionary, _analyze, _dot, _synthesize, spectral_norm_sq
from .signals import SamplingMask
from .solver import (
    NonFiniteError,
    RecoveryResult,
    _all,
    _at_least,
    _check_settings,
    _check_threshold,
    _observed_rows,
    _peak_weight,
    _per_row,
    soft_threshold,
)

__all__ = [
    "BaselineConfig",
    "hard_threshold",
    "fista_solve",
    "fista_solve_batch",
    "iht_adaptive_solve",
    "iht_adaptive_solve_batch",
]

# FISTA's l1 weight and IHT's threshold schedule (see BaselineConfig),
# the scales over max|A.T y| of each row.
_FISTA_WEIGHT_SCALE = 0.01
_IHT_START_SCALE = 0.5
_IHT_DECAY = 0.2
_IHT_FLOOR = 1e-3


@dataclass(frozen=True)
class BaselineConfig:
    """Iteration budget and whether to keep per-iteration coefficients,
    checked as ``SolverConfig`` checks them.  The rest is fixed per row:
    the step 1/||A||^2, FISTA's l1 weight 0.01 max|A.T y| and IHT's
    thresholds tau_t = max(0.5 max|A.T y| exp(-0.2 t), 1e-3)."""

    max_iter: int = 50
    record_iterates: bool = False

    def __post_init__(self):
        _check_settings(self)


def hard_threshold(v, tau) -> np.ndarray:
    """Zero entries with |v_i| < tau, keep the rest exactly; ``tau`` is
    a scalar or a per-row value."""
    _check_threshold(tau)
    return _hard_threshold(np.asarray(v, dtype=float), tau)


def _hard_threshold(v, tau) -> np.ndarray:
    """``hard_threshold``'s arithmetic on a float array, for IHT, whose
    schedule is checked once per call."""
    return np.where(np.abs(v) >= tau, v, 0.0)


def _row_stack(Y, masks: list[SamplingMask], D: Dictionary):
    """Both baselines' front end for a nonempty batch: the observations
    of ``_observed_rows`` (one row on 1-D arrays), the (forward, adjoint)
    pair of the masked operators and the per-row gradient step
    1/||A_b||^2."""
    Y, observed = _observed_rows(Y, masks, D.n)
    lipschitz = spectral_norm_sq(D.atoms, observed=np.reshape(observed, (-1, D.n)))
    if np.count_nonzero(~(lipschitz > 0)):
        raise ValueError("degenerate masked operator")
    forward, adjoint = _operator(D.atoms, observed)
    return Y, forward, adjoint, _per_row(1.0 / lipschitz)


def _operator(atoms, observed):
    """(s -> A s, r -> A.T r) for the masked operators A_b = diag(o_b) D
    of the rows of ``observed``.  One row forms its n x p matrix once; a
    stack applies D and the 0/1 rows, never one matrix per row.

    The stacked adjoint applies D.T alone: both baselines hand it
    residuals that are already exactly +0 or -0 off the observed samples
    (IHT's Y - A s, FISTA's A p - Y, with Y zero-filled there), and
    0 * (+-0) keeps that sign, so the mask would change no bit."""
    if observed.ndim == 1:
        A = np.where(observed[:, None] != 0, atoms, 0.0)
        return A.__matmul__, A.T.__matmul__
    return (lambda s: observed * _synthesize(atoms, s)), (lambda r: _analyze(atoms, r))


def _check_iterate(s, solver: str) -> None:
    """Raise ``NonFiniteError`` if s is not finite.  The loops call it
    only when the residual norm of s is not finite: one non-finite
    coefficient makes every sample of A s non-finite (inf * 0 is nan),
    so a finite norm clears s, and a finite s whose squared residual
    overflows goes on."""
    if not _all(np.isfinite(s)):
        raise NonFiniteError(f"non-finite {solver} iterate")


def _results(atoms, s, history, elapsed, iterates) -> list[RecoveryResult]:
    """One result per row from the final coefficients, the per-iteration
    residual norms of every row and the batch clock."""
    history = np.reshape(history, (len(history), -1)).T.copy()  # one row per signal
    S = np.reshape(s, (-1, s.shape[-1]))
    X = _synthesize(atoms, S)
    clock = np.asarray(elapsed)
    if iterates is not None:
        iterates = np.reshape(iterates, (len(iterates),) + S.shape)
    return [
        RecoveryResult(
            x_hat=X[j],
            s_hat=S[j],
            iterations=history.shape[1],
            primal_residuals=history[j],
            slack_residuals=None,
            elapsed_ms=clock,
            iterates=None if iterates is None else list(iterates[:, j]),
            stop_reason="budget",
        )
        for j in range(len(S))
    ]


def fista_solve(y, mask: SamplingMask, D: Dictionary, config: BaselineConfig | None = None) -> RecoveryResult:
    """Recover one signal: ``fista_solve_batch`` with a single row."""
    return fista_solve_batch(np.asarray(y, dtype=float)[None], [mask], D, config)[0]


def fista_solve_batch(Y, masks, D: Dictionary, config: BaselineConfig | None = None) -> list[RecoveryResult]:
    """Accelerated proximal gradient on 0.5||A s - y||^2 + w ||s||_1 for
    every row of ``Y``, row i observed through ``masks[i]``.

    Each row has its own step 1/||A_b||^2 and its own weight
    w = 0.01 max|A_b.T y_b|.  A row whose new iterate s+ moved against its
    momentum, (p - s+) . (s+ - s) > 0 at momentum point p, restarts: its
    momentum weight goes back to 1, so its next step is a plain proximal
    step from s+, which cannot raise its objective.  A p is carried by
    linearity from the products of the last two iterates, so an iteration
    forms one product with A and one with A.T.  A row's result has the
    bits of its one-row solve, apart from ``elapsed_ms``, the batch's
    clock.
    """
    if config is None:
        config = BaselineConfig()
    masks = list(masks)
    if not masks:
        return []
    Y, forward, adjoint, step = _row_stack(Y, masks, D)
    threshold = _peak_weight(_FISTA_WEIGHT_SCALE, adjoint(Y)) * step

    s = np.zeros(Y.shape[:-1] + (D.p,))
    product = np.zeros_like(Y)  # A s at s = 0
    momentum_point, momentum_product = s, product
    t_k = 1.0
    # One row keeps t_k a Python float: a Python-float sqrt and a scalar
    # restart flag, with the bits of the array forms.
    sqrt, isfinite = (math.sqrt, math.isfinite) if s.ndim == 1 else (np.sqrt, np.isfinite)

    history, elapsed = [], []
    iterates: list[np.ndarray] | None = [] if config.record_iterates else None
    start = time.perf_counter()
    for _ in range(config.max_iter):
        candidate = soft_threshold(
            momentum_point - step * adjoint(momentum_product - Y), threshold
        )
        candidate_product = forward(candidate)
        r = candidate_product - Y
        change = candidate - s
        # Gradient restart: a row whose step runs against its momentum
        # (p - s+) . (s+ - s) > 0 drops the momentum.
        restart = _dot(momentum_point - candidate, change) > 0
        if s.ndim == 1:
            if restart:
                t_k = 1.0
        else:
            t_k = np.where(restart, 1.0, t_k)
        t_next = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t_k * t_k))
        beta = (t_k - 1.0) / t_next
        momentum_point = candidate + beta * change
        # A p by linearity, from the products of s+ and s.
        momentum_product = candidate_product + beta * (candidate_product - product)
        s, product, t_k = candidate, candidate_product, t_next

        norm = sqrt(_dot(r, r))
        if not _all(isfinite(norm)):
            _check_iterate(s, "FISTA")
        history.append(norm)
        elapsed.append((time.perf_counter() - start) * 1e3)
        if iterates is not None:
            iterates.append(s)
    return _results(D.atoms, s, history, elapsed, iterates)


def iht_adaptive_solve(y, mask: SamplingMask, D: Dictionary, config: BaselineConfig | None = None) -> RecoveryResult:
    """Recover one signal: ``iht_adaptive_solve_batch`` with a single row."""
    return iht_adaptive_solve_batch(np.asarray(y, dtype=float)[None], [mask], D, config)[0]


def iht_adaptive_solve_batch(Y, masks, D: Dictionary, config: BaselineConfig | None = None) -> list[RecoveryResult]:
    """Gradient step then hard threshold with a decaying threshold, on
    every row of ``Y`` (row i observed through ``masks[i]``), each row
    with its own step 1/||A_b||^2 and its own starting threshold (see
    ``BaselineConfig``).  A row's result has the bits of its one-row solve,
    apart from ``elapsed_ms``, the batch's clock."""
    if config is None:
        config = BaselineConfig()
    masks = list(masks)
    if not masks:
        return []
    Y, forward, adjoint, step = _row_stack(Y, masks, D)
    tau0 = _peak_weight(_IHT_START_SCALE, adjoint(Y))
    # The thresholds max(tau0 e^(-0.2 t), 1e-3) are all at least 1e-3 unless
    # tau0 is nan, which the first one shows: checking it checks them all.
    _check_threshold(_at_least(tau0, _IHT_FLOOR))

    s = np.zeros(Y.shape[:-1] + (D.p,))
    r = Y - forward(s)
    sqrt, isfinite = (math.sqrt, math.isfinite) if s.ndim == 1 else (np.sqrt, np.isfinite)
    history, elapsed = [], []
    iterates: list[np.ndarray] | None = [] if config.record_iterates else None
    start = time.perf_counter()
    for t in range(config.max_iter):
        tau = _at_least(tau0 * math.exp(-_IHT_DECAY * t), _IHT_FLOOR)
        s = _hard_threshold(s + step * adjoint(r), tau)
        r = Y - forward(s)
        norm = sqrt(_dot(r, r))
        if not _all(isfinite(norm)):
            _check_iterate(s, "IHT")
        history.append(norm)
        elapsed.append((time.perf_counter() - start) * 1e3)
        if iterates is not None:
            iterates.append(s)
    return _results(D.atoms, s, history, elapsed, iterates)
