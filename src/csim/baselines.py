"""Reference solvers for the comparison harness.

Both baselines work on the masked synthesis operator A = M D and the
objective 0.5 ||A s - y||^2 plus a sparsity term: FISTA with an l1
penalty and the gradient restart of O'Donoghue & Candes (2015), and an
iterative hard-thresholding solver with an exponentially decaying
threshold schedule.  Like the ADMM solver, both read a row only at its
observed positions (through `solver._observed_rows`), and a non-finite
observed sample raises `NonFiniteError`; a config setting that is not
finite raises `ValueError` naming its field, as in the ADMM solver.

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
    _check_finite,
    _check_threshold,
    _observed_rows,
    _per_row,
    soft_threshold,
)

__all__ = [
    "FistaConfig",
    "IhtConfig",
    "hard_threshold",
    "fista_solve",
    "fista_solve_batch",
    "iht_adaptive_solve",
    "iht_adaptive_solve_batch",
]


@dataclass(frozen=True)
class FistaConfig:
    """l1 weight (None: 0.01 * max|A.T y|), iteration budget, and
    whether to keep per-iteration coefficients; the step is 1/||A||^2."""

    l1_weight: float | None = None
    max_iter: int = 50
    record_iterates: bool = False


@dataclass(frozen=True)
class IhtConfig:
    """Threshold schedule tau_t = max(tau0 * exp(-decay * t), tau_min).

    Defaults seed tau0 at 0.5 * max|A.T y| with decay 0.2 and floor
    1e-3; the gradient step is 1/||A||^2.
    """

    tau0: float | None = None
    decay: float = 0.2
    tau_min: float = 1e-3
    max_iter: int = 50
    record_iterates: bool = False


def hard_threshold(v, tau) -> np.ndarray:
    """Zero entries with |v_i| < tau, keep the rest exactly; ``tau`` is
    a scalar or a per-row value."""
    _check_threshold(tau)
    v = np.asarray(v, dtype=float)
    return np.where(np.abs(v) >= tau, v, 0.0)


def _row_stack(Y, masks: list[SamplingMask], D: Dictionary):
    """The working arrays of ``_observed_rows`` (one row on 1-D arrays)
    and the per-row ||A_b||^2 of a batch."""
    Y, observed = _observed_rows(Y, masks, D.n)
    lipschitz = spectral_norm_sq(D.atoms, observed=np.reshape(observed, (-1, D.n)))
    if np.count_nonzero(~(lipschitz > 0)):
        raise ValueError("degenerate masked operator")
    return Y, observed, lipschitz


def _operator(atoms, observed):
    """(s -> A s, r -> A.T r) for the masked operators A_b = diag(o_b) D
    of the rows of ``observed``.  One row forms its n x p matrix once; a
    stack applies D and the 0/1 rows, never one matrix per row."""
    if observed.ndim == 1:
        A = np.where(observed[:, None] != 0, atoms, 0.0)
        return A.__matmul__, A.T.__matmul__
    return (lambda s: observed * _synthesize(atoms, s)), (lambda r: _analyze(atoms, observed * r))


def _results(atoms, s, history, elapsed, iterates) -> list[RecoveryResult]:
    """One result per row from the final coefficients, the per-iteration
    residual norms of every row and the batch clock."""
    history = np.reshape(history, (len(history), -1))
    S = np.reshape(s, (-1, s.shape[-1]))
    X = _synthesize(atoms, S)
    clock = np.asarray(elapsed)
    if iterates is not None:
        iterates = np.reshape(iterates, (len(iterates),) + S.shape)
    return [
        RecoveryResult(
            x_hat=X[j],
            s_hat=S[j],
            iterations=len(history),
            primal_residuals=history[:, j].copy(),
            slack_residuals=None,
            elapsed_ms=clock,
            iterates=None if iterates is None else list(iterates[:, j]),
            stop_reason="budget",
        )
        for j in range(len(S))
    ]


def fista_solve(y, mask: SamplingMask, D: Dictionary, config: FistaConfig | None = None) -> RecoveryResult:
    """Recover one signal: ``fista_solve_batch`` with a single row."""
    return fista_solve_batch(np.asarray(y, dtype=float)[None], [mask], D, config)[0]


def fista_solve_batch(Y, masks, D: Dictionary, config: FistaConfig | None = None) -> list[RecoveryResult]:
    """Accelerated proximal gradient on 0.5||A s - y||^2 + w ||s||_1 for
    every row of ``Y``, row i observed through ``masks[i]``.

    Each row has its own step 1/||A_b||^2 and, unless ``l1_weight`` is
    set, its own weight.  A row whose new iterate s+ moved against its
    momentum, (p - s+) . (s+ - s) > 0 at momentum point p, restarts: its
    momentum weight goes back to 1, so its next step is a plain proximal
    step from s+, which cannot raise its objective.  A p is carried by
    linearity from the products of the last two iterates, so an iteration
    forms one product with A and one with A.T.  A row's result has the
    bits of its one-row solve, apart from ``elapsed_ms``, the batch's
    clock.
    """
    if config is None:
        config = FistaConfig()
    _check_finite(config)
    if config.max_iter < 1:
        raise ValueError("max_iter must be positive")
    masks = list(masks)
    if not masks:
        return []
    atoms = D.atoms
    Y, observed, lipschitz = _row_stack(Y, masks, D)
    forward, adjoint = _operator(atoms, observed)
    step = _per_row(1.0 / lipschitz)
    w = config.l1_weight
    if w is None:
        w = _per_row(0.01 * np.abs(adjoint(Y)).max(axis=-1))
    elif w < 0:
        raise ValueError("l1_weight must be nonnegative")
    threshold = w * step

    s = np.zeros(Y.shape[:-1] + (D.p,))
    product = np.zeros_like(Y)  # A s at s = 0
    momentum_point, momentum_product = s, product
    t_k = 1.0
    # One row keeps t_k a Python float: a Python-float sqrt and a scalar
    # restart flag, with the bits of the array forms.
    sqrt = math.sqrt if s.ndim == 1 else np.sqrt

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

        if not _all(np.isfinite(s)):
            raise NonFiniteError("non-finite FISTA iterate")
        history.append(sqrt(_dot(r, r)))
        elapsed.append((time.perf_counter() - start) * 1e3)
        if iterates is not None:
            iterates.append(s)
    return _results(atoms, s, history, elapsed, iterates)


def iht_adaptive_solve(y, mask: SamplingMask, D: Dictionary, config: IhtConfig | None = None) -> RecoveryResult:
    """Recover one signal: ``iht_adaptive_solve_batch`` with a single row."""
    return iht_adaptive_solve_batch(np.asarray(y, dtype=float)[None], [mask], D, config)[0]


def iht_adaptive_solve_batch(Y, masks, D: Dictionary, config: IhtConfig | None = None) -> list[RecoveryResult]:
    """Gradient step then hard threshold with a decaying threshold, on
    every row of ``Y`` (row i observed through ``masks[i]``), each row
    with its own step 1/||A_b||^2 and, unless ``tau0`` is set, its own
    starting threshold.  A row's result has the bits of its one-row
    solve, apart from ``elapsed_ms``, the batch's clock."""
    if config is None:
        config = IhtConfig()
    _check_finite(config)
    if config.max_iter < 1:
        raise ValueError("max_iter must be positive")
    masks = list(masks)
    if not masks:
        return []
    Y, observed, lipschitz = _row_stack(Y, masks, D)
    forward, adjoint = _operator(D.atoms, observed)
    step = _per_row(1.0 / lipschitz)
    tau0 = config.tau0
    if tau0 is None:
        tau0 = _per_row(0.5 * np.abs(adjoint(Y)).max(axis=-1))
    for name in ("tau0", "tau_min", "decay"):
        value = getattr(config, name)
        if value is not None and value < 0:
            raise ValueError(f"{name} must be nonnegative")

    s = np.zeros(Y.shape[:-1] + (D.p,))
    r = Y - forward(s)
    history, elapsed = [], []
    iterates: list[np.ndarray] | None = [] if config.record_iterates else None
    start = time.perf_counter()
    for t in range(config.max_iter):
        tau = tau0 * math.exp(-config.decay * t)
        tau = max(tau, config.tau_min) if isinstance(tau, float) else np.maximum(tau, config.tau_min)
        s = hard_threshold(s + step * adjoint(r), tau)
        if not _all(np.isfinite(s)):
            raise NonFiniteError("non-finite IHT iterate")
        r = Y - forward(s)
        history.append(np.sqrt(_dot(r, r)))
        elapsed.append((time.perf_counter() - start) * 1e3)
        if iterates is not None:
            iterates.append(s)
    return _results(D.atoms, s, history, elapsed, iterates)
