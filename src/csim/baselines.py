"""Reference solvers for the comparison harness.

Both baselines work on the masked synthesis operator A = M D and the
objective 0.5 ||A s - y||^2 plus a sparsity term: FISTA with an l1
penalty and a restart safeguard that keeps the objective monotone, and
an iterative hard-thresholding solver with an exponentially decaying
threshold schedule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dictionaries import Dictionary, spectral_norm_sq
from .signals import SamplingMask
from .solver import NonFiniteError, RecoveryResult, soft_threshold

__all__ = [
    "FistaConfig",
    "IhtConfig",
    "hard_threshold",
    "fista_solve",
    "iht_adaptive_solve",
]


@dataclass(frozen=True)
class FistaConfig:
    """l1 weight (None: 0.01 * max|A.T y|), step (None: 1/||A||^2),
    iteration budget, and whether to keep per-iteration coefficients."""

    l1_weight: float | None = None
    step: float | None = None
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


def hard_threshold(v, tau: float) -> np.ndarray:
    """Zero entries with |v_i| < tau, keep the rest exactly."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.where(np.abs(v) >= tau, v, 0.0)


def _masked_operator(mask: SamplingMask, D: Dictionary) -> np.ndarray:
    if mask.n != D.n:
        raise ValueError("mask does not match the dictionary dimension")
    A = np.zeros_like(D.atoms)
    A[mask.observed, :] = D.atoms[mask.observed, :]
    return A


def _resolve_step(step: float | None, A) -> float:
    lipschitz = spectral_norm_sq(A)
    if lipschitz <= 0:
        raise ValueError("degenerate masked operator")
    if step is None:
        return 1.0 / lipschitz
    if step > 1.0 / lipschitz:
        raise ValueError("step exceeds 1 / ||A||^2")
    if step <= 0:
        raise ValueError("step must be positive")
    return float(step)


def fista_solve(y, mask: SamplingMask, D: Dictionary, config: FistaConfig | None = None) -> RecoveryResult:
    """Accelerated proximal gradient on 0.5||A s - y||^2 + w ||s||_1.

    Any momentum step that would raise the objective is replaced by the
    plain proximal step from the previous iterate (which cannot raise
    it), and the momentum is reset, so the recorded objectives are
    non-increasing.
    """
    if config is None:
        config = FistaConfig()
    if config.max_iter < 1:
        raise ValueError("max_iter must be positive")
    A = _masked_operator(mask, D)
    y = np.asarray(y, dtype=float)
    step = _resolve_step(config.step, A)
    w = config.l1_weight
    if w is None:
        w = 0.01 * float(np.abs(A.T @ y).max())
    if w < 0:
        raise ValueError("l1 weight must be nonnegative")

    def objective(s):
        r = A @ s - y
        return 0.5 * float(r @ r) + w * float(np.abs(s).sum())

    s = np.zeros(D.p)
    momentum_point = s
    t_k = 1.0
    value = objective(s)

    residuals, objectives, elapsed = [], [], []
    iterates: list[np.ndarray] | None = [] if config.record_iterates else None
    start = time.perf_counter()
    for _ in range(config.max_iter):
        grad = A.T @ (A @ momentum_point - y)
        candidate = soft_threshold(momentum_point - step * grad, w * step)
        cand_value = objective(candidate)
        if cand_value > value:
            grad = A.T @ (A @ s - y)
            candidate = soft_threshold(s - step * grad, w * step)
            cand_value = objective(candidate)
            t_k = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
        momentum_point = candidate + ((t_k - 1.0) / t_next) * (candidate - s)
        s = candidate
        value = cand_value
        t_k = t_next

        if not np.all(np.isfinite(s)):
            raise NonFiniteError("non-finite FISTA iterate")
        residuals.append(float(np.linalg.norm(A @ s - y)))
        objectives.append(value)
        elapsed.append((time.perf_counter() - start) * 1e3)
        if iterates is not None:
            iterates.append(s.copy())

    return RecoveryResult(
        x_hat=D.atoms @ s,
        s_hat=s,
        iterations=len(objectives),
        primal_residuals=np.asarray(residuals),
        slack_residuals=None,
        objectives=np.asarray(objectives),
        elapsed_ms=np.asarray(elapsed),
        iterates=iterates,
    )


def iht_adaptive_solve(y, mask: SamplingMask, D: Dictionary, config: IhtConfig | None = None) -> RecoveryResult:
    """Gradient step then hard threshold with a decaying threshold."""
    if config is None:
        config = IhtConfig()
    if config.max_iter < 1:
        raise ValueError("max_iter must be positive")
    A = _masked_operator(mask, D)
    y = np.asarray(y, dtype=float)
    step = _resolve_step(None, A)
    tau0 = config.tau0
    if tau0 is None:
        tau0 = 0.5 * float(np.abs(A.T @ y).max())
    if tau0 < 0 or config.tau_min < 0 or config.decay < 0:
        raise ValueError("threshold schedule must be nonnegative")

    s = np.zeros(D.p)
    residuals, objectives, elapsed = [], [], []
    iterates: list[np.ndarray] | None = [] if config.record_iterates else None
    start = time.perf_counter()
    for t in range(config.max_iter):
        tau = max(tau0 * math.exp(-config.decay * t), config.tau_min)
        s = hard_threshold(s + step * (A.T @ (y - A @ s)), tau)
        if not np.all(np.isfinite(s)):
            raise NonFiniteError("non-finite IHT iterate")
        r = A @ s - y
        residuals.append(float(np.linalg.norm(r)))
        objectives.append(0.5 * float(r @ r))
        elapsed.append((time.perf_counter() - start) * 1e3)
        if iterates is not None:
            iterates.append(s.copy())

    return RecoveryResult(
        x_hat=D.atoms @ s,
        s_hat=s,
        iterations=len(objectives),
        primal_residuals=np.asarray(residuals),
        slack_residuals=None,
        objectives=np.asarray(objectives),
        elapsed_ms=np.asarray(elapsed),
        iterates=iterates,
    )
