"""ADMM solver for missing-sample recovery under the convex similarity index.

Solves, over coefficients s, signal x, and slack z,

    minimize  csim(z) + l1_weight * ||s||_1 + slack_ridge * ||z||^2
    subject to  x = D s  and  z = M x - y

where M keeps the observed samples of x.  Each subproblem has a closed
form: the x system is diagonal, the s step is one soft-thresholded
gradient step on a majorizing surrogate (with backtracking on the
surrogate constant), and the z system is diagonal-plus-rank-one.  The
l1 weight optionally decays geometrically across iterations
(continuation) and observed samples can be re-imposed on x every
iteration (projection); disabling both gives the plain ADMM whose fixed
point satisfies the stationarity system checked by `kkt_residuals`.

The iteration is separable per signal, so one loop (`solve_batch`) runs
it on a stack of signals at once, every step acting on the last axis;
`solve` is its one-signal case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .core import CsimKernel, CsimParams, apply_kernel, csim_stats
from .dictionaries import Dictionary
from .signals import SamplingMask

__all__ = [
    "SolverConfig",
    "RecoveryResult",
    "BacktrackingLimitError",
    "NonFiniteError",
    "soft_threshold",
    "x_update",
    "projection",
    "s_update_backtracking",
    "z_update",
    "multipliers_update",
    "alpha_schedule",
    "solve",
    "solve_batch",
    "kkt_residuals",
]

_BACKTRACK_CAP = 64


class BacktrackingLimitError(RuntimeError):
    """Backtracking grew the surrogate constant 64 times without the
    majorization check passing; the configuration is inconsistent."""


class NonFiniteError(RuntimeError):
    """An iterate left the finite range."""


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters; ``None`` fields are derived at solve time.

    Derivations follow the reference experiment protocol: with sampling
    ratio m/n, rho1 = 0.4 m/n and rho2 = 2 m/n; var_weight = n - 1 with
    mean_weight = 0.25 var_weight; majorizer0 = 1.05 * ||D||^2.  The l1
    weight starts at l1_init_scale * max|D.T y| (floored at
    l1_weight_min) and decays by l1_decay per iteration while
    ``continuation`` is on.  ``project_observed`` re-imposes the known
    samples on x each iteration; turn both flags off (see ``analysis``)
    to run the plain ADMM with a fixed l1 weight.
    """

    rho1: float | None = None
    rho2: float | None = None
    slack_ridge: float = 1.0
    majorizer_growth: float = 1.1
    majorizer0: float | None = None
    l1_decay: float = 0.95
    l1_init_scale: float = 0.1
    l1_weight_min: float = 1e-4
    max_iter: int = 50
    mean_weight: float | None = None
    var_weight: float | None = None
    feasibility_tol: float = 1e-6
    continuation: bool = True
    project_observed: bool = True
    l1_weight: float | None = None
    record_iterates: bool = False

    @classmethod
    def analysis(cls, l1_weight: float, **kwargs) -> "SolverConfig":
        """Fixed-l1-weight, no-projection configuration (the regime in
        which the iteration provably reaches the stationarity system)."""
        return cls(
            continuation=False,
            project_observed=False,
            l1_weight=float(l1_weight),
            **kwargs,
        )


def effective_config(config: SolverConfig, mask: SamplingMask, D: Dictionary) -> SolverConfig:
    """``config`` with every ``None`` hyperparameter (but ``l1_weight``,
    which ``None`` sets per signal) resolved for a given problem."""
    ratio = mask.m / mask.n
    var_weight = config.var_weight if config.var_weight is not None else float(mask.n - 1)
    resolved = replace(
        config,
        rho1=config.rho1 if config.rho1 is not None else 0.4 * ratio,
        rho2=config.rho2 if config.rho2 is not None else 2.0 * ratio,
        majorizer0=(
            config.majorizer0 if config.majorizer0 is not None else 1.05 * D.spectral_norm_sq
        ),
        mean_weight=config.mean_weight if config.mean_weight is not None else 0.25 * var_weight,
        var_weight=var_weight,
    )
    if not resolved.rho1 > 0 or not resolved.rho2 > 0:
        raise ValueError("penalty parameters must be positive")
    if resolved.slack_ridge < 0:
        raise ValueError("slack_ridge must be nonnegative")
    if not resolved.majorizer_growth > 1:
        raise ValueError("majorizer_growth must exceed 1")
    if not 0 < resolved.l1_decay < 1:
        raise ValueError("l1_decay must lie in (0, 1)")
    if not resolved.l1_weight_min > 0:
        raise ValueError("l1_weight_min must be positive")
    if resolved.l1_weight is not None and not resolved.l1_weight >= 0:
        raise ValueError("l1_weight must be nonnegative")
    if resolved.max_iter < 1:
        raise ValueError("max_iter must be positive")
    if resolved.majorizer0 <= D.spectral_norm_sq:
        raise ValueError("majorizer0 must exceed the squared spectral norm of D")
    return resolved


@dataclass
class RecoveryResult:
    """Solve outcome with per-iteration diagnostics.

    ``primal_residuals[t]`` is ||x - D s|| and ``slack_residuals[t]`` is
    ||z - M x + y|| after iteration t; ``objectives[t]`` is the problem
    objective csim(z) + l1_weight ||s||_1 + slack_ridge ||z||^2 at the
    iterate (with the l1 weight current at that iteration).
    ``elapsed_ms`` is cumulative wall time (of the whole batch, for a
    batched solve).  ``s_retries`` counts the backtracking retries of
    the s step over all iterations.  Baseline solvers reuse this type
    with ``slack_residuals``, the final duals and ``s_retries`` set to
    None.
    """

    x_hat: np.ndarray
    s_hat: np.ndarray
    iterations: int
    primal_residuals: np.ndarray
    slack_residuals: np.ndarray | None
    objectives: np.ndarray
    elapsed_ms: np.ndarray
    iterates: list[np.ndarray] | None = None
    final_slack: np.ndarray | None = None
    final_dual_x: np.ndarray | None = None
    final_dual_z: np.ndarray | None = None
    l1_weight_final: float | None = None
    majorizer_final: float | None = None
    s_retries: int | None = None


def _shrink(v, tau):
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def soft_threshold(v, tau: float) -> np.ndarray:
    """Componentwise sign(v) * max(|v| - tau, 0)."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    return _shrink(np.asarray(v, dtype=float), tau)


# Row stacks.  The iteration acts on the last axis: one signal is a 1-D
# array, B signals a (B, n) stack.  A per-row value (a penalty, the l1
# weight, a surrogate constant, a residual norm) is a scalar for one
# signal or when every row shares it, and a (B, 1) column otherwise, so
# it broadcasts along the rows either way.


def _synthesize(atoms, s) -> np.ndarray:
    """atoms @ s for each row of s.

    The stacked product gives each row the bits of the one-vector
    product ``atoms @ s`` whatever the number of rows; a plain GEMM
    ``s @ atoms.T`` does not.
    """
    return (s[..., None, :] @ atoms.T)[..., 0, :]


def _analyze(atoms, r) -> np.ndarray:
    """atoms.T @ r for each row of r (stacked, as in ``_synthesize``)."""
    return (r[..., None, :] @ atoms)[..., 0, :]


def _dot(a, b):
    """Dot product of each pair of rows (the bits of ``a @ b``), as a
    per-row value."""
    return np.vecdot(a, b, keepdims=a.ndim > 1)


def _sum(v):
    """Sum of each row (the bits of ``v.sum()``), as a per-row value."""
    return np.add.reduce(v, axis=-1, keepdims=v.ndim > 1)


def _all(flags) -> bool:
    # np.count_nonzero costs a fraction of ndarray.all's Python wrapper,
    # which adds up over thousands of tiny per-iteration checks.
    return np.count_nonzero(flags) == np.size(flags)


def _per_row(values):
    """Per-row values as one scalar when they are all equal (or there is
    one row), else as a (B, 1) column."""
    values = np.reshape(np.asarray(values, dtype=float), -1)
    if np.count_nonzero(values != values[0]) == 0:
        return values[0]
    return values[:, None]


def _keep(value, keep):
    """The kept rows of a per-row value; a scalar stays shared."""
    return value[keep] if np.ndim(value) else value


def _row_value(value, j: int):
    return value[j, 0] if np.ndim(value) else value


def _row(stack, j: int) -> np.ndarray:
    return np.reshape(stack, (-1, stack.shape[-1]))[j]


def _indicator(mask):
    """0/1 indicator of the observed positions: a mask's, or a stack of
    indicators (one row per signal) as given."""
    if isinstance(mask, SamplingMask):
        return mask.indicator()
    return mask


def x_update(b, mask, rho1, rho2) -> np.ndarray:
    """Solve (rho1 I + rho2 M.T M) x = b for each row of b; the system is
    diagonal, so observed entries divide by rho1 + rho2 and the rest by
    rho1.  ``mask`` is a SamplingMask or a 0/1 indicator shaped like b.
    """
    return np.asarray(b, dtype=float) / (rho1 + rho2 * _indicator(mask))


def projection(x, y, mask) -> np.ndarray:
    """Replace the observed entries of x by the corresponding samples of y."""
    return np.where(_indicator(mask), y, np.asarray(x, dtype=float))


def _coupling_target(x, dual_x, rho1) -> np.ndarray:
    return np.asarray(x, dtype=float) + np.asarray(dual_x, dtype=float) / rho1


def s_update_backtracking(
    s,
    x,
    dual_x,
    D: Dictionary,
    rho1,
    l1_weight,
    majorizer,
    growth: float,
) -> tuple[np.ndarray, np.ndarray | float, int]:
    """One majorize-minimize step on the s subproblem of each row.

    Proposes a soft-thresholded gradient step with the current surrogate
    constant.  Rows whose true subproblem objective exceeds the
    surrogate value at the proposal grow their constant and retry, until
    every row passes.  rho1, l1_weight (nonnegative) and majorizer are
    per-row values.  Returns (new s, accepted constants, number of retry
    rounds).  The accepted step never increases a row's subproblem
    objective.
    """
    atoms = D.atoms
    s = np.asarray(s, dtype=float)
    target = _coupling_target(x, dual_x, rho1)
    residual0 = target - _synthesize(atoms, s)
    grad0 = -_analyze(atoms, residual0)
    l1_over_rho = l1_weight / rho1
    half_rr0 = 0.5 * _dot(residual0, residual0)

    retries = 0
    while True:
        candidate = _shrink(s - grad0 / majorizer, l1_over_rho / majorizer)
        r = target - _synthesize(atoms, candidate)
        l1_term = l1_over_rho * _sum(np.abs(candidate))
        value = 0.5 * _dot(r, r) + l1_term
        d = candidate - s
        bound = half_rr0 + _dot(d, grad0) + 0.5 * majorizer * _dot(d, d) + l1_term
        # value >= 0 (l1_weight >= 0), so 1 + value is 1 + |value|.  A nan
        # or infinite value fails the comparison and raises below.
        accepted = value <= bound + 1e-12 * (1.0 + value)
        if _all(accepted):
            return candidate, majorizer, retries
        if not (_all(np.isfinite(value)) and _all(np.isfinite(bound))):
            raise NonFiniteError("non-finite value in the coefficient update")
        retries += 1
        if retries > _BACKTRACK_CAP:
            raise BacktrackingLimitError(
                "majorization never held after 64 growth steps; "
                "check the surrogate constant and dictionary scaling"
            )
        majorizer = np.where(accepted, majorizer, majorizer * growth)


def _retry_counts(before, after, growth: float, rounds: int):
    """Retries of each row in one backtracking call of ``rounds`` rounds:
    how often its constant was multiplied by ``growth``."""
    counts = np.zeros(np.shape(after), dtype=np.int64)
    for _ in range(rounds):
        grew = before < after
        counts += grew
        before = np.where(grew, before * growth, before)
    return counts


def z_update(
    c,
    kernel: CsimKernel,
    rho2,
    slack_ridge: float,
) -> np.ndarray:
    """Solve (rho2 I + 2 (W + slack_ridge I)) z = c for each row of c in O(n).

    The system matrix is diagonal-plus-rank-one, so its inverse is a
    scale plus a rank-one correction.
    """
    c = np.asarray(c, dtype=float)
    diag = rho2 + 2.0 * kernel.diag_coef + 2.0 * slack_ridge
    ones = 2.0 * kernel.ones_coef
    full = diag + kernel.n * ones
    if np.count_nonzero(full <= 0):
        raise AssertionError("slack system lost positive definiteness")
    return (c - ones * _sum(c) / full) / diag


def multipliers_update(
    dual_x,
    dual_z,
    coupling_residual,
    slack_residual,
    rho1,
    rho2,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-ascent step on the duals: add rho times each residual."""
    return dual_x + rho1 * coupling_residual, dual_z + rho2 * slack_residual


def alpha_schedule(l1_weight, decay: float, floor: float):
    """Geometric decay of the l1 weight, floored."""
    return np.maximum(decay * l1_weight, floor)


def solve(y, mask: SamplingMask, D: Dictionary, config: SolverConfig | None = None) -> RecoveryResult:
    """Recover one signal: ``solve_batch`` with a single row."""
    return solve_batch(np.asarray(y, dtype=float)[None], [mask], D, config)[0]


def solve_batch(Y, masks, D: Dictionary, config: SolverConfig | None = None) -> list[RecoveryResult]:
    """Run the full iteration on every row of ``Y`` from zero initial iterates.

    Row i of the (B, n) array ``Y`` is observed through ``masks[i]`` and
    read only at its observed positions.  Every row keeps its own
    penalties (from its sample count), l1 weight, surrogate constant and
    stop iteration: it stops at ``max_iter`` or as soon as both of its
    feasibility residuals drop below ``feasibility_tol``, and then
    leaves the working set.  A row's result has the bits of its one-row
    solve, apart from ``elapsed_ms``, which is the batch's clock.  A
    non-finite value or a backtracking failure in any row raises.
    """
    if config is None:
        config = SolverConfig()
    masks = list(masks)
    if not masks:
        return []
    atoms, n, p = D.atoms, D.n, D.p
    if any(mask.n != n for mask in masks):
        raise ValueError("mask does not match the dictionary dimension")
    configs: dict[int, SolverConfig] = {}
    for mask in masks:
        if mask.m not in configs:
            configs[mask.m] = effective_config(config, mask, D)
    cfg = configs[masks[0].m]
    Y = np.asarray(Y, dtype=float)
    B = len(masks)
    if Y.shape != (B, n):
        raise ValueError(f"expected one length-{n} row of observations per mask")
    observed = np.zeros((B, n))
    for row, mask in enumerate(masks):
        observed[row, mask.observed] = 1.0
    Y = np.where(observed, Y, 0.0)
    if not _all(np.isfinite(Y)):
        raise NonFiniteError("observed samples contain non-finite values")
    if B == 1:
        # A single row runs on 1-D arrays: its per-row values are then
        # numpy scalars, whose arithmetic costs a fraction of that of
        # (1, 1) arrays.  The bits are the same.
        Y, observed = Y[0], observed[0]

    params = CsimParams(cfg.mean_weight, cfg.var_weight, n)
    kernel = CsimKernel(params)
    rho1 = _per_row([configs[mask.m].rho1 for mask in masks])
    rho2 = _per_row([configs[mask.m].rho2 for mask in masks])
    ridge, growth = cfg.slack_ridge, cfg.majorizer_growth
    if cfg.l1_weight is not None:
        l1_weight = cfg.l1_weight
    else:
        peak = np.abs(_analyze(atoms, Y)).max(axis=-1)
        l1_weight = _per_row(np.maximum(cfg.l1_init_scale * peak, cfg.l1_weight_min))
    majorizer = cfg.majorizer0
    retries = 0

    s = np.zeros(Y.shape[:-1] + (p,))
    z = np.zeros_like(Y)
    dual_x = np.zeros_like(Y)
    dual_z = np.zeros_like(Y)
    synthesized = _synthesize(atoms, s)

    rows = np.arange(B)  # input row of each working row
    results: list[RecoveryResult | None] = [None] * B
    # Residuals and objectives (and iterates) of the working rows since
    # the working set last changed; split into per-row pieces when it does.
    segment: list[tuple] = []
    segment_s: list[np.ndarray] = []
    pieces: list[list[np.ndarray]] = [[] for _ in range(B)]
    iterates: list[list[np.ndarray]] | None = (
        [[] for _ in range(B)] if cfg.record_iterates else None
    )
    elapsed: list[float] = []

    start = time.perf_counter()
    for iteration in range(1, cfg.max_iter + 1):
        b = rho1 * synthesized - dual_x
        # Products with the 0/1 indicator stand in for masked assignments;
        # they can differ from them only in the sign of a zero.
        b = b + observed * (rho2 * (z + Y) + dual_z)
        x = x_update(b, observed, rho1, rho2)
        if cfg.project_observed:
            x = projection(x, Y, observed)

        before = majorizer
        s, majorizer, rounds = s_update_backtracking(
            s, x, dual_x, D, rho1, l1_weight, majorizer, growth
        )
        if rounds:
            retries = retries + _retry_counts(before, majorizer, growth, rounds)
        synthesized = _synthesize(atoms, s)

        masked_x = observed * x
        z = z_update(rho2 * (masked_x - Y) - dual_z, kernel, rho2, ridge)

        coupling_residual = x - synthesized
        slack_residual = z - masked_x + Y
        dual_x, dual_z = multipliers_update(
            dual_x, dual_z, coupling_residual, slack_residual, rho1, rho2
        )

        r1 = np.sqrt(_dot(coupling_residual, coupling_residual))
        r2 = np.sqrt(_dot(slack_residual, slack_residual))
        index = csim_stats(z, params)  # one value per row, without the row axis
        segment.append(
            (
                r1,
                r2,
                (index if z.ndim == 1 else index[:, None])
                + l1_weight * _sum(np.abs(s))
                + ridge * _dot(z, z),
            )
        )
        if cfg.continuation:
            l1_weight = alpha_schedule(l1_weight, cfg.l1_decay, cfg.l1_weight_min)
        elapsed.append((time.perf_counter() - start) * 1e3)
        if iterates is not None:
            segment_s.append(s)

        # Non-finite entries of x, s or z make r1 or r2 non-finite: every
        # atom has a nonzero entry, and inf * 0 is nan.
        worst = np.maximum(r1, r2)
        if not _all(np.isfinite(worst)):
            raise NonFiniteError(f"non-finite iterate at iteration {iteration}")
        done = worst < cfg.feasibility_tol
        if iteration < cfg.max_iter and not np.count_nonzero(done):
            continue

        # Hand the segment to the working rows, then retire those that stop.
        width = len(rows)
        block = np.reshape(segment, (len(segment), 3, width))
        for j, row in enumerate(rows):
            pieces[row].append(block[:, :, j])
        if iterates is not None:
            block_s = np.reshape(segment_s, (len(segment_s), width, p))
            for j, row in enumerate(rows):
                iterates[row].extend(block_s[:, j])
        segment, segment_s = [], []
        if iteration < cfg.max_iter:
            stopping = np.reshape(done, -1)
        else:
            stopping = np.ones(width, dtype=bool)
        clock = np.array(elapsed)
        for j in np.flatnonzero(stopping):
            row = rows[j]
            history = np.concatenate(pieces[row]).T.copy()
            results[row] = RecoveryResult(
                x_hat=_row(x, j),
                s_hat=_row(s, j),
                iterations=iteration,
                primal_residuals=history[0],
                slack_residuals=history[1],
                objectives=history[2],
                elapsed_ms=clock,
                iterates=None if iterates is None else iterates[row],
                final_slack=_row(z, j),
                final_dual_x=_row(dual_x, j),
                final_dual_z=_row(dual_z, j),
                l1_weight_final=float(_row_value(l1_weight, j)),
                majorizer_final=float(_row_value(majorizer, j)),
                s_retries=int(_row_value(retries, j)),
            )
        keep = ~stopping
        if not np.count_nonzero(keep):
            break
        rows, Y, observed, s, z, dual_x, dual_z, synthesized = (
            a[keep] for a in (rows, Y, observed, s, z, dual_x, dual_z, synthesized)
        )
        rho1, rho2, l1_weight, majorizer, retries = (
            _keep(v, keep) for v in (rho1, rho2, l1_weight, majorizer, retries)
        )
    return results


def kkt_residuals(
    result: RecoveryResult,
    mask: SamplingMask,
    kernel: CsimKernel,
    slack_ridge: float,
) -> tuple[float, float]:
    """Stationarity gaps at the returned iterate.

    Returns (||2 (W + slack_ridge I) z + dual_z||,
    ||dual_x - M.T dual_z||); both vanish at an optimum of the fixed-
    weight problem.
    """
    z = result.final_slack
    dual_x = result.final_dual_x
    dual_z = result.final_dual_z
    if z is None or dual_x is None or dual_z is None:
        raise ValueError("result does not carry final duals")
    grad_z = 2.0 * (apply_kernel(z, kernel) + slack_ridge * z) + dual_z
    masked_dual = np.zeros(mask.n)
    masked_dual[mask.observed] = dual_z[mask.observed]
    return float(np.linalg.norm(grad_z)), float(np.linalg.norm(dual_x - masked_dual))
