"""ADMM solver for missing-sample recovery under the convex similarity index.

Solves, over coefficients s, signal x, and slack z,

    minimize  csim(z) + l1_weight * ||s||_1 + ||z||^2
    subject to  x = D s  and  z = M x - y

where M keeps the observed samples of x.  Each subproblem has a closed
form: the x system is diagonal, the s step is one soft-thresholded
gradient step on a surrogate with constant 1.05 ||D||^2, which
majorizes it, and the z system is diagonal-plus-rank-one.  Two regimes
follow from ``SolverConfig.l1_weight``.  Left at None, it runs the
reference protocol: the l1 weight decays geometrically (by 0.95 per
iteration, from 0.1 max|D.T y|, to a floor of 1e-4) and the observed
samples are re-imposed on x every iteration (projection).  Set to a
number, it runs the ADMM with that fixed weight, whose fixed point
satisfies the stationarity system checked by `kkt_residuals`; its s and
z steps and its dual step read an over-relaxed x (Boyd et al. 2011,
section 3.4.3).  A run stops once the primal, slack and dual residuals
(section 3.3) are all below a tolerance and, under the protocol, the l1
weight is at its floor.

The iteration is separable per signal, so one loop (`solve_batch`) runs
it on a stack of signals at once, every step acting on the last axis;
`solve` is its one-signal case.  The loop forms one dictionary product
D s per iteration: the s step takes the product of the current s and
returns that of the new one.  It carries the scaled duals
u = dual_x / rho1 and v = dual_z / rho2 (Boyd et al. 2011, section
3.1.1), so its x, residual and dual steps form no rho products; a result
gets rho1 u and rho2 v.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass

import numpy as np

from .core import DEFAULT_RATIO, CsimParams, apply_kernel
from .dictionaries import Dictionary, _analyze, _dot, _synthesize
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
    "solve",
    "solve_batch",
    "kkt_residuals",
]

# Over-relaxation factor of the fixed-weight regime.
_RELAXATION = 1.8
# The reference protocol's constants (see SolverConfig): the penalties
# rho1 and rho2 over the sampling ratio m/n, the s step's surrogate
# constant over ||D||^2, the slack ridge weight, and the start (over
# max|D.T y|), decay and floor of the l1 weight it decays.
_RHO1_SCALE = 0.4
_RHO2_SCALE = 2.0
_MAJORIZER_SCALE = 1.05
_SLACK_RIDGE = 1.0
_L1_INIT_SCALE = 0.1
_L1_DECAY = 0.95
_L1_WEIGHT_MIN = 1e-4


class BacktrackingLimitError(RuntimeError):
    """No solver raises it: the s step's constant 1.05 ||D||^2
    majorizes, so the step never backtracks.  It stays importable for the
    benchmark, which lists it among its operation errors."""


class NonFiniteError(RuntimeError):
    """An iterate left the finite range."""


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters; ``None`` fields are derived at solve time.

    Derivations follow the reference experiment protocol: var_weight =
    n - 1 with mean_weight = var_weight / DEFAULT_RATIO.  The protocol
    also fixes what no field sets: with sampling ratio m/n, each row's
    ADMM penalties rho1 = 0.4 m/n and rho2 = 2 m/n (any positive
    penalties share the fixed point; Boyd et al. 2011, section 3.2), the
    s step's surrogate constant 1.05 ``D.spectral_norm_sq`` and the slack
    ridge weight 1.

    ``l1_weight`` picks the regime.  Left at None, it runs the protocol:
    an l1 weight that starts at 0.1 max|D.T y| and decays by 0.95 per
    iteration to a floor of 1e-4, with the known samples re-imposed on x
    each iteration (projection).  The observed samples of x then equal y
    after every x step, so the slack z = M x - y, its dual and the slack
    residual are exactly +0.0 in every iteration; the loop never forms
    them.  ``mean_weight`` and ``var_weight`` are still validated, but
    they cannot change a projected run's output: the CSIM term shapes
    the solution only in the other regime.  A row stops only
    once the weight it used is at the floor; when the duals are smaller
    than the tolerance, the stationarity gap ||dual_x - M.T dual_z|| (all
    of ||dual_x|| here) can still keep a share of ||dual_x||.

    Set to a number (see ``analysis``), it runs the ADMM with that fixed
    weight and no projection: the regime with the convergence guarantee,
    in which the stationarity gaps of ``kkt_residuals`` close as the
    iterates settle.  Its iteration is over-relaxed with the factor
    alpha = 1.8 of Boyd et al. (2011), section 3.4.3: the s step reads
    alpha x + (1 - alpha) D s_prev in place of x, the z step reads
    alpha M x + (1 - alpha) (z_prev + y) in place of M x, and the dual
    step takes the residuals of those relaxed values; the feasibility
    residuals keep the plain x.  The s step is one majorize-minimize
    step, not an exact minimization, so the relaxation theory does not
    cover it exactly; acceptance criterion 6 (``tests/test_acceptance.py``)
    is the evidence that the relaxed iteration still reaches the
    stationarity system.

    Built with a non-finite float, a ``max_iter`` that is not a positive
    integer, or a negative ``l1_weight`` or ``feasibility_tol``, a config
    raises ``ValueError`` naming the field; ``effective_config`` checks
    the index weights, whose range depends on n.
    """

    max_iter: int = 50
    mean_weight: float | None = None
    var_weight: float | None = None
    feasibility_tol: float = 1e-6
    l1_weight: float | None = None
    record_iterates: bool = False

    def __post_init__(self):
        _check_settings(self)
        if self.l1_weight is not None and self.l1_weight < 0:
            raise ValueError("l1_weight must be nonnegative")
        if self.feasibility_tol < 0:
            raise ValueError("feasibility_tol must be nonnegative")

    @classmethod
    def analysis(cls, l1_weight: float, **kwargs) -> "SolverConfig":
        """Fixed-l1-weight configuration (the regime in which the
        iteration reaches the stationarity system, over-relaxed)."""
        return cls(l1_weight=float(l1_weight), **kwargs)


def _check_settings(config) -> None:
    """Raise ``ValueError`` naming the first float field of the config
    dataclass ``config`` that is not finite, else its ``max_iter`` unless
    that is a positive integer."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not isinstance(config.max_iter, numbers.Integral):
        raise ValueError("max_iter must be an integer")
    if config.max_iter < 1:
        raise ValueError("max_iter must be positive")


def effective_config(config: SolverConfig, n: int) -> tuple[SolverConfig, CsimParams]:
    """``config`` with its ``None`` index weights resolved for signals
    of length ``n``, and the index those weights define (``l1_weight``
    stays: ``None`` sets it per signal).  Nothing it resolves depends on
    a mask's sample count, so a solve calls it once.  Index weights out
    of their range for that n raise ``ValueError`` (``CsimParams``); the
    other fields were checked when ``config`` was built and are not
    checked again."""
    var_weight = config.var_weight if config.var_weight is not None else float(n - 1)
    mean_weight = config.mean_weight if config.mean_weight is not None else var_weight / DEFAULT_RATIO
    params = CsimParams(mean_weight, var_weight, n)  # checks the index weights
    if config.mean_weight is None or config.var_weight is None:
        resolved = object.__new__(SolverConfig)
        resolved.__dict__.update(vars(config), mean_weight=mean_weight, var_weight=var_weight)
        config = resolved
    return config, params


def _echo_settings(config: SolverConfig, m: int, D: Dictionary) -> dict:
    """What a solve of ``config`` reads, for a run log: the effective
    config, the penalties of a row with ``m`` observed samples and the
    constants of its regime.  It leaves out ``record_iterates``, which
    asks for a result rather than setting the solve, and under the
    protocol, which projects, rho2 and the index weights (see
    ``SolverConfig``)."""
    settings = asdict(effective_config(config, D.n)[0])
    del settings["record_iterates"]
    ratio = m / D.n
    settings["rho1"] = _RHO1_SCALE * ratio
    if config.l1_weight is None:
        del settings["mean_weight"], settings["var_weight"]
        constants = dict(l1_init_scale=_L1_INIT_SCALE, l1_decay=_L1_DECAY, l1_weight_min=_L1_WEIGHT_MIN)
    else:
        settings["rho2"] = _RHO2_SCALE * ratio
        constants = dict(relaxation=_RELAXATION, slack_ridge=_SLACK_RIDGE)
    return {**settings, **constants, "majorizer_scale": _MAJORIZER_SCALE, "gram_norm": D.spectral_norm_sq}


@dataclass
class RecoveryResult:
    """Solve outcome with per-iteration diagnostics.

    ``primal_residuals[t]`` is ||x - D s|| and ``slack_residuals[t]`` is
    ||z - M x + y|| after iteration t.  ``elapsed_ms`` is cumulative wall
    time (of the whole batch, for a batched solve).  ``stop_reason`` is
    "converged" when both feasibility residuals of the last iteration and
    the norm of its dual residual
    rho1 (D s - D s_prev) + M.T rho2 (z - z_prev) are below
    ``feasibility_tol`` (and, under the protocol, the l1 weight of that
    iteration is at its floor), and "budget" otherwise (``max_iter`` ran
    out, whichever test failed); a non-finite iterate raises instead.
    Baseline solvers reuse this type with ``slack_residuals`` and the
    final duals set to None, and always stop on their budget.
    """

    x_hat: np.ndarray
    s_hat: np.ndarray
    iterations: int
    primal_residuals: np.ndarray
    slack_residuals: np.ndarray | None
    elapsed_ms: np.ndarray
    iterates: list[np.ndarray] | None = None
    final_slack: np.ndarray | None = None
    final_dual_x: np.ndarray | None = None
    final_dual_z: np.ndarray | None = None
    l1_weight_final: float | None = None
    stop_reason: str | None = None


def _check_threshold(tau) -> None:
    """Raise unless the scalar or per-row threshold ``tau`` is at least 0;
    a nan fails that comparison too."""
    if not (tau >= 0 if isinstance(tau, float) else _all(np.greater_equal(tau, 0))):
        raise ValueError("threshold must be nonnegative")


def soft_threshold(v, tau) -> np.ndarray:
    """Componentwise sign(v) * max(|v| - tau, 0); ``tau`` is a scalar or
    a per-row value."""
    _check_threshold(tau)
    return _soft_threshold(np.asarray(v, dtype=float), tau)


def _soft_threshold(v, tau) -> np.ndarray:
    """``soft_threshold``'s arithmetic on a float array, unchecked: the
    s step's threshold is nonnegative by construction."""
    return np.copysign(np.maximum(np.abs(v) - tau, 0.0), v)


# Row stacks.  The iteration acts on the last axis: one signal is a 1-D
# array, B signals a (B, n) stack.  A per-row value (a penalty, the l1
# weight, a residual norm) is a scalar for one signal or when every row
# shares it, and a (B, 1) column otherwise, so it broadcasts along the
# rows either way.  The stacked products
# (``_synthesize``, ``_analyze``) and ``_dot`` live in ``dictionaries``,
# whose power iteration runs on row stacks too.


def _sum(v):
    """Sum of each row (the bits of ``v.sum()``), as a per-row value.  A
    single row takes ``np.add.reduce(v)``, at half the call cost of the
    keyword form."""
    if v.ndim == 1:
        return np.add.reduce(v)
    return np.add.reduce(v, axis=-1, keepdims=True)


def _all(flags) -> bool:
    # np.count_nonzero costs a fraction of ndarray.all's Python wrapper,
    # which adds up over thousands of tiny per-iteration checks; a scalar
    # flag (one row) skips both.
    if not isinstance(flags, np.ndarray):
        return bool(flags)
    return np.count_nonzero(flags) == flags.size


def _any(flags) -> bool:
    if not isinstance(flags, np.ndarray):
        return bool(flags)
    return np.count_nonzero(flags) > 0


def _per_row(values):
    """Per-row values as one float when they are all equal (or there is
    one row), else as a (B, 1) column."""
    values = np.reshape(np.asarray(values, dtype=float), -1)
    if np.count_nonzero(values != values[0]) == 0:
        return float(values[0])
    return values[:, None]


def _peak_weight(scale: float, correlations, floor: float = 0.0):
    """max(scale max|c|, floor) per row of c = D.T y (or A.T y, the same
    peak) on zero-filled observations: every solver's relative l1 weight
    or threshold, as a per-row value."""
    return _per_row(np.maximum(scale * np.abs(correlations).max(axis=-1), floor))


def _at_least(value, floor: float):
    """max(value, floor) of a per-row value.  A Python float stays one
    (``np.maximum`` would make it a NumPy scalar, dearer in every later
    scalar operation), with the same bits."""
    if isinstance(value, float):
        return max(value, floor)
    return np.maximum(value, floor)


def _keep(value, keep):
    """The kept rows of a per-row value; a scalar stays shared."""
    return value[keep] if np.ndim(value) else value


def _indicator(mask):
    """0/1 indicator of the observed positions: a mask's, or a stack of
    indicators (one row per signal) as given."""
    if isinstance(mask, SamplingMask):
        return mask.indicator()
    return mask


def _observed_rows(Y, masks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every solver's working arrays: the observations as a (B, n) array,
    one row per mask, with the unobserved samples zeroed, and the 0/1
    indicator of each row's observed positions.  A non-finite observed
    sample raises.  One row comes back on 1-D arrays, whose per-row values
    are scalars: cheaper than (1, 1) arrays, with the same bits."""
    if any(mask.n != n for mask in masks):
        raise ValueError("mask does not match the dictionary dimension")
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (len(masks), n):
        raise ValueError(f"expected one length-{n} row of observations per mask")
    observed = np.zeros(Y.shape)
    indices = [mask.observed for mask in masks]
    rows = np.repeat(np.arange(len(masks)), [index.size for index in indices])
    observed[rows, np.concatenate(indices)] = 1.0
    Y = np.where(observed, Y, 0.0)
    if not _all(np.isfinite(Y)):
        raise NonFiniteError("observed samples contain non-finite values")
    if len(masks) == 1:
        return Y[0], observed[0]
    return Y, observed


def x_update(b, mask, rho1, rho2) -> np.ndarray:
    """Solve (rho1 I + rho2 M.T M) x = b for each row of b; the system is
    diagonal, so observed entries divide by rho1 + rho2 and the rest by
    rho1.  ``mask`` is a SamplingMask or a 0/1 indicator shaped like b.
    """
    return np.asarray(b, dtype=float) / (rho1 + rho2 * _indicator(mask))


def projection(x, y, mask) -> np.ndarray:
    """Replace the observed entries of x by the corresponding samples of y."""
    return np.where(_indicator(mask), y, np.asarray(x, dtype=float))


def s_update_backtracking(
    s,
    x,
    dual_x,
    D: Dictionary,
    rho1,
    l1_weight,
    majorizer,
    synthesized=None,
) -> tuple[np.ndarray, np.ndarray | float, int, np.ndarray]:
    """One majorize-minimize step on the s subproblem of each row.

    With r = x + dual_x / rho1 - D s, the step is the soft threshold of
    s + D.T r / majorizer at (l1_weight / rho1) / majorizer: the minimizer
    of the subproblem's surrogate with constant ``majorizer``.  That
    surrogate majorizes the subproblem (D.T D <= ||D||^2 I) whenever the
    constant is at least ||D||^2 (``D.spectral_norm_sq``); the solver's
    constant 1.05 ||D||^2 is, so its step never increases a row's
    subproblem objective.  rho1, l1_weight (nonnegative) and majorizer
    are per-row values; ``synthesized`` is D s when the caller holds it
    (it is formed here otherwise).  Returns (new s, ``majorizer``, 0, D
    times the new s): the constant and a retry count of 0 keep the
    result's shape, which the benchmark's tracer reads.
    """
    atoms = D.atoms
    if synthesized is None:
        s = np.asarray(s, dtype=float)
        synthesized = _synthesize(atoms, s)
    # x + dual_x / rho1 through the ufuncs, which take array-likes; a
    # division by 1 is exact, so the solver loop's rho1 = 1.0 skips it.
    if not (isinstance(rho1, float) and rho1 == 1.0):
        dual_x = np.divide(dual_x, rho1)
    residual = np.add(x, dual_x) - synthesized
    v = s + _analyze(atoms, residual) / majorizer
    candidate = _soft_threshold(v, l1_weight / rho1 / majorizer)
    return candidate, majorizer, 0, _synthesize(atoms, candidate)


def _slack_solver(params: CsimParams, rho2, slack_ridge: float, scale=1.0):
    """The solve c -> (rho2 I + 2 (W + slack_ridge I))^-1 (scale c) for
    each row of a float array c, in O(n), with its coefficients formed
    once.

    The system matrix is diagonal-plus-rank-one, so its inverse is a
    scale plus a rank-one correction.
    """
    diag = rho2 + 2.0 * params.diag_coef + 2.0 * slack_ridge
    ones = 2.0 * params.ones_coef
    full = diag + params.n * ones
    if np.count_nonzero(full <= 0):
        raise AssertionError("slack system lost positive definiteness")
    share, gain = ones / full, scale / diag
    return lambda c: (c - _sum(c) * share) * gain


def z_update(
    c,
    params: CsimParams,
    rho2,
    slack_ridge: float,
) -> np.ndarray:
    """Solve (rho2 I + 2 (W + slack_ridge I)) z = c for each row of c in O(n)."""
    return _slack_solver(params, rho2, slack_ridge)(np.asarray(c, dtype=float))


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


def solve(y, mask: SamplingMask, D: Dictionary, config: SolverConfig | None = None) -> RecoveryResult:
    """Recover one signal: ``solve_batch`` with a single row."""
    return solve_batch(np.asarray(y, dtype=float)[None], [mask], D, config)[0]


def solve_batch(Y, masks, D: Dictionary, config: SolverConfig | None = None) -> list[RecoveryResult]:
    """Run the full iteration on every row of ``Y`` from zero initial iterates.

    Row i of the (B, n) array ``Y`` is observed through ``masks[i]`` and
    read only at its observed positions.  ``config`` is resolved once
    (``effective_config``), for signals of length ``D.n``.  Every row
    keeps its own penalties (the protocol's 0.4 m/n and 2 m/n, from its
    sample count m), l1 weight and stop iteration: it
    stops at ``max_iter`` or as soon as both of its feasibility
    residuals and its dual residual drop below
    ``feasibility_tol`` (under the protocol, only once the l1 weight it
    used is at its floor), and then leaves the working set
    (``stop_reason`` says which).  The dual residual is formed only on
    iterations where some row meets both feasibility tests.  Under the
    protocol, the slack block is exactly +0.0 (see ``SolverConfig``) and
    is never formed: z and its dual keep their zero start, and the slack
    residual is 0.0.  Otherwise the values fixed while the working set is
    (the x-step weights and the slack solve) are formed when it changes,
    not every iteration.
    A row's result has the bits of its one-row solve, apart from
    ``elapsed_ms``, which is the batch's clock.  A non-finite value in
    any row raises.
    """
    if config is None:
        config = SolverConfig()
    masks = list(masks)
    if not masks:
        return []
    atoms, n, p = D.atoms, D.n, D.p
    Y, observed = _observed_rows(Y, masks, n)
    cfg, params = effective_config(config, n)
    B = len(masks)

    ratios = np.array([mask.m for mask in masks]) / n
    rho1 = _per_row(_RHO1_SCALE * ratios)
    rho2 = _per_row(_RHO2_SCALE * ratios)
    majorizer = _MAJORIZER_SCALE * D.spectral_norm_sq
    # The protocol (a decaying weight, projection) or the fixed-weight,
    # over-relaxed regime; see SolverConfig.
    projected = cfg.l1_weight is None
    alpha = _RELAXATION
    if projected:
        l1_weight = _peak_weight(_L1_INIT_SCALE, _analyze(atoms, Y), _L1_WEIGHT_MIN)
    else:
        l1_weight = cfg.l1_weight

    s = np.zeros(Y.shape[:-1] + (p,))
    z = np.zeros_like(Y)
    # Scaled duals (Boyd et al. 2011, section 3.1.1): u = dual_x / rho1 and
    # v = dual_z / rho2.  A result gets rho1 u and rho2 v.
    u = np.zeros_like(Y)
    v = np.zeros_like(Y)
    synthesized = np.zeros_like(Y)  # D s at s = 0

    rows = np.arange(B)  # input row of each working row, in increasing order
    results: list[RecoveryResult | None] = [None] * B
    # Residuals (and iterates) of the working rows since the working set
    # last changed, closed into one block per working set when it does.
    segment: list[tuple] = []
    segment_s: list[np.ndarray] = []
    blocks: list[tuple] = []  # (working rows, their residuals)
    blocks_s: list[np.ndarray] = []  # their iterates
    elapsed: list[float] = []
    tol = cfg.feasibility_tol
    # One row has Python-float residual norms (the bits of np.sqrt's).
    sqrt, isfinite = (math.sqrt, math.isfinite) if Y.ndim == 1 else (np.sqrt, np.isfinite)
    refresh = True  # form the values fixed while the working set is

    start = time.perf_counter()
    for iteration in range(1, cfg.max_iter + 1):
        if refresh:  # at the start and whenever rows leave
            refresh = False
            if projected:
                no_slack = 0.0 if Y.ndim == 1 else np.zeros((len(rows), 1))
            else:
                # The x system's solution is D s - u at the unobserved samples
                # and this weighted mean of it with z + y + v at the observed ones.
                x_weight = observed * (rho2 / (rho1 + rho2))
                slack_solve = _slack_solver(params, rho2, _SLACK_RIDGE, scale=rho2)
        previous_synthesized, previous_z = synthesized, z
        if projected:
            # z and v stay +0.0 (see SolverConfig), so the x system's slack
            # term is zero at the unobserved samples, the only ones kept.
            x = x_relaxed = projection(synthesized - u, Y, observed)
        else:
            x = synthesized - u
            x = x + x_weight * (z + Y + v - x)
            x_relaxed = alpha * x + (1.0 - alpha) * previous_synthesized
        # The s step's target is x + u: rho1 is 1 and the weight l1_weight / rho1.
        s, _, _, synthesized = s_update_backtracking(
            s, x_relaxed, u, D, 1.0, l1_weight / rho1, majorizer, synthesized
        )
        coupling_residual = x_relaxed - synthesized
        u = u + coupling_residual

        if projected:  # the slack block is zero: its residual too
            r1, r2 = sqrt(_dot(coupling_residual, coupling_residual)), no_slack
        else:
            # Products with the 0/1 indicator stand in for masked
            # assignments; they can differ from them only in the sign of a zero.
            offset = observed * x - Y
            offset_relaxed = alpha * offset + (1.0 - alpha) * previous_z
            z = slack_solve(offset_relaxed - v)
            v = v + (z - offset_relaxed)
            # The feasibility residuals read the plain x.
            coupling_residual, slack_residual = x - synthesized, z - offset
            r1 = sqrt(_dot(coupling_residual, coupling_residual))
            r2 = sqrt(_dot(slack_residual, slack_residual))
        segment.append((r1, r2))
        elapsed.append((time.perf_counter() - start) * 1e3)
        if cfg.record_iterates:
            segment_s.append(s)

        # Non-finite entries of x, s or z make r1 or r2 non-finite: every
        # atom has a nonzero entry, and inf * 0 is nan.  The protocol's
        # slack residual is the constant 0.0.
        if not (_all(isfinite(r1)) and (projected or _all(isfinite(r2)))):
            raise NonFiniteError(f"non-finite iterate at iteration {iteration}")
        done = (r1 < tol) & (r2 < tol)
        any_done = _any(done)
        if any_done:
            if projected:  # a weight still decaying is no stop
                done = done & (l1_weight == _L1_WEIGHT_MIN)
            dual_residual = rho1 * (synthesized - previous_synthesized) + observed * (
                rho2 * (z - previous_z)
            )
            done = done & (sqrt(_dot(dual_residual, dual_residual)) < tol)
            any_done = _any(done)
        if projected:
            l1_weight = _at_least(_L1_DECAY * l1_weight, _L1_WEIGHT_MIN)
        if iteration < cfg.max_iter and not any_done:
            continue

        # Close the segment, then retire the stopping rows as stacks: every
        # block holds them where searchsorted finds them, since the working
        # rows stay in input order.
        width = len(rows)
        blocks.append((rows, np.reshape(segment, (len(segment), 2, width))))
        if cfg.record_iterates:
            blocks_s.append(np.reshape(segment_s, (len(segment_s), width, p)))
        segment, segment_s = [], []
        done = np.reshape(done, -1)
        stopping = done if iteration < cfg.max_iter else np.ones(width, dtype=bool)
        retiring = np.flatnonzero(stopping)
        places = [np.searchsorted(block_rows, rows[retiring]) for block_rows, _ in blocks]
        # (retiring row, primal or slack, iteration)
        history = np.concatenate([b[:, :, at].T for at, (_, b) in zip(places, blocks)], axis=-1)
        if cfg.record_iterates:  # (iteration, retiring row, p)
            iterates = np.concatenate([b[:, at] for at, b in zip(places, blocks_s)])
        clock = np.array(elapsed)
        X, S, Z, dual_x, dual_z = (a.reshape(width, -1) for a in (x, s, z, rho1 * u, rho2 * v))
        weights = np.full((width, 1), l1_weight).ravel().tolist()
        for i, j in enumerate(retiring.tolist()):
            results[rows[j]] = RecoveryResult(
                x_hat=X[j],
                s_hat=S[j],
                iterations=iteration,
                primal_residuals=history[i, 0],
                slack_residuals=history[i, 1],
                elapsed_ms=clock,
                iterates=list(iterates[:, i]) if cfg.record_iterates else None,
                final_slack=Z[j],
                final_dual_x=dual_x[j],
                final_dual_z=dual_z[j],
                l1_weight_final=weights[j],
                stop_reason="converged" if done[j] else "budget",
            )
        keep = ~stopping
        if not np.count_nonzero(keep):
            break
        rows, Y, observed, s, z, u, v, synthesized = (
            a[keep] for a in (rows, Y, observed, s, z, u, v, synthesized)
        )
        rho1, rho2, l1_weight = (_keep(value, keep) for value in (rho1, rho2, l1_weight))
        refresh = True
    return results


def kkt_residuals(
    result: RecoveryResult,
    mask: SamplingMask,
    params: CsimParams,
) -> tuple[float, float]:
    """Stationarity gaps at the returned iterate.

    Returns (||2 (W + I) z + dual_z||,
    ||dual_x - M.T dual_z||); both vanish at an optimum of the fixed-
    weight problem.  The iteration drives them to zero only under
    ``SolverConfig.analysis`` (see ``SolverConfig``).
    """
    z = result.final_slack
    dual_x = result.final_dual_x
    dual_z = result.final_dual_z
    if z is None or dual_x is None or dual_z is None:
        raise ValueError("result does not carry final duals")
    grad_z = 2.0 * (apply_kernel(z, params) + _SLACK_RIDGE * z) + dual_z
    masked_dual = mask.indicator() * dual_z
    return float(np.linalg.norm(grad_z)), float(np.linalg.norm(dual_x - masked_dual))
