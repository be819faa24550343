import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csim.solver
from csim.core import CsimParams
from csim.baselines import hard_threshold
from csim.dictionaries import _synthesize, dct_dictionary, haar_wp_dictionary
from csim.signals import SamplingMask, apply_mask, random_mask, synth_sparse_signal
from csim.solver import (
    NonFiniteError,
    SolverConfig,
    alpha_schedule,
    effective_config,
    kkt_residuals,
    multipliers_update,
    projection,
    s_update_backtracking,
    soft_threshold,
    solve,
    solve_batch,
    x_update,
    z_update,
)


# --- soft threshold ---------------------------------------------------------


def test_soft_threshold_componentwise_values():
    out = soft_threshold(np.array([1.2, -0.3, -1.0]), 0.5)
    np.testing.assert_allclose(out, [0.7, 0.0, -0.5], atol=1e-15)


def test_soft_threshold_zero_tau_is_identity():
    v = np.array([0.4, -2.0, 0.0])
    np.testing.assert_allclose(soft_threshold(v, 0.0), v)


def test_soft_threshold_l1_identity():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(50)
    tau = 0.3
    assert float(np.abs(soft_threshold(v, tau)).sum()) == pytest.approx(
        float(np.maximum(np.abs(v) - tau, 0.0).sum()), rel=1e-12
    )


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValueError):
        soft_threshold(np.ones(3), -0.1)


@pytest.mark.parametrize("threshold", [soft_threshold, hard_threshold])
def test_thresholds_reject_a_nan_threshold_scalar_or_per_row(threshold):
    v = np.ones((3, 4))
    with pytest.raises(ValueError, match="nonnegative"):
        threshold(v[0], math.nan)
    with pytest.raises(ValueError, match="nonnegative"):
        threshold(v, np.array([[0.1], [math.nan], [0.2]]))
    with pytest.raises(ValueError, match="nonnegative"):
        threshold(v, np.array([[0.1], [-0.5], [0.2]]))
    assert threshold(v, np.array([[0.1], [0.0], [2.0]])).shape == v.shape


def test_soft_threshold_subgradient_monotonicity():
    # (v - S(v))/tau is a subgradient of |.|_1 at S(v); the subdifferential
    # is a monotone operator
    rng = np.random.default_rng(1)
    tau = 0.7
    for _ in range(50):
        v1 = rng.standard_normal(8)
        v2 = rng.standard_normal(8)
        s1 = soft_threshold(v1, tau)
        s2 = soft_threshold(v2, tau)
        gap = float((s1 - s2) @ ((v1 - s1) - (v2 - s2)))
        assert gap >= -1e-12


# --- x update ---------------------------------------------------------------


def test_x_update_diagonal_solve_example():
    mask = SamplingMask(2, np.array([0]))
    out = x_update(np.array([2.0, 2.0]), mask, rho1=1.0, rho2=1.0)
    np.testing.assert_allclose(out, [1.0, 2.0])


def test_x_update_matches_dense_solve():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(4, 64))
        m = int(rng.integers(1, n + 1))
        mask = random_mask(n, m, int(rng.integers(0, 1 << 30)))
        rho1 = float(rng.uniform(0.1, 3.0))
        rho2 = float(rng.uniform(0.1, 3.0))
        b = rng.standard_normal(n)
        system = rho1 * np.eye(n) + rho2 * np.diag(mask.indicator())
        np.testing.assert_allclose(
            x_update(b, mask, rho1, rho2), np.linalg.solve(system, b), atol=1e-10
        )


def test_x_update_full_mask_uniform_scale():
    mask = SamplingMask(4, np.arange(4))
    b = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(x_update(b, mask, 0.5, 1.5), b / 2.0)


# --- projection -------------------------------------------------------------


def test_projection_pins_observed_samples():
    mask = SamplingMask(4, np.array([1, 3]))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([10.0, 20.0, 30.0, 40.0])
    out = projection(x, y, mask)
    np.testing.assert_allclose(out, [1.0, 20.0, 3.0, 40.0])
    np.testing.assert_allclose(projection(out, y, mask), out)


def test_projection_full_mask_returns_y():
    mask = SamplingMask(3, np.arange(3))
    y = np.array([7.0, 8.0, 9.0])
    np.testing.assert_allclose(projection(np.zeros(3), y, mask), y)


# --- s update -----------------------------------------------------------------


def _subproblem_value(s, atoms, x, dual, rho1, l1_weight):
    r = x + dual / rho1 - atoms @ s
    return 0.5 * float(r @ r) + (l1_weight / rho1) * float(np.abs(s).sum())


def test_s_update_reduces_to_thresholded_point_at_consistency():
    D = dct_dictionary(16, 16)
    rng = np.random.default_rng(3)
    s = soft_threshold(rng.standard_normal(16), 0.8)
    x = D.atoms @ s
    l1_weight, rho1, majorizer = 0.05, 1.0, 1.2
    out, _, retries, _ = s_update_backtracking(
        s, x, np.zeros(16), D, rho1, l1_weight, majorizer
    )
    np.testing.assert_allclose(
        out, soft_threshold(s, l1_weight / (majorizer * rho1)), atol=1e-14
    )
    assert retries == 0
    # zero l1 weight makes the consistent point an exact fixed point
    out0, _, _, _ = s_update_backtracking(
        s, x, np.zeros(16), D, rho1, 0.0, majorizer
    )
    np.testing.assert_allclose(out0, s, atol=1e-14)


def test_s_step_is_the_thresholded_step_along_the_adjoint_residual():
    rng = np.random.default_rng(4)
    D = dct_dictionary(16, 32)
    majorizer = 1.0001 * D.spectral_norm_sq
    for trial in range(20):
        s = rng.standard_normal(32)
        x = rng.standard_normal(16)
        dual = rng.standard_normal(16)
        out, constant, retries, _ = s_update_backtracking(s, x, dual, D, 0.7, 0.3, majorizer)
        assert retries == 0 and constant == majorizer
        step = s + D.atoms.T @ (x + dual / 0.7 - D.atoms @ s) / majorizer
        np.testing.assert_allclose(out, soft_threshold(step, 0.3 / 0.7 / majorizer), atol=1e-14)


def test_majorization_inequality_above_gram_norm():
    # surrogate dominates the smooth term for any pair of points
    rng = np.random.default_rng(5)
    D = dct_dictionary(8, 16)
    atoms = D.atoms
    lam = 1.05 * D.spectral_norm_sq
    for _ in range(100):
        s0 = rng.standard_normal(16)
        s = rng.standard_normal(16)
        v = rng.standard_normal(8)
        f = 0.5 * float(np.linalg.norm(v - atoms @ s) ** 2)
        r0 = v - atoms @ s0
        quad = (
            0.5 * float(r0 @ r0)
            + float((s - s0) @ -(atoms.T @ r0))
            + 0.5 * lam * float((s - s0) @ (s - s0))
        )
        assert f <= quad + 1e-10


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    shape=st.sampled_from([(16, 16), (16, 32), (64, 96), (64, 128)]),
    rho1=st.floats(min_value=0.05, max_value=3.0),
    l1_weight=st.floats(min_value=0.0, max_value=2.0),
)
def test_s_step_at_the_squared_norm_never_raises_the_subproblem_objective(
    seed, shape, rho1, l1_weight
):
    # The constant ||D||^2 itself, below the solver's 1.05 ||D||^2, still
    # majorizes: the step lowers (or keeps) every row's subproblem objective.
    D = dct_dictionary(*shape)
    rng = np.random.default_rng(seed)
    n, p = shape
    s, x, dual = rng.standard_normal(p), rng.standard_normal(n), rng.standard_normal(n)
    before = _subproblem_value(s, D.atoms, x, dual, rho1, l1_weight)
    out, _, _, _ = s_update_backtracking(
        s, x, dual, D, rho1, l1_weight, D.spectral_norm_sq
    )
    after = _subproblem_value(out, D.atoms, x, dual, rho1, l1_weight)
    assert after <= before + 1e-12 * (1.0 + abs(before))


def test_subproblem_objective_monotone_across_run():
    D = dct_dictionary(32, 32)
    sig = synth_sparse_signal(D, 3, 11)
    mask = random_mask(32, 26, 12)
    y = apply_mask(sig.x, mask)
    rng = np.random.default_rng(13)
    s = np.zeros(32)
    lam = 1.05 * D.spectral_norm_sq
    for _ in range(30):
        x = rng.standard_normal(32)
        dual = rng.standard_normal(32)
        before = _subproblem_value(s, D.atoms, x, dual, 0.9, 0.2)
        s, lam, _, _ = s_update_backtracking(s, x, dual, D, 0.9, 0.2, lam)
        after = _subproblem_value(s, D.atoms, x, dual, 0.9, 0.2)
        assert after <= before + 1e-10 * (1.0 + abs(before))


# --- z update ---------------------------------------------------------------


def test_z_update_zero_input():
    params = CsimParams.defaults(8)
    np.testing.assert_allclose(z_update(np.zeros(8), params, 1.0, 1.0), np.zeros(8))


def test_z_update_matches_dense_solve():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 64))
        params = CsimParams(
            float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.1, 8.0)), n
        )
        rho2 = float(rng.uniform(0.1, 3.0))
        ridge = float(rng.uniform(0.0, 2.0))
        c = rng.standard_normal(n)
        W = params.diag_coef * np.eye(n) + params.ones_coef * np.ones((n, n))
        system = rho2 * np.eye(n) + 2.0 * (W + ridge * np.eye(n))
        np.testing.assert_allclose(
            z_update(c, params, rho2, ridge), np.linalg.solve(system, c), atol=1e-10
        )


def test_z_update_all_ones_eigenvector():
    n = 8
    params = CsimParams.defaults(n)
    rho2, ridge = 1.3, 0.7
    diag = rho2 + 2.0 * params.diag_coef + 2.0 * ridge
    ones_term = 2.0 * params.ones_coef
    expected = np.ones(n) / (diag + n * ones_term)
    np.testing.assert_allclose(
        z_update(np.ones(n), params, rho2, ridge), expected, atol=1e-12
    )


# --- multipliers and schedule --------------------------------------------------


def test_multipliers_fixed_on_feasible_iterate():
    dual_x = np.array([1.0, 2.0])
    dual_z = np.array([3.0, 4.0])
    out_x, out_z = multipliers_update(
        dual_x, dual_z, np.zeros(2), np.zeros(2), 0.5, 0.7
    )
    np.testing.assert_allclose(out_x, dual_x)
    np.testing.assert_allclose(out_z, dual_z)


def test_multipliers_increment_is_scaled_residual():
    rng = np.random.default_rng(9)
    r1 = rng.standard_normal(4)
    r2 = rng.standard_normal(4)
    out_x, out_z = multipliers_update(np.zeros(4), np.zeros(4), r1, r2, 0.3, 1.7)
    np.testing.assert_allclose(out_x, 0.3 * r1)
    np.testing.assert_allclose(out_z, 1.7 * r2)


def test_alpha_schedule_decay_and_floor():
    assert alpha_schedule(1.0, 0.95, 1e-4) == pytest.approx(0.95)
    assert alpha_schedule(1e-4, 0.95, 1e-4) == pytest.approx(1e-4)
    assert alpha_schedule(0.0, 0.95, 1e-4) == pytest.approx(1e-4)


# --- full solve ---------------------------------------------------------------


def test_solve_full_mask_reproduces_observations():
    D = dct_dictionary(16, 16)
    rng = np.random.default_rng(10)
    y = rng.standard_normal(16)
    mask = SamplingMask(16, np.arange(16))
    result = solve(y, mask, D)
    np.testing.assert_allclose(result.x_hat, y, atol=1e-12)


def test_solve_zero_data_stays_zero():
    D = dct_dictionary(16, 16)
    mask = random_mask(16, 8, 1)
    result = solve(np.zeros(16), mask, D)
    np.testing.assert_allclose(result.s_hat, np.zeros(16), atol=1e-12)
    np.testing.assert_allclose(result.x_hat, np.zeros(16), atol=1e-12)


def test_solve_recovers_sparse_signal_with_full_observation():
    D = dct_dictionary(64, 64)
    sig = synth_sparse_signal(D, 6, 14)
    mask = SamplingMask(64, np.arange(64))
    result = solve(sig.x, mask, D)
    rel = float(np.linalg.norm(result.s_hat - sig.s) / np.linalg.norm(sig.s))
    assert rel <= 1e-2


def test_solve_histories_shape_and_determinism():
    D = dct_dictionary(32, 32)
    sig = synth_sparse_signal(D, 3, 15)
    mask = random_mask(32, 26, 16)
    y = apply_mask(sig.x, mask)
    a = solve(y, mask, D)
    b = solve(y, mask, D)
    assert a.iterations == len(a.primal_residuals) == len(a.slack_residuals)
    assert a.primal_residuals.tobytes() == b.primal_residuals.tobytes()
    assert a.s_hat.tobytes() == b.s_hat.tobytes()
    assert a.x_hat.tobytes() == b.x_hat.tobytes()


def test_solve_rejects_non_finite_input():
    D = dct_dictionary(8, 8)
    mask = random_mask(8, 6, 17)
    y = np.zeros(8)
    y[mask.observed[0]] = np.nan
    with pytest.raises(NonFiniteError):
        solve(y, mask, D)


def test_effective_config_validation():
    mask = random_mask(8, 6, 18)
    with pytest.raises(ValueError, match="^rho1 must be positive"):
        effective_config(SolverConfig(rho1=-1.0), mask)
    with pytest.raises(ValueError, match="^feasibility_tol must be nonnegative$"):
        effective_config(SolverConfig(feasibility_tol=-1e-12), mask)
    # 0 turns the stop off: even an all-zero row runs its budget
    result = solve(np.zeros(8), mask, dct_dictionary(8, 8), SolverConfig(feasibility_tol=0.0, max_iter=5))
    assert (result.iterations, result.stop_reason) == (5, "budget")
    values = effective_config(SolverConfig(), mask)
    assert values.rho1 == pytest.approx(0.4 * 6 / 8)
    assert values.rho2 == pytest.approx(2.0 * 6 / 8)
    assert values.var_weight == pytest.approx(7.0)
    assert values.mean_weight == pytest.approx(0.25 * 7.0)


@pytest.mark.parametrize(
    "cfg",
    [SolverConfig(max_iter=3), SolverConfig.analysis(l1_weight=1e-3, max_iter=3)],
    ids=["default", "analysis"],
)
def test_the_s_step_constant_is_1_05_times_the_squared_norm(monkeypatch, cfg):
    # DCT 64x96, where the power iteration read ||D||^2 about 7.5e-10 low.
    D = dct_dictionary(64, 96)
    mask = random_mask(64, 48, 18)
    seen = []

    def spy(*args):
        seen.append(args[6])
        return s_update_backtracking(*args)

    monkeypatch.setattr(csim.solver, "s_update_backtracking", spy)
    solve(np.arange(64.0), mask, D, cfg)
    assert seen == [1.05 * D.spectral_norm_sq] * 3
    assert seen[0] >= np.linalg.norm(D.atoms, 2) ** 2


_FLOAT_SETTINGS = [f.name for f in fields(SolverConfig) if f.type.startswith("float")]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", _FLOAT_SETTINGS)
def test_effective_config_rejects_a_non_finite_float_setting_by_name(name, value):
    mask = random_mask(8, 6, 18)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        effective_config(SolverConfig(**{name: value}), mask)


def test_no_setting_or_result_field_is_left_from_backtracking_or_the_protocol_constants():
    result = solve(np.zeros(8), random_mask(8, 6, 18), dct_dictionary(8, 8))
    names = {f.name for f in fields(SolverConfig)} | set(vars(result))
    assert len(fields(SolverConfig)) == 8
    removed = {"majorizer_growth", "majorizer_final", "s_retries"}
    removed |= {"majorizer0", "slack_ridge", "l1_init_scale", "l1_decay"}
    removed |= {"continuation", "project_observed", "l1_weight_min"}
    assert not names & removed


def test_effective_config_is_the_config_with_its_none_fields_resolved():
    mask = random_mask(8, 6, 18)
    cfg = SolverConfig(rho2=3.0, max_iter=9, l1_weight=0.5)
    resolved = effective_config(cfg, mask)
    assert isinstance(resolved, SolverConfig)
    assert resolved == SolverConfig(
        rho1=0.4 * 6 / 8,
        rho2=3.0,
        max_iter=9,
        mean_weight=0.25 * 7.0,
        var_weight=7.0,
        l1_weight=0.5,
    )


def test_analysis_mode_reaches_feasibility_and_kkt():
    D = dct_dictionary(64, 64)
    sig = synth_sparse_signal(D, 6, 19)
    mask = random_mask(64, 51, 20)
    y = apply_mask(sig.x, mask)
    cfg = SolverConfig.analysis(l1_weight=1e-3, max_iter=2000)
    result = solve(y, mask, D, cfg)
    assert result.iterations < 2000
    assert result.primal_residuals[-1] < 1e-6
    assert result.slack_residuals[-1] < 1e-6
    values = effective_config(cfg, mask)
    params = CsimParams(values.mean_weight, values.var_weight, 64)
    r_z, r_mu = kkt_residuals(result, mask, params)
    assert r_z <= 1e-6 * (1.0 + float(np.linalg.norm(result.final_dual_z)))
    assert r_mu <= 1e-6 * (1.0 + float(np.linalg.norm(result.final_dual_x)))


def test_analysis_mode_successive_differences_trend():
    # manual fixed-weight loop over the public update operations so every
    # iterate difference is visible; the combined step size must never
    # exceed twice its running minimum after burn-in
    D = dct_dictionary(32, 32)
    sig = synth_sparse_signal(D, 3, 21)
    mask = random_mask(32, 26, 22)
    y = apply_mask(sig.x, mask)
    obs = mask.observed
    n = 32
    params = CsimParams.defaults(n)
    rho1, rho2, ridge = 0.4 * mask.m / n, 2.0 * mask.m / n, 1.0
    l1_weight = 1e-3
    majorizer = 1.05 * D.spectral_norm_sq

    s = np.zeros(n)
    z = np.zeros(n)
    dual_x = np.zeros(n)
    dual_z = np.zeros(n)
    steps = []
    for _ in range(400):
        synth = D.atoms @ s
        b = rho1 * synth - dual_x
        b[obs] += rho2 * (z[obs] + y[obs]) + dual_z[obs]
        x = x_update(b, mask, rho1, rho2)
        new_s, majorizer, _, _ = s_update_backtracking(
            s, x, dual_x, D, rho1, l1_weight, majorizer
        )
        masked_x = np.zeros(n)
        masked_x[obs] = x[obs]
        new_z = z_update(rho2 * (masked_x - y) - dual_z, params, rho2, ridge)
        r1 = x - D.atoms @ new_s
        r2 = new_z - masked_x + y
        new_dual_x, new_dual_z = multipliers_update(
            dual_x, dual_z, r1, r2, rho1, rho2
        )
        steps.append(
            float(
                np.linalg.norm(new_s - s)
                + np.linalg.norm(new_z - z)
                + np.linalg.norm(new_dual_x - dual_x)
                + np.linalg.norm(new_dual_z - dual_z)
            )
        )
        s, z, dual_x, dual_z = new_s, new_z, new_dual_x, new_dual_z

    burn_in = 50
    running_min = steps[burn_in]
    for value in steps[burn_in:]:
        running_min = min(running_min, value)
        assert value <= 2.0 * running_min + 1e-14


def test_solve_respects_feasibility_tol_stop():
    D = dct_dictionary(32, 32)
    sig = synth_sparse_signal(D, 3, 23)
    mask = random_mask(32, 29, 24)
    y = apply_mask(sig.x, mask)
    cfg = SolverConfig.analysis(l1_weight=1e-3, max_iter=5000, feasibility_tol=1e-8)
    result = solve(y, mask, D, cfg)
    assert result.iterations < 5000
    assert result.primal_residuals[-1] < 1e-8
    assert result.slack_residuals[-1] < 1e-8


# --- row-batched solve ----------------------------------------------------------

_RESULT_ARRAYS = (
    "x_hat",
    "s_hat",
    "primal_residuals",
    "slack_residuals",
    "elapsed_ms",
    "final_slack",
    "final_dual_x",
    "final_dual_z",
)


def _problem_rows(D, seed, rows, sparsity=2):
    """Sparse signals on D seen through masks of varied sample counts."""
    Y, masks = [], []
    for i in range(rows):
        signal = synth_sparse_signal(D, sparsity, (seed, i, 1))
        m = int(np.random.default_rng([seed, i, 2]).integers(D.n // 4, D.n + 1))
        mask = random_mask(D.n, m, (seed, i, 3))
        Y.append(apply_mask(signal.x, mask))
        masks.append(mask)
    return np.array(Y), masks


def _assert_same_bits(batched, single):
    for name in _RESULT_ARRAYS:
        a, b = getattr(batched, name), getattr(single, name)
        if name == "elapsed_ms":
            # wall clocks differ; the trace length must not
            assert a.shape == b.shape
        else:
            assert a.tobytes() == b.tobytes(), name
    assert batched.iterations == single.iterations
    assert batched.l1_weight_final == single.l1_weight_final


_CONFIGS = {
    "default": SolverConfig(max_iter=30),
    "analysis": SolverConfig.analysis(l1_weight=1e-3, max_iter=300, feasibility_tol=1e-8),
}


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=1, max_value=9),
    config=st.sampled_from(sorted(_CONFIGS)),
    overcomplete=st.booleans(),
)
def test_solve_batch_rows_equal_one_row_solves(seed, rows, config, overcomplete):
    D = dct_dictionary(16, 32 if overcomplete else 16)
    Y, masks = _problem_rows(D, seed, rows)
    cfg = _CONFIGS[config]
    batch = solve_batch(Y, masks, D, cfg)
    assert len(batch) == rows
    for y, mask, result in zip(Y, masks, batch):
        _assert_same_bits(result, solve(y, mask, D, cfg))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), rows=st.integers(min_value=2, max_value=9))
def test_solve_batch_does_not_depend_on_row_order(seed, rows):
    D = dct_dictionary(16, 32)
    Y, masks = _problem_rows(D, seed, rows)
    order = np.random.default_rng(seed).permutation(rows)
    cfg = _CONFIGS["analysis"]
    straight = solve_batch(Y, masks, D, cfg)
    permuted = solve_batch(Y[order], [masks[i] for i in order], D, cfg)
    for position, i in enumerate(order):
        _assert_same_bits(permuted[position], straight[i])


def test_solve_batch_rows_stop_at_their_own_iteration():
    D = dct_dictionary(16, 32)
    Y, masks = _problem_rows(D, 31, 8)
    cfg = replace(_CONFIGS["analysis"], max_iter=1500)
    batch = solve_batch(Y, masks, D, cfg)
    # seed 31: six rows stop early, each at its own iteration (75 to
    # 1408); two run out
    stops = sorted(r.iterations for r in batch if r.iterations < cfg.max_iter)
    assert len(set(stops)) == len(stops) >= 4
    assert any(r.iterations == cfg.max_iter for r in batch)
    for y, mask, result in zip(Y, masks, batch):
        single = solve(y, mask, D, cfg)
        _assert_same_bits(result, single)
        assert len(result.primal_residuals) == result.iterations


def test_s_step_returns_the_product_of_the_new_coefficients():
    rng = np.random.default_rng(14)
    D = dct_dictionary(16, 32)
    s, x, dual = rng.standard_normal(32), rng.standard_normal(16), rng.standard_normal(16)
    args = (s, x, dual, D, 1.0, 0.3, D.spectral_norm_sq)
    out, majorizer, retries, product = s_update_backtracking(*args)
    assert (majorizer, retries) == (D.spectral_norm_sq, 0)
    assert product.tobytes() == _synthesize(D.atoms, out).tobytes()
    # handing in the product of s changes no bit
    given = s_update_backtracking(*args, _synthesize(D.atoms, s))
    assert given[0].tobytes() == out.tobytes() and given[3].tobytes() == product.tobytes()
    assert (given[1], given[2]) == (majorizer, retries)


@pytest.mark.parametrize("rows", [1, 8])
def test_solve_batch_forms_one_product_per_iteration(monkeypatch, rows):
    D = dct_dictionary(16, 32)
    Y, masks = _problem_rows(D, 5, rows, sparsity=3)
    counts = {"products": 0, "steps": 0}
    synthesize, step = csim.solver._synthesize, csim.solver.s_update_backtracking

    def counting_synthesize(*args):
        counts["products"] += 1
        return synthesize(*args)

    def counting_step(*args):
        counts["steps"] += 1
        return step(*args)

    monkeypatch.setattr(csim.solver, "_synthesize", counting_synthesize)
    monkeypatch.setattr(csim.solver, "s_update_backtracking", counting_step)
    batch = solve_batch(Y, masks, D, SolverConfig(max_iter=30))
    assert counts["products"] == counts["steps"] == max(r.iterations for r in batch)


def test_solve_batch_rejects_non_finite_observations():
    D = dct_dictionary(16, 16)
    Y, masks = _problem_rows(D, 7, 4)
    Y[2, masks[2].observed[0]] = np.inf
    with pytest.raises(NonFiniteError):
        solve_batch(Y, masks, D)
    # unobserved entries are never read
    Y, masks = _problem_rows(D, 7, 4)
    unobserved = np.setdiff1d(np.arange(16), masks[1].observed)
    Y[1, unobserved] = np.nan
    zeroed = np.array([apply_mask(y, mask) for y, mask in zip(Y, masks)])
    for a, b in zip(solve_batch(Y, masks, D), solve_batch(zeroed, masks, D)):
        _assert_same_bits(a, b)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_iterate_raises_at_its_iteration(monkeypatch, rows, bad):
    # The s step checks no value; an iterate that turns non-finite there
    # must still stop the loop at that iteration.
    D = dct_dictionary(16, 16)
    Y, masks = _problem_rows(D, 9, rows)
    step = csim.solver.s_update_backtracking
    calls = []

    def spoiled_step(*args):
        out = step(*args)
        calls.append(1)
        if len(calls) == 4:
            product = out[3].copy()
            product[..., -1] = bad  # the last sample of every row
            return out[:3] + (product,)
        return out

    monkeypatch.setattr(csim.solver, "s_update_backtracking", spoiled_step)
    with pytest.raises(NonFiniteError, match="iteration 4"):
        solve_batch(Y, masks, D, SolverConfig(max_iter=30))


def test_solve_batch_validates_shapes():
    D = dct_dictionary(16, 16)
    Y, masks = _problem_rows(D, 8, 3)
    assert solve_batch(Y[:0], [], D) == []
    with pytest.raises(ValueError):
        solve_batch(Y[:2], masks, D)
    with pytest.raises(ValueError):
        solve_batch(np.zeros((1, 8)), [random_mask(8, 4, 1)], D)


# --- the loop against the iteration written out -----------------------------------


def _oracle_solve(y, mask, D, config, majorizer_scale=1.05):
    """One signal's iteration written out in plain Python from the public
    steps, with nothing formed ahead of the iteration that needs it, and
    with the protocol's constants: the s step's constant majorizer_scale
    ||D||^2, the slack ridge weight 1, and an l1 weight that starts at
    0.1 max|D.T y| and decays by 0.95.  It
    carries the scaled duals u = dual_x / rho1 and v = dual_z / rho2 and
    writes out the slack solve (rho2 I + 2 (W + ridge I)) z = rho2 w.
    Under the protocol (no l1_weight set) it projects, decays the weight
    to its floor 1e-4 and forms no relaxed value: it is the plain
    iteration.  It forms the slack block under projection too, so it is
    the check that the loop may skip that block there."""
    cfg = effective_config(config, mask)
    params = CsimParams(cfg.mean_weight, cfg.var_weight, D.n)
    observed = mask.indicator()
    y = np.where(observed != 0, y, 0.0)
    rho1, rho2, ridge = cfg.rho1, cfg.rho2, 1.0
    protocol = cfg.l1_weight is None
    if protocol:
        peak = float(np.abs(y @ D.atoms).max())
        l1_weight = max(0.1 * peak, 1e-4)
    else:
        l1_weight = cfg.l1_weight
    diag = rho2 + 2.0 * params.diag_coef + 2.0 * ridge
    ones = 2.0 * params.ones_coef
    share = ones / (diag + D.n * ones)
    majorizer = majorizer_scale * D.spectral_norm_sq
    s, z, u, v = np.zeros(D.p), np.zeros(D.n), np.zeros(D.n), np.zeros(D.n)
    primal, slack, iterates = [], [], []
    for iteration in range(1, cfg.max_iter + 1):
        x = D.atoms @ s - u
        x = x + rho2 * observed / (rho1 + rho2 * observed) * (z + y + v - x)
        if protocol:
            x = projection(x, y, mask)
        offset = observed * x - y
        previous_s, previous_z = s, z
        x_relaxed, offset_relaxed = x, offset
        if not protocol:  # over-relaxed by 1.8
            x_relaxed = 1.8 * x + (1.0 - 1.8) * (D.atoms @ previous_s)
            offset_relaxed = 1.8 * offset + (1.0 - 1.8) * previous_z
        # The s step written out: the threshold of s + D.T r / L.
        step = s + (x_relaxed + u - D.atoms @ s) @ D.atoms / majorizer
        s = soft_threshold(step, l1_weight / rho1 / majorizer)
        w = offset_relaxed - v
        z = (w - w.sum() * share) * (rho2 / diag)
        u = u + (x_relaxed - D.atoms @ s)
        v = v + (z - offset_relaxed)
        coupling_residual = x - D.atoms @ s
        slack_residual = z - offset
        primal.append(math.sqrt(coupling_residual @ coupling_residual))
        slack.append(math.sqrt(slack_residual @ slack_residual))
        weight = l1_weight
        if protocol:
            l1_weight = alpha_schedule(l1_weight, 0.95, 1e-4)
        iterates.append(s)
        assert math.isfinite(primal[-1]) and math.isfinite(slack[-1])
        converged = primal[-1] < cfg.feasibility_tol and slack[-1] < cfg.feasibility_tol
        if protocol:  # a weight still decaying is no stop
            converged = converged and weight == 1e-4
        if converged:
            dual_residual = rho1 * (D.atoms @ s - D.atoms @ previous_s) + observed * (
                rho2 * (z - previous_z)
            )
            converged = math.sqrt(dual_residual @ dual_residual) < cfg.feasibility_tol
        if converged:
            break
    return {
        "x_hat": x,
        "s_hat": s,
        "iterations": iteration,
        "primal_residuals": np.array(primal),
        "slack_residuals": np.array(slack),
        "iterates": iterates if cfg.record_iterates else None,
        "final_slack": z,
        "final_dual_x": rho1 * u,
        "final_dual_z": rho2 * v,
        "l1_weight_final": float(l1_weight),
        "stop_reason": "converged" if converged else "budget",
    }


def _assert_matches_oracle(result, expected):
    fields = set(vars(result)) - {"elapsed_ms"}
    assert fields == set(expected)
    for name, want in expected.items():
        got = getattr(result, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        elif isinstance(want, list):
            assert len(got) == len(want), name
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), name
        else:
            assert type(got) is type(want) and got == want, name


_ORACLE_DICTIONARIES = {
    "dct64": lambda: dct_dictionary(64, 64),
    "haar64x128": lambda: haar_wp_dictionary(64, 128),
    # its power-iteration norm reads low, and its frame is not tight
    "dct64x96": lambda: dct_dictionary(64, 96),
}
_ORACLE_CONFIGS = {
    "default": SolverConfig(record_iterates=True),
    # over-relaxed
    "analysis": SolverConfig.analysis(
        l1_weight=1e-3, max_iter=300, feasibility_tol=1e-8, record_iterates=True
    ),
    # not relaxed, with the weight's floor and the dual stop reachable
    "protocol-400": SolverConfig(max_iter=400, record_iterates=True),
}


@pytest.mark.parametrize(
    "dictionary, config, rows",
    [
        *(
            (dictionary, config, rows)
            for dictionary in sorted(_ORACLE_DICTIONARIES)
            for config in sorted(_ORACLE_CONFIGS)
            for rows in (1, 8)
        ),
        # a wide working set that loses rows at many iterations
        ("dct16", "analysis-60", 200),
    ],
)
def test_solve_and_solve_batch_match_the_written_out_iteration(rows, config, dictionary):
    if dictionary == "dct16":
        D = dct_dictionary(16, 16)
        cfg = SolverConfig.analysis(l1_weight=1e-3, max_iter=60, feasibility_tol=1e-4)
    else:
        D = _ORACLE_DICTIONARIES[dictionary]()
        cfg = _ORACLE_CONFIGS[config]
    Y, masks = _problem_rows(D, 43, rows, sparsity=4)
    expected = [_oracle_solve(y, mask, D, cfg) for y, mask in zip(Y, masks)]
    batch = solve_batch(Y, masks, D, cfg)
    for result, want in zip(batch, expected, strict=True):
        _assert_matches_oracle(result, want)
    for y, mask, want in zip(Y, masks, expected):
        _assert_matches_oracle(solve(y, mask, D, cfg), want)
    if rows > 1 and dictionary != "dct64x96":  # its rows all stop on one reason
        reasons = {want["stop_reason"] for want in expected}
        assert reasons == ({"budget"} if config == "default" else {"converged", "budget"})
    if rows == 200:
        assert len({result.iterations for result in batch}) > 20


@pytest.mark.parametrize("dictionary", sorted(_ORACLE_DICTIONARIES))
def test_an_s_step_at_the_squared_norm_runs_the_written_out_iteration(dictionary, monkeypatch):
    # The s step's constant at ||D||^2 itself, in the over-relaxed regime
    monkeypatch.setattr(csim.solver, "_MAJORIZER_SCALE", 1.0)
    D = _ORACLE_DICTIONARIES[dictionary]()
    Y, masks = _problem_rows(D, 44, 4, sparsity=4)
    cfg = SolverConfig.analysis(l1_weight=1e-3, max_iter=120, record_iterates=True)
    expected = [_oracle_solve(y, mask, D, cfg, majorizer_scale=1.0) for y, mask in zip(Y, masks)]
    for result, want in zip(solve_batch(Y, masks, D, cfg), expected, strict=True):
        _assert_matches_oracle(result, want)


def test_a_row_stops_once_its_dual_residual_is_below_the_tolerance():
    # Row 0 of seed 112 meets both feasibility tests at iteration 50 but
    # the dual test only at 54.
    D = dct_dictionary(16, 32)
    Y, masks = _problem_rows(D, 112, 1)
    y, mask = Y[0], masks[0]
    cfg = SolverConfig.analysis(l1_weight=1e-3, max_iter=2000, feasibility_tol=1e-8)
    values = effective_config(cfg, mask)

    def run(max_iter):
        return solve(y, mask, D, replace(cfg, max_iter=max_iter))

    def dual_residual(before, after):
        change = values.rho1 * (D.atoms @ after.s_hat - D.atoms @ before.s_hat)
        change += mask.indicator() * (values.rho2 * (after.final_slack - before.final_slack))
        return float(np.linalg.norm(change))

    result = run(cfg.max_iter)
    assert (result.iterations, result.stop_reason) == (54, "converged")
    assert dual_residual(run(100), result) < cfg.feasibility_tol
    feasible = (result.primal_residuals < cfg.feasibility_tol) & (
        result.slack_residuals < cfg.feasibility_tol
    )
    first = int(np.flatnonzero(feasible)[0]) + 1
    assert first == 50
    early = run(first)
    assert early.stop_reason == "budget"  # feasible, but the duals still move
    assert dual_residual(run(first - 1), early) >= cfg.feasibility_tol


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=1, max_value=6),
    max_iter=st.integers(min_value=1, max_value=40),
    overcomplete=st.booleans(),
)
def test_projection_reproduces_the_observed_samples(seed, rows, max_iter, overcomplete):
    D = dct_dictionary(16, 32 if overcomplete else 16)
    Y, masks = _problem_rows(D, seed, rows)
    # what a row holds at its unobserved positions is never read
    Y = Y + np.random.default_rng(seed).standard_normal(Y.shape) * (Y == 0)
    cfg = SolverConfig(max_iter=max_iter)
    for y, mask, result in zip(Y, masks, solve_batch(Y, masks, D, cfg)):
        assert result.x_hat[mask.observed].tobytes() == y[mask.observed].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=1, max_value=6),
    dictionary=st.sampled_from(sorted(_ORACLE_DICTIONARIES)),
    max_iter=st.integers(min_value=1, max_value=60),
    rho2=st.floats(min_value=1e-3, max_value=1e3),
    slack_ridge=st.floats(min_value=0.0, max_value=1e3),
    mean_weight=st.floats(min_value=1e-2, max_value=1e3),
    var_weight=st.floats(min_value=1e-2, max_value=1e3),
)
def test_projection_holds_the_slack_block_at_zero(
    seed, rows, dictionary, max_iter, rho2, slack_ridge, mean_weight, var_weight
):
    D = _ORACLE_DICTIONARIES[dictionary]()
    Y, masks = _problem_rows(D, seed, rows, sparsity=4)
    cfg = SolverConfig(max_iter=max_iter, record_iterates=True)
    batch = solve_batch(Y, masks, D, cfg)
    for y, mask, result in zip(Y, masks, batch):
        # the written-out iteration forms the slack block the loop skips
        _assert_matches_oracle(result, _oracle_solve(y, mask, D, cfg))
        for name in ("slack_residuals", "final_slack", "final_dual_z"):
            values = getattr(result, name)
            assert not np.count_nonzero(values) and not np.signbit(values).any(), name
    # so the slack penalty, the ridge and the index weights cannot change the result
    changed = replace(cfg, rho2=rho2, mean_weight=mean_weight, var_weight=var_weight)
    with mock.patch.object(csim.solver, "_SLACK_RIDGE", slack_ridge):
        others = solve_batch(Y, masks, D, changed)
    for other, result in zip(others, batch, strict=True):
        _assert_same_bits(other, result)
        assert other.stop_reason == result.stop_reason
        pairs = zip(other.iterates, result.iterates, strict=True)
        assert all(a.tobytes() == b.tobytes() for a, b in pairs)


@pytest.mark.parametrize("dictionary", sorted(_ORACLE_DICTIONARIES))
def test_l1_weight_alone_picks_the_regime(dictionary):
    D = _ORACLE_DICTIONARIES[dictionary]()
    Y, masks = _problem_rows(D, 43, 4)
    fixed_cfg = SolverConfig(l1_weight=1e-3, max_iter=40)
    assert fixed_cfg == SolverConfig.analysis(1e-3, max_iter=40)
    protocol = solve_batch(Y, masks, D, SolverConfig(max_iter=40))
    fixed = solve_batch(Y, masks, D, fixed_cfg)
    for y, mask, p, f in zip(Y, masks, protocol, fixed, strict=True):
        # None: the observed samples are re-imposed and the weight decays
        assert p.x_hat[mask.observed].tobytes() == y[mask.observed].tobytes()
        assert not np.count_nonzero(p.slack_residuals)
        weight = max(0.1 * float(np.abs(y @ D.atoms).max()), 1e-4)
        for _ in range(p.iterations):
            weight = max(0.95 * weight, 1e-4)
        assert p.l1_weight_final == weight
        # a number: the weight stays and the observed samples are left free
        assert f.l1_weight_final == 1e-3
        assert np.any(f.x_hat[mask.observed] != y[mask.observed])
        assert np.all(f.slack_residuals > 0)


def test_stop_reason_is_the_test_that_retires_the_row():
    D = dct_dictionary(32, 32)
    sig = synth_sparse_signal(D, 3, 23)
    mask = random_mask(32, 29, 24)
    y = apply_mask(sig.x, mask)
    cfg = SolverConfig.analysis(l1_weight=1e-3, max_iter=5000, feasibility_tol=1e-8)
    first = solve(y, mask, D, cfg)
    assert first.stop_reason == "converged" and first.iterations < cfg.max_iter
    # meeting the tolerance on the last iteration of the budget is convergence
    last = solve(y, mask, D, replace(cfg, max_iter=first.iterations))
    assert last.stop_reason == "converged"
    short = solve(y, mask, D, replace(cfg, max_iter=first.iterations - 1))
    assert short.stop_reason == "budget"
    assert max(short.primal_residuals[-1], short.slack_residuals[-1]) >= cfg.feasibility_tol


def _relative_stationarity_gap(result, mask, D, cfg):
    values = effective_config(cfg, mask)
    params = CsimParams(values.mean_weight, values.var_weight, D.n)
    r_z, r_mu = kkt_residuals(result, mask, params)
    assert r_z <= 1e-12  # the z step solves its stationarity condition exactly
    return r_mu / float(np.linalg.norm(result.final_dual_x))


def test_stationarity_gap_closes_only_in_the_analysis_config():
    D = dct_dictionary(64, 64)
    sig = synth_sparse_signal(D, 6, 19)
    mask = random_mask(64, 51, 20)
    y = apply_mask(sig.x, mask)

    def gap(cfg):
        result = solve(y, mask, D, cfg)
        return result, _relative_stationarity_gap(result, mask, D, cfg)

    early = gap(SolverConfig.analysis(l1_weight=1e-3, max_iter=10))[1]
    result, late = gap(SolverConfig.analysis(l1_weight=1e-3, max_iter=2000))
    assert result.stop_reason == "converged"
    assert early > 0.1 and late < 1e-4
    # the protocol: projection keeps the slack and its dual at zero, so the
    # gap is all of dual_x
    result, value = gap(SolverConfig(max_iter=2000))
    assert result.stop_reason == "converged"
    assert value > 1e-2


def test_continuation_stops_only_once_the_weight_is_at_its_floor(monkeypatch):
    # The protocol with its weight floor lowered from 1e-4 to 1e-9: the
    # feasibility and dual tests pass from iteration 202, with the weight
    # at 2.2e-6 and still decaying; the weight a row uses reaches the
    # floor at iteration 353.  (At the floor of 1e-4, which its weight
    # reaches at iteration 128, the tests first pass at iteration 136.)
    floor = 1e-9
    monkeypatch.setattr(csim.solver, "_L1_WEIGHT_MIN", floor)
    D = dct_dictionary(64, 64)
    sig = synth_sparse_signal(D, 6, 19)
    mask = random_mask(64, 51, 20)
    y = apply_mask(sig.x, mask)
    cfg = SolverConfig(max_iter=2000)
    tol = cfg.feasibility_tol
    values = effective_config(cfg, mask)

    def run(max_iter):
        return solve(y, mask, D, replace(cfg, max_iter=max_iter))

    result = run(cfg.max_iter)
    assert (result.iterations, result.stop_reason) == (353, "converged")
    assert result.l1_weight_final == floor
    feasible = (result.primal_residuals < tol) & (result.slack_residuals < tol)
    assert int(np.flatnonzero(feasible)[0]) + 1 == 202 and feasible[201:].all()
    # a run's final weight is the one its next iteration uses
    before, short = run(351), run(352)
    assert before.l1_weight_final > floor
    assert short.stop_reason == "budget"  # every residual test passes at 352
    # the slack block is zero under projection: the dual residual is the s change
    change = values.rho1 * (D.atoms @ short.s_hat - D.atoms @ before.s_hat)
    assert np.linalg.norm(change) < tol
