import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csim.core import CsimKernel, CsimParams
from csim.dictionaries import Dictionary, dct_dictionary
from csim.signals import SamplingMask, apply_mask, random_mask, synth_sparse_signal
from csim.solver import (
    BacktrackingLimitError,
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


# --- s update with backtracking ----------------------------------------------


def _subproblem_value(s, atoms, x, dual, rho1, l1_weight):
    r = x + dual / rho1 - atoms @ s
    return 0.5 * float(r @ r) + (l1_weight / rho1) * float(np.abs(s).sum())


def test_s_update_reduces_to_thresholded_point_at_consistency():
    D = dct_dictionary(16, 16)
    rng = np.random.default_rng(3)
    s = soft_threshold(rng.standard_normal(16), 0.8)
    x = D.atoms @ s
    l1_weight, rho1, majorizer = 0.05, 1.0, 1.2
    out, _, retries = s_update_backtracking(
        s, x, np.zeros(16), D, rho1, l1_weight, majorizer, 1.1
    )
    np.testing.assert_allclose(
        out, soft_threshold(s, l1_weight / (majorizer * rho1)), atol=1e-14
    )
    assert retries == 0
    # zero l1 weight makes the consistent point an exact fixed point
    out0, _, _ = s_update_backtracking(
        s, x, np.zeros(16), D, rho1, 0.0, majorizer, 1.1
    )
    np.testing.assert_allclose(out0, s, atol=1e-14)


def test_majorizer_above_gram_norm_never_retries():
    rng = np.random.default_rng(4)
    D = dct_dictionary(16, 32)
    for trial in range(20):
        s = rng.standard_normal(32)
        x = rng.standard_normal(16)
        dual = rng.standard_normal(16)
        _, accepted, retries = s_update_backtracking(
            s, x, dual, D, 0.7, 0.3, 1.0001 * D.spectral_norm_sq, 1.1
        )
        assert retries == 0
        assert accepted == pytest.approx(1.0001 * D.spectral_norm_sq)


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


def test_backtracking_recovers_from_small_majorizer():
    rng = np.random.default_rng(6)
    D = dct_dictionary(16, 32)
    s = rng.standard_normal(32)
    x = rng.standard_normal(16)
    dual = rng.standard_normal(16)
    before = _subproblem_value(s, D.atoms, x, dual, 1.0, 0.3)
    out, accepted, retries = s_update_backtracking(
        s, x, dual, D, 1.0, 0.3, 0.05 * D.spectral_norm_sq, 1.5
    )
    assert retries > 0
    after = _subproblem_value(out, D.atoms, x, dual, 1.0, 0.3)
    assert after <= before + 1e-12
    assert accepted > 0.05 * D.spectral_norm_sq


def test_backtracking_cap_raises():
    rng = np.random.default_rng(7)
    D = dct_dictionary(8, 8)
    with pytest.raises(BacktrackingLimitError):
        s_update_backtracking(
            rng.standard_normal(8),
            rng.standard_normal(8),
            rng.standard_normal(8),
            D,
            1.0,
            0.1,
            1e-12,
            1.0000001,
        )


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
        s, lam, _ = s_update_backtracking(s, x, dual, D, 0.9, 0.2, lam, 1.1)
        after = _subproblem_value(s, D.atoms, x, dual, 0.9, 0.2)
        assert after <= before + 1e-10 * (1.0 + abs(before))


# --- z update ---------------------------------------------------------------


def test_z_update_zero_input():
    kernel = CsimKernel(CsimParams.defaults(8))
    np.testing.assert_allclose(z_update(np.zeros(8), kernel, 1.0, 1.0), np.zeros(8))


def test_z_update_matches_dense_solve():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 64))
        params = CsimParams(
            float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.1, 8.0)), n
        )
        kernel = CsimKernel(params)
        rho2 = float(rng.uniform(0.1, 3.0))
        ridge = float(rng.uniform(0.0, 2.0))
        c = rng.standard_normal(n)
        W = kernel.diag_coef * np.eye(n) + kernel.ones_coef * np.ones((n, n))
        system = rho2 * np.eye(n) + 2.0 * (W + ridge * np.eye(n))
        np.testing.assert_allclose(
            z_update(c, kernel, rho2, ridge), np.linalg.solve(system, c), atol=1e-10
        )


def test_z_update_all_ones_eigenvector():
    n = 8
    kernel = CsimKernel(CsimParams.defaults(n))
    rho2, ridge = 1.3, 0.7
    diag = rho2 + 2.0 * kernel.diag_coef + 2.0 * ridge
    ones_term = 2.0 * kernel.ones_coef
    expected = np.ones(n) / (diag + n * ones_term)
    np.testing.assert_allclose(
        z_update(np.ones(n), kernel, rho2, ridge), expected, atol=1e-12
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
    assert a.iterations == len(a.objectives)
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
    D = dct_dictionary(8, 8)
    mask = random_mask(8, 6, 18)
    with pytest.raises(ValueError):
        effective_config(SolverConfig(majorizer0=0.5), mask, D)
    with pytest.raises(ValueError):
        effective_config(SolverConfig(l1_decay=1.5), mask, D)
    with pytest.raises(ValueError):
        effective_config(SolverConfig(majorizer_growth=1.0), mask, D)
    values = effective_config(SolverConfig(), mask, D)
    assert values.rho1 == pytest.approx(0.4 * 6 / 8)
    assert values.rho2 == pytest.approx(2.0 * 6 / 8)
    assert values.var_weight == pytest.approx(7.0)
    assert values.mean_weight == pytest.approx(0.25 * 7.0)
    assert values.majorizer0 == pytest.approx(1.05 * D.spectral_norm_sq)


def test_effective_config_is_the_config_with_its_none_fields_resolved():
    D = dct_dictionary(8, 8)
    mask = random_mask(8, 6, 18)
    cfg = SolverConfig(rho2=3.0, max_iter=9, continuation=False)
    resolved = effective_config(cfg, mask, D)
    assert isinstance(resolved, SolverConfig)
    assert resolved == SolverConfig(
        rho1=0.4 * 6 / 8,
        rho2=3.0,
        majorizer0=1.05 * D.spectral_norm_sq,
        max_iter=9,
        mean_weight=0.25 * 7.0,
        var_weight=7.0,
        continuation=False,
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
    values = effective_config(cfg, mask, D)
    kernel = CsimKernel(CsimParams(values.mean_weight, values.var_weight, 64))
    r_z, r_mu = kkt_residuals(result, mask, kernel, values.slack_ridge)
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
    kernel = CsimKernel(params)
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
        new_s, majorizer, _ = s_update_backtracking(
            s, x, dual_x, D, rho1, l1_weight, majorizer, 1.1
        )
        masked_x = np.zeros(n)
        masked_x[obs] = x[obs]
        new_z = z_update(rho2 * (masked_x - y) - dual_z, kernel, rho2, ridge)
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
    "objectives",
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
    assert batched.majorizer_final == single.majorizer_final
    assert batched.s_retries == single.s_retries


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
    cfg = _CONFIGS["analysis"]
    batch = solve_batch(Y, masks, D, cfg)
    # seed 31: five rows stop early, each at its own iteration; three run out
    stops = sorted(r.iterations for r in batch if r.iterations < cfg.max_iter)
    assert len(set(stops)) == len(stops) >= 4
    assert any(r.iterations == cfg.max_iter for r in batch)
    for y, mask, result in zip(Y, masks, batch):
        single = solve(y, mask, D, cfg)
        _assert_same_bits(result, single)
        assert len(result.primal_residuals) == len(result.objectives) == result.iterations


def test_solve_batch_backtracks_only_rows_that_fail():
    # A recorded Gram norm below the true one puts the default majorizer0
    # (1.05 times the recorded value) under ||D||^2, so the majorization
    # check fails for some rows and not for others.
    atoms = dct_dictionary(16, 32).atoms
    D = Dictionary(atoms, spectral_norm_sq=0.9 * np.linalg.norm(atoms, 2) ** 2)
    Y, masks = _problem_rows(D, 5, 8, sparsity=3)
    cfg = SolverConfig(max_iter=30)
    batch = solve_batch(Y, masks, D, cfg)
    retried = [r.s_retries > 0 for r in batch]
    assert any(retried) and not all(retried)
    majorizer0 = effective_config(cfg, masks[0], D).majorizer0
    for y, mask, result in zip(Y, masks, batch):
        _assert_same_bits(result, solve(y, mask, D, cfg))
        grown = majorizer0
        for _ in range(result.s_retries):
            grown *= cfg.majorizer_growth
        assert grown == result.majorizer_final


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


def test_solve_batch_validates_shapes():
    D = dct_dictionary(16, 16)
    Y, masks = _problem_rows(D, 8, 3)
    assert solve_batch(Y[:0], [], D) == []
    with pytest.raises(ValueError):
        solve_batch(Y[:2], masks, D)
    with pytest.raises(ValueError):
        solve_batch(np.zeros((1, 8)), [random_mask(8, 4, 1)], D)
