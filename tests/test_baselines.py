import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csim.baselines
from csim.baselines import (
    BaselineConfig,
    fista_solve,
    fista_solve_batch,
    hard_threshold,
    iht_adaptive_solve,
    iht_adaptive_solve_batch,
)
from csim.dictionaries import _analyze, dct_dictionary, haar_wp_dictionary, normalize_columns, spectral_norm_sq
from csim.signals import SamplingMask, apply_mask, random_mask, substream, synth_sparse_signal
from csim.solver import NonFiniteError, SolverConfig, _observed_rows, _peak_weight, solve, solve_batch


def _masked(mask, atoms):
    A = np.zeros_like(atoms)
    A[mask.observed, :] = atoms[mask.observed, :]
    return A


def _ista_oracle(A, y, w, step, iters):
    """Independent plain proximal-gradient reference."""
    s = np.zeros(A.shape[1])
    for _ in range(iters):
        g = A.T @ (A @ s - y)
        u = s - step * g
        s = np.sign(u) * np.maximum(np.abs(u) - w * step, 0.0)
    return s


def _objective(A, y, w, s):
    r = A @ s - y
    return 0.5 * float(r @ r) + w * float(np.abs(s).sum())


def test_hard_threshold_semantics():
    v = np.array([0.5, -0.2, 1.0, -1.5, 0.0])
    out = hard_threshold(v, 0.5)
    np.testing.assert_allclose(out, [0.5, 0.0, 1.0, -1.5, 0.0])
    with pytest.raises(ValueError):
        hard_threshold(v, -1.0)


def test_fista_huge_weight_returns_zero(monkeypatch):
    # A weight of 2 max|A.T y|: every coefficient stays thresholded to 0.
    monkeypatch.setattr(csim.baselines, "_FISTA_WEIGHT_SCALE", 2.0)
    D = dct_dictionary(32, 32)
    sig = synth_sparse_signal(D, 3, 0)
    mask = random_mask(32, 26, 1)
    y = apply_mask(sig.x, mask)
    result = fista_solve(y, mask, D, BaselineConfig(max_iter=100))
    np.testing.assert_allclose(result.s_hat, np.zeros(32), atol=1e-12)


def test_fista_zero_weight_full_mask_gives_analysis_coefficients(monkeypatch):
    monkeypatch.setattr(csim.baselines, "_FISTA_WEIGHT_SCALE", 0.0)
    D = dct_dictionary(16, 16)
    rng = np.random.default_rng(2)
    y = rng.standard_normal(16)
    mask = SamplingMask(16, np.arange(16))
    result = fista_solve(y, mask, D, BaselineConfig(max_iter=300))
    np.testing.assert_allclose(result.s_hat, D.atoms.T @ y, atol=1e-8)


def test_fista_matches_long_run_ista_oracle():
    rng = np.random.default_rng(3)
    D = dct_dictionary(12, 12)
    sig = synth_sparse_signal(D, 2, 4)
    mask = random_mask(12, 9, 5)
    y = apply_mask(sig.x, mask)
    A = _masked(mask, D.atoms)
    step = 0.999 / float(np.linalg.svd(A, compute_uv=False)[0] ** 2)
    w = 0.01 * float(np.abs(A.T @ y).max())
    oracle = _ista_oracle(A, y, w, step, 100_000)
    f_star = _objective(A, y, w, oracle)
    result = fista_solve(y, mask, D, BaselineConfig(max_iter=2000))
    f_fista = _objective(A, y, w, result.s_hat)
    assert abs(f_fista - f_star) <= 1e-6 * (1.0 + abs(f_star))


def test_fista_objective_does_not_rise_on_the_step_after_a_restart():
    # A restart zeroes the momentum, so the next step is a plain proximal
    # step from the last iterate, which cannot raise the objective; other
    # steps may.
    D = dct_dictionary(64, 128)
    sig = synth_sparse_signal(D, 13, 6)
    mask = random_mask(64, 38, 7)
    y = apply_mask(sig.x, mask)
    A = _masked(mask, D.atoms)
    result = fista_solve(y, mask, D, BaselineConfig(max_iter=120, record_iterates=True))
    _, residuals, restarts = _serial_fista(A, y, 120)
    assert result.primal_residuals.tobytes() == np.array(residuals).tobytes()
    w = 0.01 * float(np.abs(A.T @ y).max())
    objectives = [_objective(A, y, w, iterate) for iterate in result.iterates]
    after = [k for k in restarts if k + 1 < len(objectives)]
    assert after
    for k in after:
        assert objectives[k + 1] <= objectives[k] + 1e-10 * (1.0 + abs(objectives[k]))


def test_fista_no_worse_than_ista_on_most_instances():
    rng = np.random.default_rng(8)
    wins = 0
    total = 100
    T = 40
    for trial in range(total):
        n = 24
        D = dct_dictionary(n, n)
        sig = synth_sparse_signal(D, 3, (8, trial, 1))
        mask = random_mask(n, int(0.7 * n), (8, trial, 2))
        y = apply_mask(sig.x, mask)
        A = _masked(mask, D.atoms)
        lip = spectral_norm_sq(A)  # FISTA's step is 1 / ||A||^2 from this estimate
        w = 0.01 * float(np.abs(A.T @ y).max())
        result = fista_solve(y, mask, D, BaselineConfig(max_iter=T))
        ista = _ista_oracle(A, y, w, 1.0 / lip, T)
        if _objective(A, y, w, result.s_hat) <= _objective(A, y, w, ista) + 1e-12:
            wins += 1
    assert wins >= 90


def _out_of_range(config):
    """(config type, field, value, message) for every numeric field of
    ``config``: each non-finite float, then each value its rules reject."""
    cases = []
    for field in fields(config):
        if field.name == "record_iterates":
            continue
        for value in (math.inf, -math.inf, math.nan):
            cases.append((config, field.name, value, f"{field.name} must be finite, got {value}"))
        if field.name == "max_iter":
            cases += [(config, "max_iter", bad, "max_iter must be positive") for bad in (0, -3)]
            cases.append((config, "max_iter", 5.0, "max_iter must be an integer"))
        elif field.name in ("l1_weight", "feasibility_tol"):
            cases.append((config, field.name, -0.5, f"{field.name} must be nonnegative"))
    return cases


@pytest.mark.parametrize(
    "config, name, value, message", _out_of_range(SolverConfig) + _out_of_range(BaselineConfig)
)
def test_a_config_out_of_range_raises_naming_the_field_when_built(config, name, value, message):
    with pytest.raises(ValueError) as raised:
        config(**{name: value})
    assert str(raised.value) == message


_PEAK_DICTIONARIES = [
    (dct_dictionary, 64, 64),
    (dct_dictionary, 64, 96),
    (dct_dictionary, 16, 32),
    (haar_wp_dictionary, 64, 128),
]


@pytest.mark.parametrize("rows", [1, 6])
@pytest.mark.parametrize("build, n, p", _PEAK_DICTIONARIES)
def test_the_masked_adjoint_peak_is_the_dictionary_peak_bit_for_bit(build, n, p, rows):
    # The baselines scale max|A_b.T y| through their operator's adjoint;
    # the ADMM solver scales max|D.T y| of the zero-filled rows.  Both
    # must give every row the same per-row weight, to the bit.
    D = build(n, p)
    for trial, (sr, scale) in enumerate([(0.3, 1.0), (0.6, 255.0), (0.9, 1.0)]):
        masks = [random_mask(n, max(1, round(sr * n)), 100 * trial + i) for i in range(rows)]
        Y = scale * substream(n, p, trial).uniform(0.0, 1.0, (rows, n))
        Y, observed = _observed_rows(Y, masks, n)
        _, adjoint = csim.baselines._operator(D.atoms, observed)
        for factor in (0.1, 0.01, 0.5):
            via_operator = np.asarray(_peak_weight(factor, adjoint(Y)))
            via_dictionary = np.asarray(_peak_weight(factor, _analyze(D.atoms, Y)))
            assert via_operator.tobytes() == via_dictionary.tobytes()


def _iht_oracle(A, y, iters):
    """Per-signal IHT with the schedule max(0.5 max|A.T y| e^(-0.2 t), 1e-3)."""
    step = 1.0 / spectral_norm_sq(A)
    tau0 = 0.5 * float(np.abs(A.T @ y).max())
    s = np.zeros(A.shape[1])
    for t in range(iters):
        tau = max(tau0 * math.exp(-0.2 * t), 1e-3)
        u = s + step * (A.T @ (y - A @ s))
        s = np.where(np.abs(u) >= tau, u, 0.0)
    return s


@pytest.mark.parametrize("build", [dct_dictionary, haar_wp_dictionary])
def test_iht_follows_its_fixed_threshold_schedule(build):
    D = build(32, 64)
    masks = [random_mask(32, 20 + 3 * i, 40 + i) for i in range(4)]
    signals = [synth_sparse_signal(D, 3, 60 + i).x for i in range(4)]
    Y = np.stack([apply_mask(x, mask) for x, mask in zip(signals, masks)])
    results = iht_adaptive_solve_batch(Y, masks, D, BaselineConfig(max_iter=40))
    for y, mask, result in zip(Y, masks, results):
        oracle = _iht_oracle(_masked(mask, D.atoms), y, 40)
        np.testing.assert_allclose(result.s_hat, oracle, rtol=1e-9, atol=1e-12)


def test_iht_all_above_threshold_schedule_returns_zero(monkeypatch):
    # A schedule held at 100 max|A.T y|: no coefficient ever reaches it.
    monkeypatch.setattr(csim.baselines, "_IHT_START_SCALE", 100.0)
    monkeypatch.setattr(csim.baselines, "_IHT_DECAY", 0.0)
    D = dct_dictionary(32, 32)
    sig = synth_sparse_signal(D, 3, 10)
    mask = random_mask(32, 26, 11)
    y = apply_mask(sig.x, mask)
    result = iht_adaptive_solve(y, mask, D, BaselineConfig(max_iter=60))
    np.testing.assert_allclose(result.s_hat, np.zeros(32), atol=1e-15)


def test_iht_recovers_support_on_most_seeds():
    D = dct_dictionary(64, 64)
    hits = 0
    total = 25
    for trial in range(total):
        sig = synth_sparse_signal(D, 6, (12, trial, 1))
        mask = random_mask(64, 58, (12, trial, 2))  # sampling ratio 0.9
        y = apply_mask(sig.x, mask)
        result = iht_adaptive_solve(y, mask, D, BaselineConfig(max_iter=50))
        support = set(np.nonzero(result.s_hat)[0])
        if support == set(sig.support.tolist()):
            hits += 1
    # success rate is logged; the assertion is a loose majority
    print(f"adaptive-threshold support recovery: {hits}/{total}")
    assert hits > total // 2


def test_baselines_deterministic():
    D = dct_dictionary(32, 64)
    sig = synth_sparse_signal(D, 7, 13)
    mask = random_mask(32, 22, 14)
    y = apply_mask(sig.x, mask)
    a = fista_solve(y, mask, D)
    b = fista_solve(y, mask, D)
    assert a.s_hat.tobytes() == b.s_hat.tobytes()
    c = iht_adaptive_solve(y, mask, D)
    d = iht_adaptive_solve(y, mask, D)
    assert c.s_hat.tobytes() == d.s_hat.tobytes()


def test_baseline_histories_lengths():
    D = dct_dictionary(16, 16)
    sig = synth_sparse_signal(D, 2, 15)
    mask = random_mask(16, 12, 16)
    y = apply_mask(sig.x, mask)
    result = fista_solve(y, mask, D, BaselineConfig(max_iter=23, record_iterates=True))
    assert result.iterations == 23
    assert len(result.primal_residuals) == 23
    assert isinstance(result.iterates, np.ndarray) and result.iterates.shape == (23, 16)
    assert result.slack_residuals is None


@pytest.mark.parametrize("solve_batch_fn", [fista_solve_batch, iht_adaptive_solve_batch])
def test_baselines_stop_on_their_budget(solve_batch_fn):
    D = dct_dictionary(16, 16)
    masks = [random_mask(16, 12, (16, i)) for i in range(3)]
    Y = np.array([apply_mask(synth_sparse_signal(D, 2, (15, i)).x, m) for i, m in enumerate(masks)])
    for result in solve_batch_fn(Y, masks, D, BaselineConfig(max_iter=17)):
        assert (result.iterations, result.stop_reason) == (17, "budget")


def test_thresholds_take_per_row_values_and_reject_any_negative_entry():
    v = np.array([[0.5, -0.2, 1.0], [0.5, -0.2, 1.0]])
    tau = np.array([[0.3], [0.6]])
    np.testing.assert_array_equal(hard_threshold(v, tau), [[0.5, 0.0, 1.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(csim.baselines.soft_threshold(v, tau), [[0.2, 0.0, 0.7], [0.0, 0.0, 0.4]])
    for threshold in (hard_threshold, csim.baselines.soft_threshold):
        with pytest.raises(ValueError):
            threshold(v, np.array([[0.3], [-1e-9]]))


# --- row-batched baselines ----------------------------------------------------

_DICTIONARIES = {"dct": dct_dictionary(64, 64), "haar": haar_wp_dictionary(64, 128)}
_HISTORIES = ("s_hat", "x_hat", "primal_residuals")
_BATCHED = {
    "fista": (fista_solve_batch, fista_solve, BaselineConfig(max_iter=30, record_iterates=True)),
    "iht": (iht_adaptive_solve_batch, iht_adaptive_solve, BaselineConfig(max_iter=30, record_iterates=True)),
}


def _problem_rows(D, seed, rows, sparsity=6):
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
    for name in _HISTORIES:
        assert getattr(batched, name).tobytes() == getattr(single, name).tobytes(), name
    assert batched.iterations == single.iterations
    assert batched.elapsed_ms.shape == single.elapsed_ms.shape
    if single.iterates is None:
        assert batched.iterates is None
    else:
        assert np.array(batched.iterates).tobytes() == np.array(single.iterates).tobytes()


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=1, max_value=8),
    dictionary=st.sampled_from(sorted(_DICTIONARIES)),
    solver=st.sampled_from(sorted(_BATCHED)),
)
def test_batched_baseline_rows_equal_one_row_solves(seed, rows, dictionary, solver):
    D = _DICTIONARIES[dictionary]
    Y, masks = _problem_rows(D, seed, rows)
    batch_solve, single_solve, config = _BATCHED[solver]
    batch = batch_solve(Y, masks, D, config)
    assert len(batch) == rows
    for y, mask, result in zip(Y, masks, batch):
        _assert_same_bits(result, single_solve(y, mask, D, config))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=2, max_value=8),
    solver=st.sampled_from(sorted(_BATCHED)),
)
def test_batched_baselines_do_not_depend_on_row_order(seed, rows, solver):
    D = _DICTIONARIES["haar"]
    Y, masks = _problem_rows(D, seed, rows)
    order = np.random.default_rng(seed).permutation(rows)
    batch_solve, _, config = _BATCHED[solver]
    straight = batch_solve(Y, masks, D, config)
    permuted = batch_solve(Y[order], [masks[i] for i in order], D, config)
    for position, i in enumerate(order):
        _assert_same_bits(permuted[position], straight[i])


def _serial_fista(A, y, iters):
    """FISTA with the gradient restart on one masked operator, written
    out as a plain loop: the arithmetic the batched loop keeps, with A p
    formed from the products of the last two iterates.  Returns the
    coefficients, the residual norms and the iterations that restarted."""
    step = 1.0 / spectral_norm_sq(A)
    w = 0.01 * float(np.abs(A.T @ y).max())
    s = momentum = np.zeros(A.shape[1])
    product = momentum_product = np.zeros(len(y))
    t_k, residuals, restarts = 1.0, [], []
    for k in range(iters):
        u = momentum - step * (A.T @ (momentum_product - y))
        candidate = np.sign(u) * np.maximum(np.abs(u) - w * step, 0.0)
        candidate_product = A @ candidate
        if (momentum - candidate) @ (candidate - s) > 0:
            t_k = 1.0
            restarts.append(k)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
        beta = (t_k - 1.0) / t_next
        momentum = candidate + beta * (candidate - s)
        momentum_product = candidate_product + beta * (candidate_product - product)
        s, product, t_k = candidate, candidate_product, t_next
        r = product - y
        residuals.append(math.sqrt(r @ r))
    return s, residuals, restarts


def _serial_iht(A, y, iters, decay=0.2, tau_min=1e-3):
    step = 1.0 / spectral_norm_sq(A)
    tau0 = 0.5 * float(np.abs(A.T @ y).max())
    s = np.zeros(A.shape[1])
    for t in range(iters):
        u = s + step * (A.T @ (y - A @ s))
        s = np.where(np.abs(u) >= max(tau0 * math.exp(-decay * t), tau_min), u, 0.0)
    return s


@pytest.mark.parametrize("dictionary", sorted(_DICTIONARIES))
def test_batched_baselines_keep_the_bits_of_the_plain_serial_loops(dictionary):
    D = _DICTIONARIES[dictionary]
    Y, masks = _problem_rows(D, 17, 6, sparsity=13)
    fista = fista_solve_batch(Y, masks, D, BaselineConfig(max_iter=40))
    iht = iht_adaptive_solve_batch(Y, masks, D, BaselineConfig(max_iter=40))
    for y, mask, f, h in zip(Y, masks, fista, iht):
        A = _masked(mask, D.atoms)
        s, residuals, _ = _serial_fista(A, y, 40)
        assert f.s_hat.tobytes() == s.tobytes()
        assert f.primal_residuals.tobytes() == np.array(residuals).tobytes()
        assert h.s_hat.tobytes() == _serial_iht(A, y, 40).tobytes()


def test_fista_batch_keeps_the_one_row_bits_when_only_some_rows_restart():
    # Gradient restarts give the rows of a batch different momentum
    # weights from the first restart on; each row must still follow its
    # own one-row solve.
    D = _DICTIONARIES["haar"]
    config = BaselineConfig(max_iter=60, record_iterates=True)
    Y, masks = _problem_rows(D, 11, 8, sparsity=13)
    oracles = [_serial_fista(_masked(mask, D.atoms), y, config.max_iter) for y, mask in zip(Y, masks)]
    restarted = [bool(restarts) for _, _, restarts in oracles]
    assert any(restarted) and not all(restarted)
    batch = fista_solve_batch(Y, masks, D, config)
    for y, mask, result, (s, residuals, _) in zip(Y, masks, batch, oracles):
        _assert_same_bits(result, fista_solve(y, mask, D, config))
        assert result.s_hat.tobytes() == s.tobytes()
        assert result.primal_residuals.tobytes() == np.array(residuals).tobytes()


@pytest.mark.parametrize(
    "solve, setup_synthesize",
    # Setup: the weight reads A.T y, the results form D s once, and IHT
    # forms its first residual y - A 0.
    [(fista_solve_batch, 1), (iht_adaptive_solve_batch, 2)],
)
def test_batched_baselines_form_one_product_each_way_per_iteration(monkeypatch, solve, setup_synthesize):
    counts = {"synthesize": 0, "analyze": 0}
    synthesize, analyze = csim.baselines._synthesize, csim.baselines._analyze

    def counting_synthesize(*args):
        counts["synthesize"] += 1
        return synthesize(*args)

    def counting_analyze(*args):
        counts["analyze"] += 1
        return analyze(*args)

    monkeypatch.setattr(csim.baselines, "_synthesize", counting_synthesize)
    monkeypatch.setattr(csim.baselines, "_analyze", counting_analyze)
    D = _DICTIONARIES["haar"]
    Y, masks = _problem_rows(D, 11, 8, sparsity=13)
    config = BaselineConfig(max_iter=60)
    solve(Y, masks, D, config)
    assert counts == {"synthesize": config.max_iter + setup_synthesize, "analyze": config.max_iter + 1}


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solver, threshold", [("fista", "soft_threshold"), ("iht", "_hard_threshold")])
def test_a_non_finite_baseline_iterate_raises_at_its_iteration(monkeypatch, solver, threshold, rows, bad):
    # The loops scan s only when its residual norm is not finite; an
    # iterate that turns non-finite in its threshold step must still stop
    # the loop at that iteration.  The messages carry no iteration number,
    # so the count of threshold steps tells it.
    D = _DICTIONARIES["haar"]
    Y, masks = _problem_rows(D, 9, rows)
    step = getattr(csim.baselines, threshold)
    calls = []

    def spoiled_step(v, tau):
        out = step(v, tau)
        calls.append(1)
        if len(calls) == 4:
            out = out.copy()
            out[..., -1] = bad  # the last coefficient of the last row
        return out

    monkeypatch.setattr(csim.baselines, threshold, spoiled_step)
    solve_batch_fn, _, _ = _BATCHED[solver]
    # An inf coefficient meets the zero samples of A: inf * 0 warns.
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match=f"non-finite {solver.upper()}"):
        solve_batch_fn(Y, masks, D, BaselineConfig(max_iter=30))
    assert len(calls) == 4


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("solver", sorted(_BATCHED))
def test_a_finite_baseline_run_whose_squared_residual_overflows_does_not_raise(solver, rows):
    D = _DICTIONARIES["dct"]
    Y, masks = _problem_rows(D, 12, rows)
    solve_batch_fn, _, _ = _BATCHED[solver]
    # The squares overflow to inf (FISTA's restart test then meets inf - inf).
    with np.errstate(over="ignore", invalid="ignore"):
        results = solve_batch_fn(1e200 * Y, masks, D, BaselineConfig(max_iter=10))
    for result in results:
        assert result.iterations == 10
        assert np.all(np.isfinite(result.s_hat))
        assert np.isinf(result.primal_residuals).any()


def test_iht_checks_its_threshold_schedule_once_before_iterating(monkeypatch):
    # A nan start makes every threshold nan; it fails before any step.
    calls = []
    monkeypatch.setattr(csim.baselines, "_IHT_START_SCALE", np.nan)
    monkeypatch.setattr(csim.baselines, "_hard_threshold", lambda v, tau: calls.append(1))
    D = _DICTIONARIES["dct"]
    Y, masks = _problem_rows(D, 13, 3)
    for rows in (slice(0, 1), slice(0, 3)):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            iht_adaptive_solve_batch(Y[rows], masks[rows], D)
    assert calls == []


@pytest.mark.parametrize("solve", [fista_solve_batch, iht_adaptive_solve_batch, fista_solve, iht_adaptive_solve])
def test_baselines_reject_a_row_with_an_all_zero_operator(solve):
    # Atom rows 4..7 of this dictionary are zero, so a row that observes
    # only those samples sees an all-zero masked operator.  Batched or one
    # row, spectral_norm_sq rejects it before any step 1/||A_b||^2 is formed.
    atoms = np.zeros((8, 4))
    atoms[:4] = dct_dictionary(4, 4).atoms
    D = normalize_columns(atoms)
    masks = [SamplingMask(8, [0, 5]), SamplingMask(8, [4, 6])]
    one_row = solve in (fista_solve, iht_adaptive_solve)
    with pytest.raises(ValueError, match="^spectral norm of an all-zero matrix is degenerate$"):
        solve(np.ones(8), masks[1], D) if one_row else solve(np.ones((2, 8)), masks, D)
    if not one_row:
        assert solve(np.zeros((0, 8)), [], D) == []


# --- the observation contract, shared with the ADMM solver -------------------

_SOLVERS = {
    "csim-alm": (solve_batch, solve, SolverConfig(record_iterates=True)),
    "fista": (fista_solve_batch, fista_solve, BaselineConfig(record_iterates=True)),
    "iht": (iht_adaptive_solve_batch, iht_adaptive_solve, BaselineConfig(record_iterates=True)),
}


def _clean_rows(rows):
    """Clean 6-sparse DCT-64 signals and masks keeping 32 samples (sr 0.5),
    both from substream keys."""
    D = dct_dictionary(64, 64)
    X = np.array([synth_sparse_signal(D, 6, substream(80, i, 1)).x for i in range(rows)])
    masks = [random_mask(64, 32, substream(80, i, 2)) for i in range(rows)]
    return D, X, masks


def _solve_rows(solver, X, masks, D):
    batch, single, config = _SOLVERS[solver]
    if len(masks) == 1:
        return [single(X[0], masks[0], D, config)]
    return batch(X, masks, D, config)


def _assert_identical(a, b):
    """Every field but the clock has the same bits."""
    for name, value in vars(b).items():
        if name == "elapsed_ms":
            continue
        other = getattr(a, name)
        if isinstance(value, np.ndarray):
            assert other.tobytes() == value.tobytes(), name
        elif isinstance(value, list):
            assert np.array(other).tobytes() == np.array(value).tobytes(), name
        else:
            assert other == value, name


@pytest.mark.parametrize("rows", [1, 8])
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_every_solver_reads_a_row_only_at_its_observed_positions(solver, rows):
    D, X, masks = _clean_rows(rows)
    masked = np.array([apply_mask(x, mask) for x, mask in zip(X, masks)])
    expected = _solve_rows(solver, masked, masks, D)
    for fill in (None, np.nan, np.inf, -np.inf):
        Y = X.copy()
        if fill is not None:
            for y, mask in zip(Y, masks):
                y[np.setdiff1d(np.arange(64), mask.observed)] = fill
        for got, want in zip(_solve_rows(solver, Y, masks, D), expected):
            _assert_identical(got, want)


@pytest.mark.parametrize("rows", [1, 8])
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_a_non_finite_observed_sample_raises_in_every_solver(solver, rows):
    D, X, masks = _clean_rows(rows)
    for bad in (np.nan, np.inf):
        Y = X.copy()
        Y[rows - 1, masks[-1].observed[3]] = bad
        with pytest.raises(NonFiniteError, match="observed samples"):
            _solve_rows(solver, Y, masks, D)
