import numpy as np
import pytest

from csim.baselines import (
    FistaConfig,
    IhtConfig,
    fista_solve,
    hard_threshold,
    iht_adaptive_solve,
)
from csim.dictionaries import dct_dictionary
from csim.signals import SamplingMask, apply_mask, random_mask, synth_sparse_signal


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


def test_fista_huge_weight_returns_zero():
    D = dct_dictionary(32, 32)
    sig = synth_sparse_signal(D, 3, 0)
    mask = random_mask(32, 26, 1)
    y = apply_mask(sig.x, mask)
    A = _masked(mask, D.atoms)
    w = 2.0 * float(np.abs(A.T @ y).max())
    result = fista_solve(y, mask, D, FistaConfig(l1_weight=w, max_iter=100))
    np.testing.assert_allclose(result.s_hat, np.zeros(32), atol=1e-12)


def test_fista_zero_weight_full_mask_gives_analysis_coefficients():
    D = dct_dictionary(16, 16)
    rng = np.random.default_rng(2)
    y = rng.standard_normal(16)
    mask = SamplingMask(16, np.arange(16))
    result = fista_solve(y, mask, D, FistaConfig(l1_weight=0.0, max_iter=300))
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
    result = fista_solve(y, mask, D, FistaConfig(l1_weight=w, max_iter=2000))
    f_fista = _objective(A, y, w, result.s_hat)
    assert abs(f_fista - f_star) <= 1e-6 * (1.0 + abs(f_star))


def test_fista_objectives_monotone_with_restart():
    D = dct_dictionary(64, 128)
    sig = synth_sparse_signal(D, 13, 6)
    mask = random_mask(64, 38, 7)
    y = apply_mask(sig.x, mask)
    result = fista_solve(y, mask, D, FistaConfig(max_iter=120))
    diffs = np.diff(result.objectives)
    assert np.all(diffs <= 1e-10 * (1.0 + np.abs(result.objectives[:-1])))


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
        lip = float(np.linalg.svd(A, compute_uv=False)[0] ** 2)
        w = 0.01 * float(np.abs(A.T @ y).max())
        result = fista_solve(
            y, mask, D, FistaConfig(l1_weight=w, step=1.0 / lip, max_iter=T)
        )
        ista = _ista_oracle(A, y, w, 1.0 / lip, T)
        if _objective(A, y, w, result.s_hat) <= _objective(A, y, w, ista) + 1e-12:
            wins += 1
    assert wins >= 90


def test_fista_step_validation():
    D = dct_dictionary(8, 8)
    mask = random_mask(8, 6, 9)
    with pytest.raises(ValueError):
        fista_solve(np.zeros(8), mask, D, FistaConfig(step=100.0))
    with pytest.raises(ValueError):
        fista_solve(np.zeros(8), mask, D, FistaConfig(step=-0.1))


@pytest.mark.parametrize("solve, config", [(fista_solve, FistaConfig), (iht_adaptive_solve, IhtConfig)])
def test_baselines_reject_an_empty_iteration_budget(solve, config):
    D = dct_dictionary(8, 8)
    mask = random_mask(8, 6, 9)
    with pytest.raises(ValueError, match="max_iter"):
        solve(np.zeros(8), mask, D, config(max_iter=0))


def test_iht_all_above_threshold_schedule_returns_zero():
    D = dct_dictionary(32, 32)
    sig = synth_sparse_signal(D, 3, 10)
    mask = random_mask(32, 26, 11)
    y = apply_mask(sig.x, mask)
    A = _masked(mask, D.atoms)
    tau0 = 100.0 * float(np.abs(A.T @ y).max())
    result = iht_adaptive_solve(
        y, mask, D, IhtConfig(tau0=tau0, decay=0.0, tau_min=tau0, max_iter=60)
    )
    np.testing.assert_allclose(result.s_hat, np.zeros(32), atol=1e-15)


def test_iht_recovers_support_on_most_seeds():
    D = dct_dictionary(64, 64)
    hits = 0
    total = 25
    for trial in range(total):
        sig = synth_sparse_signal(D, 6, (12, trial, 1))
        mask = random_mask(64, 58, (12, trial, 2))  # sampling ratio 0.9
        y = apply_mask(sig.x, mask)
        result = iht_adaptive_solve(y, mask, D, IhtConfig(max_iter=50))
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
    result = fista_solve(y, mask, D, FistaConfig(max_iter=23, record_iterates=True))
    assert result.iterations == 23
    assert len(result.objectives) == 23
    assert len(result.iterates) == 23
    assert result.slack_residuals is None
