import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csim.denoise
from csim.core import CsimParams
from csim.denoise import (
    FirFilter,
    PatchStats,
    SingularStatsError,
    apply_fir,
    csim_filter,
    denoise_image,
    denoise_patches,
    empirical_stats,
    mse_filter,
)
from csim.experiments import add_noise_snr, image_ssim, synthetic_image
from csim.metrics import psnr
from csim.signals import PatchGrid, extract_patches, reassemble


def manual_stats(rng, m, mu_scale=5.0):
    """Directly constructed statistics with a guaranteed-PD covariance."""
    A = rng.standard_normal((m, m))
    cov = A @ A.T + 0.5 * np.eye(m)
    cross = rng.standard_normal(m)
    mu = float(rng.uniform(-mu_scale, mu_scale))
    return PatchStats(
        mu_y=mu,
        autocov=cov[0].copy(),
        cov=cov,
        cross=cross,
        sigma_n_sq=0.0,
        sigma_x_sq=float(cov[0, 0]),
    )


def dense_filter_oracle(stats, rho):
    m = stats.m
    weight = rho * stats.mu_y**2
    system = stats.cov + weight * np.ones((m, m))
    return np.linalg.solve(system, stats.cross + weight * np.ones(m))


# --- empirical statistics -----------------------------------------------------


def test_constant_patch_gives_zero_covariance():
    stats = empirical_stats(np.full(32, 9.0), 4, 0.0)
    np.testing.assert_allclose(stats.cov, np.zeros((4, 4)), atol=1e-12)
    assert stats.mu_y == pytest.approx(9.0)


def test_white_noise_covariance_structure():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(4096) * 3.0
    stats = empirical_stats(y, 5, 0.0)
    sample_var = float(y.var(ddof=1))
    assert stats.autocov[0] == pytest.approx(sample_var, rel=1e-10)
    assert np.all(np.abs(stats.autocov[1:]) < 0.1 * sample_var)


def test_zero_noise_keeps_cross_equal_to_autocov():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(40)
    stats = empirical_stats(y, 6, 0.0)
    np.testing.assert_allclose(stats.cross, stats.autocov)
    assert not stats.floored


def test_noise_variance_shifts_lag_zero_only():
    rng = np.random.default_rng(2)
    y = 10.0 + rng.standard_normal(48)
    stats = empirical_stats(y, 4, 0.3)
    assert stats.cross[0] == pytest.approx(stats.autocov[0] - 0.3)
    np.testing.assert_allclose(stats.cross[1:], stats.autocov[1:])
    assert stats.sigma_x_sq == pytest.approx(stats.cross[0])


def test_excess_noise_variance_floors_and_flags():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(32)
    stats = empirical_stats(y, 3, 100.0)
    assert stats.floored
    assert stats.cross[0] == 0.0
    assert stats.sigma_x_sq == 0.0


def test_patch_too_short_rejected():
    with pytest.raises(ValueError):
        empirical_stats(np.zeros(11), 6, 0.0)
    with pytest.raises(ValueError):
        empirical_stats(np.zeros(16), 6, -1.0)


def test_stats_have_the_bits_of_a_per_lag_loop():
    rng = np.random.default_rng(9)
    for n, m in ((16, 8), (64, 6), (37, 5)):
        y = np.round(rng.uniform(0.0, 255.0, n))
        mu = float(y.mean())
        dev = y - mu
        autocov = [float(dev[: n - lag] @ dev[lag:]) / (n - lag - 1) for lag in range(m)]
        stats = empirical_stats(y, m, 30.0)
        assert stats.mu_y == mu
        assert stats.autocov.tolist() == autocov
        assert stats.cross[0] == max(autocov[0] - 30.0, 0.0)


def test_cov_is_toeplitz():
    rng = np.random.default_rng(4)
    stats = empirical_stats(rng.standard_normal(64), 5, 0.0)
    for i in range(5):
        for j in range(5):
            assert stats.cov[i, j] == stats.autocov[abs(i - j)]


# --- filters ------------------------------------------------------------------


def test_noiseless_order_one_filter_is_identity():
    rng = np.random.default_rng(5)
    y = 20.0 + rng.standard_normal(16)
    fir = mse_filter(empirical_stats(y, 1, 0.0))
    assert fir.taps.shape == (1,)
    assert fir.taps[0] == pytest.approx(1.0, abs=1e-10)


def test_mse_filter_matches_dense_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        stats = manual_stats(rng, 6)
        np.testing.assert_allclose(
            mse_filter(stats).taps, dense_filter_oracle(stats, 1.0), atol=1e-10
        )


def test_csim_filter_matches_dense_oracle():
    rng = np.random.default_rng(7)
    params = CsimParams.defaults(64)  # quarter ratio
    rho = params.mean_weight / params.var_weight
    for _ in range(100):
        stats = manual_stats(rng, 6)
        np.testing.assert_allclose(
            csim_filter(stats, params).taps,
            dense_filter_oracle(stats, rho),
            atol=1e-10,
        )


def test_equal_weights_reduce_to_wiener_hopf():
    rng = np.random.default_rng(8)
    params = CsimParams(3.0, 3.0, 8)
    for _ in range(200):
        stats = manual_stats(rng, 5)
        np.testing.assert_allclose(
            csim_filter(stats, params).taps, mse_filter(stats).taps, atol=1e-12
        )


def test_filter_norm_shrinks_with_noise_variance_on_white_patch():
    rng = np.random.default_rng(3)
    y = 50.0 + 4.0 * rng.standard_normal(64)
    c0 = empirical_stats(y, 6, 0.0).autocov[0]
    norms = [
        float(np.linalg.norm(mse_filter(empirical_stats(y, 6, sn)).taps))
        for sn in np.linspace(0.0, 0.95 * c0, 12)
    ]
    assert np.all(np.diff(norms) <= 1e-12)
    assert norms[-1] < norms[0]


def test_singular_stats_get_floored_not_crashed():
    # constant patch: zero covariance, rank-one system, floor kicks in
    fir = mse_filter(empirical_stats(np.full(16, 5.0), 3, 0.0))
    assert np.all(np.isfinite(fir.taps))
    assert float(fir.taps.sum()) == pytest.approx(1.0, abs=1e-6)


def test_fir_filter_validation():
    with pytest.raises(ValueError):
        FirFilter(np.array([np.nan]))
    with pytest.raises(ValueError):
        FirFilter(np.zeros((2, 2)))


def test_singular_stats_still_singular_after_floor_raise():
    stats = PatchStats(
        mu_y=0.0,
        autocov=-np.ones(3),
        cov=-np.eye(3),
        cross=np.ones(3),
        sigma_n_sq=0.0,
        sigma_x_sq=0.0,
    )
    with pytest.raises(SingularStatsError):
        mse_filter(stats)


def test_nan_stats_raise_on_the_taps():
    cov = np.eye(3)
    cov[1, 1] = np.nan
    stats = PatchStats(
        mu_y=1.0, autocov=np.ones(3), cov=cov, cross=np.ones(3), sigma_n_sq=0.0, sigma_x_sq=1.0
    )
    with pytest.raises(ValueError, match="finite"):
        mse_filter(stats)


# --- row-stacked pass ----------------------------------------------------------


def _one_patch(patch, m, sigma_n_sq, params):
    stats = empirical_stats(patch, m, sigma_n_sq)
    fir = mse_filter(stats) if params is None else csim_filter(stats, params)
    return apply_fir(patch, fir), stats.floored


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=1, max_value=9),
    m=st.integers(min_value=1, max_value=8),
    length=st.integers(min_value=16, max_value=64),
    sigma_n_sq=st.sampled_from([0.0, 25.0, 400.0, 2500.0]),
    csim=st.booleans(),
)
def test_stacked_rows_have_the_bits_of_one_patch_filters(
    seed, rows, m, length, sigma_n_sq, csim
):
    rng = np.random.default_rng(seed)
    patches = np.round(rng.uniform(1.0, 255.0, (rows, 1)) + rng.normal(0.0, 30.0, (rows, length)))
    patches[rng.random(rows) < 0.2] = float(rng.integers(1, 256))  # some constant rows
    params = CsimParams.defaults(length) if csim else None
    try:
        expected = [_one_patch(patch, m, sigma_n_sq, params) for patch in patches]
    except SingularStatsError:
        with pytest.raises(SingularStatsError):
            denoise_patches(patches, m, sigma_n_sq, params)
        return
    order = rng.permutation(rows)
    for stack in (patches, patches[order]):
        filtered, floored = denoise_patches(stack, m, sigma_n_sq, params)
        want = expected if stack is patches else [expected[i] for i in order]
        assert filtered.tobytes() == np.stack([out for out, _ in want]).tobytes()
        assert floored.tolist() == [flag for _, flag in want]


def _close(taps, exact, rel=1e-12) -> bool:
    return float(np.linalg.norm(taps - exact)) <= rel * float(np.linalg.norm(exact))


def test_only_rows_that_are_not_positive_definite_get_the_floor():
    rng = np.random.default_rng(11)
    patches = np.round(100.0 + 20.0 * rng.standard_normal((6, 64)))
    patches[[1, 4]] = [[7.0], [200.0]]  # constant rows: a rank-one system
    mu, _, cov, cross, _ = csim.denoise._stack_stats(patches, 6, 25.0)
    taps = csim.denoise._stack_taps(mu, cov, cross, 0.25)
    for i in range(6):
        weight = 0.25 * (mu[i] * mu[i])
        system, rhs = cov[:, :, i] + weight, cross[:, i] + weight
        if i in (1, 4):
            scale = np.trace(cov[:, :, i]) + 6 * (mu[i] * mu[i])
            system += 1e-10 * scale * np.eye(6)
            # rank one plus the floor, condition number about 2.5e9: two
            # solvers agree to about 1e-8 in the taps, but each leaves a
            # residual at rounding level, which the floor moves by 4e-10
            residual = np.linalg.norm(system @ taps[:, i] - rhs)
            assert residual <= 1e-12 * np.linalg.norm(system, 2) * np.linalg.norm(taps[:, i]), i
        else:
            assert _close(taps[:, i], np.linalg.solve(system, rhs)), i


def test_a_row_with_an_indefinite_cov_but_a_definite_system_is_not_floored():
    # cov has eigenvalue -0.2 along the ones vector, which the mean term
    # lifts: cov + J has eigenvalues 1.8 and 2.2
    cov = np.array([[[1.0, -1.2], [-1.2, 1.0]], [[2.0, 0.5], [0.5, 2.0]]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov[0])
    mu, cross = np.array([2.0, 3.0]), np.array([[0.5, -0.25], [1.0, 0.5]])
    taps = csim.denoise._stack_taps(mu, cov.transpose(1, 2, 0), cross.T, 0.25)
    weight = 0.25 * mu * mu
    for i in range(2):
        assert _close(taps[:, i], np.linalg.solve(cov[i] + weight[i], cross[i] + weight[i])), i
    # the floor would move the taps by about 1e-10 relative
    floored = cov[0] + weight[0] + 1e-10 * (np.trace(cov[0]) + 2 * mu[0] ** 2) * np.eye(2)
    assert not _close(taps[:, 0], np.linalg.solve(floored, cross[0] + weight[0]))


@st.composite
def _definite_systems(draw):
    """A Toeplitz cov from a nonnegative cosine spectrum plus a nugget
    (so its eigenvalues lie in [nugget, nugget + m * power]), with mean
    term and cross vector."""
    m = draw(st.integers(min_value=1, max_value=32))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    power = rng.uniform(0.0, 1.0, 4)
    lags = np.arange(m)
    autocov = power @ np.cos(np.outer(rng.uniform(0.0, np.pi, 4), lags))
    autocov[0] += rng.uniform(0.5, 2.0) * power.sum() + 0.1
    cov = autocov[np.abs(lags[:, None] - lags)]
    mu = rng.uniform(-3.0, 3.0)
    return mu, cov, rng.standard_normal(m), draw(st.sampled_from([0.25, 1.0]))


@settings(max_examples=200, deadline=None)
@given(system=_definite_systems())
def test_taps_match_a_dense_solve_on_definite_systems(system):
    mu, cov, cross, mean_over_var = system
    taps = csim.denoise._stack_taps(np.array([mu]), cov[..., None], cross[:, None], mean_over_var)
    weight = mean_over_var * mu * mu
    assert _close(taps[:, 0], np.linalg.solve(cov + weight, cross + weight))


def test_a_row_still_singular_after_the_floor_fails_the_whole_stack():
    rng = np.random.default_rng(12)
    patches = np.round(100.0 + 20.0 * rng.standard_normal((5, 64)))
    # at order 32 the unbiased autocovariance of row 4 is indefinite; with
    # zero mean the system is cov alone, and the floor does not make it
    # definite
    patches[4] -= patches[4].mean()
    with pytest.raises(SingularStatsError):
        denoise_patches(patches, 32, 25.0)
    cov = np.stack([np.eye(4)] * 3, axis=-1)
    cov[:, :, 1] = -np.eye(4)  # negative definite; a negative floor keeps it so
    with pytest.raises(SingularStatsError):
        csim.denoise._stack_taps(np.zeros(3), cov, np.ones((4, 3)), 1.0)


def test_an_all_zero_row_gets_zero_taps_and_the_others_keep_their_bits():
    rng = np.random.default_rng(12)
    patches = np.round(100.0 + 20.0 * rng.standard_normal((5, 64)))
    for params in (None, CsimParams.defaults(64)):
        expected, floored = denoise_patches(patches, 6, 25.0, params)
        mixed = patches.copy()
        mixed[2] = 0.0  # zero mean and covariance: the floor is scaled by 1
        filtered, mixed_floored = denoise_patches(mixed, 6, 25.0, params)
        assert not filtered[2].any()
        keep = [0, 1, 3, 4]
        assert filtered[keep].tobytes() == expected[keep].tobytes()
        assert mixed_floored[keep].tolist() == floored[keep].tolist()
        assert mixed_floored[2]


# --- blocks of rows --------------------------------------------------------------

BLOCK = csim.denoise._BLOCK_ROWS


def _mixed_patches(rows, seed):
    """Rows of every kind: noisy, low-variance (floored at sigma_n_sq 400)
    and constant (given the diagonal floor)."""
    rng = np.random.default_rng(seed)
    spread = rng.choice([2.0, 10.0, 40.0], size=(rows, 1))
    patches = np.round(rng.uniform(20.0, 235.0, (rows, 1)) + spread * rng.standard_normal((rows, 64)))
    patches[rng.random(rows) < 0.05] = 117.0
    return patches


@pytest.mark.parametrize("rows", [BLOCK + 1, 3 * BLOCK + 37], ids=["block-plus-one", "blocks-plus-rest"])
def test_blocked_rows_have_the_bits_of_one_patch_filters(rows):
    patches = _mixed_patches(rows, rows)
    for params in (None, CsimParams.defaults(64)):
        filtered, floored = denoise_patches(patches, 6, 400.0, params)
        expected = [_one_patch(patch, 6, 400.0, params) for patch in patches]
        assert filtered.tobytes() == np.stack([out for out, _ in expected]).tobytes()
        assert floored.tolist() == [flag for _, flag in expected]
        assert 0 < floored.sum() < rows


def test_an_empty_stack_gives_empty_outputs_and_still_checks_its_arguments():
    filtered, floored = denoise_patches(np.empty((0, 64)), 6, 400.0)
    assert filtered.shape == (0, 64) and floored.shape == (0,) and floored.dtype == bool
    with pytest.raises(ValueError, match="too short"):
        denoise_patches(np.empty((0, 8)), 6, 400.0)
    with pytest.raises(ValueError, match="nonnegative"):
        denoise_patches(np.empty((0, 64)), 6, -1.0)


def test_a_row_singular_in_a_later_block_fails_the_whole_stack():
    rng = np.random.default_rng(12)
    singular = np.round(100.0 + 20.0 * rng.standard_normal((5, 64)))[4]
    singular -= singular.mean()  # see the test above
    patches = np.zeros((2 * BLOCK + 3, 64))  # all-zero rows: floored, then definite
    denoise_patches(patches, 32, 25.0)
    patches[2 * BLOCK + 1] = singular
    with pytest.raises(SingularStatsError):
        denoise_patches(patches, 32, 25.0)


def test_denoise_patches_allocates_blocks_not_stack_sized_temporaries():
    patches = np.random.default_rng(14).uniform(0.0, 255.0, (8192, 64))
    tracemalloc.start()
    try:
        filtered, floored = denoise_patches(patches, 6, 400.0, CsimParams.defaults(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two outputs and a fixed budget for one block's temporaries; a
    # single pass over the stack peaks at about 11.5 MiB
    assert peak < filtered.nbytes + floored.nbytes + 2 * 2**20


def test_denoise_patches_leaves_its_input_stack_as_it_was():
    patches = _mixed_patches(BLOCK + 9, 15)
    before = patches.copy()
    for params in (None, CsimParams.defaults(64)):
        filtered, _ = denoise_patches(patches, 6, 400.0, params)
        assert not np.shares_memory(filtered, patches)
        assert patches.tobytes() == before.tobytes()


# (8, 8) and (16, 8) are one patch wide, so their stack is a reshape of the image
@pytest.mark.parametrize(
    "shape, view",
    [((8, 8), True), ((16, 8), True), ((8, 16), False), ((64, 64), False), ((60, 68), False)],
    ids=["8x8", "16x8", "8x16", "64x64", "60x68"],
)
def test_denoise_image_leaves_the_image_as_it_was_and_has_the_bits_of_denoise_patches(shape, view):
    rng = np.random.default_rng(shape[1])
    image = np.round(synthetic_image(*shape, seed=shape[0]) + 10.0 * rng.standard_normal(shape))
    before = image.copy()
    grid = PatchGrid(*shape, side=8)
    assert np.shares_memory(extract_patches(image, grid), image) == view
    params = CsimParams.defaults(64)
    for method in ("mse", "csim"):
        out = denoise_image(image, 6, 100.0, params, method)
        assert image.tobytes() == before.tobytes(), method
        stack = extract_patches(image, grid)
        filtered, _ = denoise_patches(stack, 6, 100.0, params if method == "csim" else None)
        assert out.tobytes() == reassemble(filtered, grid).tobytes(), method


def test_denoise_image_filters_its_stack_in_place():
    image = np.random.default_rng(15).uniform(0.0, 255.0, (512, 512))
    tracemalloc.start()
    try:
        out = denoise_image(image, 6, 400.0, CsimParams.defaults(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The stack, then the stack and the output: one block's temporaries
    # (at most 2 MiB, the budget above) come and go beside the stack
    # alone.  Filtering into a second stack peaks at about 5 MiB.
    assert peak < max(image.nbytes + 2 * 2**20, 2 * image.nbytes) + 2**18
    assert out.shape == image.shape


def test_positive_definite_test_agrees_with_lapack_cholesky():
    rng = np.random.default_rng(13)
    Q = rng.standard_normal((300, 5, 5))
    eigs = rng.uniform(-1.0, 3.0, (300, 5))
    A = np.einsum("bij,bj,bkj->bik", Q, eigs, Q)
    A = (A + A.transpose(0, 2, 1)) / 2
    A[:10] = 0.0
    expected = []
    for a in A:
        try:
            np.linalg.cholesky(a)
            expected.append(True)
        except np.linalg.LinAlgError:
            expected.append(False)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ok = csim.denoise._cholesky(np.ascontiguousarray(A.transpose(1, 2, 0)))
    assert ok.tolist() == expected


# --- convolution and image pipeline --------------------------------------------


def test_apply_fir_is_zero_padded_causal_convolution():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    fir = FirFilter(np.array([0.5, 0.25]))
    out = apply_fir(y, fir)
    expected = [0.5 * 1, 0.5 * 2 + 0.25 * 1, 0.5 * 3 + 0.25 * 2, 0.5 * 4 + 0.25 * 3]
    np.testing.assert_allclose(out, expected)


def test_denoise_identity_regime():
    image = synthetic_image(32, 32, seed=0).astype(float)
    out = denoise_image(image, m=1, sigma_n_sq=0.0, method="mse")
    np.testing.assert_allclose(out, image, atol=1e-6)


def test_denoise_methods_coincide_at_equal_weights():
    image = synthetic_image(32, 32, seed=1).astype(float)
    noisy = add_noise_snr(image, 5.0, seed=2)
    var = float(image.var()) / 10.0 ** 0.5
    a = denoise_image(noisy, 6, var, CsimParams(2.0, 2.0, 12), "csim")
    b = denoise_image(noisy, 6, var, None, "mse")
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_denoise_improves_psnr_at_low_snr():
    image = synthetic_image(64, 64, seed=3).astype(float)
    noisy = add_noise_snr(image, 1.0, seed=4)
    noise_var = float(image.var()) / 10.0 ** 0.1
    out_mse = denoise_image(noisy, 6, noise_var, None, "mse")
    out_csim = denoise_image(noisy, 6, noise_var, CsimParams.defaults(64), "csim")
    base = psnr(noisy, image)
    assert psnr(out_mse, image) > base
    assert psnr(out_csim, image) > base


def _dense_solve_denoise(image, m, sigma_n_sq, mean_over_var):
    """``denoise_image`` one patch at a time, with LAPACK's Cholesky test
    and dense solve of each system and ``np.convolve`` for the filter."""
    grid = PatchGrid(*image.shape, side=8)
    filtered = []
    for patch in extract_patches(image, grid):
        stats = empirical_stats(patch, m, sigma_n_sq)
        weight = mean_over_var * stats.mu_y**2
        system = stats.cov + weight
        try:
            np.linalg.cholesky(system)
        except np.linalg.LinAlgError:
            scale = np.trace(stats.cov) + m * stats.mu_y**2
            system = system + 1e-10 * (scale or 1.0) * np.eye(m)
        taps = np.linalg.solve(system, stats.cross + weight)
        filtered.append(np.convolve(patch, taps)[: patch.size])
    return reassemble(np.array(filtered), grid)


@pytest.mark.parametrize("m", [1, 6, 12])
@pytest.mark.parametrize("shape", [(64, 64), (60, 68)], ids=["tiled", "clamped"])
def test_denoised_pixels_equal_a_per_patch_dense_solve_pipeline(shape, m):
    clean = synthetic_image(*shape, seed=shape[1]).astype(float)
    noisy = np.clip(np.round(clean + 10.0 * np.random.default_rng(m).standard_normal(shape)), 0, 255)
    params = CsimParams.defaults(64)
    for method, mean_over_var in (("mse", 1.0), ("csim", params.mean_weight / params.var_weight)):
        got = denoise_image(noisy, m, 100.0, params, method)
        want = _dense_solve_denoise(noisy, m, 100.0, mean_over_var)
        assert np.array_equal(np.round(got), np.round(want)), method


def test_denoise_validates_arguments():
    image = np.zeros((16, 16))
    with pytest.raises(ValueError):
        denoise_image(image, 2, 0.1, None, "bogus")
    with pytest.raises(ValueError):
        denoise_image(image, 2, 0.1, None, "csim")


def test_denoise_patches_needs_a_patch_stack():
    with pytest.raises(ValueError):
        denoise_patches(np.zeros(64), 6, 1.0)


def test_image_ssim_helper_perfect_match():
    image = synthetic_image(32, 32, seed=5).astype(float)
    assert image_ssim(image, image) == pytest.approx(1.0, rel=1e-12)
