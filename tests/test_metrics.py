import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csim.experiments
from csim.metrics import image_ssim, mse, psnr, relative_error, ssim_global


def test_mse_and_psnr_offset_by_one():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 255, size=100).astype(float)
    y = x + 1.0
    assert mse(x, y) == pytest.approx(1.0)
    assert psnr(x, y, 255.0) == pytest.approx(10.0 * math.log10(255.0**2), rel=1e-12)


def test_image_ssim_is_the_mean_tile_ssim_and_experiments_shares_it():
    # csim.experiments.image_ssim must stay the same object: the
    # benchmark's trace (perfbench/spans.py) wraps it under that name.
    assert csim.experiments.image_ssim is image_ssim
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 255, size=(16, 8))
    b = a + rng.normal(0, 20, size=a.shape)
    tiles = [ssim_global(a[r : r + 8].reshape(-1), b[r : r + 8].reshape(-1)) for r in (0, 8)]
    assert image_ssim(a, b) == pytest.approx(np.mean(tiles), rel=1e-12)


def test_psnr_identical_is_infinite():
    x = np.arange(8.0)
    assert mse(x, x) == 0.0
    assert math.isinf(psnr(x, x))


def test_psnr_matches_two_line_recomputation():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 255, 64)
    y = rng.uniform(0, 255, 64)
    err = float(np.mean((x - y) ** 2))
    assert psnr(x, y, 255.0) == pytest.approx(10.0 * math.log10(255.0**2 / err))


def test_psnr_decreases_with_mse():
    x = np.zeros(16)
    small = psnr(x, x + 1.0, 255.0)
    large = psnr(x, x + 2.0, 255.0)
    assert large < small


def test_psnr_validates_inputs():
    with pytest.raises(ValueError):
        psnr(np.zeros(4), np.zeros(5))
    with pytest.raises(ValueError):
        psnr(np.zeros(4), np.zeros(4), peak=0.0)


def test_ssim_identical_is_one():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 255, 64)
    assert ssim_global(x, x) == pytest.approx(1.0, rel=1e-12)


def test_ssim_anticorrelated_goes_negative():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(256) * 50.0
    x -= x.mean()
    value = ssim_global(x, -x)
    assert value < 0.0
    # exact closed form at zero means: structure term only
    n = x.size
    var = float(x @ x) / (n - 1)
    c2 = (0.03 * 255.0) ** 2
    assert value == pytest.approx((-2.0 * var + c2) / (2.0 * var + c2), rel=1e-10)


def test_ssim_prefers_luminance_shift_over_noise():
    # equal-MSE comparison on a smooth ramp: a constant shift keeps
    # structure, equal-energy noise destroys it
    rng = np.random.default_rng(4)
    x = np.linspace(0, 200, 256)
    shift = 10.0
    noise = rng.standard_normal(256)
    noise *= shift / math.sqrt(float(np.mean(noise**2)))
    shifted = ssim_global(x, x + shift)
    noisy = ssim_global(x, x + noise)
    assert mse(x, x + shift) == pytest.approx(mse(x, x + noise), rel=1e-12)
    assert shifted > noisy


def test_relative_error_basic_values():
    s = np.array([1.0, -2.0, 3.0])
    assert relative_error(s, s) == 0.0
    assert relative_error(np.zeros(3), s) == pytest.approx(1.0)
    assert relative_error(2.0 * s, s) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(s, np.zeros(3))


def test_relative_error_scale_invariance():
    rng = np.random.default_rng(5)
    s = rng.standard_normal(32)
    s_hat = rng.standard_normal(32)
    assert relative_error(3.7 * s_hat, 3.7 * s) == pytest.approx(
        relative_error(s_hat, s), rel=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_ssim_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 255, 32)
    y = rng.uniform(0, 255, 32)
    a = ssim_global(x, y)
    b = ssim_global(y, x)
    assert a == pytest.approx(b, rel=1e-12)
    assert abs(a) <= 1.0 + 1e-12
