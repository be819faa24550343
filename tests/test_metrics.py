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


def test_ssim_global_rows_have_the_bits_of_per_row_calls():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 255, size=(3, 7, 64))
    y = x + rng.normal(0, 15, size=x.shape)
    rows = ssim_global(x, y, 1.5, 4.0)
    assert rows.shape == (3, 7)
    for index in np.ndindex(3, 7):
        one = ssim_global(x[index], y[index], 1.5, 4.0)
        assert type(one) is float
        assert rows[index] == one


def test_ssim_global_has_the_bits_of_the_scalar_formula():
    rng = np.random.default_rng(4)
    c1, c2 = 6.5025, 58.5225
    for n in (2, 9, 64):
        x = rng.uniform(0, 255, n)
        y = x + rng.normal(0, 25, n)
        mx, my = float(x.mean()), float(y.mean())
        dx, dy = x - mx, y - my
        vx, vy, cov = (float(a @ b) / (n - 1) for a, b in ((dx, dx), (dy, dy), (dx, dy)))
        expected = (2.0 * mx * my + c1) / (mx * mx + my * my + c1) * (
            (2.0 * cov + c2) / (vx + vy + c2)
        )
        assert ssim_global(x, y, c1, c2) == expected


def test_image_ssim_has_the_bits_of_a_per_tile_loop():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 255, size=(37, 29))
    b = np.clip(a + rng.normal(0, 20, size=a.shape), 0, 255)
    # 8x8 tiles: the last 5 rows and 5 columns are left out
    tiles = [
        ssim_global(a[r : r + 8, c : c + 8].reshape(-1), b[r : r + 8, c : c + 8].reshape(-1))
        for r in range(0, 37 - 8 + 1, 8)
        for c in range(0, 29 - 8 + 1, 8)
    ]
    assert image_ssim(a, b) == float(np.mean(tiles))


@pytest.mark.parametrize("shape", [(8 * 70, 8 * 9), (16, 8 * 600)], ids=["bands", "wide"])
def test_image_ssim_in_bands_has_the_bits_of_one_call_on_all_tiles(shape):
    rng = np.random.default_rng(shape[1])
    a = rng.uniform(0, 255, size=shape)
    b = np.clip(a + rng.normal(0, 20, size=shape), 0, 255)
    rows, cols = shape[0] // 8, shape[1] // 8

    def tiles(image):
        return image.reshape(rows, 8, cols, 8).transpose(0, 2, 1, 3).reshape(-1, 64)

    assert image_ssim(a, b) == float(np.mean(ssim_global(tiles(a), tiles(b))))


@pytest.mark.parametrize("shape", [(7, 9), (8, 7), (0, 16)])
def test_image_ssim_rejects_an_image_without_a_whole_tile(shape):
    a = np.zeros(shape)
    with pytest.raises(ValueError, match="8x8 tile"):
        image_ssim(a, a)


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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=80),
)
def test_stacked_scores_have_the_bits_of_per_row_calls(seed, rows, n):
    # numpy's log10 differs from math.log10 in the last bit on a few
    # percent of inputs, so enough rows show a stacked PSNR that uses it
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, (rows, 1))
    truth = scale * rng.standard_normal((rows, n))
    estimate = truth + scale * 10.0 ** rng.uniform(-8, 0, (rows, 1)) * rng.standard_normal((rows, n))
    exact = rng.random(rows) < 0.3
    exact[0] = rows > 1
    estimate[exact] = truth[exact]
    peak = rng.uniform(0.5, 300.0, rows)
    stacked = {
        "mse": mse(estimate, truth, axis=-1),
        "psnr": psnr(estimate, truth, peak, axis=-1),
        "relerr": relative_error(estimate, truth, axis=-1),
    }
    for i in range(rows):
        single = {
            "mse": mse(estimate[i], truth[i]),
            "psnr": psnr(estimate[i], truth[i], float(peak[i])),
            "relerr": relative_error(estimate[i], truth[i]),
        }
        # the one-signal scores, written out
        d = estimate[i] - truth[i]
        err = float(d @ d) / n
        p = float(peak[i])
        assert single["mse"] == err
        assert single["psnr"] == (10.0 * math.log10(p * p / err) if err else math.inf)
        for name, value in single.items():
            assert type(value) is float
            assert np.float64(value).tobytes() == stacked[name][i].tobytes(), name
    assert not stacked["mse"][exact].any()
    assert np.isposinf(stacked["psnr"][exact]).all()
    # the rows of a transposed stack score along the axis named
    assert psnr(estimate.T, truth.T, peak, axis=0).tobytes() == stacked["psnr"].tobytes()


def test_scores_take_whole_arrays_without_an_axis():
    rng = np.random.default_rng(6)
    image = rng.uniform(0, 255, (8, 12))
    noisy = image + rng.standard_normal((8, 12))
    assert mse(noisy, image) == mse(noisy.reshape(-1), image.reshape(-1))
    assert type(psnr(noisy, image)) is float
    assert psnr(noisy, image) == psnr(noisy.reshape(-1), image.reshape(-1))
    assert relative_error(noisy, image) == relative_error(noisy.reshape(-1), image.reshape(-1))
    with pytest.raises(ValueError):
        psnr(noisy, image, np.array([1.0] * 7 + [0.0]), axis=-1)
    with pytest.raises(ValueError):
        relative_error(noisy, np.vstack([image[:7], np.zeros(12)]), axis=-1)
