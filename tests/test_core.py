import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csim.core import (
    DEFAULT_RATIO,
    CsimParams,
    apply_kernel,
    apply_kernel_sqrt,
    csim_pair,
    csim_stats,
    kernel_eigenvalues,
    quadratic_form,
    sensitivity_ratio,
)


def dense_kernel_matrix(params):
    """Oracle: materialize W from the statistical definition, using the
    centering matrix squared rather than the production coefficients."""
    n = params.n
    centering = np.eye(n) - np.ones((n, n)) / n
    return params.mean_weight * np.ones((n, n)) / n**2 + (
        params.var_weight / (n - 1)
    ) * (centering.T @ centering)


def random_params(rng, n):
    return CsimParams(
        mean_weight=float(rng.uniform(0.1, 5.0)),
        var_weight=float(rng.uniform(0.1, 10.0)),
        n=n,
    )


def test_params_validation():
    with pytest.raises(ValueError):
        CsimParams(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        CsimParams(1.0, -1.0, 4)
    with pytest.raises(ValueError):
        CsimParams(1.0, 1.0, 1)


def test_defaults_follow_reference_protocol():
    p = CsimParams.defaults(64)
    assert p.var_weight == 63.0
    assert p.mean_weight == pytest.approx(0.25 * 63.0)


@pytest.mark.parametrize("n", [2, 3, 12, 64, 1000])
def test_defaults_are_the_default_ratio_with_the_bits_of_a_quarter(n):
    assert CsimParams.defaults(n) == CsimParams.for_ratio(DEFAULT_RATIO, n)
    assert CsimParams.defaults(n).mean_weight == 0.25 * (n - 1)
    p = CsimParams.for_ratio(2.5, n)
    assert p.var_weight == n - 1 and p.mean_weight == (n - 1) / 2.5


def test_zero_residual_scores_zero():
    p = CsimParams(1.0, 3.0, 4)
    assert csim_stats(np.zeros(4), p) == 0.0


def test_constant_residual_keeps_only_mean_term():
    p = CsimParams(1.0, 3.0, 4)
    assert csim_stats(2.0 * np.ones(4), p) == pytest.approx(4.0, abs=1e-12)


def test_stats_equals_dense_quadratic_form():
    rng = np.random.default_rng(7)
    p = CsimParams(1.0, 3.0, 8)
    e = rng.standard_normal(8)
    dense = float(e @ dense_kernel_matrix(p) @ e)
    assert csim_stats(e, p) == pytest.approx(dense, abs=1e-12)
    assert quadratic_form(e, p) == pytest.approx(dense, abs=1e-12)


def test_quadratic_form_on_ones_and_mean_zero():
    p = CsimParams(1.0, 3.0, 4)
    W = dense_kernel_matrix(p)
    ones = np.ones(4)
    assert quadratic_form(ones, p) == pytest.approx(float(ones @ W @ ones), abs=1e-12)
    assert quadratic_form(ones, p) == pytest.approx(1.0, abs=1e-12)
    perp = np.array([1.0, -1.0, 0.0, 0.0])
    assert quadratic_form(perp, p) == pytest.approx(float(perp @ W @ perp), abs=1e-12)
    assert quadratic_form(perp, p) == pytest.approx(2.0, abs=1e-12)
    assert quadratic_form(np.zeros(4), p) == 0.0


def test_pair_symmetry_and_identity():
    rng = np.random.default_rng(3)
    p = random_params(rng, 16)
    x = rng.standard_normal(16)
    y = rng.standard_normal(16)
    assert csim_pair(x, x, p) == 0.0
    assert csim_pair(x, y, p) == pytest.approx(csim_pair(y, x, p), rel=1e-12)


def test_pair_constant_offset():
    rng = np.random.default_rng(4)
    p = CsimParams(1.0, 63.0, 64)
    x = rng.standard_normal(64)
    assert csim_pair(x, x + 0.1, p) == pytest.approx(0.01, abs=1e-12)


def test_apply_kernel_matches_dense_product():
    rng = np.random.default_rng(11)
    p = random_params(rng, 8)
    e = rng.standard_normal(8)
    np.testing.assert_allclose(
        apply_kernel(e, p), dense_kernel_matrix(p) @ e, atol=1e-12
    )


def test_apply_kernel_eigenvectors():
    p = CsimParams(1.0, 3.0, 4)
    np.testing.assert_allclose(
        apply_kernel(np.ones(4), p), 0.25 * np.ones(4), atol=1e-14
    )
    perp = np.array([1.0, -1.0, 0.0, 0.0])
    np.testing.assert_allclose(apply_kernel(perp, p), 1.0 * perp, atol=1e-14)


def test_sqrt_composition_and_energy():
    rng = np.random.default_rng(12)
    for n in (2, 5, 64):
        p = random_params(rng, n)
        e = rng.standard_normal(n)
        np.testing.assert_allclose(
            apply_kernel_sqrt(apply_kernel_sqrt(e, p), p),
            apply_kernel(e, p),
            atol=1e-10,
        )
        half = apply_kernel_sqrt(e, p)
        assert float(half @ half) == pytest.approx(quadratic_form(e, p), rel=1e-10)


def test_sqrt_matches_dense_matrix_root():
    rng = np.random.default_rng(13)
    p = random_params(rng, 8)
    w, V = np.linalg.eigh(dense_kernel_matrix(p))
    root = V @ np.diag(np.sqrt(w)) @ V.T
    e = rng.standard_normal(8)
    np.testing.assert_allclose(apply_kernel_sqrt(e, p), root @ e, atol=1e-10)


def test_sqrt_on_ones():
    p = CsimParams(1.0, 3.0, 4)
    np.testing.assert_allclose(
        apply_kernel_sqrt(np.ones(4), p), 0.5 * np.ones(4), atol=1e-14
    )


def test_eigenvalues_match_dense_decomposition():
    p = CsimParams(1.0, 3.0, 4)
    repeated, mean_dir = kernel_eigenvalues(p)
    assert repeated == pytest.approx(1.0, abs=1e-12)
    assert mean_dir == pytest.approx(0.25, abs=1e-12)
    dense = np.sort(np.linalg.eigvalsh(dense_kernel_matrix(p)))
    expected = np.sort([mean_dir] + [repeated] * 3)
    np.testing.assert_allclose(dense, expected, atol=1e-10)
    # condition number for var-heavy weights
    assert repeated / mean_dir == pytest.approx(3.0 * 4.0 / 3.0, abs=1e-12)


def test_equal_eigenvalue_case():
    # equal eigenvalues need mean_weight/n == var_weight/(n-1)
    n = 6
    var_weight = 2.0
    mean_weight = var_weight * n / (n - 1)
    p = CsimParams(mean_weight, var_weight, n)
    repeated, mean_dir = kernel_eigenvalues(p)
    assert repeated == pytest.approx(mean_dir, rel=1e-12)
    dense = np.linalg.eigvalsh(
        dense_kernel_matrix(CsimParams(mean_weight, var_weight, n))
    )
    assert dense.max() / dense.min() == pytest.approx(1.0, rel=1e-10)


def test_sensitivity_ratio_closed_form_and_trace_oracle():
    p_equal = CsimParams(2.0, 2.0, 4)
    assert sensitivity_ratio(p_equal) == pytest.approx(1.25, abs=1e-12)
    p_three = CsimParams(1.0, 3.0, 4)
    assert sensitivity_ratio(p_three) == pytest.approx(3.25, abs=1e-12)
    for p in (p_equal, p_three):
        W = dense_kernel_matrix(p)
        oracle = np.trace(W) / float(np.ones(p.n) @ W @ np.ones(p.n))
        assert sensitivity_ratio(p) == pytest.approx(oracle, rel=1e-12)


def test_sensitivity_ratio_monte_carlo():
    # i.i.d. +/-a residual versus the constant-a residual, 1e5 draws.
    n = 64
    p = CsimParams.defaults(n)
    rng = np.random.default_rng(2024)
    draws = rng.choice([-1.0, 1.0], size=(100_000, n))
    means = draws.mean(axis=1)
    devs = draws - means[:, None]
    values = p.mean_weight * means**2 + p.var_weight / (n - 1) * np.sum(
        devs * devs, axis=1
    )
    estimate = float(values.mean()) / csim_stats(np.ones(n), p)
    closed = sensitivity_ratio(p)
    assert abs(estimate - closed) / closed < 0.02


def test_noise_bias_direction():
    # expected index of the random residual exceeds the constant one
    n = 32
    p = CsimParams.defaults(n)  # var_weight > mean_weight
    assert sensitivity_ratio(p) > 1.0


def test_dimension_mismatch_errors():
    p = CsimParams(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        csim_stats(np.zeros(5), p)
    with pytest.raises(ValueError):
        quadratic_form(np.zeros(3), p)
    with pytest.raises(ValueError):
        csim_pair(np.zeros(4), np.zeros(5), p)
    with pytest.raises(ValueError):
        apply_kernel(np.zeros((2, 2)), p)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=50),
    mean_weight=st.floats(min_value=0.01, max_value=100.0),
    var_weight=st.floats(min_value=0.01, max_value=100.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_two_path_equality_property(n, mean_weight, var_weight, seed):
    p = CsimParams(mean_weight, var_weight, n)
    e = np.random.default_rng(seed).uniform(-10.0, 10.0, size=n)
    a = csim_stats(e, p)
    b = quadratic_form(e, p)
    assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_positive_definiteness_property(n, seed):
    rng = np.random.default_rng(seed)
    p = random_params(rng, n)
    e = rng.standard_normal(n)
    if not np.any(e):
        e[0] = 1.0
    assert quadratic_form(e, p) > 0.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    c=st.floats(min_value=-5.0, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_brightness_insensitivity_property(n, c, seed):
    rng = np.random.default_rng(seed)
    p = random_params(rng, n)
    x = rng.uniform(-3.0, 3.0, size=n)
    value = csim_pair(x, x + c, p)
    assert value == pytest.approx(p.mean_weight * c * c, rel=1e-9, abs=1e-12)
