import math

import numpy as np
import pytest

from csim.core import CsimParams
from csim.dictionaries import dct_dictionary, haar_wp_dictionary
from csim.paramselect import (
    KappaBound,
    RipBound,
    condition_number,
    kappa_ratio_bound,
    mutual_coherence,
    rip_ratio_bound,
    select_ratio,
    verify_rip_bruteforce,
)


def random_normalized(rng, n, p):
    A = rng.standard_normal((n, p))
    return A / np.linalg.norm(A, axis=0)


# --- mutual coherence ---------------------------------------------------


def test_coherence_of_identity_basis_is_zero():
    assert mutual_coherence(np.eye(6)) == 0.0


def test_coherence_of_duplicated_column_is_one():
    atoms = np.eye(5)[:, :3].copy()
    atoms[:, 2] = atoms[:, 0]
    assert mutual_coherence(atoms) == pytest.approx(1.0, abs=1e-12)


def test_coherence_matches_exhaustive_double_loop():
    rng = np.random.default_rng(5)
    atoms = random_normalized(rng, 8, 12)
    best = 0.0
    for i in range(12):
        for j in range(12):
            if i != j:
                best = max(best, abs(float(atoms[:, i] @ atoms[:, j])))
    assert mutual_coherence(atoms) == pytest.approx(best, rel=1e-12)


def test_coherence_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mutual_coherence(np.ones((4, 1)))
    with pytest.raises(ValueError):
        mutual_coherence(2.0 * np.eye(4))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_unit_norm_checks_reject_a_non_finite_atom(value):
    atoms = np.eye(4)
    atoms[1, 2] = value
    with pytest.raises(ValueError, match="unit norm"):
        mutual_coherence(atoms)
    with pytest.raises(ValueError, match="unit norm"):
        verify_rip_bruteforce(atoms, CsimParams.defaults(4), 2)


# --- condition number ----------------------------------------------------


def test_condition_number_simple_cases():
    assert condition_number(np.eye(5)) == pytest.approx(1.0)
    assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        condition_number(np.zeros((3, 3)))


def test_condition_number_matches_gram_eigenvalue_oracle():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((6, 4))
    eigs = np.sort(np.linalg.eigvalsh(A.T @ A))
    oracle = math.sqrt(eigs[-1] / eigs[0])
    assert condition_number(A) == pytest.approx(oracle, rel=1e-10)


def test_condition_number_submultiplicative():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = rng.standard_normal((6, 5))
        B = rng.standard_normal((5, 4))
        assert condition_number(A @ B) <= condition_number(A) * condition_number(
            B
        ) * (1.0 + 1e-9)


# --- condition-number ratio bound ----------------------------------------


def _kappa_constants_oracle(atoms):
    """Independent evaluation of the two closed-form constants."""
    n = atoms.shape[0]
    svals = np.linalg.svd(atoms, compute_uv=False)
    kappa = svals[0] / svals[-1]
    rowsum = float(np.ones(n) @ atoms @ atoms.T @ np.ones(n))
    scaled = rowsum / (n * svals[0] ** 2)
    xi = kappa * (n / (n - 1)) * (1.0 / kappa**2 - scaled)
    nu = kappa * scaled
    return xi, nu


@pytest.mark.parametrize("ratio_upper", [None, 2.5])
def test_feasibility_is_whether_a_bound_gives_a_ratio(ratio_upper):
    kappa = KappaBound(ratio_coef=1.0, constant=0.5, kappa_max=4.0, ratio_upper=ratio_upper)
    rip = RipBound(1.0, 2.0, None, 0.4, 4, 0.0, ratio_upper)
    assert kappa.feasible == rip.feasible == (ratio_upper is not None)


def test_kappa_bound_orthonormal_square_is_infeasible():
    # the bound's gap is exactly 0 here; rounding leaves it at about
    # +2e-16 on DCT 2, which must not read as a positive coefficient
    cases = [(dct_dictionary, n) for n in range(2, 129)]
    cases += [(haar_wp_dictionary, 2**k) for k in range(1, 8)]
    for build, n in cases:
        bound = kappa_ratio_bound(build(n, n), 4.0)
        assert not bound.feasible, (build.__name__, n)
        assert bound.ratio_upper is None
        assert "not positive" in bound.reason
        assert bound.ratio_coef == 0.0
        assert bound.constant == pytest.approx(1.0, abs=1e-10)


def test_kappa_bound_matches_independent_evaluation():
    rng = np.random.default_rng(9)
    atoms = random_normalized(rng, 16, 8)
    bound = kappa_ratio_bound(atoms, 4.0)
    xi, nu = _kappa_constants_oracle(atoms)
    assert bound.ratio_coef == pytest.approx(xi, rel=1e-10)
    assert bound.constant == pytest.approx(nu, rel=1e-10)
    if bound.feasible:
        assert bound.ratio_upper == pytest.approx((4.0 - nu) / xi, rel=1e-10)
        assert bound.ratio_upper > 1.0


def test_kappa_bound_cap_too_small_reports_infeasible():
    atoms = np.eye(16)[:, :8]
    xi, nu = _kappa_constants_oracle(atoms)
    bound = kappa_ratio_bound(atoms, 0.9 * (xi + nu))
    assert not bound.feasible
    assert bound.ratio_upper is None
    assert "kappa_max" in bound.reason
    assert bound.ratio_coef == pytest.approx(xi, rel=1e-10)


def test_kappa_bound_rejects_wide_matrices():
    rng = np.random.default_rng(10)
    bound = kappa_ratio_bound(random_normalized(rng, 8, 16), 4.0)
    assert not bound.feasible
    assert bound.ratio_upper is None
    assert "column rank" in bound.reason
    assert math.isnan(bound.ratio_coef) and math.isnan(bound.constant)


@pytest.mark.parametrize("kappa_max", [math.nan, math.inf, -math.inf])
def test_kappa_bound_rejects_a_cap_that_is_not_finite(kappa_max):
    with pytest.raises(ValueError, match="kappa_max must be finite"):
        kappa_ratio_bound(np.eye(16)[:, :8], kappa_max)


# --- RIP ratio bound -------------------------------------------------------


def test_rip_bound_frozen_example():
    bound = rip_ratio_bound(n=64, k=3, mu=0.0, delta=0.4)
    c1 = 5.0 * 63.0 * 63.0 / 4096.0
    c2 = 5.0 * 63.0 / 64.0
    assert bound.num_coef == pytest.approx(c1, rel=1e-12)
    assert bound.den_coef == pytest.approx(c2, rel=1e-12)
    assert bound.feasible
    assert bound.ratio_upper == pytest.approx(c1 / (c2 - 0.4), rel=1e-12)


def test_rip_bound_zero_coherence_skips_support_condition():
    # with mu = 0 the support-size condition is vacuous even for large k
    bound = rip_ratio_bound(n=64, k=30, mu=0.0, delta=0.4)
    assert bound.violated != "2k > 1 + delta/mu"


def test_rip_bound_small_n_reports_threshold():
    # 0 < mu < delta/(2k-1) but n at most the quadratic-root threshold
    bound = rip_ratio_bound(n=6, k=3, mu=0.05, delta=0.4)
    assert not bound.feasible
    assert bound.violated == "n <= dim_threshold"
    assert bound.dim_threshold is not None and bound.dim_threshold >= 6


def test_rip_bound_high_coherence_reports_slope_condition():
    bound = rip_ratio_bound(n=64, k=3, mu=0.5, delta=0.4)
    assert not bound.feasible
    assert bound.violated == "mu >= delta/(2k-1)"


def test_rip_bound_case_one_regime():
    # k = 2 and delta > 3/4: the discriminant goes negative below the
    # small-coherence root, so every admissible n passes the dimension test
    delta = 0.8
    k = 2
    mu_min = 0.5 * (
        1.0 + delta / 3.0 - math.sqrt(1.0 + (1.0 - delta / 3.0) ** 2)
    )
    assert mu_min > 0.0
    bound = rip_ratio_bound(n=4, k=k, mu=0.5 * mu_min, delta=delta)
    assert bound.dim_threshold is None
    assert bound.feasible


def test_rip_bound_validates_preconditions():
    with pytest.raises(ValueError):
        rip_ratio_bound(n=64, k=1, mu=0.0, delta=0.4)
    with pytest.raises(ValueError):
        rip_ratio_bound(n=3, k=2, mu=0.0, delta=0.4)
    with pytest.raises(ValueError):
        rip_ratio_bound(n=64, k=3, mu=1.5, delta=0.4)
    with pytest.raises(ValueError):
        rip_ratio_bound(n=64, k=3, mu=0.0, delta=0.0)


# --- ratio selection -------------------------------------------------------


def test_select_ratio_min_of_two_feasible_bounds():
    atoms = np.eye(16)[:, :8]
    selection = select_ratio(atoms, kappa_max=4.0, delta=0.4, k=2)
    assert selection.kappa_bound.feasible
    assert selection.rip_bound.feasible
    expected = min(
        selection.kappa_bound.ratio_upper, selection.rip_bound.ratio_upper
    )
    assert selection.ratio == pytest.approx(expected, rel=1e-12)
    assert selection.source == "rip-limited"
    assert selection.ratio > 1.0


def test_select_ratio_kappa_limited_with_tight_cap():
    atoms = np.eye(16)[:, :8]
    xi, nu = _kappa_constants_oracle(atoms)
    kappa_max = xi + nu + 0.05 * xi  # feasible but tighter than the RIP bound
    selection = select_ratio(atoms, kappa_max=kappa_max, delta=0.4, k=2)
    assert selection.kappa_bound.feasible
    assert selection.source == "kappa-limited"
    assert selection.ratio == pytest.approx(
        selection.kappa_bound.ratio_upper, rel=1e-12
    )


def test_select_ratio_rip_only_for_orthonormal_square():
    D = dct_dictionary(64, 64)
    selection = select_ratio(D)
    assert not selection.kappa_bound.feasible
    assert selection.rip_bound.feasible
    assert selection.source == "rip-limited"
    assert selection.k_used == 6


def test_select_ratio_fallback_when_both_infeasible():
    rng = np.random.default_rng(17)
    atoms = random_normalized(rng, 12, 16)  # wide and incoherent enough for neither
    selection = select_ratio(atoms, k=2)
    assert not selection.kappa_bound.feasible
    assert selection.rip_bound is None or not selection.rip_bound.feasible
    assert selection.ratio == 4.0
    assert selection.source == "default-fallback"


# --- brute-force RIP verification ------------------------------------------


def test_bruteforce_identity_kernel_measures_zero():
    # weights that make the kernel the identity: unit repeated eigenvalue
    # and unit all-ones eigenvalue
    n = 8
    params = CsimParams(mean_weight=float(n), var_weight=float(n - 1), n=n)
    measured = verify_rip_bruteforce(np.eye(n), params, two_k=2)
    assert measured == pytest.approx(0.0, abs=1e-12)


def _gct_bound(params, mu, two_k):
    """Independent Gershgorin bound on the measured constant, valid for
    either sign of the rank-one coefficient."""
    n = params.n
    d = params.diag_coef
    o = params.ones_coef
    radius = (two_k - 1) * (
        (abs(d) + abs(o)) * mu + (n - 1) * abs(o)
    )
    upper = d + max(0.0, n * o) + radius
    lower = d + min(0.0, n * o) - radius
    return max(1.0 - lower, upper - 1.0)


def test_bruteforce_below_gershgorin_bound():
    rng = np.random.default_rng(21)
    atoms = random_normalized(rng, 12, 16)
    params = CsimParams.for_ratio(2.0, 12)
    measured = verify_rip_bruteforce(atoms, params, two_k=4)
    mu = mutual_coherence(atoms)
    assert measured <= _gct_bound(params, mu, 4) + 1e-12


def test_bruteforce_matches_direct_enumeration_oracle():
    from itertools import combinations

    rng = np.random.default_rng(22)
    atoms = random_normalized(rng, 6, 8)
    params = CsimParams.for_ratio(3.0, 6)
    measured = verify_rip_bruteforce(atoms, params, two_k=3)
    # oracle: materialize the dense square root and enumerate explicitly
    w, V = np.linalg.eigh(
        params.diag_coef * np.eye(6) + params.ones_coef * np.ones((6, 6))
    )
    root = V @ np.diag(np.sqrt(w)) @ V.T
    weighted = root @ atoms
    worst = 0.0
    for subset in combinations(range(8), 3):
        sub = weighted[:, subset]
        eigs = np.linalg.eigvalsh(sub.T @ sub)
        worst = max(worst, 1.0 - eigs[0], eigs[-1] - 1.0)
    assert measured == pytest.approx(worst, rel=1e-10, abs=1e-12)


def test_bruteforce_budget_guard():
    rng = np.random.default_rng(23)
    atoms = random_normalized(rng, 10, 30)
    params = CsimParams.for_ratio(2.0, 10)
    with pytest.raises(ValueError):
        verify_rip_bruteforce(atoms, params, two_k=10)


def test_closed_form_bound_dominates_measurement_when_feasible():
    # orthonormal basis: zero coherence, the bound is feasible, and the
    # measured constant with the bound-selected ratio stays below target
    n, two_k = 16, 4
    D = dct_dictionary(n, n)
    bound = rip_ratio_bound(n, two_k // 2, D.coherence, 0.4)
    assert bound.feasible
    params = CsimParams.for_ratio(bound.ratio_upper, n)
    measured = verify_rip_bruteforce(D, params, two_k)
    assert measured <= 0.4
