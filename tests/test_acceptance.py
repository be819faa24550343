"""Acceptance gate: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is either computed by an independent
oracle inside the test or asserted at the tolerance fixed here.
"""

import csv
import io
import time

import numpy as np

from csim.core import (
    CsimParams,
    apply_kernel,
    apply_kernel_sqrt,
    csim_stats,
    kernel_eigenvalues,
    quadratic_form,
    sensitivity_ratio,
)
from csim.denoise import PatchStats, csim_filter, denoise_image, mse_filter
from csim.dictionaries import dct_dictionary
from csim.experiments import (
    ExperimentSpec,
    add_noise_snr,
    image_ssim,
    sweep_sr,
    synthetic_image,
)
from csim.metrics import psnr
from csim.paramselect import (
    rip_ratio_bound,
    verify_rip_bruteforce,
)
from csim.signals import apply_mask, random_mask, substream, synth_sparse_signal
from csim.solver import (
    SolverConfig,
    effective_config,
    kkt_residuals,
    solve,
    x_update,
    z_update,
)


def _report(number: int, message: str) -> None:
    print(f"[criterion {number}] PASS: {message}")


def dense_kernel(params):
    n = params.n
    centering = np.eye(n) - np.ones((n, n)) / n
    return params.mean_weight * np.ones((n, n)) / n**2 + (
        params.var_weight / (n - 1)
    ) * (centering.T @ centering)


def test_criterion_1_kernel_algebra_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_gap = worst_sqrt = worst_eig = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 129))
        params = CsimParams(
            float(rng.uniform(0.05, 8.0)), float(rng.uniform(0.05, 8.0)), n
        )
        e = rng.uniform(-5.0, 5.0, size=n)

        a = csim_stats(e, params)
        b = quadratic_form(e, params)
        worst_gap = max(worst_gap, abs(a - b) / (1.0 + abs(a)))

        comp = apply_kernel_sqrt(apply_kernel_sqrt(e, params), params)
        worst_sqrt = max(
            worst_sqrt, float(np.max(np.abs(comp - apply_kernel(e, params))))
        )

        repeated, mean_dir = kernel_eigenvalues(params)
        dense = np.sort(np.linalg.eigvalsh(dense_kernel(params)))
        expected = np.sort(np.array([mean_dir] + [repeated] * (n - 1)))
        worst_eig = max(worst_eig, float(np.max(np.abs(dense - expected))))

    elapsed = time.perf_counter() - start
    assert worst_gap <= 1e-10
    assert worst_sqrt <= 1e-10
    assert worst_eig <= 1e-10
    assert elapsed < 5.0
    _report(
        1,
        f"1000 kernels: two-path gap {worst_gap:.2e}, sqrt composition "
        f"{worst_sqrt:.2e}, eigenvalues {worst_eig:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_sensitivity_ratio_monte_carlo():
    start = time.perf_counter()
    n = 64
    params = CsimParams.defaults(n)  # ratio 4
    rng = np.random.default_rng(202)
    draws = rng.choice([-1.0, 1.0], size=(100_000, n))
    means = draws.mean(axis=1)
    devs = draws - means[:, None]
    values = params.mean_weight * means**2 + params.var_weight / (n - 1) * np.sum(
        devs * devs, axis=1
    )
    estimate = float(values.mean()) / csim_stats(np.ones(n), params)
    closed = sensitivity_ratio(params)
    gap = abs(estimate - closed) / closed
    elapsed = time.perf_counter() - start
    assert closed == 4.0 + 1.0 / 64.0
    assert gap < 0.02
    assert elapsed < 10.0
    _report(
        2,
        f"monte-carlo ratio {estimate:.6f} vs closed form {closed:.6f} "
        f"(gap {gap:.2%}), {elapsed:.2f}s",
    )


def test_criterion_3_closed_form_update_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_x = worst_z = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(1, n + 1))
        mask = random_mask(n, m, int(rng.integers(0, 1 << 30)))
        rho1 = float(rng.uniform(0.05, 4.0))
        rho2 = float(rng.uniform(0.05, 4.0))
        b = rng.standard_normal(n)
        dense_x = np.linalg.solve(
            rho1 * np.eye(n) + rho2 * np.diag(mask.indicator()), b
        )
        worst_x = max(
            worst_x, float(np.max(np.abs(x_update(b, mask, rho1, rho2) - dense_x)))
        )

        params = CsimParams(
            float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.05, 8.0)), n
        )
        ridge = float(rng.uniform(0.0, 2.0))
        c = rng.standard_normal(n)
        dense_sys = rho2 * np.eye(n) + 2.0 * (dense_kernel(params) + ridge * np.eye(n))
        dense_z = np.linalg.solve(dense_sys, c)
        worst_z = max(
            worst_z,
            float(np.max(np.abs(z_update(c, params, rho2, ridge) - dense_z))),
        )
    elapsed = time.perf_counter() - start
    assert worst_x <= 1e-10
    assert worst_z <= 1e-10
    assert elapsed < 10.0
    _report(
        3,
        f"1000 instances: x gap {worst_x:.2e}, z gap {worst_z:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_rip_brute_force():
    start = time.perf_counter()
    delta = 0.4
    two_k = 4

    # random 12x16 dictionary: the bound hypotheses cannot hold (the
    # Welch bound already forces coherence above delta/(2k-1)), so the
    # checker must name the violated condition
    rng = np.random.default_rng(404)
    atoms = rng.standard_normal((12, 16))
    atoms /= np.linalg.norm(atoms, axis=0)
    from csim.paramselect import mutual_coherence

    mu = mutual_coherence(atoms)
    bound = rip_ratio_bound(12, two_k // 2, mu, delta)
    assert not bound.feasible
    assert bound.violated == "mu >= delta/(2k-1)"
    # the exhaustive measurement itself still runs on the fallback ratio
    measured_12 = verify_rip_bruteforce(
        atoms, CsimParams.for_ratio(4.0, 12), two_k
    )
    assert measured_12 >= 0.0

    # feasible branch on an enumerable instance: orthonormal basis with
    # the ratio the bound itself permits keeps the measured constant
    # inside the budget
    D = dct_dictionary(16, 16)
    feasible_bound = rip_ratio_bound(16, two_k // 2, D.coherence, delta)
    assert feasible_bound.feasible
    params = CsimParams.for_ratio(feasible_bound.ratio_upper, 16)
    measured = verify_rip_bruteforce(D, params, two_k)
    elapsed = time.perf_counter() - start
    assert measured <= delta
    assert elapsed < 60.0
    _report(
        4,
        f"infeasible 12x16 reported ({bound.violated}); orthonormal case "
        f"measured delta {measured:.4f} <= {delta}, {elapsed:.2f}s",
    )


def test_criterion_5_filter_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    params = CsimParams(3.0, 3.0, 16)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        A = rng.standard_normal((m, m))
        stats = PatchStats(
            mu_y=float(rng.uniform(-10.0, 10.0)),
            autocov=np.zeros(m),
            cov=A @ A.T + 0.5 * np.eye(m),
            cross=rng.standard_normal(m),
            sigma_n_sq=0.0,
            sigma_x_sq=1.0,
        )
        gap = np.max(
            np.abs(csim_filter(stats, params).taps - mse_filter(stats).taps)
        )
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    _report(5, f"1000 stats: equal-weight filter gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_6_solver_convergence_fixed_weight():
    start = time.perf_counter()
    D = dct_dictionary(64, 64)
    feasible = kkt_ok = 0
    worst_iters = 0
    for trial in range(100):
        sig = synth_sparse_signal(D, 6, substream(606, trial, 1))
        mask = random_mask(64, 51, substream(606, trial, 2, 51))
        y = apply_mask(sig.x, mask)
        cfg = SolverConfig.analysis(
            l1_weight=1e-3, max_iter=2000, feasibility_tol=1e-8
        )
        result = solve(y, mask, D, cfg)
        worst_iters = max(worst_iters, result.iterations)
        if np.any(
            (result.primal_residuals < 1e-6) & (result.slack_residuals < 1e-6)
        ):
            feasible += 1
        _, params = effective_config(cfg, 64)
        r_z, r_mu = kkt_residuals(result, mask, params)
        if r_z <= 1e-6 * (
            1.0 + float(np.linalg.norm(result.final_dual_z))
        ) and r_mu <= 1e-6 * (1.0 + float(np.linalg.norm(result.final_dual_x))):
            kkt_ok += 1
    elapsed = time.perf_counter() - start
    assert feasible == 100
    assert kkt_ok == 100
    assert worst_iters <= 2000
    assert elapsed < 120.0
    _report(
        6,
        f"100/100 feasible below 1e-6 (worst {worst_iters} iters), "
        f"100/100 KKT within 1e-6 relative, {elapsed:.1f}s",
    )


def test_criterion_7_recovery_quality_trend():
    start = time.perf_counter()
    spec = ExperimentSpec(
        srs=(0.4, 0.6, 0.8),
        trials=100,
        solvers=("csim-alm", "fista"),
        seed=700,
        max_iter=50,
    )
    rows = list(csv.DictReader(io.StringIO(sweep_sr(spec))))
    means = {}
    for solver in ("csim-alm", "fista"):
        for sr in ("0.4", "0.6", "0.8"):
            vals = [
                float(r["relerr"])
                for r in rows
                if r["solver"] == solver and r["sr"] == sr
            ]
            assert len(vals) == 100
            means[(solver, sr)] = float(np.mean(vals))
    elapsed = time.perf_counter() - start
    assert means[("csim-alm", "0.4")] > means[("csim-alm", "0.6")]
    assert means[("csim-alm", "0.6")] > means[("csim-alm", "0.8")]
    assert means[("csim-alm", "0.8")] <= means[("fista", "0.8")]
    assert elapsed < 300.0
    _report(
        7,
        "mean relerr csim-alm {:.4f} > {:.4f} > {:.4f}; at sr=0.8 "
        "csim-alm {:.4f} <= fista {:.4f}; {:.1f}s".format(
            means[("csim-alm", "0.4")],
            means[("csim-alm", "0.6")],
            means[("csim-alm", "0.8")],
            means[("csim-alm", "0.8")],
            means[("fista", "0.8")],
            elapsed,
        ),
    )


def test_criterion_8_denoising_direction():
    start = time.perf_counter()
    clean = synthetic_image(128, 128, seed=800).astype(float)
    noise_var = float(clean.var()) / 10.0 ** 0.1  # input SNR 1 dB
    params = CsimParams.defaults(64)
    ssims_mse, ssims_csim = [], []
    for seed in range(20):
        noisy = add_noise_snr(clean, 1.0, seed=(801, seed))
        base = psnr(noisy, clean)
        out_mse = denoise_image(noisy, 6, noise_var, None, "mse")
        out_csim = denoise_image(noisy, 6, noise_var, params, "csim")
        assert psnr(out_mse, clean) > base
        assert psnr(out_csim, clean) > base
        ssims_mse.append(image_ssim(out_mse, clean))
        ssims_csim.append(image_ssim(out_csim, clean))
    mean_mse = float(np.mean(ssims_mse))
    mean_csim = float(np.mean(ssims_csim))
    elapsed = time.perf_counter() - start
    assert mean_csim >= mean_mse - 0.005
    assert elapsed < 120.0
    _report(
        8,
        f"20 seeds: both filters raise PSNR; mean SSIM csim {mean_csim:.4f} "
        f"vs mse {mean_mse:.4f}, {elapsed:.1f}s",
    )


def test_criterion_9_sweep_determinism(tmp_path):
    from csim.cli import main

    args = [
        "sweep-sr",
        "--n",
        "64",
        "--trials",
        "10",
        "--seed",
        "900",
        "--sr",
        "0.5",
        "--sr",
        "0.8",
        "--max-iter",
        "25",
        "--solver",
        "csim-alm",
        "--solver",
        "fista",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    _report(9, f"two sweep runs byte-identical ({first.stat().st_size} bytes)")
