"""Correctness checks computed by the benchmark itself.

Nothing here compares against stored copies of earlier output.  Inputs
the program derives from seeds are regenerated from the documented
substream keys with numpy alone; reference values (DCT-II atoms,
Wiener-Hopf taps, stationarity gaps, PSNR) are computed from their
definitions.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

PSNR_CAP = 99.0
TAG_SIGNAL = 1
TAG_MASK = 2


def generator(*keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


def observed_indices(n: int, m: int, *keys: int) -> np.ndarray:
    """The sorted uniform m-subset drawn for substream ``keys``."""
    return np.sort(generator(*keys).choice(n, size=m, replace=False))


def sparse_code(p: int, k: int, *keys: int) -> np.ndarray:
    """k-sparse code: uniform support, then standard normal values."""
    rng = generator(*keys)
    support = np.sort(rng.choice(p, size=k, replace=False))
    s = np.zeros(p)
    s[support] = rng.standard_normal(k)
    return s


def psnr(x, ref, peak: float = 255.0) -> float:
    err = float(np.mean((np.asarray(x, float) - np.asarray(ref, float)) ** 2))
    return math.inf if err == 0.0 else 10.0 * math.log10(peak * peak / err)


# --- sweep-sr -------------------------------------------------------------


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def sweep_row_flags(rows, solver: str, srs, trials: int) -> list[bool]:
    """Per row: it sits at its place in (sr, trial) order for ``solver``,
    every score is finite and PSNR does not exceed the CSV cap."""
    expected = [(sr, t) for sr in srs for t in range(trials)]
    flags = []
    for i, row in enumerate(rows):
        try:
            values = [float(row[k]) for k in ("psnr_db", "ssim", "relerr")]
            ok = (
                i < len(expected)
                and row["solver"] == solver
                and float(row["sr"]) == expected[i][0]
                and int(row["trial"]) == expected[i][1]
                and int(row["iters"]) >= 1
                and all(math.isfinite(v) for v in values)
                and values[0] <= PSNR_CAP
            )
        except (KeyError, TypeError, ValueError):
            ok = False
        flags.append(ok)
    return flags


def _number(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def mean_column(rows, column: str, sr: float | None = None) -> float:
    """Mean of ``column`` over the rows at ``sr`` (all rows when None);
    nan when there are none or a value does not parse."""
    values = [_number(r.get(column)) for r in rows if sr is None or _number(r.get("sr")) == sr]
    return float(np.mean(values)) if values else math.nan


def trend_holds(alm_means: dict, fista_means: dict) -> bool:
    """csim-alm's mean relerr falls from sr 0.4 to 0.6 to 0.8, and at 0.8
    it is no higher than fista's."""
    return (
        alm_means[0.4] > alm_means[0.6] > alm_means[0.8]
        and alm_means[0.8] <= fista_means[0.8]
    )


def dct_ii_atoms(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis, atom k in column k."""
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    scale = np.where(k == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
    return scale * np.cos(math.pi * k * (2 * i + 1) / (2 * n))


def sweep_trial(D_atoms: np.ndarray, seed: int, sr: float, trial: int):
    """(true code, observed indices, masked observations) of one sweep
    trial: mask key (seed, trial, 2, m), signal key (seed, trial, 1),
    support size ceil(0.1 p)."""
    n, p = D_atoms.shape
    m = min(max(int(round(sr * n)), 1), n)
    observed = observed_indices(n, m, seed, trial, TAG_MASK, m)
    s_true = sparse_code(p, max(1, math.ceil(0.1 * p)), seed, trial, TAG_SIGNAL)
    y = np.zeros(n)
    y[observed] = (D_atoms @ s_true)[observed]
    return s_true, observed, y


def relerr_matches(row: dict, s_hat, s_true) -> bool:
    """The CSV relerr equals ||s_hat - s|| / ||s|| to its 9 printed digits."""
    expected = float(np.linalg.norm(np.asarray(s_hat) - s_true) / np.linalg.norm(s_true))
    return math.isclose(float(row["relerr"]), expected, rel_tol=1e-8, abs_tol=1e-15)


# --- recover-pgm -----------------------------------------------------------


def write_pgm(path, image) -> None:
    pixels = np.asarray(image, dtype=np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_pgm(path) -> np.ndarray:
    """Binary PGM with a comment-free header and maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, w, h, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P5" or int(maxval) != 255:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(w), int(h)
    return np.frombuffer(data[-w * h :], dtype=np.uint8).reshape(h, w).astype(float)


def patch_origins(height: int, width: int, side: int = 8):
    """Top-left corners of the exact side x side tiling, row-major."""
    return [(r, c) for r in range(0, height, side) for c in range(0, width, side)]


def recover_masks(height: int, width: int, seed: int, sr: float, side: int = 8):
    """Observed pixel indices of each patch, key (seed, patch, 2, m)."""
    n = side * side
    m = max(1, min(n, int(round(sr * n))))
    return [
        observed_indices(n, m, seed, i, TAG_MASK, m)
        for i in range(len(patch_origins(height, width, side)))
    ]


def zero_filled(image, masks, side: int = 8) -> np.ndarray:
    out = np.zeros_like(np.asarray(image, dtype=float))
    for (r, c), observed in zip(patch_origins(*out.shape, side), masks):
        rows, cols = np.divmod(observed, side)
        out[r + rows, c + cols] = image[r + rows, c + cols]
    return out


def observed_pixel_flags(output, image, masks, side: int = 8) -> np.ndarray:
    """Per patch: every observed pixel of the output equals the input."""
    flags = np.empty(len(masks), dtype=bool)
    for i, ((r, c), observed) in enumerate(zip(patch_origins(*image.shape, side), masks)):
        rows, cols = np.divmod(observed, side)
        flags[i] = np.array_equal(output[r + rows, c + cols], image[r + rows, c + cols])
    return flags


# --- denoise-pgm -----------------------------------------------------------


def wiener_taps(patch, m: int, sigma_n_sq: float, mean_over_var: float = 1.0) -> np.ndarray:
    """Causal m-tap filter from the normal equations of one patch.

    Unbiased autocovariance r_k = sum_i d_i d_(i+k) / (N - k - 1) of the
    de-meaned samples d, Toeplitz matrix T_ij = r_|i-j|, clean/noisy
    cross-covariance r with lag 0 lowered by the noise variance (floored
    at 0), and the mean term added with weight mean_over_var (1 gives
    Wiener-Hopf on second moments).  Solved densely.
    """
    y = np.asarray(patch, dtype=float).reshape(-1)
    n = y.size
    d = y - y.mean()
    r = np.array([sum(d[i] * d[i + k] for i in range(n - k)) / (n - k - 1) for k in range(m)])
    toeplitz = np.array([[r[abs(i - j)] for j in range(m)] for i in range(m)])
    cross = r.copy()
    cross[0] = max(r[0] - sigma_n_sq, 0.0)
    mean_term = mean_over_var * y.mean() ** 2
    return np.linalg.solve(toeplitz + mean_term * np.ones((m, m)), cross + mean_term)


def taps_match(taps, reference, rel_tol: float = 1e-9) -> bool:
    taps = np.asarray(taps, dtype=float)
    return taps.shape == reference.shape and float(
        np.linalg.norm(taps - reference)
    ) <= rel_tol * float(np.linalg.norm(reference))


def filtered_patch(patch, taps) -> np.ndarray:
    """Causal filtering with zero history, rounded to 8-bit pixels."""
    y = np.asarray(patch, dtype=float).reshape(-1)
    out = np.array([sum(taps[k] * y[i - k] for k in range(len(taps)) if i >= k) for i in range(y.size)])
    return np.clip(np.round(out), 0, 255)


def full_history_psnr(image, clean, m: int, side: int = 8) -> float:
    """PSNR over the samples whose m-tap causal window lies inside their
    patch (raster position >= m - 1 within the patch)."""
    inside = (np.arange(side * side) >= m - 1).reshape(side, side)
    select = np.tile(inside, (image.shape[0] // side, image.shape[1] // side))
    return psnr(np.asarray(image)[select], np.asarray(clean)[select])


# --- converge-analysis -----------------------------------------------------


def dense_index_matrix(n: int, mean_weight: float, var_weight: float) -> np.ndarray:
    """W with e'We = mean_weight mean(e)^2 + var_weight var(e), unbiased var."""
    ones = np.ones((n, n))
    return mean_weight * ones / n**2 + var_weight / (n - 1) * (np.eye(n) - ones / n)


def stationarity_ok(z, dual_x, dual_z, observed, W, ridge: float, tol: float = 1e-6) -> bool:
    """||2 (W + ridge I) z + dual_z|| and ||dual_x - M' dual_z|| both at
    most tol relative (to 1 + the norm of the dual involved)."""
    n = W.shape[0]
    gap_z = np.linalg.norm(2.0 * (W + ridge * np.eye(n)) @ z + dual_z)
    masked = np.zeros(n)
    masked[observed] = dual_z[observed]
    gap_x = np.linalg.norm(dual_x - masked)
    return bool(
        gap_z <= tol * (1.0 + np.linalg.norm(dual_z))
        and gap_x <= tol * (1.0 + np.linalg.norm(dual_x))
    )
