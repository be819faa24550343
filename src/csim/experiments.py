"""Batch experiment harness: recovery sweeps, CSV output, plot scripts.

Every trial derives its signal and mask from substreams keyed by
(master seed, trial index, tag), so a row does not depend on which other
jobs share its sweep.  A sweep solves the trials of each (solver,
sampling ratio) group in one ``run_solver_batch`` call and writes rows
in (solver, ratio, trial) order.  Image recovery observes patch i
through the mask of job i and solves all patches in one call.

Wall-clock columns are zero unless timing is requested, because the
default CSV contract is byte-identical output across runs with equal
seeds, which measured times cannot satisfy.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .baselines import FistaConfig, IhtConfig, fista_solve, iht_adaptive_solve
from .dictionaries import Dictionary, dct_dictionary, haar_wp_dictionary
from .fileio import load_pgm
from .metrics import PSNR_CSV_CAP, QualityScore, image_ssim, mse, psnr, relative_error, ssim_global
from .signals import (
    PatchGrid,
    SamplingMask,
    apply_mask,
    extract_patches,
    random_mask,
    reassemble,
    substream,
    synth_sparse_signal,
)
from .solver import RecoveryResult, SolverConfig, effective_config, solve_batch

__all__ = [
    "ExperimentSpec",
    "SWEEP_SR_HEADER",
    "SWEEP_ITERS_HEADER",
    "build_dictionary",
    "observation_mask",
    "run_solver",
    "run_solver_batch",
    "solver_settings",
    "recover_patches",
    "recover_image",
    "sweep_sr",
    "sweep_iters",
    "emit_plot_script",
    "synthetic_image",
    "add_noise_snr",
    "image_ssim",
]

SOLVER_NAMES = ("csim-alm", "fista", "iht")
SWEEP_SR_HEADER = "trial,seed,solver,sr,n,p,dict,iters,psnr_db,ssim,relerr,runtime_ms"
SWEEP_ITERS_HEADER = "solver,sr,trial,seed,iter,relerr,elapsed_ms"

# Substream tags.
_TAG_SIGNAL = 1
_TAG_MASK = 2
_TAG_NOISE = 3


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: dictionary, sampling ratios, trial count, solvers.

    With ``corpus`` empty, trial signals are synthetic exactly-sparse
    patches (ground truth known, relerr reported).  Otherwise trials
    draw square patches uniformly from the listed PGM files or
    directories and the relerr column is nan.
    """

    dict_kind: str = "dct"
    n: int = 64
    p: int = 64
    srs: tuple[float, ...] = (0.4, 0.6, 0.8)
    trials: int = 100
    seed: int = 0
    solvers: tuple[str, ...] = ("csim-alm", "fista")
    max_iter: int = 50
    timing: bool = False
    corpus: tuple[str, ...] = ()
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.srs:
            raise ValueError("need at least one sampling ratio")
        for sr in self.srs:
            if not 0.0 < sr <= 1.0:
                raise ValueError("sampling ratios must lie in (0, 1]")
        for solver in self.solvers:
            if solver not in SOLVER_NAMES:
                raise ValueError(f"unknown solver {solver!r}")
        if self.dict_kind not in ("dct", "haar-wp"):
            raise ValueError(f"unknown dictionary kind {self.dict_kind!r}")
        if self.corpus:
            side = math.isqrt(self.n)
            if side * side != self.n:
                raise ValueError("corpus mode needs a square patch length")


def build_dictionary(kind: str, n: int, p: int) -> Dictionary:
    if kind == "dct":
        return dct_dictionary(n, p)
    if kind == "haar-wp":
        return haar_wp_dictionary(n, p)
    raise ValueError(f"unknown dictionary kind {kind!r}")


def observation_mask(n: int, sr: float, seed: int, index: int) -> SamplingMask:
    """Mask of job ``index``: round(sr * n) samples, clamped to 1..n,
    drawn from substream (seed, index, mask tag, sample count)."""
    m = min(max(int(round(sr * n)), 1), n)
    return random_mask(n, m, substream(seed, index, _TAG_MASK, m))


def run_solver_batch(
    name: str,
    Y,
    masks,
    D: Dictionary,
    max_iter: int = 50,
    record_iterates: bool = False,
    overrides: dict | None = None,
    feasibility_tol: float | None = None,
) -> list[RecoveryResult]:
    """Run solver ``name`` on every row of ``Y``, row i observed through
    ``masks[i]``; one result per row.

    csim-alm solves all rows at once (``solve_batch``); fista and iht
    solve one row at a time.  ``feasibility_tol`` reaches csim-alm only.
    """
    kwargs = {"max_iter": max_iter, "record_iterates": record_iterates}
    if name == "csim-alm" and feasibility_tol is not None:
        kwargs["feasibility_tol"] = feasibility_tol
    kwargs.update(overrides or {})
    if name == "csim-alm":
        return solve_batch(Y, masks, D, SolverConfig(**kwargs))
    if name == "fista":
        config = FistaConfig(**kwargs)
        return [fista_solve(y, mask, D, config) for y, mask in zip(Y, masks, strict=True)]
    if name == "iht":
        config = IhtConfig(**kwargs)
        return [iht_adaptive_solve(y, mask, D, config) for y, mask in zip(Y, masks, strict=True)]
    raise ValueError(f"unknown solver {name!r}")


def run_solver(name: str, y, mask, D: Dictionary, **settings) -> RecoveryResult:
    """Dispatch one solver by harness name: ``run_solver_batch`` on one
    row, with the same keyword settings."""
    (result,) = run_solver_batch(name, np.asarray(y, dtype=float)[None], [mask], D, **settings)
    return result


def solver_settings(
    name: str, D: Dictionary, sr: float, seed: int, overrides: dict | None = None
) -> dict:
    """Settings ``recover_patches`` hands to solver ``name``, for a run
    log: every effective csim-alm hyperparameter (as resolved for the
    first patch), or a baseline's name and iteration budget."""
    kwargs = {"max_iter": 50, **(overrides or {})}
    if name == "csim-alm":
        resolved = effective_config(SolverConfig(**kwargs), observation_mask(D.n, sr, seed, 0), D)
        return {**asdict(resolved), "gram_norm": D.spectral_norm_sq}
    return {"solver": name, "max_iter": kwargs["max_iter"]}


def recover_patches(
    patches, sr: float, seed: int, solver: str, D: Dictionary, overrides: dict | None = None
) -> list[RecoveryResult]:
    """Recover every row of ``patches`` from the samples its mask keeps.

    Row i is observed through ``observation_mask(D.n, sr, seed, i)``, so
    a single vector recovered as row 0 sees the mask of an image's first
    patch.  ``overrides`` holds solver settings, as in ``run_solver``.
    """
    masks = [observation_mask(D.n, sr, seed, i) for i in range(len(patches))]
    Y = np.stack([apply_mask(patch, mask) for patch, mask in zip(patches, masks)])
    return run_solver_batch(solver, Y, masks, D, overrides=overrides)


def recover_image(
    image, sr: float, seed: int, solver: str, D: Dictionary, overrides: dict | None = None
) -> tuple[np.ndarray, list[RecoveryResult]]:
    """Recover an image tile by tile; returns the restored float image
    and the per-patch results.

    Tiles are square with D.n pixels and do not overlap; the last row
    and column of tiles are clamped to the border (see ``PatchGrid``).
    """
    side = math.isqrt(D.n)
    if side * side != D.n:
        raise ValueError("image recovery needs a square patch length")
    height, width = np.shape(image)
    grid = PatchGrid(height, width, side=side, stride=side)
    results = recover_patches(extract_patches(image, grid), sr, seed, solver, D, overrides)
    return reassemble(np.stack([r.x_hat for r in results]), grid), results


def load_corpus(paths) -> list[np.ndarray]:
    """Float images from PGM files or directories of them."""
    files: list[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.glob("*.pgm")))
        else:
            files.append(path)
    if not files:
        raise ValueError("corpus contains no PGM files")
    return [load_pgm(f).astype(float) for f in files]


def _corpus_patch(images, side: int, rng) -> np.ndarray:
    image = images[int(rng.integers(len(images)))]
    h, w = image.shape
    if h < side or w < side:
        raise ValueError("corpus image smaller than one patch")
    r = int(rng.integers(h - side + 1))
    c = int(rng.integers(w - side + 1))
    return image[r : r + side, c : c + side].reshape(-1)


def _trial_data(spec: ExperimentSpec, D: Dictionary, sr: float, trial: int, images=None):
    """(true sparse code or None, clean signal, mask, observations)."""
    n = D.n
    mask = observation_mask(n, sr, spec.seed, trial)
    if images is None:
        k = max(1, math.ceil(0.1 * D.p))
        signal = synth_sparse_signal(D, k, substream(spec.seed, trial, _TAG_SIGNAL))
        s_true, x_true = signal.s, signal.x
    else:
        rng = substream(spec.seed, trial, _TAG_SIGNAL)
        s_true, x_true = None, _corpus_patch(images, math.isqrt(n), rng)
    return s_true, x_true, mask, apply_mask(x_true, mask)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _score_against_truth(x_hat, x_true, s_hat, s_true) -> QualityScore:
    if s_true is None:
        peak = 255.0
        rel_err = float("nan")
    else:
        peak = float(x_true.max() - x_true.min())
        if peak <= 0.0:
            peak = 1.0
        rel_err = relative_error(s_hat, s_true)
    return QualityScore(
        psnr_db=psnr(x_hat, x_true, peak),
        ssim=ssim_global(x_hat, x_true, (0.01 * peak) ** 2, (0.03 * peak) ** 2),
        mse=mse(x_hat, x_true),
        rel_err=rel_err,
    )


def _solve_group(spec: ExperimentSpec, D: Dictionary, solver: str, sr: float, images=None, **kwargs):
    """Trial data of one (solver, sampling ratio) group, the group's
    results from one ``run_solver_batch`` call, and its solve time in ms."""
    trials = [_trial_data(spec, D, sr, trial, images) for trial in range(spec.trials)]
    t0 = time.perf_counter()
    results = run_solver_batch(
        solver,
        np.stack([y for *_, y in trials]),
        [mask for _, _, mask, _ in trials],
        D,
        max_iter=spec.max_iter,
        overrides=spec.overrides.get(solver),
        **kwargs,
    )
    return trials, results, (time.perf_counter() - t0) * 1e3


def sweep_sr(spec: ExperimentSpec) -> str:
    """Recovery-quality sweep over sampling ratios; returns CSV text.

    One row per (solver, sampling ratio, trial) in that loop order.
    Synthetic exactly-sparse signals give a ground-truth relerr and are
    scored against the clean signal with its dynamic range as peak;
    corpus patches are scored on the 8-bit scale with relerr = nan.
    With timing, a row's runtime is its group's solve time divided by
    the group's trial count.
    """
    D = build_dictionary(spec.dict_kind, spec.n, spec.p)
    images = load_corpus(spec.corpus) if spec.corpus else None

    rows = []
    for solver, sr in itertools.product(spec.solvers, spec.srs):
        trials, results, group_ms = _solve_group(spec, D, solver, sr, images)
        runtime_ms = group_ms / spec.trials if spec.timing else 0.0
        for trial, (s_true, x_true, _, _), result in zip(range(spec.trials), trials, results):
            score = _score_against_truth(result.x_hat, x_true, result.s_hat, s_true)
            rows.append(
                f"{trial},{spec.seed},{solver},{_fmt(sr)},{D.n},{D.p},{spec.dict_kind},"
                f"{result.iterations},{_fmt(min(score.psnr_db, PSNR_CSV_CAP))},{_fmt(score.ssim)},"
                f"{_fmt(score.rel_err)},{runtime_ms:.3f}"
            )
    return SWEEP_SR_HEADER + "\n" + "\n".join(rows) + "\n"


def sweep_iters(spec: ExperimentSpec) -> str:
    """Per-iteration relative-error traces; returns long-format CSV text.

    Ground-truth synthetic signals only.  Solvers run their full
    iteration budget (no early stop) so the iteration column spans
    1..max_iter for every trace.  The elapsed column is the solver's
    clock: for csim-alm, that of the whole (solver, ratio) batch.
    """
    if spec.corpus:
        raise ValueError("iteration traces need ground-truth synthetic signals")
    D = build_dictionary(spec.dict_kind, spec.n, spec.p)

    lines = []
    for solver, sr in itertools.product(spec.solvers, spec.srs):
        trials, results, _ = _solve_group(
            spec, D, solver, sr, record_iterates=True, feasibility_tol=0.0
        )
        for trial, (s_true, *_), result in zip(range(spec.trials), trials, results):
            for t, s_t in enumerate(result.iterates, start=1):
                rel = relative_error(s_t, s_true)
                ms = result.elapsed_ms[t - 1] if spec.timing else 0.0
                lines.append(
                    f"{solver},{_fmt(sr)},{trial},{spec.seed},{t},{_fmt(rel)},{ms:.6f}"
                )
    return SWEEP_ITERS_HEADER + "\n" + "\n".join(lines) + "\n"


_PLOT_TEMPLATE = '''"""Generated plot script; needs matplotlib."""

import csv
from collections import defaultdict

import matplotlib.pyplot as plt

CSV_PATH = {csv_path!r}
X_COLUMN = {x_column!r}
Y_COLUMN = {y_column!r}

series = defaultdict(lambda: defaultdict(list))
with open(CSV_PATH) as fh:
    for row in csv.DictReader(fh):
        series[row["solver"]][float(row[X_COLUMN])].append(float(row[Y_COLUMN]))

fig, ax = plt.subplots()
for solver in sorted(series):
    xs = sorted(series[solver])
    means = [sum(series[solver][x]) / len(series[solver][x]) for x in xs]
    ax.plot(xs, means, marker="o", label=solver)
ax.set_xlabel(X_COLUMN)
ax.set_ylabel("mean " + Y_COLUMN)
ax.legend()
fig.savefig(CSV_PATH + ".png", dpi=150)
print("wrote", CSV_PATH + ".png")
'''


def emit_plot_script(csv_name: str, mode: str) -> str:
    """Standalone script that renders mean curves per solver."""
    if mode == "sweep-sr":
        x_column, y_column = "sr", "relerr"
    elif mode == "sweep-iters":
        x_column, y_column = "iter", "relerr"
    else:
        raise ValueError(f"unknown plot mode {mode!r}")
    return _PLOT_TEMPLATE.format(csv_path=csv_name, x_column=x_column, y_column=y_column)


def synthetic_image(height: int = 128, width: int = 128, seed: int = 0) -> np.ndarray:
    """Piecewise-smooth 8-bit test image: blockwise offsets over a
    smooth field, for experiments that need a known clean reference."""
    rng = substream(seed, 7)
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    smooth = (
        128.0
        + 45.0 * np.sin(2.0 * np.pi * rows / height)
        + 35.0 * np.cos(2.0 * np.pi * cols / width)
    )
    block = 32
    for r0 in range(0, height, block):
        for c0 in range(0, width, block):
            smooth[r0 : r0 + block, c0 : c0 + block] += rng.uniform(-25.0, 25.0)
    return np.clip(np.round(smooth), 0, 255).astype(np.uint8)


def add_noise_snr(image, snr_db: float, seed) -> np.ndarray:
    """Add white Gaussian noise at the given SNR (image variance over
    noise variance, in dB); returns a float image, not clipped."""
    x = np.asarray(image, dtype=float)
    signal_var = float(x.var())
    noise_var = signal_var / (10.0 ** (snr_db / 10.0))
    keys = seed if isinstance(seed, (tuple, list)) else (seed,)
    rng = substream(*keys, _TAG_NOISE)
    return x + math.sqrt(noise_var) * rng.standard_normal(x.shape)
