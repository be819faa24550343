"""Batch experiment harness: recovery sweeps, CSV output, plot scripts.

Every trial derives its signal and mask from substreams keyed by
(master seed, trial index, tag), so a row does not depend on which other
jobs share its sweep; a batch's substreams are seeded in one pass
(``substreams``).  A sweep builds each ratio's trial data once for
all solvers, solves the trials of each (solver, sampling ratio) group in
one ``run_solver_batch`` call, scores the group as a row stack and
writes rows in (solver, ratio, trial) order.  Image recovery solves all
patches in one call, patch i through the mask of job i.  The solvers
get clean rows with their masks and read only the observed samples.

Wall-clock columns are zero unless timing is requested, because the
default CSV contract is byte-identical output across runs with equal
seeds, which measured times cannot satisfy.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import (
    BaselineConfig,
    fista_solve,
    fista_solve_batch,
    iht_adaptive_solve,
    iht_adaptive_solve_batch,
)
from .dictionaries import Dictionary, _synthesize, dct_dictionary, haar_wp_dictionary
from .fileio import load_pgm
from .metrics import PSNR_CSV_CAP, image_ssim, psnr, relative_error, ssim_global
from .signals import (
    PatchGrid,
    SamplingMask,
    _draw_code,
    extract_patches,
    random_mask,
    reassemble,
    substream,
    substreams,
)
from .solver import RecoveryResult, SolverConfig, _echo_settings, solve, solve_batch

__all__ = [
    "ExperimentSpec",
    "SWEEP_SR_HEADER",
    "SWEEP_ITERS_HEADER",
    "build_dictionary",
    "corpus_files",
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


def _solver_table() -> dict:
    """Solver name -> (config type, batched entry point, one-row entry
    point), the paper's solver first.  Built on each call, so it holds
    what the module's names are bound to then (a timing wrapper, say)."""
    return {
        "csim-alm": (SolverConfig, solve_batch, solve),
        "fista": (BaselineConfig, fista_solve_batch, fista_solve),
        "iht": (BaselineConfig, iht_adaptive_solve_batch, iht_adaptive_solve),
    }


def _dictionary_table() -> dict:
    """Dictionary kind -> (n, p) builder, built per call as above."""
    return {"dct": dct_dictionary, "haar-wp": haar_wp_dictionary}


SOLVER_NAMES = tuple(_solver_table())
DICTIONARY_KINDS = tuple(_dictionary_table())
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
    solvers: tuple[str, ...] = SOLVER_NAMES[:2]  # csim-alm and fista
    max_iter: int = 50
    timing: bool = False
    corpus: tuple[str, ...] = ()

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
        if self.dict_kind not in DICTIONARY_KINDS:
            raise ValueError(f"unknown dictionary kind {self.dict_kind!r}")
        if self.corpus:
            side = math.isqrt(self.n)
            if side * side != self.n:
                raise ValueError(f"corpus mode needs a square patch length, got n = {self.n}")


def build_dictionary(kind: str, n: int, p: int) -> Dictionary:
    builder = _dictionary_table().get(kind)
    if builder is None:
        raise ValueError(f"unknown dictionary kind {kind!r}")
    return builder(n, p)


def _sample_count(n: int, sr: float) -> int:
    """round(sr * n) samples, clamped to 1..n."""
    return min(max(int(round(sr * n)), 1), n)


def observation_mask(n: int, sr: float, seed: int, index: int) -> SamplingMask:
    """Mask of job ``index``: round(sr * n) samples, clamped to 1..n,
    drawn from substream (seed, index, mask tag, sample count)."""
    m = _sample_count(n, sr)
    return random_mask(n, m, substream(seed, index, _TAG_MASK, m))


def _solver(name: str, **settings):
    """(config, batched entry point, one-row entry point) of solver
    ``name``; ``settings`` are fields of its config type, and one it
    lacks raises ``TypeError``."""
    if name not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {name!r}")
    config_type, batch, single = _solver_table()[name]
    return config_type(**settings), batch, single


def run_solver_batch(name: str, Y, masks, D: Dictionary, **settings) -> list[RecoveryResult]:
    """Run solver ``name`` on every row of ``Y``, row i observed through
    ``masks[i]``, in one batched solve; one result per row.  Settings
    are fields of the solver's config (``SolverConfig`` for csim-alm,
    ``BaselineConfig`` for fista and iht), with that type's defaults."""
    config, batch, _ = _solver(name, **settings)
    return batch(Y, masks, D, config)


def run_solver(name: str, y, mask, D: Dictionary, **settings) -> RecoveryResult:
    """Run solver ``name`` on one signal through its one-row entry point
    (``solve``, ``fista_solve``, ``iht_adaptive_solve``), with the
    settings of ``run_solver_batch``; the result has the bits of that
    row in a batch."""
    config, _, single = _solver(name, **settings)
    return single(y, mask, D, config)


def solver_settings(name: str, D: Dictionary, sr: float, **settings) -> dict:
    """Settings ``recover_patches`` hands to solver ``name``, for a run
    log: what csim-alm's regime reads, with the penalties of every
    patch's sample count (see ``solver``), or a baseline's name and
    iteration budget."""
    config, _, _ = _solver(name, **settings)
    if isinstance(config, SolverConfig):
        return _echo_settings(config, _sample_count(D.n, sr), D)
    return {"solver": name, "max_iter": config.max_iter}


def recover_patches(
    patches, sr: float, seed: int, solver: str, D: Dictionary, **settings
) -> list[RecoveryResult]:
    """Recover every row of ``patches`` from the samples its mask keeps.

    Row i is observed through ``observation_mask(D.n, sr, seed, i)``, so
    a single vector recovered as row 0 sees the mask of an image's first
    patch.  ``settings`` are config fields, as in ``run_solver``.
    """
    masks = _observe(np.arange(len(patches)), D.n, sr, seed)
    return run_solver_batch(solver, patches, masks, D, **settings)


def recover_image(
    image, sr: float, seed: int, solver: str, D: Dictionary, **settings
) -> tuple[np.ndarray, list[RecoveryResult]]:
    """Recover an image tile by tile; returns the restored float image
    and the per-patch results.

    Tiles are squares of D.n pixels on the image's ``PatchGrid``.  Where
    their side does not divide an image side, the last row or column of
    tiles is clamped to the border and overlaps its neighbours, and
    reassembly averages the overlap.
    """
    side = math.isqrt(D.n)
    if side * side != D.n:
        raise ValueError("image recovery needs a square patch length")
    height, width = np.shape(image)
    grid = PatchGrid(height, width, side=side)
    results = recover_patches(extract_patches(image, grid), sr, seed, solver, D, **settings)
    return reassemble(np.stack([r.x_hat for r in results]), grid), results


def corpus_files(paths) -> list[Path]:
    """The PGM files named by ``paths``: files as given, directories as
    their ``*.pgm`` entries in sorted order.  A path that does not exist
    raises ``ValueError`` naming it."""
    files: list[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.glob("*.pgm")))
        elif path.exists():
            files.append(path)
        else:
            raise ValueError(f"no such file or directory: {entry}")
    if not files:
        raise ValueError("corpus contains no PGM files")
    return files


def load_corpus(paths) -> list[np.ndarray]:
    """Float images from PGM files or directories of them."""
    return [load_pgm(f).astype(float) for f in corpus_files(paths)]


def _corpus_patch(images, side: int, rng) -> np.ndarray:
    image = images[int(rng.integers(len(images)))]
    h, w = image.shape
    if h < side or w < side:
        raise ValueError("corpus image smaller than one patch")
    r = int(rng.integers(h - side + 1))
    c = int(rng.integers(w - side + 1))
    return image[r : r + side, c : c + side].reshape(-1)


def _truth(spec: ExperimentSpec, D: Dictionary, images=None):
    """(true sparse codes or None, clean signals) of every trial, one row
    per trial, each drawn from substream (seed, trial, signal tag); all
    are seeded in one pass.  Neither depends on the sampling ratio."""
    rngs = substreams(spec.seed, np.arange(spec.trials), _TAG_SIGNAL)
    if images is None:
        # Each trial's code is drawn as ``synth_sparse_signal`` draws it,
        # and one stacked product gives every row the bits of its D s.
        k = max(1, math.ceil(0.1 * D.p))
        codes = np.zeros((spec.trials, D.p))
        for code, rng in zip(codes, rngs):
            _draw_code(code, k, rng)
        return codes, _synthesize(D.atoms, codes)
    side = math.isqrt(D.n)
    return None, np.stack([_corpus_patch(images, side, rng) for rng in rngs])


def _observe(jobs, n: int, sr: float, seed: int) -> list[SamplingMask]:
    """Masks of the jobs numbered by the integer array ``jobs`` at
    sampling ratio ``sr`` (see ``observation_mask``), seeded in one pass."""
    m = _sample_count(n, sr)
    return [random_mask(n, m, rng) for rng in substreams(seed, jobs, _TAG_MASK, m)]


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _solve_group(spec: ExperimentSpec, D: Dictionary, solver: str, masks, Y, **settings):
    """The results of one (solver, sampling ratio) group from one
    ``run_solver_batch`` call, and its solve time in ms."""
    t0 = time.perf_counter()
    results = run_solver_batch(solver, Y, masks, D, max_iter=spec.max_iter, **settings)
    return results, (time.perf_counter() - t0) * 1e3


def sweep_sr(spec: ExperimentSpec) -> str:
    """Recovery-quality sweep over sampling ratios; returns CSV text.

    One row per (solver, sampling ratio, trial) in that loop order.
    Every solver sees the same trial data: each trial's signal is drawn
    once and its mask once per ratio.
    Synthetic exactly-sparse signals give a ground-truth relerr and are
    scored against the clean signal with its dynamic range as peak;
    corpus patches are scored on the 8-bit scale with relerr = nan.
    Each group is scored as a row stack.  With timing, a row's runtime
    is its group's solve time divided by the group's trial count.
    """
    D = build_dictionary(spec.dict_kind, spec.n, spec.p)
    images = load_corpus(spec.corpus) if spec.corpus else None
    S_true, X_true = _truth(spec, D, images)
    masks = {sr: _observe(np.arange(spec.trials), D.n, sr, spec.seed) for sr in spec.srs}
    if S_true is None:
        peak = 255.0
        c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    else:
        peak = X_true.max(axis=1) - X_true.min(axis=1)
        peak[peak <= 0.0] = 1.0
        # Python's float power, as a one-signal score takes it; numpy's
        # square differs from it in the last bit on some inputs.
        c1 = np.array([(0.01 * v) ** 2 for v in peak.tolist()])
        c2 = np.array([(0.03 * v) ** 2 for v in peak.tolist()])

    rows = []
    for solver, sr in itertools.product(spec.solvers, spec.srs):
        results, group_ms = _solve_group(spec, D, solver, masks[sr], X_true)
        runtime_ms = group_ms / spec.trials if spec.timing else 0.0
        X_hat = np.stack([r.x_hat for r in results])
        psnr_db = psnr(X_hat, X_true, peak, axis=-1).tolist()
        ssim = ssim_global(X_hat, X_true, c1, c2).tolist()
        if S_true is None:
            rel_err = [math.nan] * spec.trials
        else:
            S_hat = np.stack([r.s_hat for r in results])
            rel_err = relative_error(S_hat, S_true, axis=-1).tolist()
        for trial, result in enumerate(results):
            rows.append(
                f"{trial},{spec.seed},{solver},{_fmt(sr)},{D.n},{D.p},{spec.dict_kind},"
                f"{result.iterations},{_fmt(min(psnr_db[trial], PSNR_CSV_CAP))},{_fmt(ssim[trial])},"
                f"{_fmt(rel_err[trial])},{runtime_ms:.3f}"
            )
    return SWEEP_SR_HEADER + "\n" + "\n".join(rows) + "\n"


def sweep_iters(spec: ExperimentSpec) -> str:
    """Per-iteration relative-error traces; returns long-format CSV text.

    Ground-truth synthetic signals only.  Solvers run their full
    iteration budget (no early stop) so the iteration column spans
    1..max_iter for every trace.  With timing, the elapsed column is
    the solver's clock, that of the whole (solver, ratio) batch.
    """
    if spec.corpus:
        raise ValueError("iteration traces need ground-truth synthetic signals")
    D = build_dictionary(spec.dict_kind, spec.n, spec.p)
    S_true, X_true = _truth(spec, D)
    masks = {sr: _observe(np.arange(spec.trials), D.n, sr, spec.seed) for sr in spec.srs}

    lines = []
    for solver, sr in itertools.product(spec.solvers, spec.srs):
        # A zero tolerance keeps csim-alm from stopping before its budget.
        no_stop = {"feasibility_tol": 0.0} if solver == "csim-alm" else {}
        results, _ = _solve_group(
            spec, D, solver, masks[sr], X_true, record_iterates=True, **no_stop
        )
        for trial, (s_true, result) in enumerate(zip(S_true, results)):
            iterates = np.array(result.iterates)
            trace = relative_error(iterates, np.broadcast_to(s_true, iterates.shape), axis=-1)
            for t, rel in enumerate(trace.tolist(), start=1):
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
