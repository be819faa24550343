"""The four workloads and the fixed companion probe.

Each workload splits a pass into ``execute`` (the calls into csim, timed
and, in a traced run, traced; they go through module attributes so that
the tracing wrappers see them) and ``verify`` (the benchmark's own checks,
never timed or traced), which records metric samples.

Timed work is cut into units of well under a second: one sweep call per
(solver, ratio), one recover call per 64x64 tile, one denoise call per
method, one solve per problem.  Units of different solvers alternate
within a round.

The processors of the machine this was tuned on run at about half speed
for 1 to 12 s at a time, and at other speeds for minutes, whatever the
program does.  So each unit's time is scaled by the speed of a fixed
numpy kernel timed just before it (``reference_seconds``): a scaled time
is the time the unit would take on a machine where that kernel takes
``REFERENCE_S``.  A rate is the operations that passed in a round over
the sum, across units, of each unit's median scaled time over the run.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
from pathlib import Path

import numpy as np

import checks
import csim.denoise
import csim.dictionaries
import csim.solver
from csim import cli, experiments
from csim.core import CsimParams
from csim.denoise import SingularStatsError, csim_filter, empirical_stats, mse_filter
from csim.signals import SamplingMask
from csim.solver import BacktrackingLimitError, NonFiniteError, SolverConfig

# An operation that raises one of these counts as failed; any other
# exception is a fault in the benchmark and ends the run.
OPERATION_ERRORS = (NonFiniteError, BacktrackingLimitError, SingularStatsError)

# Time of reference_seconds' kernel at full speed on the 2-vCPU Xeon
# (2.0 GHz) virtual machine the benchmark was tuned on.
REFERENCE_S = 0.0027

RATE = {"csim-alm": "alm_solves_per_s", "fista": "fista_solves_per_s", "iht": "iht_solves_per_s"}
RELERR = {"csim-alm": "alm_relerr_mean", "fista": "fista_relerr_mean"}


class Tally:
    """Attempted and failed operations, plus whole-run check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, passed: int) -> None:
        self.attempted += attempted
        self.failed += attempted - passed


def reference_seconds() -> float:
    """Best of two runs of a fixed kernel shaped like the solvers' inner
    loops: 64x64 products, soft thresholds and norms on 64-vectors."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((64, 64)) / 8.0
    v0 = rng.standard_normal(64)
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        v = v0
        for _ in range(300):
            a = A @ v
            w = np.sign(a) * np.maximum(np.abs(a) - 0.1, 0.0)
            v = w / (np.linalg.norm(w) + 1.0) + 0.01 * v0
        best = min(best, time.perf_counter() - start)
    return best


def scaled(timing) -> float:
    """Seconds a (seconds, reference seconds) timing would take at the
    reference speed."""
    seconds, reference = timing
    return seconds * REFERENCE_S / reference


class Samples:
    """Metric samples gathered over the rounds of one run."""

    def __init__(self):
        self.values: dict[str, list[float]] = {}
        self.passed: dict[str, list[int]] = {}
        self.times: dict[str, dict] = {}

    def value(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def rate(self, name: str, passed: int, timings: dict) -> None:
        """One round of a rate: operations that passed, and a
        (seconds, reference seconds) timing per unit."""
        self.passed.setdefault(name, []).append(passed)
        for unit, timing in timings.items():
            self.times.setdefault(name, {}).setdefault(unit, []).append(timing)

    def summary(self, name: str, scale=scaled) -> float:
        if name in self.passed:
            seconds = sum(statistics.median(map(scale, t)) for t in self.times[name].values())
            return min(self.passed[name]) / seconds
        return statistics.median(self.values[name])

    def unscaled(self, name: str) -> float:
        return self.summary(name, scale=lambda timing: timing[0])


def timed(fn, *args):
    """(result, (seconds, reference seconds measured just before))."""
    reference = reference_seconds()
    start = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - start, reference)


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _log_path(out_path: Path) -> Path:
    return Path(str(out_path) + ".log.jsonl")


def _patch_events(out_path: Path) -> int:
    with open(_log_path(out_path)) as fh:
        return sum('"event": "patch"' in line for line in fh)


class SweepSr:
    """Criterion-7 sweep: DCT, n = p = 64, sr 0.4/0.6/0.8, 100 trials,
    50 iterations, solvers csim-alm and fista: 600 solves.  ``sweep_sr``
    is called once per (solver, ratio); the rows are those of one call
    per solver, since trial keys do not depend on the ratio list."""

    name = "sweep-sr"
    native = {"alm_solves_per_s", "fista_solves_per_s", "alm_relerr_mean", "fista_relerr_mean", "alm_psnr_db"}
    setup_code = "import csim.experiments as e; e.build_dictionary('dct', 64, 64)"
    solvers = ("csim-alm", "fista")
    srs = (0.4, 0.6, 0.8)
    trials = 100
    recheck = (0, 50, 99)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.first: dict = {}

    def prepare(self) -> None:
        pass

    def _sweep(self, solver: str, sr: float) -> str:
        spec = experiments.ExperimentSpec(
            dict_kind="dct", n=64, p=64, srs=(sr,), trials=self.trials,
            seed=self.seed, solvers=(solver,), max_iter=50,
        )
        try:
            return experiments.sweep_sr(spec)
        except OPERATION_ERRORS:
            return ""

    def execute(self) -> dict:
        return {(solver, sr): timed(self._sweep, solver, sr) for sr in self.srs for solver in self.solvers}

    def _rows_passed(self, D, solver: str, sr: float, rows) -> int:
        flags = checks.sweep_row_flags(rows, solver, (sr,), self.trials)
        for trial in self.recheck:
            if trial < len(flags) and flags[trial]:
                s_true, observed, y = checks.sweep_trial(D.atoms, self.seed, sr, trial)
                result = experiments.run_solver(solver, y, SamplingMask(64, observed), D, max_iter=50)
                flags[trial] = checks.relerr_matches(rows[trial], result.s_hat, s_true)
        return sum(flags)

    def verify(self, out: dict, tally: Tally, samples: Samples) -> None:
        D = experiments.build_dictionary("dct", 64, 64)
        whole = []
        if not np.allclose(D.atoms, checks.dct_ii_atoms(64), rtol=0.0, atol=1e-12):
            whole.append("DCT atoms differ from the DCT-II formula")
        rows, passed = {}, {}
        for (solver, sr), (text, _) in out.items():
            rows[solver, sr] = checks.parse_csv(text)
            if len(rows[solver, sr]) != self.trials:
                whole.append(f"{solver} sr {sr}: {len(rows[solver, sr])} rows, expected {self.trials}")
            if self.first.setdefault((solver, sr), text) != text:
                whole.append(f"{solver} sr {sr}: CSV differs from the first round")
            passed[solver, sr] = self._rows_passed(D, solver, sr, rows[solver, sr])
        means = {
            solver: {sr: checks.mean_column(rows[solver, sr], "relerr") for sr in self.srs}
            for solver in self.solvers
        }
        if not checks.trend_holds(means["csim-alm"], means["fista"]):
            whole.append(f"relerr trend broken: {means}")
        tally.problems += whole
        for solver in self.solvers:
            ok = 0 if whole else sum(passed[solver, sr] for sr in self.srs)
            tally.add(len(self.srs) * self.trials, ok)
            samples.rate(RATE[solver], ok, {sr: out[solver, sr][1] for sr in self.srs})
            samples.value(RELERR[solver], means[solver][0.8])
        samples.value("alm_psnr_db", checks.mean_column(rows["csim-alm", 0.8], "psnr_db"))


class RecoverPgm:
    """``csim recover`` at sr 0.7 with each solver on a 256x256 synthetic
    image cut into 16 64x64 PGM tiles, one call per tile: 1024 8x8 patches
    per solver.  Tile t gets recover seed 16 * seed + t."""

    name = "recover-pgm"
    native = {"alm_solves_per_s", "fista_solves_per_s", "iht_solves_per_s", "alm_psnr_db"}
    setup_code = "import csim.cli, csim.experiments as e; e.build_dictionary('dct', 64, 64)"
    solvers = ("csim-alm", "fista", "iht")
    sr = 0.7
    tile = 64

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        self.clean = experiments.synthetic_image(256, 256, seed=self.seed).astype(float)
        self.tiles = checks.patch_origins(256, 256, self.tile)
        self.masks, zero_filled = [], np.zeros_like(self.clean)
        for t, (r, c) in enumerate(self.tiles):
            part = self.clean[r : r + self.tile, c : c + self.tile]
            checks.write_pgm(self._path("tile", t), part)
            self.masks.append(checks.recover_masks(self.tile, self.tile, self._seed(t), self.sr))
            zero_filled[r : r + self.tile, c : c + self.tile] = checks.zero_filled(part, self.masks[t])
        self.zero_filled_psnr = checks.psnr(zero_filled, self.clean)

    def _seed(self, t: int) -> int:
        return 16 * self.seed + t

    def _path(self, kind: str, t: int) -> Path:
        return self.workdir / f"{kind}-{t}.pgm"

    def execute(self) -> dict:
        return {
            (solver, t): timed(_cli, [
                "recover", "--input", str(self._path("tile", t)),
                "--out", str(self._path(solver, t)), "--sr", str(self.sr),
                "--seed", str(self._seed(t)), "--solver", solver,
            ])
            for t in range(len(self.tiles))
            for solver in self.solvers
        }

    def _solver_passed(self, out: dict, solver: str, tally: Tally, samples: Samples) -> int:
        """Patches of ``solver`` that passed; the whole-image check fails all."""
        image = np.zeros_like(self.clean)
        passed = 0
        for t, (r, c) in enumerate(self.tiles):
            code = out[solver, t][0]
            if code != 0:
                tally.problems.append(f"{solver} tile {t}: recover exited {code}")
                continue
            part = checks.read_pgm(self._path(solver, t))
            image[r : r + self.tile, c : c + self.tile] = part
            if _patch_events(self._path(solver, t)) != len(self.masks[t]):
                tally.problems.append(f"{solver} tile {t}: log does not hold {len(self.masks[t])} patch events")
            elif solver == "csim-alm":
                clean = self.clean[r : r + self.tile, c : c + self.tile]
                passed += int(checks.observed_pixel_flags(part, clean, self.masks[t]).sum())
            else:
                passed += len(self.masks[t])
        score = checks.psnr(image, self.clean)
        if solver == "csim-alm":
            samples.value("alm_psnr_db", score)
        if score <= self.zero_filled_psnr:
            tally.problems.append(f"{solver}: PSNR {score:.2f} dB not above zero-filled {self.zero_filled_psnr:.2f} dB")
            return 0
        return passed

    def verify(self, out: dict, tally: Tally, samples: Samples) -> None:
        patches = sum(len(m) for m in self.masks)
        for solver in self.solvers:
            passed = self._solver_passed(out, solver, tally, samples)
            tally.add(patches, passed)
            samples.rate(RATE[solver], passed, {t: out[solver, t][1] for t in range(len(self.tiles))})
        written = [self._path(solver, t) for (solver, t), (code, _) in out.items() if code == 0]
        samples.value("cli.log_bytes", sum(_log_path(p).stat().st_size for p in written))


class DenoisePgm:
    """``csim denoise`` on a 512x512 synthetic PGM with Gaussian noise of
    sigma 20, methods csim and mse, each with --reference: 8192 patches
    each."""

    name = "denoise-pgm"
    native = {"denoise_patches_per_s", "denoise_psnr_db"}
    setup_code = "import csim.cli"
    methods = ("csim", "mse")
    mean_over_var = {"mse": 1.0, "csim": 0.25}
    sigma = 20.0
    taps = 6
    sample_every = 97

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.clean_path = workdir / "clean.pgm"
        self.noisy_path = workdir / "noisy.pgm"

    def prepare(self) -> None:
        self.clean = experiments.synthetic_image(512, 512, seed=self.seed).astype(float)
        noise = checks.generator(self.seed, 20).standard_normal(self.clean.shape)
        self.noisy = np.clip(np.round(self.clean + self.sigma * noise), 0, 255)
        checks.write_pgm(self.clean_path, self.clean)
        checks.write_pgm(self.noisy_path, self.noisy)
        self.noisy_full_history = checks.full_history_psnr(self.noisy, self.clean, self.taps)
        self.origins = checks.patch_origins(512, 512)

    def _out(self, method: str) -> Path:
        return self.workdir / f"denoised-{method}.pgm"

    def execute(self) -> dict:
        return {
            method: timed(_cli, [
                "denoise", "--input", str(self.noisy_path), "--out", str(self._out(method)),
                "--sigma-n", str(self.sigma), "--method", method, "--m-taps", str(self.taps),
                "--reference", str(self.clean_path),
            ])
            for method in self.methods
        }

    def _sampled_patch_ok(self, image, index: int, method: str) -> bool:
        """The program's taps for this patch match Wiener-Hopf taps solved
        here, and the output patch is the noisy patch filtered by them."""
        r, c = self.origins[index]
        noisy = self.noisy[r : r + 8, c : c + 8].reshape(-1)
        reference = checks.wiener_taps(noisy, self.taps, self.sigma**2, self.mean_over_var[method])
        stats = empirical_stats(noisy, self.taps, self.sigma**2)
        fir = mse_filter(stats) if method == "mse" else csim_filter(stats, CsimParams.defaults(64))
        expected = checks.filtered_patch(noisy, reference)
        got = image[r : r + 8, c : c + 8].reshape(-1)
        return checks.taps_match(fir.taps, reference) and bool(np.all(np.abs(got - expected) <= 1.0))

    def _method_passed(self, method: str, code: int, tally: Tally, samples: Samples) -> int:
        if code != 0:
            tally.problems.append(f"denoise {method} exited {code}")
            return 0
        image = checks.read_pgm(self._out(method))
        if method == "csim":
            samples.value("denoise_psnr_db", checks.psnr(image, self.clean))
        gain = checks.full_history_psnr(image, self.clean, self.taps) - self.noisy_full_history
        if gain <= 0:
            tally.problems.append(f"denoise {method}: full-history PSNR fell by {-gain:.2f} dB")
            return 0
        sampled = range(0, len(self.origins), self.sample_every)
        return len(self.origins) - sum(not self._sampled_patch_ok(image, i, method) for i in sampled)

    def verify(self, out: dict, tally: Tally, samples: Samples) -> None:
        passed = 0
        for method, (code, _) in out.items():
            ok = self._method_passed(method, code, tally, samples)
            tally.add(len(self.origins), ok)
            passed += ok
        samples.rate("denoise_patches_per_s", passed, {m: out[m][1] for m in self.methods})
        written = [self._out(m) for m, (code, _) in out.items() if code == 0]
        samples.value("cli.log_bytes", sum(_log_path(p).stat().st_size for p in written))


class ConvergeAnalysis:
    """``solve`` in the fixed-weight analysis regime on 100 6-sparse
    signals, 51 of 64 samples observed, 2x overcomplete Haar wavelet
    packets.  Inputs sit at the criterion-6 keys, the same for every seed."""

    name = "converge-analysis"
    native = {"alm_solves_per_s", "alm_relerr_mean", "alm_psnr_db"}
    setup_code = "import csim; csim.haar_wp_dictionary(64, 128)"
    problems = 100
    max_iter = 2000
    tol = 1e-8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self) -> None:
        self.codes = [checks.sparse_code(128, 6, 606, t, checks.TAG_SIGNAL) for t in range(self.problems)]
        self.observed = [checks.observed_indices(64, 51, 606, t, checks.TAG_MASK, 51) for t in range(self.problems)]
        self.config = SolverConfig.analysis(l1_weight=1e-3, max_iter=self.max_iter, feasibility_tol=self.tol)
        # Index weights and slack ridge at their documented defaults for n = 64.
        self.ridge = 1.0
        self.W = checks.dense_index_matrix(64, 0.25 * 63, 63.0)

    def _solve(self, y, mask, D):
        try:
            return csim.solver.solve(y, mask, D, self.config)
        except OPERATION_ERRORS:
            return None

    def execute(self) -> dict:
        D = csim.dictionaries.haar_wp_dictionary(64, 128)
        runs = []
        for s, observed in zip(self.codes, self.observed):
            y = np.zeros(64)
            y[observed] = (D.atoms @ s)[observed]
            runs.append(timed(self._solve, y, SamplingMask(64, observed), D))
        return {"atoms": D.atoms, "runs": runs}

    def verify(self, out: dict, tally: Tally, samples: Samples) -> None:
        passed, relerrs, psnrs = 0, [], []
        for s, observed, (r, _) in zip(self.codes, self.observed, out["runs"]):
            if r is None:
                continue
            x = out["atoms"] @ s
            relerrs.append(np.linalg.norm(r.s_hat - s) / np.linalg.norm(s))
            psnrs.append(checks.psnr(r.x_hat, x, peak=float(x.max() - x.min())))
            stopped = (
                r.iterations < self.max_iter
                and r.primal_residuals[-1] < self.tol
                and r.slack_residuals[-1] < self.tol
            )
            passed += stopped and checks.stationarity_ok(
                r.final_slack, r.final_dual_x, r.final_dual_z, observed, self.W, self.ridge
            )
        tally.add(self.problems, passed)
        samples.rate("alm_solves_per_s", passed, {i: t for i, (_, t) in enumerate(out["runs"])})
        samples.value("alm_relerr_mean", float(np.mean(relerrs)) if relerrs else math.nan)
        samples.value("alm_psnr_db", float(np.mean(psnrs)) if psnrs else math.nan)


class Companion:
    """Fixed-input probe for the end-to-end metrics a workload does not
    exercise, so that every result carries every metric.  Its inputs do
    not depend on the seed: 20 sweep trials at sr 0.8 (seed 0) solved
    through ``run_solver``, and a 128x128 noisy image denoised by both
    methods.  Each round runs ``chunks`` identical chunks.  Its samples
    stay in ``self.samples``, apart from the workload's own."""

    chunks = 6
    trials = 20
    solver_metrics = {
        "csim-alm": {"alm_solves_per_s", "alm_relerr_mean", "alm_psnr_db"},
        "fista": {"fista_solves_per_s", "fista_relerr_mean"},
        "iht": {"iht_solves_per_s"},
    }
    denoise_metrics = {"denoise_patches_per_s", "denoise_psnr_db"}

    def __init__(self, metrics: set):
        self.metrics = metrics
        self.samples = Samples()
        self.solvers = [s for s, names in self.solver_metrics.items() if names & metrics]
        if self.solvers:
            self.D = experiments.build_dictionary("dct", 64, 64)
            self.problems = []
            for t in range(self.trials):
                s_true, observed, y = checks.sweep_trial(self.D.atoms, 0, 0.8, t)
                x = self.D.atoms @ s_true
                peak = float(x.max() - x.min())
                self.problems.append((s_true, x, peak, checks.psnr(y, x, peak), y, SamplingMask(64, observed)))
        self.denoise = bool(self.denoise_metrics & metrics)
        if self.denoise:
            self.clean = experiments.synthetic_image(128, 128, seed=0).astype(float)
            noise = checks.generator(0, 20).standard_normal(self.clean.shape)
            self.noisy = np.clip(np.round(self.clean + 20.0 * noise), 0, 255)
            self.noisy_full_history = checks.full_history_psnr(self.noisy, self.clean, 6)

    def _solve_all(self, solver: str):
        results = []
        for *_, y, mask in self.problems:
            try:
                results.append(experiments.run_solver(solver, y, mask, self.D, max_iter=50))
            except OPERATION_ERRORS:
                results.append(None)
        return results

    def _solver_chunk(self, solver: str, tally: Tally) -> None:
        """A solve passes when its output is finite and beats the
        zero-filled observations in PSNR."""
        results, seconds = timed(self._solve_all, solver)
        passed, relerrs, psnrs = 0, [], []
        for (s_true, x, peak, floor, *_), r in zip(self.problems, results):
            if r is None or not np.all(np.isfinite(r.s_hat)):
                continue
            relerrs.append(np.linalg.norm(r.s_hat - s_true) / np.linalg.norm(s_true))
            psnrs.append(checks.psnr(r.x_hat, x, peak))
            passed += psnrs[-1] > floor
        tally.add(self.trials, passed)
        self.samples.rate(RATE[solver], passed, {"chunk": seconds})
        if solver in RELERR:
            self.samples.value(RELERR[solver], float(np.mean(relerrs)))
        if solver == "csim-alm":
            self.samples.value("alm_psnr_db", float(np.mean(psnrs)))

    def _denoise(self, method: str):
        try:
            return csim.denoise.denoise_image(self.noisy, 6, 400.0, CsimParams.defaults(64), method)
        except OPERATION_ERRORS:
            return None

    def _denoise_chunk(self, tally: Tally) -> None:
        """A method's patches pass together when the full-history PSNR rises."""
        patches = (128 // 8) ** 2
        passed, timings = 0, {}
        for method in ("csim", "mse"):
            image, timings[method] = timed(self._denoise, method)
            if image is None:
                continue
            if checks.full_history_psnr(image, self.clean, 6) > self.noisy_full_history:
                passed += patches
            if method == "csim":
                self.samples.value("denoise_psnr_db", checks.psnr(image, self.clean))
        tally.add(2 * patches, passed)
        self.samples.rate("denoise_patches_per_s", passed, timings)

    def run(self, tally: Tally) -> None:
        for _ in range(self.chunks):
            for solver in self.solvers:
                self._solver_chunk(solver, tally)
            if self.denoise:
                self._denoise_chunk(tally)


WORKLOADS = {w.name: w for w in (SweepSr, RecoverPgm, DenoisePgm, ConvergeAnalysis)}
