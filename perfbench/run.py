"""Outside-in benchmark of csim.

    python3 perfbench/run.py --workload sweep-sr --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # each workload in a fresh process

With ``--trace 0`` a run repeats whole rounds of its workload for
``--seconds`` and reports the end-to-end metrics: medians over its
samples, and rates from scaled unit times (see workloads.py).  With ``--trace 1`` it runs a traced round between two plain
ones and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep-sr", "recover-pgm", "denoise-pgm", "converge-analysis")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PER_ROUND = 2
SETUP_MIN = 9

# Every end-to-end metric every run reports, with its unit.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("alm_solves_per_s", "1/s"),
    ("fista_solves_per_s", "1/s"),
    ("iht_solves_per_s", "1/s"),
    ("denoise_patches_per_s", "1/s"),
    ("alm_relerr_mean", "1"),
    ("fista_relerr_mean", "1"),
    ("alm_psnr_db", "dB"),
    ("denoise_psnr_db", "dB"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_threads() -> int:
    """One BLAS thread per process and at most nproc sweep workers, so the
    load never asks for more threads than there are processors.  Returns
    the sweep's worker count (CSIM_THREADS, or the package default)."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    requested = os.environ.get("CSIM_THREADS", "").strip()
    workers = int(requested) if requested else min(4, os.cpu_count() or 1)
    if workers > nproc():
        workers = nproc()
        os.environ["CSIM_THREADS"] = str(workers)
    return workers


def git_state():
    if not (ROOT / ".git").exists():
        return None, None

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def machine_block(seed: int, workers: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    sha, dirty = git_state()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "sweep_workers": workers,
        "processes": 1,
        "seed": seed,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def measure_setup(code: str, repeats: int) -> list[tuple[float, float]]:
    """(wall time, reference seconds) of fresh interpreters that import
    csim and build the workload's dictionary."""
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launch = functools.partial(subprocess.run, [sys.executable, "-c", code], env=env, check=True,
                               timeout=120, stdout=subprocess.DEVNULL)
    return [workloads.timed(launch)[1] for _ in range(repeats)]


def run_workload(args, workers: int) -> dict:
    import spans
    import workloads

    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, workdir)
    companion = workloads.Companion({name for name, _ in END_TO_END} - cls.native - {"setup_s", "peak_rss_mib"})
    tally = workloads.Tally()
    samples = workloads.Samples()

    def one_round(tracer=None) -> float:
        start = time.perf_counter()
        if tracer is None:
            out = workload.execute()
        else:
            with spans.installed(tracer):
                out = workload.execute()
        elapsed = time.perf_counter() - start
        workload.verify(out, tally, samples)
        companion.run(tally)
        return elapsed

    def source(name: str) -> workloads.Samples:
        return companion.samples if name in companion.metrics else samples

    rounds = 0
    unscaled = {}
    try:
        workload.prepare()
        if args.trace:
            # Plain rounds on both sides of the traced one, so warm-up and
            # drift do not land in the overhead.
            tracer = spans.Tracer()
            before = one_round()
            traced = one_round(tracer)
            after = one_round()
            rounds = 3
            log_bytes = samples.values.get("cli.log_bytes", [0, 0])[1]
            metrics = spans.per_layer_metrics(tracer, log_bytes, traced - (before + after) / 2)
            tracer.save(workdir.parent / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            # Set-up samples are spread over the run, between rounds, so
            # their median does not rest on one stretch of machine speed.
            setup = []
            measuring = 0.0
            while True:
                setup += measure_setup(cls.setup_code, SETUP_PER_ROUND)
                start = time.perf_counter()
                one_round()
                measuring += time.perf_counter() - start
                rounds += 1
                if measuring >= args.seconds:
                    break
            setup += measure_setup(cls.setup_code, max(0, SETUP_MIN - len(setup)))
            samples.values["setup_s"] = [workloads.scaled(t) for t in setup]
            samples.value("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            metrics = {name: {"value": source(name).summary(name), "unit": unit} for name, unit in END_TO_END}
            unscaled = {name: source(name).unscaled(name) for name, unit in END_TO_END if unit == "1/s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "detail": {
            "workload": args.workload,
            "trace": args.trace,
            "rounds": rounds,
            "unscaled_rates": unscaled,
            "problems": tally.problems,
            "machine": machine_block(args.seed, workers),
        },
        "result": {
            "correct": not tally.problems,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
    }


def print_result(report: dict) -> None:
    detail, result = report["detail"], report["result"]
    print(
        f"{detail['workload']}: seed {detail['machine']['seed']}, {detail['rounds']} rounds, "
        f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}"
    )
    for problem in detail["problems"]:
        print(f"  check failed: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    code = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": summary}, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "csim" / "__init__.py").is_file():
        print(f"error: no csim package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workers = pin_threads()
    sys.path.insert(0, str(SRC))
    import csim

    if Path(csim.__file__).resolve().parent != (SRC / "csim").resolve():
        print(f"error: imported csim from {csim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print_result(run_workload(args, workers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
