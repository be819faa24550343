"""Command-line driver.

Subcommands: recover, denoise, sweep-sr, sweep-iters, params, dict-info.
A flat key=value config file can preset csim-alm options; explicit flags
win.  The work happens in library calls; this module parses arguments,
loads inputs, writes outputs and the JSON-lines run logs.

Exit codes: 0 success, 2 bad arguments, 3 runtime failure.  A flag's
argparse ``type``, made by ``_checked``, checks the value it holds.  A
command raises ``_ArgumentError``, before anything is written, for the
checks that a type cannot make: a flag against another flag or against
the kind of ``--input`` (a PGM needs a square ``--n``), the ``--config``
file and its keys, the ``--corpus`` paths, and the dictionary shape that
the flags (or a CSV input's length) give.
``main`` only dispatches: it exits 2 on ``_ArgumentError`` and 3 on any
other error, such as an ``--input`` or ``--reference`` file that cannot
be read or a ``--reference`` whose shape differs from the input's.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields

import numpy as np

from .core import CsimParams, sensitivity_ratio
from .denoise import PATCH_SIDE, _denoise_image
from .dictionaries import Dictionary
from .experiments import (
    DICTIONARY_KINDS,
    SOLVER_NAMES,
    ExperimentSpec,
    build_dictionary,
    corpus_files,
    emit_plot_script,
    recover_image,
    recover_patches,
    solver_settings,
    sweep_iters,
    sweep_sr,
)
from .fileio import load_csv_vector, load_pgm, save_csv_vector, save_pgm
from .metrics import PSNR_CSV_CAP, image_ssim, psnr, relative_error
from .paramselect import DEFAULT_DELTA, DEFAULT_KAPPA_MAX, select_ratio
from .solver import SolverConfig

# Every SolverConfig field but record_iterates, which asks for a result
# rather than setting the solve; each value parses as its default's type.
_SOLVER_KEYS = {
    f.name: int if isinstance(f.default, int) else float
    for f in fields(SolverConfig)
    if f.name != "record_iterates"
}


def _checked(convert, accept, expected):
    """An argparse ``type``: ``convert`` the text, then reject a value
    ``accept`` refuses; argparse's message names the flag."""

    def check(value: str):
        number = convert(value)
        if not accept(number):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
        return number

    check.__name__ = convert.__name__  # argparse's "invalid int value"
    return check


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_positive_finite = _checked(float, lambda v: math.isfinite(v) and v > 0, "a positive finite number")
_ratio = _checked(float, lambda v: 0.0 < v <= 1.0, "a ratio in (0, 1]")
_delta = _checked(float, lambda v: 0.0 < v < 1.0, "an isometry constant in (0, 1)")
# The command squares the level: a level whose square overflows is no level.
_noise_level = _checked(
    float, lambda v: v >= 0 and math.isfinite(v * v), "a noise level of at least 0 with a finite square"
)
# A filter of m taps needs 2m samples of its patch.
_DENOISE_MAX_TAPS = PATCH_SIDE**2 // 2
_taps = _checked(
    int,
    lambda v: 1 <= v <= _DENOISE_MAX_TAPS,
    f"1 to {_DENOISE_MAX_TAPS} taps for {PATCH_SIDE}x{PATCH_SIDE} patches",
)


def _load_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment.  Errors name the
    file and line."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SOLVER_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _SOLVER_KEYS[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out


def _add_dict_args(parser):
    parser.add_argument("--dict", choices=DICTIONARY_KINDS, default="dct")
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--p", type=int, default=None)


class _ArgumentError(ValueError):
    """A bad argument found after parsing; ``main`` exits 2 on it."""


def _dictionary_from_args(args, n: int | None = None, size: str | None = None) -> Dictionary:
    """The --dict dictionary on n samples (default --n); ``size`` says
    where n came from.  A shape the builders reject is a bad argument."""
    if n is None:
        n, size = args.n, f"--n {args.n}"
    p = args.p if args.p is not None else n
    try:
        return build_dictionary(args.dict, n, p)
    except ValueError as exc:
        flags = [f"--dict {args.dict}", size] + ([f"--p {args.p}"] if args.p is not None else [])
        raise _ArgumentError(f"{', '.join(flags)}: {exc}") from None


def _cmd_dict_info(args) -> int:
    D = _dictionary_from_args(args)
    gram = D.atoms.T @ D.atoms
    ortho = float(np.abs(gram - np.eye(D.p)).max()) if D.n == D.p else float("nan")
    print(f"dict: {args.dict}  n={D.n}  p={D.p}")
    print(f"coherence: {D.coherence:.12g}")
    print(f"spectral_norm_sq: {D.spectral_norm_sq:.12g}")
    if D.n == D.p:
        print(f"max |gram - identity|: {ortho:.3e}")
    if args.export:
        D.to_csv(args.export)
        print(f"wrote atoms to {args.export}")
    return 0


def _cmd_params(args) -> int:
    D = _dictionary_from_args(args)
    selection = select_ratio(D, kappa_max=args.kappa_max, delta=args.delta, k=args.k)
    kappa_b = selection.kappa_bound
    rip_b = selection.rip_bound
    print(f"dict: {args.dict}  n={D.n}  p={D.p}")
    print(f"coherence: {D.coherence:.12g}")
    print(f"spectral_norm_sq: {D.spectral_norm_sq:.12g}")
    if kappa_b.feasible:
        print(f"kappa bound: ratio <= {kappa_b.ratio_upper:.6g}")
    else:
        print(f"kappa bound: infeasible ({kappa_b.reason})")
    if rip_b is None:
        print("rip bound: skipped (support size out of range)")
    elif rip_b.feasible:
        print(f"rip bound: ratio <= {rip_b.ratio_upper:.6g}")
    else:
        print(f"rip bound: infeasible ({rip_b.violated})")
    print(f"selected ratio var_weight/mean_weight: {selection.ratio:.6g} [{selection.source}]")
    params = CsimParams.for_ratio(selection.ratio, D.n)
    print(f"sensitivity ratio: {sensitivity_ratio(params):.9g}")
    return 0


def _write_run(out: str, save, data, events) -> None:
    """``save(out, data)``, then the run log, one JSON line per event.  A
    command computes both first, so a failing run writes neither."""
    log_path = out + ".log.jsonl"
    save(out, data)
    with open(log_path, "w", newline="\n") as log:
        log.writelines(json.dumps(event, sort_keys=True) + "\n" for event in events)
    print(f"wrote {out} and {log_path}")


def _cmd_recover(args) -> int:
    is_image = args.input.endswith(".pgm")
    if args.config and args.solver != SOLVER_NAMES[0]:
        raise _ArgumentError(
            f"--config keys are csim-alm settings; --solver {args.solver} does not read them"
        )
    if is_image and not (args.n >= 4 and math.isqrt(args.n) ** 2 == args.n):
        raise _ArgumentError(f"--n {args.n}: PGM input needs a square patch length of at least 4")
    try:
        options = _load_config_file(args.config) if args.config else {}
    except (OSError, UnicodeDecodeError) as exc:
        raise _ArgumentError(f"--config {args.config}: {exc}") from None
    except ValueError as exc:  # its message names the file and line
        raise _ArgumentError(str(exc)) from None
    if args.max_iter is not None:
        options["max_iter"] = args.max_iter
    if is_image:
        image = load_pgm(args.input).astype(float)
        D = _dictionary_from_args(args)  # patches of side sqrt(--n)
    else:
        x = load_csv_vector(args.input)
        D = _dictionary_from_args(args, x.size, f"{x.size} samples in --input")
    try:
        settings = solver_settings(args.solver, D, args.sr, **options)
    except ValueError as exc:
        source = f"--config {args.config}: " if args.config else ""
        raise _ArgumentError(f"{source}{exc}") from None
    events = [dict(event="config", **settings)]
    if is_image:
        restored, results = recover_image(image, args.sr, args.seed, args.solver, D, **options)
        for i, result in enumerate(results):
            final = float(result.primal_residuals[-1])
            events.append(
                dict(
                    event="patch",
                    index=i,
                    iterations=result.iterations,
                    final_residual=final,
                    stop_reason=result.stop_reason,
                )
            )
        events.append(dict(event="result", psnr_db=min(psnr(restored, image), PSNR_CSV_CAP)))
        _write_run(args.out, save_pgm, np.clip(np.round(restored), 0, 255), events)
        return 0
    (result,) = recover_patches(x[None, :], args.sr, args.seed, args.solver, D, **options)
    for t in range(result.iterations):
        entry = {"t": t + 1, "coupling_residual": float(result.primal_residuals[t])}
        if result.slack_residuals is not None:
            entry["slack_residual"] = float(result.slack_residuals[t])
        events.append(dict(event="iteration", **entry))
    peak = max(x.max() - x.min(), 1.0)
    events.append(
        dict(
            event="result",
            iterations=result.iterations,
            psnr_db=min(psnr(result.x_hat, x, peak=peak), PSNR_CSV_CAP),
            rel_data_fidelity=relative_error(result.x_hat, x) if np.linalg.norm(x) > 0 else None,
        )
    )
    _write_run(args.out, save_csv_vector, result.x_hat, events)
    return 0


def _cmd_denoise(args) -> int:
    image = load_pgm(args.input).astype(float)
    clean = load_pgm(args.reference).astype(float) if args.reference else None
    if clean is not None and clean.shape != image.shape:
        raise ValueError(f"--reference has shape {clean.shape}, --input has shape {image.shape}")
    result = {}
    if clean is not None:
        # scored first: its temporary is freed before the patch stack is made
        result["input_psnr_db"] = min(psnr(image, clean), PSNR_CSV_CAP)
    params = CsimParams.defaults(PATCH_SIDE**2) if args.method == "csim" else None
    out, floored = _denoise_image(image, args.m_taps, args.sigma_n**2, params, args.method)
    config = {"method": args.method, "m_taps": args.m_taps, "sigma_n": args.sigma_n}
    if params is not None:  # mse reads no index weights
        config.update(mean_weight=params.mean_weight, var_weight=params.var_weight)
    result["floored_patches"] = int(np.count_nonzero(floored))
    if clean is not None:
        result["psnr_db"] = min(psnr(out, clean), PSNR_CSV_CAP)
        result["ssim"] = image_ssim(out, clean)
    events = [dict(event="config", side=PATCH_SIDE, **config), dict(event="result", **result)]
    np.clip(np.round(out, out=out), 0, 255, out=out)
    _write_run(args.out, save_pgm, out, events)
    return 0


def _run_sweep(args, mode: str) -> int:
    _dictionary_from_args(args)  # a shape the builders reject is a bad argument
    corpus = tuple(getattr(args, "corpus", None) or ())
    try:
        spec = ExperimentSpec(
            dict_kind=args.dict,
            n=args.n,
            p=args.p if args.p is not None else args.n,
            srs=tuple(args.sr) if args.sr else ExperimentSpec.srs,
            trials=args.trials,
            seed=args.seed,
            solvers=tuple(args.solver) if args.solver else ExperimentSpec.solvers,
            max_iter=args.max_iter,
            timing=args.timing,
            corpus=corpus,
        )
        if corpus:
            corpus_files(corpus)
    except ValueError as exc:  # the parser has checked every other field
        raise _ArgumentError(f"--corpus {' '.join(corpus)}: {exc}") from None
    text = sweep_sr(spec) if mode == "sweep-sr" else sweep_iters(spec)
    with open(args.out, "w", newline="\n") as fh:
        fh.write(text)
    script_path = args.out + ".plot.py"
    with open(script_path, "w", newline="\n") as fh:
        fh.write(emit_plot_script(args.out, mode))
    print(f"wrote {args.out} and {script_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csim",
        description="Convex-similarity missing-sample recovery and denoising",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("recover", help="recover one CSV vector or PGM image")
    p_rec.add_argument("--input", required=True)
    p_rec.add_argument("--out", required=True)
    p_rec.add_argument("--sr", type=_ratio, default=0.8, help="sampling ratio")
    p_rec.add_argument("--seed", type=_nonnegative_int, default=0)
    p_rec.add_argument("--solver", choices=SOLVER_NAMES, default=SOLVER_NAMES[0])
    p_rec.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=None)
    p_rec.add_argument("--config", default=None, help="key=value config file")
    _add_dict_args(p_rec)
    p_rec.set_defaults(func=_cmd_recover)

    p_den = sub.add_parser("denoise", help="FIR-denoise a PGM image")
    p_den.add_argument("--input", required=True)
    p_den.add_argument("--out", required=True)
    p_den.add_argument("--sigma-n", dest="sigma_n", type=_noise_level, required=True)
    p_den.add_argument("--method", choices=("mse", "csim"), default="csim")
    p_den.add_argument("--m-taps", dest="m_taps", type=_taps, default=6)
    p_den.add_argument("--reference", default=None, help="clean image for scoring")
    p_den.set_defaults(func=_cmd_denoise)

    for mode in ("sweep-sr", "sweep-iters"):
        p_sw = sub.add_parser(mode, help=f"batch experiment: {mode}")
        _add_dict_args(p_sw)
        p_sw.add_argument("--sr", type=_ratio, action="append", default=None)
        p_sw.add_argument("--trials", type=_positive_int, default=ExperimentSpec.trials)
        p_sw.add_argument("--seed", type=_nonnegative_int, default=0)
        p_sw.add_argument("--solver", action="append", choices=SOLVER_NAMES, default=None)
        p_sw.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=ExperimentSpec.max_iter)
        p_sw.add_argument("--out", required=True)
        p_sw.add_argument(
            "--timing",
            action="store_true",
            help="include wall-clock times (breaks byte reproducibility)",
        )
        if mode == "sweep-sr":
            p_sw.add_argument(
                "--corpus",
                action="append",
                default=None,
                help="PGM file or directory to draw patches from (repeatable); "
                "default is synthetic exactly-sparse signals",
            )
        p_sw.set_defaults(func=functools.partial(_run_sweep, mode=mode))

    p_par = sub.add_parser("params", help="report weight-ratio bounds")
    _add_dict_args(p_par)
    p_par.add_argument(
        "--kappa-max", dest="kappa_max", type=_positive_finite, default=DEFAULT_KAPPA_MAX
    )
    p_par.add_argument("--delta", type=_delta, default=DEFAULT_DELTA)
    p_par.add_argument("--k", type=_positive_int, default=None)
    p_par.set_defaults(func=_cmd_params)

    p_di = sub.add_parser("dict-info", help="describe a dictionary")
    _add_dict_args(p_di)
    p_di.add_argument("--export", default=None, help="write atoms to CSV")
    p_di.set_defaults(func=_cmd_dict_info)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``: built on its first call, not at import,
    and reused (parsing leaves no state in it)."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ArgumentError as exc:
        parser.error(str(exc))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
