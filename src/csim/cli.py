"""Command-line driver.

Subcommands: recover, denoise, sweep-sr, sweep-iters, params, dict-info.
Exit codes: 0 success, 2 bad arguments, 3 runtime failure.  A flat
key=value config file can preset csim-alm options; explicit flags win.
The work happens in library calls; this module parses arguments, loads
inputs, writes outputs and the JSON-lines run logs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

import numpy as np

from .core import CsimParams, sensitivity_ratio
from .denoise import denoise_image
from .dictionaries import Dictionary
from .experiments import (
    ExperimentSpec,
    build_dictionary,
    emit_plot_script,
    recover_image,
    recover_patches,
    solver_settings,
    sweep_iters,
    sweep_sr,
)
from .fileio import load_csv_vector, load_pgm, save_csv_vector, save_pgm
from .metrics import PSNR_CSV_CAP, image_ssim, psnr, relative_error
from .paramselect import params_for_ratio, select_ratio
from .solver import SolverConfig

# `denoise` filters 8x8 patches; a filter of m taps needs 2m samples.
_DENOISE_MAX_TAPS = 64 // 2


def _flag(value: str) -> bool:
    word = value.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected true or false, got {value!r}")


def _parser_for(default):
    """Parser of a config value, from the type of its field's default."""
    if isinstance(default, bool):
        return _flag
    return int if isinstance(default, int) else float


# Every SolverConfig field but record_iterates, which asks for a result
# rather than setting the solve.
_SOLVER_KEYS = {
    f.name: _parser_for(f.default) for f in fields(SolverConfig) if f.name != "record_iterates"
}


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return number


def _ratio(value: str) -> float:
    number = float(value)
    if not 0.0 < number <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a ratio in (0, 1], got {value}")
    return number


def _load_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment.  Errors name the
    file and line."""
    out = {}
    with open(path) as fh:
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


def _solver_overrides(args) -> dict:
    options = {}
    if args.config:
        options.update(_load_config_file(args.config))
    if args.max_iter is not None:
        options["max_iter"] = args.max_iter
    return options


def _add_dict_args(parser, default_n=64, default_p=None):
    parser.add_argument("--dict", choices=("dct", "haar-wp"), default="dct")
    parser.add_argument("--n", type=int, default=default_n)
    parser.add_argument("--p", type=int, default=default_p)


def _dictionary_from_args(args) -> Dictionary:
    p = args.p if args.p is not None else args.n
    return build_dictionary(args.dict, args.n, p)


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
    params = params_for_ratio(selection.ratio, D.n)
    print(f"sensitivity ratio: {sensitivity_ratio(params):.9g}")
    return 0


def _log_event(log, event: str, **fields) -> None:
    log.write(json.dumps({"event": event, **fields}, sort_keys=True) + "\n")


def _cmd_recover(args) -> int:
    overrides = args.overrides
    out_log = args.out + ".log.jsonl"
    is_image = args.input.endswith(".pgm")
    if is_image:
        image = load_pgm(args.input).astype(float)
        n = args.n  # patches of side sqrt(n)
    else:
        x = load_csv_vector(args.input)
        n = x.size
    D = build_dictionary(args.dict, n, args.p if args.p is not None else n)
    with open(out_log, "w", newline="\n") as log:
        _log_event(log, "config", **solver_settings(args.solver, D, args.sr, args.seed, overrides))
        if is_image:
            restored, results = recover_image(image, args.sr, args.seed, args.solver, D, overrides)
            for i, result in enumerate(results):
                _log_event(
                    log,
                    "patch",
                    index=i,
                    iterations=result.iterations,
                    final_residual=float(result.primal_residuals[-1]),
                )
            _log_event(log, "result", psnr_db=min(psnr(restored, image), PSNR_CSV_CAP))
            save_pgm(args.out, np.clip(np.round(restored), 0, 255))
        else:
            (result,) = recover_patches(x[None, :], args.sr, args.seed, args.solver, D, overrides)
            for t in range(result.iterations):
                entry = {"t": t + 1, "coupling_residual": float(result.primal_residuals[t])}
                if result.slack_residuals is not None:
                    entry["slack_residual"] = float(result.slack_residuals[t])
                _log_event(log, "iteration", **entry)
            peak = max(x.max() - x.min(), 1.0)
            fidelity = relative_error(result.x_hat, x) if np.linalg.norm(x) > 0 else None
            _log_event(
                log,
                "result",
                iterations=result.iterations,
                psnr_db=min(psnr(result.x_hat, x, peak=peak), PSNR_CSV_CAP),
                rel_data_fidelity=fidelity,
            )
            save_csv_vector(args.out, result.x_hat)
    print(f"wrote {args.out} and {out_log}")
    return 0


def _cmd_denoise(args) -> int:
    image = load_pgm(args.input).astype(float)
    params = CsimParams.defaults(64)  # quarter mean/var ratio on 8x8 patches
    out = denoise_image(
        image,
        m=args.m_taps,
        sigma_n_sq=args.sigma_n**2,
        params=params,
        method=args.method,
    )
    save_pgm(args.out, np.clip(np.round(out), 0, 255))
    log_path = args.out + ".log.jsonl"
    with open(log_path, "w", newline="\n") as log:
        _log_event(log, "config", method=args.method, m_taps=args.m_taps, sigma_n=args.sigma_n)
        entry = {}
        if args.reference:
            clean = load_pgm(args.reference).astype(float)
            entry["psnr_db"] = min(psnr(out, clean), PSNR_CSV_CAP)
            entry["ssim"] = image_ssim(out, clean)
            entry["input_psnr_db"] = min(psnr(image, clean), PSNR_CSV_CAP)
        _log_event(log, "result", **entry)
    print(f"wrote {args.out} and {log_path}")
    return 0


def _run_sweep(args, mode: str) -> int:
    spec = ExperimentSpec(
        dict_kind=args.dict,
        n=args.n,
        p=args.p if args.p is not None else args.n,
        srs=tuple(args.sr) if args.sr else (0.4, 0.6, 0.8),
        trials=args.trials,
        seed=args.seed,
        solvers=tuple(args.solver) if args.solver else ("csim-alm", "fista"),
        max_iter=args.max_iter if args.max_iter is not None else 50,
        timing=args.timing,
        corpus=tuple(getattr(args, "corpus", None) or ()),
    )
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
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument(
        "--solver", choices=("csim-alm", "fista", "iht"), default="csim-alm"
    )
    p_rec.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=None)
    p_rec.add_argument("--config", default=None, help="key=value config file")
    _add_dict_args(p_rec)
    p_rec.set_defaults(func=_cmd_recover)

    p_den = sub.add_parser("denoise", help="FIR-denoise a PGM image")
    p_den.add_argument("--input", required=True)
    p_den.add_argument("--out", required=True)
    p_den.add_argument("--sigma-n", dest="sigma_n", type=float, required=True)
    p_den.add_argument("--method", choices=("mse", "csim"), default="csim")
    p_den.add_argument("--m-taps", dest="m_taps", type=int, default=6)
    p_den.add_argument("--reference", default=None, help="clean image for scoring")
    p_den.set_defaults(func=_cmd_denoise)

    for mode in ("sweep-sr", "sweep-iters"):
        p_sw = sub.add_parser(mode, help=f"batch experiment: {mode}")
        _add_dict_args(p_sw)
        p_sw.add_argument("--sr", type=_ratio, action="append", default=None)
        p_sw.add_argument("--trials", type=_positive_int, default=100)
        p_sw.add_argument("--seed", type=int, default=0)
        p_sw.add_argument(
            "--solver",
            action="append",
            choices=("csim-alm", "fista", "iht"),
            default=None,
        )
        p_sw.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=None)
        p_sw.add_argument("--out", required=True)
        if mode == "sweep-sr":
            p_sw.add_argument(
                "--timing",
                action="store_true",
                help="include wall-clock runtimes (breaks byte reproducibility)",
            )
            p_sw.add_argument(
                "--corpus",
                action="append",
                default=None,
                help="PGM file or directory to draw patches from (repeatable); "
                "default is synthetic exactly-sparse signals",
            )
            p_sw.set_defaults(func=lambda a: _run_sweep(a, "sweep-sr"))
        else:
            p_sw.add_argument(
                "--no-timing",
                dest="timing",
                action="store_false",
                help="zero the elapsed column for byte reproducibility",
            )
            p_sw.set_defaults(timing=True, func=lambda a: _run_sweep(a, "sweep-iters"))

    p_par = sub.add_parser("params", help="report weight-ratio bounds")
    _add_dict_args(p_par)
    p_par.add_argument("--kappa-max", dest="kappa_max", type=float, default=4.0)
    p_par.add_argument("--delta", type=float, default=0.4)
    p_par.add_argument("--k", type=int, default=None)
    p_par.set_defaults(func=_cmd_params)

    p_di = sub.add_parser("dict-info", help="describe a dictionary")
    _add_dict_args(p_di)
    p_di.add_argument("--export", default=None, help="write atoms to CSV")
    p_di.set_defaults(func=_cmd_dict_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "recover":
        if args.config and args.solver != "csim-alm":
            parser.error(
                f"--config keys are csim-alm settings; --solver {args.solver} does not read them"
            )
        if args.input.endswith(".pgm") and not (args.n >= 4 and math.isqrt(args.n) ** 2 == args.n):
            parser.error(f"--n {args.n}: PGM input needs a square patch length of at least 4")
        try:
            args.overrides = _solver_overrides(args)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    if args.command == "denoise":
        if not (math.isfinite(args.sigma_n) and args.sigma_n >= 0):
            parser.error(f"--sigma-n {args.sigma_n}: expected a nonnegative noise level")
        if not 1 <= args.m_taps <= _DENOISE_MAX_TAPS:
            parser.error(
                f"--m-taps {args.m_taps}: an 8x8 patch allows 1 to {_DENOISE_MAX_TAPS} taps"
            )
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
