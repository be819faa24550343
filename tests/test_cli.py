import json
from dataclasses import fields

import numpy as np
import pytest

import csim.cli
import csim.solver
from csim.cli import build_parser, main
from csim.core import CsimParams
from csim.denoise import denoise_image, denoise_patches
from csim.dictionaries import dct_dictionary
from csim.experiments import ExperimentSpec, add_noise_snr, observation_mask, synthetic_image
from csim.fileio import load_csv_vector, load_pgm, save_csv_vector, save_pgm
from csim.metrics import PSNR_CSV_CAP, image_ssim, psnr
from csim.paramselect import DEFAULT_DELTA, DEFAULT_KAPPA_MAX
from csim.signals import PatchGrid, extract_patches, substream, synth_sparse_signal
from csim.solver import SolverConfig, solve


# an orthonormal dictionary's kappa bound is vacuous, however its gap
# rounds; DCT 2 has no RIP bound either, so it takes the default
@pytest.mark.parametrize(
    "n, rip, selected",
    [
        (64, "rip bound: ratio <=", "1.02213 [rip-limited]"),
        (2, "rip bound: skipped (support size out of range)", "4 [default-fallback]"),
    ],
)
def test_params_complete_dct(n, rip, selected, capsys):
    assert main(["params", "--dict", "dct", "--n", str(n)]) == 0
    out = capsys.readouterr().out
    coherence = float(
        next(l for l in out.splitlines() if l.startswith("coherence:")).split(":")[1]
    )
    assert coherence < 1e-10
    assert "kappa bound: infeasible" in out
    assert rip in out
    assert f"selected ratio var_weight/mean_weight: {selected}" in out


def test_params_overcomplete_haar_falls_back(capsys):
    assert main(["params", "--dict", "haar-wp", "--n", "64", "--p", "128"]) == 0
    out = capsys.readouterr().out
    assert "default-fallback" in out
    assert "selected ratio var_weight/mean_weight: 4" in out
    assert "sensitivity ratio: 4.015625" in out


def test_dict_info_with_export(tmp_path, capsys):
    out_csv = tmp_path / "atoms.csv"
    assert main(
        ["dict-info", "--dict", "haar-wp", "--n", "8", "--p", "8", "--export", str(out_csv)]
    ) == 0
    text = capsys.readouterr().out
    assert "n=8" in text and "p=8" in text
    assert out_csv.read_text().startswith("n,p\n8,8\n")


def test_recover_vector_full_observation(tmp_path):
    rng = substream(1, 2)
    x = rng.standard_normal(64)
    src = tmp_path / "x.csv"
    dst = tmp_path / "xhat.csv"
    save_csv_vector(src, x)
    code = main(
        [
            "recover",
            "--input",
            str(src),
            "--out",
            str(dst),
            "--sr",
            "1.0",
            "--max-iter",
            "50",
        ]
    )
    assert code == 0
    recovered = load_csv_vector(dst)
    np.testing.assert_allclose(recovered, x, atol=1e-10)
    log_lines = [json.loads(l) for l in (tmp_path / "xhat.csv.log.jsonl").read_text().splitlines()]
    assert log_lines[0]["event"] == "config"
    for key in (
        "rho1",
        "max_iter",
        "feasibility_tol",
        "l1_weight",
        "gram_norm",
        "l1_init_scale",
        "l1_decay",
        "l1_weight_min",
        "majorizer_scale",
    ):
        assert key in log_lines[0]
    for key in ("rho2", "mean_weight", "var_weight", "slack_ridge", "relaxation"):
        assert key not in log_lines[0]  # the protocol's projection never reads them
    for key in ("continuation", "project_observed", "majorizer0"):
        assert key not in log_lines[0]  # the regime follows from l1_weight
    iteration_events = [l for l in log_lines if l["event"] == "iteration"]
    assert len(iteration_events) >= 1
    assert log_lines[-1]["event"] == "result"


def test_recover_image_runs(tmp_path):
    image = synthetic_image(16, 16, seed=3)
    src = tmp_path / "img.pgm"
    dst = tmp_path / "rec.pgm"
    save_pgm(src, image)
    code = main(
        [
            "recover",
            "--input",
            str(src),
            "--out",
            str(dst),
            "--sr",
            "0.9",
            "--max-iter",
            "30",
        ]
    )
    assert code == 0
    out = load_pgm(dst)
    assert out.shape == (16, 16)
    events = [json.loads(l) for l in (tmp_path / "rec.pgm.log.jsonl").read_text().splitlines()]
    assert events[0]["event"] == "config"
    assert sum(e["event"] == "patch" for e in events) == 4
    assert events[-1]["event"] == "result"


def test_recover_pgm_log_says_why_each_patch_stopped(tmp_path):
    # The all-zero left half stays at zero and converges at once; the
    # right half runs out of its budget.
    image = synthetic_image(16, 16, seed=2)
    image[:, :8] = 0
    src = tmp_path / "img.pgm"
    save_pgm(src, image)
    dst = tmp_path / "rec.pgm"
    assert main(["recover", "--input", str(src), "--out", str(dst), "--max-iter", "20"]) == 0
    events = [json.loads(l) for l in (tmp_path / "rec.pgm.log.jsonl").read_text().splitlines()]
    patches = [e for e in events if e["event"] == "patch"]
    assert [(e["index"], e["iterations"], e["stop_reason"]) for e in patches] == [
        (0, 1, "converged"),
        (1, 20, "budget"),
        (2, 1, "converged"),
        (3, 20, "budget"),
    ]
    # a zero tolerance turns the stop off, even for the all-zero patches
    cfg = tmp_path / "no-stop.cfg"
    cfg.write_text("feasibility_tol = 0\n")
    argv = ["recover", "--input", str(src), "--out", str(dst), "--max-iter", "20"]
    assert main(argv + ["--config", str(cfg)]) == 0
    events = [json.loads(l) for l in (tmp_path / "rec.pgm.log.jsonl").read_text().splitlines()]
    patches = [e for e in events if e["event"] == "patch"]
    assert [(e["iterations"], e["stop_reason"]) for e in patches] == [(20, "budget")] * 4


def test_config_file_and_flag_override(tmp_path):
    x = substream(4, 5).standard_normal(32)
    src = tmp_path / "x.csv"
    save_csv_vector(src, x)
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("max_iter = 7\nfeasibility_tol = 1e-7  # comment\n")
    dst = tmp_path / "out.csv"
    assert main(
        ["recover", "--input", str(src), "--out", str(dst), "--sr", "0.8", "--config", str(cfg)]
    ) == 0
    config_line = json.loads((tmp_path / "out.csv.log.jsonl").read_text().splitlines()[0])
    assert config_line["max_iter"] == 7
    assert config_line["feasibility_tol"] == 1e-7
    # explicit flag beats the file value
    assert main(
        [
            "recover",
            "--input",
            str(src),
            "--out",
            str(dst),
            "--sr",
            "0.8",
            "--config",
            str(cfg),
            "--max-iter",
            "9",
        ]
    ) == 0
    config_line = json.loads((tmp_path / "out.csv.log.jsonl").read_text().splitlines()[0])
    assert config_line["max_iter"] == 9


def test_config_file_accepts_every_solver_field(tmp_path):
    values = {
        "max_iter": "7",
        "mean_weight": "10",
        "var_weight": "30",
        "feasibility_tol": "1e-7",
        "l1_weight": "0.01",
    }
    assert set(values) == {f.name for f in fields(SolverConfig)} - {"record_iterates"}
    src = tmp_path / "x.csv"
    save_csv_vector(src, substream(4, 5).standard_normal(32))
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    dst = tmp_path / "out.csv"
    assert main(["recover", "--input", str(src), "--out", str(dst), "--config", str(cfg)]) == 0
    config_line = json.loads((tmp_path / "out.csv.log.jsonl").read_text().splitlines()[0])
    assert config_line["max_iter"] == 7 and isinstance(config_line["max_iter"], int)
    for key, value in values.items():
        if key != "max_iter":
            assert config_line[key] == float(value), key


def test_config_file_with_an_l1_weight_runs_the_over_relaxed_analysis_iteration(
    tmp_path, monkeypatch
):
    D = dct_dictionary(64, 64)
    x = synth_sparse_signal(D, 4, 3).x
    src = tmp_path / "x.csv"
    save_csv_vector(src, x)
    cfg = tmp_path / "analysis.cfg"
    cfg.write_text("l1_weight = 0.001\nmax_iter = 400\nfeasibility_tol = 1e-8\n")

    def coupling_residuals(name):
        argv = ["recover", "--input", str(src), "--out", str(tmp_path / name), "--sr", "0.5"]
        assert main(argv + ["--config", str(cfg)]) == 0
        events = [json.loads(l) for l in (tmp_path / f"{name}.log.jsonl").read_text().splitlines()]
        return [e["coupling_residual"] for e in events if e["event"] == "iteration"]

    config = SolverConfig.analysis(l1_weight=1e-3, max_iter=400, feasibility_tol=1e-8)
    want = solve(x, observation_mask(64, 0.5, 0, 0), D, config)
    assert want.stop_reason == "converged"
    assert coupling_residuals("relaxed.csv") == want.primal_residuals.tolist()
    monkeypatch.setattr(csim.solver, "_RELAXATION", 1.0)
    assert coupling_residuals("plain.csv") != want.primal_residuals.tolist()


def test_config_file_rejects_record_iterates(tmp_path, capsys):
    src = tmp_path / "x.csv"
    save_csv_vector(src, substream(6, 7).standard_normal(16))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("record_iterates = yes\n")
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", str(src), "--out", str(tmp_path / "o.csv"), "--config", str(cfg)])
    assert err.value.code == 2
    assert f"{cfg}:1: unknown key 'record_iterates'" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["x.csv", "img.pgm"])
@pytest.mark.parametrize("solver", ["fista", "iht"])
def test_recover_baseline_log_echoes_only_its_settings(tmp_path, solver, source):
    src = tmp_path / source
    if source.endswith(".pgm"):
        save_pgm(src, synthetic_image(16, 16, seed=3))
    else:
        save_csv_vector(src, substream(1, 2).standard_normal(64))
    dst = tmp_path / ("out" + src.suffix)
    argv = ["recover", "--input", str(src), "--out", str(dst), "--solver", solver]
    assert main(argv + ["--max-iter", "12"]) == 0
    config_line = json.loads((tmp_path / (dst.name + ".log.jsonl")).read_text().splitlines()[0])
    assert config_line == {"event": "config", "solver": solver, "max_iter": 12}


@pytest.mark.parametrize("solver", ["fista", "iht"])
def test_recover_rejects_config_file_for_baselines(tmp_path, capsys, solver):
    src = tmp_path / "x.csv"
    save_csv_vector(src, substream(4, 5).standard_normal(32))
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("max_iter = 7\n")
    argv = ["recover", "--input", str(src), "--out", str(tmp_path / "o.csv"), "--solver", solver]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--config", str(cfg)])
    assert err.value.code == 2
    assert "csim-alm settings" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    x = substream(6, 7).standard_normal(16)
    src = tmp_path / "x.csv"
    save_csv_vector(src, x)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key = 3\n")
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", str(src), "--out", str(tmp_path / "o.csv"), "--config", str(cfg)])
    assert err.value.code == 2
    assert f"{cfg}:1: unknown key" in capsys.readouterr().err


def test_config_file_rejects_the_retired_majorizer_growth_key(tmp_path, capsys):
    src = tmp_path / "x.csv"
    save_csv_vector(src, substream(6, 7).standard_normal(16))
    cfg = tmp_path / "old.cfg"
    cfg.write_text("majorizer_growth = 1.1\n")
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", str(src), "--out", str(tmp_path / "o.csv"), "--config", str(cfg)])
    assert err.value.code == 2
    assert f"{cfg}:1: unknown key 'majorizer_growth'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "majorizer0 = 1.2",
        "slack_ridge = 0.5",
        "l1_init_scale = 0.2",
        "l1_decay = 0.9",
        "l1_weight_min = 0.001",
        "continuation = no",
        "project_observed = no",
        "rho1 = 0.5",
        "rho2 = 1.5",
    ],
)
def test_config_file_key_of_a_protocol_constant_is_unknown(tmp_path, capsys, line):
    src = tmp_path / "x.csv"
    save_csv_vector(src, substream(6, 7).standard_normal(64))
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"max_iter = 7\n{line}\n")
    dst = tmp_path / "o.csv"
    argv = ["recover", "--input", str(src), "--out", str(dst), "--p", "96", "--config", str(cfg)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    key = line.split(" = ")[0]
    assert f"{cfg}:2: unknown key {key!r}" in capsys.readouterr().err
    assert not dst.exists()


@pytest.mark.parametrize(
    "text, where",
    [
        ("l1_weight = abc\n", 1),
        ("l1_weight = 7\nmax_iter = 7.5\n", 2),
        # a file that cannot be opened or is not UTF-8: the message names the flag
        pytest.param(None, "[Errno 2] No such file or directory", id="missing-file"),
        pytest.param("max_iter = 7\n\xff\n", "'utf-8' codec can't decode byte 0xff", id="not-utf-8"),
    ],
)
def test_config_file_bad_value_is_a_bad_argument(tmp_path, capsys, text, where):
    src = tmp_path / "x.csv"
    save_csv_vector(src, substream(6, 7).standard_normal(16))
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_text(text, encoding="latin-1")  # one byte per character
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", str(src), "--out", str(tmp_path / "o.csv"), "--config", str(cfg)])
    assert err.value.code == 2
    message = f"{cfg}:{where}: bad value" if isinstance(where, int) else f"--config {cfg}: {where}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "text, key", [("max_iter = 0\n", "max_iter"), ("mean_weight = 1\nvar_weight = -1\n", "var_weight"), ("mean_weight = -2\n", "mean_weight")]
)
def test_config_file_values_the_solver_rejects_exit_two_and_leave_no_log(tmp_path, capsys, text, key):
    src = tmp_path / "x.csv"
    save_csv_vector(src, substream(6, 7).standard_normal(16))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", str(src), "--out", str(tmp_path / "o.csv"), "--config", str(cfg)])
    assert err.value.code == 2
    assert f"--config {cfg}: {key} must be positive" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "x.csv"]


def test_config_file_negative_feasibility_tol_exits_two_and_leaves_no_log(tmp_path, capsys):
    src = tmp_path / "x.csv"
    save_csv_vector(src, substream(6, 7).standard_normal(16))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("feasibility_tol = -1\n")
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", str(src), "--out", str(tmp_path / "o.csv"), "--config", str(cfg)])
    assert err.value.code == 2
    assert f"--config {cfg}: feasibility_tol must be nonnegative" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "x.csv"]


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "key", [f.name for f in fields(SolverConfig) if f.type.startswith("float")]
)
def test_config_file_non_finite_values_exit_two_and_leave_no_file(tmp_path, capsys, key, value):
    src = tmp_path / "x.csv"
    save_csv_vector(src, substream(6, 7).standard_normal(16))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", str(src), "--out", str(tmp_path / "o.csv"), "--config", str(cfg)])
    assert err.value.code == 2
    assert f"--config {cfg}: {key} must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "x.csv"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["recover", "--p", "8"], "--p 8"),
        (["sweep-sr", "--n", "64", "--p", "32"], "--p 32"),
        (["recover", "--dict", "haar-wp", "--p", "48"], "--p 48"),
        (["sweep-sr", "--dict", "haar-wp", "--n", "60", "--p", "60"], "--n 60"),
        (["sweep-iters", "--dict", "haar-wp", "--n", "60"], "--n 60"),
        (["params", "--n", "64", "--p", "32"], "--p 32"),
        (["dict-info", "--dict", "haar-wp", "--n", "8", "--p", "12"], "--p 12"),
    ],
    ids=[
        "recover-p-below-n",
        "sweep-sr-p-below-n",
        "recover-haar-p-not-n-or-2n",
        "sweep-sr-haar-n-not-a-power-of-two",
        "sweep-iters-haar-n-not-a-power-of-two",
        "params-p-below-n",
        "dict-info-haar-p-not-n-or-2n",
    ],
)
def test_dictionary_shape_errors_exit_two(tmp_path, capsys, argv, flag):
    # recover reads a 16-sample vector, so n = 16 there
    src = tmp_path / "x.csv"
    save_csv_vector(src, substream(6, 7).standard_normal(16))
    if argv[0] == "recover":
        argv = argv + ["--input", str(src)]
    if argv[0] in ("recover", "sweep-sr", "sweep-iters"):
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_recover_pgm_patch_side_follows_n(tmp_path):
    src = tmp_path / "img.pgm"
    dst = tmp_path / "rec.pgm"
    save_pgm(src, synthetic_image(64, 64, seed=3))
    assert main(["recover", "--input", str(src), "--out", str(dst), "--n", "16", "--max-iter", "5"]) == 0
    events = [json.loads(l) for l in (tmp_path / "rec.pgm.log.jsonl").read_text().splitlines()]
    assert sum(e["event"] == "patch" for e in events) == 256  # 4x4 patches
    assert load_pgm(dst).shape == (64, 64)


def test_recover_pgm_rejects_non_square_n(tmp_path, capsys):
    src = tmp_path / "img.pgm"
    save_pgm(src, synthetic_image(64, 64, seed=3))
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", str(src), "--out", str(tmp_path / "rec.pgm"), "--n", "20"])
    assert err.value.code == 2
    assert "square patch length" in capsys.readouterr().err
    assert not (tmp_path / "rec.pgm").exists()


def test_denoise_cli_with_reference(tmp_path):
    clean = synthetic_image(32, 32, seed=8)
    noisy = np.clip(np.round(add_noise_snr(clean, 1.0, seed=9)), 0, 255).astype(np.uint8)
    clean_path = tmp_path / "clean.pgm"
    noisy_path = tmp_path / "noisy.pgm"
    out_path = tmp_path / "den.pgm"
    save_pgm(clean_path, clean)
    save_pgm(noisy_path, noisy)
    sigma = float(np.std(noisy.astype(float) - clean.astype(float)))
    code = main(
        [
            "denoise",
            "--input",
            str(noisy_path),
            "--out",
            str(out_path),
            "--sigma-n",
            f"{sigma}",
            "--method",
            "csim",
            "--m-taps",
            "6",
            "--reference",
            str(clean_path),
        ]
    )
    assert code == 0
    events = [json.loads(l) for l in (tmp_path / "den.pgm.log.jsonl").read_text().splitlines()]
    result = events[-1]
    assert result["psnr_db"] > result["input_psnr_db"]


@pytest.mark.parametrize("method", ["csim", "mse"])
def test_denoise_log_echoes_the_settings_the_method_uses(tmp_path, method):
    noisy = np.full((16, 24), 128.0)
    noisy[:8, :8] += np.random.default_rng(4).normal(0.0, 30.0, (8, 8)).round()
    save_pgm(tmp_path / "noisy.pgm", noisy)
    out = tmp_path / "den.pgm"
    argv = ["denoise", "--input", str(tmp_path / "noisy.pgm"), "--out", str(out)]
    assert main(argv + ["--sigma-n", "5", "--method", method, "--m-taps", "4"]) == 0
    config, result = [json.loads(l) for l in (tmp_path / "den.pgm.log.jsonl").read_text().splitlines()]
    expected = {"event": "config", "method": method, "m_taps": 4, "sigma_n": 5.0, "side": 8}
    if method == "csim":
        expected.update(mean_weight=15.75, var_weight=63.0)
    assert config == expected
    # the five constant patches have zero variance, below the noise's
    assert result == {"event": "result", "floored_patches": 5}


@pytest.mark.parametrize("method", ["csim", "mse"])
def test_denoise_an_all_black_image_writes_zeros(tmp_path, method):
    save_pgm(tmp_path / "black.pgm", np.zeros((16, 16)))
    out = tmp_path / "den.pgm"
    argv = ["denoise", "--input", str(tmp_path / "black.pgm"), "--out", str(out)]
    assert main(argv + ["--sigma-n", "5", "--method", method]) == 0
    assert not load_pgm(out).any()
    result = json.loads((tmp_path / "den.pgm.log.jsonl").read_text().splitlines()[-1])
    assert result == {"event": "result", "floored_patches": 4}


@pytest.mark.parametrize("method", ["csim", "mse"])
@pytest.mark.parametrize("shape", [(64, 64), (60, 68)], ids=["tiled", "clamped"])
def test_denoise_cli_is_the_library_call_plus_its_scores(tmp_path, shape, method):
    clean = synthetic_image(*shape, seed=5).astype(float)
    noisy = np.clip(np.round(clean + 10.0 * np.random.default_rng(5).standard_normal(shape)), 0, 255)
    save_pgm(tmp_path / "clean.pgm", clean)
    save_pgm(tmp_path / "noisy.pgm", noisy)
    out = tmp_path / "den.pgm"
    argv = ["denoise", "--input", str(tmp_path / "noisy.pgm"), "--out", str(out), "--sigma-n", "10"]
    assert main(argv + ["--method", method, "--reference", str(tmp_path / "clean.pgm")]) == 0
    params = CsimParams.defaults(64) if method == "csim" else None
    want = denoise_image(noisy, 6, 100.0, params, method)
    assert np.array_equal(load_pgm(out), np.clip(np.round(want), 0, 255))
    _, floored = denoise_patches(extract_patches(noisy, PatchGrid(*shape)), 6, 100.0, params)
    result = json.loads((tmp_path / "den.pgm.log.jsonl").read_text().splitlines()[-1])
    assert result == {
        "event": "result",
        "floored_patches": int(floored.sum()),
        "psnr_db": min(psnr(want, clean), PSNR_CSV_CAP),
        "ssim": image_ssim(want, clean),
        "input_psnr_db": min(psnr(noisy, clean), PSNR_CSV_CAP),
    }


def test_cli_defaults_are_the_library_defaults(tmp_path):
    parser = build_parser()
    params = parser.parse_args(["params"])
    assert (params.kappa_max, params.delta) == (DEFAULT_KAPPA_MAX, DEFAULT_DELTA)
    sweep = parser.parse_args(["sweep-sr", "--out", "x.csv"])
    assert (sweep.trials, sweep.max_iter) == (ExperimentSpec.trials, ExperimentSpec.max_iter)
    out = tmp_path / "sweep.csv"
    assert main(["sweep-sr", "--n", "16", "--trials", "1", "--max-iter", "2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert {float(row[3]) for row in rows} == set(ExperimentSpec.srs)
    assert {row[2] for row in rows} == set(ExperimentSpec.solvers)


def test_recover_an_image_smaller_than_one_patch_exits_three_and_leaves_no_file(
    tmp_path, capsys
):
    src = tmp_path / "tiny.pgm"
    save_pgm(src, synthetic_image(4, 4, seed=1))
    assert main(["recover", "--input", str(src), "--out", str(tmp_path / "o.pgm")]) == 3
    assert "image smaller than one patch" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize(
    "reference, message",
    [
        ("tiny.pgm", "--reference has shape (4, 4), --input has shape (16, 16)"),
        ("missing.pgm", "No such file or directory"),
    ],
    ids=["wrong-size", "missing"],
)
def test_denoise_with_a_bad_reference_exits_three_and_leaves_no_file(
    tmp_path, capsys, monkeypatch, reference, message
):
    save_pgm(tmp_path / "img.pgm", synthetic_image(16, 16, seed=3))
    save_pgm(tmp_path / "tiny.pgm", synthetic_image(4, 4, seed=1))
    inputs = sorted(tmp_path.iterdir())

    def no_filtering(*args, **kwargs):
        raise AssertionError("the reference is checked before any filtering")

    monkeypatch.setattr(csim.cli, "_denoise_image", no_filtering)
    argv = ["denoise", "--input", str(tmp_path / "img.pgm"), "--out", str(tmp_path / "o.pgm")]
    assert main(argv + ["--sigma-n", "5", "--reference", str(tmp_path / reference)]) == 3
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == inputs


def test_sweep_sr_cli_byte_identical_runs(tmp_path):
    args = [
        "sweep-sr",
        "--n",
        "32",
        "--trials",
        "3",
        "--seed",
        "11",
        "--sr",
        "0.6",
        "--sr",
        "0.9",
        "--max-iter",
        "8",
        "--solver",
        "csim-alm",
        "--solver",
        "iht",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.plot.py").exists()
    compile((tmp_path / "a.csv.plot.py").read_text(), "plot.py", "exec")


def test_main_builds_its_parser_once_and_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    built = []

    def counting_build():
        built.append(1)
        return build_parser()

    csim.cli._parser.cache_clear()
    monkeypatch.setattr(csim.cli, "build_parser", counting_build)
    try:
        args = ["sweep-sr", "--n", "16", "--trials", "2", "--sr", "0.8", "--max-iter", "5"]
        assert main(args + ["--solver", "fista", "--out", str(tmp_path / "fista.csv")]) == 0
        with pytest.raises(SystemExit) as err:  # --solver appends before --trials fails
            main(args[:3] + ["--solver", "iht", "--trials", "0", "--out", str(tmp_path / "bad.csv")])
        assert err.value.code == 2
        assert main(args + ["--out", str(tmp_path / "default.csv")]) == 0
    finally:
        csim.cli._parser.cache_clear()
    assert built == [1]
    rows = (tmp_path / "default.csv").read_text().splitlines()
    header = rows[0].split(",")
    solvers = [dict(zip(header, row.split(",")))["solver"] for row in rows[1:]]
    assert sorted(set(solvers)) == sorted(ExperimentSpec.solvers)
    assert not (tmp_path / "bad.csv").exists()


def test_sweep_sr_cli_corpus_mode(tmp_path):
    save_pgm(tmp_path / "a.pgm", synthetic_image(24, 24, seed=21))
    out = tmp_path / "corpus.csv"
    code = main(
        [
            "sweep-sr",
            "--trials",
            "2",
            "--sr",
            "0.9",
            "--max-iter",
            "10",
            "--solver",
            "csim-alm",
            "--corpus",
            str(tmp_path / "a.pgm"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert all(",nan," in line for line in lines[1:])


def test_sweep_sr_corpus_needs_a_square_n(tmp_path, capsys):
    save_pgm(tmp_path / "img.pgm", synthetic_image(24, 24, seed=21))
    out = tmp_path / "sweep.csv"
    argv = ["sweep-sr", "--corpus", str(tmp_path / "img.pgm"), "--n", "60", "--out", str(out)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--corpus" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "img.pgm"]


def test_sweep_sr_corpus_without_pgm_files(tmp_path, capsys):
    empty = tmp_path / "images"
    empty.mkdir()
    (empty / "notes.txt").write_text("no images here\n")
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as err:
        main(["sweep-sr", "--corpus", str(empty), "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "--corpus" in message and "no PGM files" in message
    assert sorted(tmp_path.iterdir()) == [empty]


def test_sweep_sr_corpus_path_that_does_not_exist(tmp_path, capsys):
    missing = tmp_path / "nothere.pgm"
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as err:
        main(["sweep-sr", "--corpus", str(missing), "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "--corpus" in message and f"no such file or directory: {missing}" in message
    assert list(tmp_path.iterdir()) == []


def test_sweep_iters_cli_no_timing_deterministic(tmp_path):
    args = [
        "sweep-iters",
        "--n",
        "32",
        "--trials",
        "2",
        "--seed",
        "12",
        "--sr",
        "0.8",
        "--max-iter",
        "6",
        "--solver",
        "csim-alm",
    ]
    out1 = tmp_path / "c.csv"
    out2 = tmp_path / "d.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_iters_takes_timing_only_as_an_opt_in(tmp_path):
    out = tmp_path / "t.csv"
    args = ["sweep-iters", "--n", "16", "--trials", "2", "--max-iter", "5", "--sr", "0.5", "--sr", "0.8"]
    with pytest.raises(SystemExit) as err:
        main(args + ["--no-timing", "--out", str(out)])
    assert err.value.code == 2
    assert not out.exists()
    for solver in ("csim-alm", "fista", "iht"):
        assert main(args + ["--solver", solver, "--timing", "--out", str(out)]) == 0
        traces = {}
        for row in out.read_text().splitlines()[1:]:
            solver_name, sr, trial, _, _, _, elapsed = row.split(",")
            traces.setdefault((solver_name, sr, trial), []).append(float(elapsed))
        assert len(traces) == 4
        for elapsed in traces.values():
            assert len(elapsed) == 5
            assert 0.0 < elapsed[0] and all(a < b for a, b in zip(elapsed, elapsed[1:])), elapsed


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["sweep-sr", "--n", "32"])  # missing --out
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", "x.csv", "--out", "y.csv", "--solver", "nope"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["recover", "--solver", "fista", "--max-iter", "0"], "--max-iter"),
        (["recover", "--solver", "iht", "--max-iter", "-3"], "--max-iter"),
        (["recover", "--sr", "0"], "--sr"),
        (["recover", "--sr", "1.7"], "--sr"),
        (["denoise", "--sigma-n", "-1"], "--sigma-n"),
        (["denoise", "--sigma-n", "nan"], "--sigma-n"),
        (["denoise", "--sigma-n", "inf"], "--sigma-n"),
        (["denoise", "--sigma-n", "10", "--m-taps", "0"], "--m-taps"),
        (["denoise", "--sigma-n", "10", "--m-taps", "40"], "--m-taps"),
        (["sweep-sr", "--trials", "0"], "--trials"),
        (["sweep-sr", "--sr", "1.5"], "--sr"),
        (["params", "--delta", "0"], "--delta"),
        (["params", "--delta", "1.5"], "--delta"),
        (["recover", "--seed", "-1"], "--seed"),
        (["sweep-sr", "--seed", "-1"], "--seed"),
        (["sweep-iters", "--seed", "-1"], "--seed"),
        (["params", "--kappa-max", "nan"], "--kappa-max"),
        (["params", "--kappa-max", "inf"], "--kappa-max"),
        (["params", "--kappa-max", "-5"], "--kappa-max"),
        (["params", "--kappa-max", "0"], "--kappa-max"),
    ],
    ids=[
        "recover-fista-max-iter-0",
        "recover-iht-max-iter-negative",
        "recover-sr-0",
        "recover-sr-above-1",
        "denoise-sigma-negative",
        "denoise-sigma-nan",
        "denoise-sigma-inf",
        "denoise-m-taps-0",
        "denoise-m-taps-40",
        "sweep-trials-0",
        "sweep-sr-above-1",
        "params-delta-0",
        "params-delta-above-1",
        "recover-seed-negative",
        "sweep-sr-seed-negative",
        "sweep-iters-seed-negative",
        "params-kappa-max-nan",
        "params-kappa-max-inf",
        "params-kappa-max-negative",
        "params-kappa-max-0",
    ],
)
def test_bad_numeric_flags_exit_two(tmp_path, capsys, argv, flag):
    src = tmp_path / "img.pgm"
    save_pgm(src, synthetic_image(16, 16, seed=3))
    out = tmp_path / ("out.csv" if argv[0] == "sweep-sr" else "out.pgm")
    if argv[0] in ("recover", "denoise"):
        argv = argv + ["--input", str(src)]
    if argv[0] != "params":  # which takes neither --input nor --out
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert flag in message and "unrecognized arguments" not in message
    assert sorted(tmp_path.iterdir()) == [src]


def test_recover_names_config_only_when_a_file_was_given(tmp_path, capsys, monkeypatch):
    # a setting the solver rejects, with the settings coming from flags alone
    def rejecting_settings(*args, **kwargs):
        raise ValueError("rejected setting")

    monkeypatch.setattr(csim.cli, "solver_settings", rejecting_settings)
    src, dst = tmp_path / "x.csv", tmp_path / "xhat.csv"
    save_csv_vector(src, np.linspace(0.0, 1.0, 16))
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", str(src), "--out", str(dst)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "rejected setting" in message and "--config" not in message
    cfg = tmp_path / "c.cfg"
    cfg.write_text("max_iter = 5\n")
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", str(src), "--out", str(dst), "--config", str(cfg)])
    assert err.value.code == 2
    assert f"--config {cfg}: rejected setting" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg, src]


def test_runtime_failure_exits_three(tmp_path):
    code = main(
        ["recover", "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.csv")]
    )
    assert code == 3


@pytest.mark.parametrize("observed", [True, False], ids=["observed", "unobserved"])
@pytest.mark.parametrize("solver", ["csim-alm", "fista", "iht"])
def test_a_non_finite_csv_value_exits_three_and_leaves_no_log(tmp_path, capsys, solver, observed):
    mask = observation_mask(64, 0.5, 4, 0)  # the mask `recover` gives a vector
    unobserved = np.setdiff1d(np.arange(64), mask.observed)
    index = int((mask.observed if observed else unobserved)[2])
    src, dst = tmp_path / "x.csv", tmp_path / "xhat.csv"
    src.write_text("".join("nan\n" if i == index else "0.5\n" for i in range(64)))
    argv = ["recover", "--input", str(src), "--out", str(dst), "--sr", "0.5", "--seed", "4"]
    assert main(argv + ["--solver", solver]) == 3
    assert f"{src}:{index + 1}: non-finite value nan" in capsys.readouterr().err
    assert not dst.exists()
    assert not (tmp_path / "xhat.csv.log.jsonl").exists()


def test_a_csv_vector_that_is_not_utf8_exits_three_naming_the_file(tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_bytes(b"1.0\n\xff\n")
    assert main(["recover", "--input", str(src), "--out", str(tmp_path / "xhat.csv")]) == 3
    assert f"error: {src}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]
