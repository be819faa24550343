import json
from dataclasses import fields

import numpy as np
import pytest

from csim.cli import main
from csim.experiments import add_noise_snr, synthetic_image
from csim.fileio import load_csv_vector, load_pgm, save_csv_vector, save_pgm
from csim.signals import substream
from csim.solver import SolverConfig


def test_params_complete_dct(capsys):
    assert main(["params", "--dict", "dct", "--n", "64"]) == 0
    out = capsys.readouterr().out
    coherence = float(
        next(l for l in out.splitlines() if l.startswith("coherence:")).split(":")[1]
    )
    assert coherence < 1e-10
    assert "rip bound: ratio <=" in out
    assert "kappa bound: infeasible" in out
    assert "selected ratio" in out


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
        "rho2",
        "slack_ridge",
        "majorizer0",
        "l1_decay",
        "l1_init_scale",
        "l1_weight_min",
        "max_iter",
        "mean_weight",
        "var_weight",
        "feasibility_tol",
        "continuation",
        "project_observed",
        "majorizer_growth",
    ):
        assert key in log_lines[0]
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


def test_config_file_and_flag_override(tmp_path):
    x = substream(4, 5).standard_normal(32)
    src = tmp_path / "x.csv"
    save_csv_vector(src, x)
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("max_iter = 7\nl1_decay = 0.9  # comment\n")
    dst = tmp_path / "out.csv"
    assert main(
        ["recover", "--input", str(src), "--out", str(dst), "--sr", "0.8", "--config", str(cfg)]
    ) == 0
    config_line = json.loads((tmp_path / "out.csv.log.jsonl").read_text().splitlines()[0])
    assert config_line["max_iter"] == 7
    assert config_line["l1_decay"] == 0.9
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
        "rho1": "0.5",
        "rho2": "1.5",
        "slack_ridge": "0.5",
        "majorizer_growth": "1.2",
        "majorizer0": "2",
        "l1_decay": "0.9",
        "l1_init_scale": "0.2",
        "l1_weight_min": "0.001",
        "max_iter": "7",
        "mean_weight": "10",
        "var_weight": "30",
        "feasibility_tol": "1e-7",
        "continuation": "no",
        "project_observed": "yes",
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
    assert config_line["continuation"] is False
    assert config_line["project_observed"] is True
    assert config_line["max_iter"] == 7 and isinstance(config_line["max_iter"], int)
    for key, value in values.items():
        if key not in ("continuation", "project_observed", "max_iter"):
            assert config_line[key] == float(value), key


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


@pytest.mark.parametrize(
    "text, where", [("rho1 = abc\n", 1), ("max_iter = 7\ncontinuation = maybe\n", 2)]
)
def test_config_file_bad_value_is_a_bad_argument(tmp_path, capsys, text, where):
    src = tmp_path / "x.csv"
    save_csv_vector(src, substream(6, 7).standard_normal(16))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(["recover", "--input", str(src), "--out", str(tmp_path / "o.csv"), "--config", str(cfg)])
    assert err.value.code == 2
    assert f"{cfg}:{where}: bad value" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


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
        "--no-timing",
    ]
    out1 = tmp_path / "c.csv"
    out2 = tmp_path / "d.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
        (["denoise", "--sigma-n", "10", "--m-taps", "0"], "--m-taps"),
        (["denoise", "--sigma-n", "10", "--m-taps", "40"], "--m-taps"),
        (["sweep-sr", "--trials", "0"], "--trials"),
        (["sweep-sr", "--sr", "1.5"], "--sr"),
    ],
    ids=[
        "recover-fista-max-iter-0",
        "recover-iht-max-iter-negative",
        "recover-sr-0",
        "recover-sr-above-1",
        "denoise-sigma-negative",
        "denoise-m-taps-0",
        "denoise-m-taps-40",
        "sweep-trials-0",
        "sweep-sr-above-1",
    ],
)
def test_bad_numeric_flags_exit_two(tmp_path, capsys, argv, flag):
    src = tmp_path / "img.pgm"
    save_pgm(src, synthetic_image(16, 16, seed=3))
    out = tmp_path / ("out.csv" if argv[0] == "sweep-sr" else "out.pgm")
    if argv[0] != "sweep-sr":
        argv = argv + ["--input", str(src)]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(out)])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_runtime_failure_exits_three(tmp_path):
    code = main(
        ["recover", "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.csv")]
    )
    assert code == 3
