import csv
import io
import math
from dataclasses import fields

import numpy as np
import pytest

import csim.baselines
import csim.experiments
import csim.solver
from csim.cli import build_parser
from csim.experiments import (
    DICTIONARY_KINDS,
    SWEEP_ITERS_HEADER,
    SWEEP_SR_HEADER,
    ExperimentSpec,
    add_noise_snr,
    build_dictionary,
    corpus_files,
    emit_plot_script,
    observation_mask,
    recover_image,
    recover_patches,
    run_solver,
    run_solver_batch,
    solver_settings,
    sweep_iters,
    sweep_sr,
    synthetic_image,
)
from csim.metrics import PSNR_CSV_CAP, psnr, relative_error, ssim_global
from csim.signals import apply_mask, substream, synth_sparse_signal
from csim.solver import SolverConfig


def parse(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_sweep_sr_row_count_and_header():
    spec = ExperimentSpec(
        srs=(0.5, 0.7, 0.9), trials=5, solvers=("csim-alm", "fista"), seed=1, max_iter=10
    )
    text = sweep_sr(spec)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_SR_HEADER
    assert len(lines) == 1 + 2 * 3 * 5
    rows = parse(text)
    assert {row["solver"] for row in rows} == {"csim-alm", "fista"}
    assert all(row["dict"] == "dct" for row in rows)


def test_sweep_sr_deterministic_bytes():
    spec = ExperimentSpec(srs=(0.6,), trials=4, seed=7, max_iter=10)
    assert sweep_sr(spec) == sweep_sr(spec)


def test_sweep_sr_rows_do_not_depend_on_how_jobs_are_split():
    solvers, srs = ("csim-alm", "fista", "iht"), (0.5, 0.8)
    spec = ExperimentSpec(srs=srs, trials=3, solvers=solvers, seed=2, max_iter=10)
    whole = sweep_sr(spec).splitlines()
    split = [SWEEP_SR_HEADER]
    for solver in solvers:
        for sr in srs:
            part = ExperimentSpec(srs=(sr,), trials=3, solvers=(solver,), seed=2, max_iter=10)
            split += sweep_sr(part).splitlines()[1:]
    assert whole == split


@pytest.mark.parametrize("seed", [21, 2**40])
def test_sweep_sr_rows_do_not_depend_on_batch_size(seed):
    # each (solver, ratio) group is one batch of `trials` rows, and its
    # trials are seeded in one pass
    def rows(trials):
        spec = ExperimentSpec(
            srs=(0.5, 0.8), trials=trials, solvers=("csim-alm", "fista", "iht"), seed=seed, max_iter=50
        )
        return sweep_sr(spec).splitlines()[1:]

    first_seven = [line for line in rows(40) if int(line.split(",", 1)[0]) < 7]
    assert rows(7) == first_seven


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_masks_and_trial_codes_are_numpy_draws_from_their_keys(seed):
    # The oracle uses numpy alone: SeedSequence of the keys, then the
    # draws of random_mask and synth_sparse_signal.
    def rng(*keys):
        return np.random.default_rng(np.random.SeedSequence(list(keys)))

    n, sr, m, trials = 64, 0.6, 38, 12  # round(0.6 * 64) = 38
    for index in (0, 5, 2**33):
        observed = np.sort(rng(seed, index, 2, m).choice(n, size=m, replace=False))
        assert observation_mask(n, sr, seed, index).observed.tobytes() == observed.tobytes()
    masks = csim.experiments._observe(np.arange(trials), n, sr, seed)
    D = build_dictionary("dct", 64, 64)
    codes, _ = csim.experiments._truth(ExperimentSpec(trials=trials, seed=seed), D)
    for trial in range(trials):
        observed = np.sort(rng(seed, trial, 2, m).choice(n, size=m, replace=False))
        assert masks[trial].observed.tobytes() == observed.tobytes()
        draw = rng(seed, trial, 1)
        support = np.sort(draw.choice(64, size=7, replace=False))  # k = ceil(0.1 p)
        code = np.zeros(64)
        code[support] = draw.standard_normal(7)
        assert codes[trial].tobytes() == code.tobytes()
    # corpus patches: an image, then a corner, from the same keys
    images = [synthetic_image(20, 24, seed=1).astype(float), synthetic_image(9, 30, seed=2).astype(float)]
    _, patches = csim.experiments._truth(ExperimentSpec(trials=trials, seed=seed), D, images)
    for trial in range(trials):
        draw = rng(seed, trial, 1)
        image = images[int(draw.integers(2))]
        r, c = int(draw.integers(image.shape[0] - 7)), int(draw.integers(image.shape[1] - 7))
        assert patches[trial].tobytes() == image[r : r + 8, c : c + 8].reshape(-1).tobytes()


def _one_row_sweep(spec):
    """sweep_sr's CSV built a row at a time: one-row solves and scores."""
    D = build_dictionary(spec.dict_kind, spec.n, spec.p)
    k = math.ceil(0.1 * D.p)
    lines = [SWEEP_SR_HEADER]
    for solver in spec.solvers:
        for sr in spec.srs:
            for trial in range(spec.trials):
                signal = synth_sparse_signal(D, k, substream(spec.seed, trial, 1))
                mask = observation_mask(D.n, sr, spec.seed, trial)
                y = apply_mask(signal.x, mask)
                result = run_solver(solver, y, mask, D, max_iter=spec.max_iter)
                peak = float(signal.x.max() - signal.x.min())
                scores = (
                    min(psnr(result.x_hat, signal.x, peak), PSNR_CSV_CAP),
                    ssim_global(result.x_hat, signal.x, (0.01 * peak) ** 2, (0.03 * peak) ** 2),
                    relative_error(result.s_hat, signal.s),
                )
                lines.append(
                    f"{trial},{spec.seed},{solver},{sr:.9g},{D.n},{D.p},dct,{result.iterations},"
                    + ",".join(f"{v:.9g}" for v in scores)
                    + ",0.000"
                )
    return "\n".join(lines) + "\n"


def test_sweep_sr_builds_trial_data_once_and_keeps_the_one_row_csv(monkeypatch):
    # every signal is drawn through the draw helper ``synth_sparse_signal``
    # shares; the sweep synthesizes all of them in one product
    calls = {"_draw_code": 0, "random_mask": 0, "substreams": 0}
    for name in calls:
        real = getattr(csim.experiments, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(csim.experiments, name, counting)
    spec = ExperimentSpec(srs=(0.5, 0.8), trials=6, solvers=("csim-alm", "fista"), seed=17, max_iter=20)
    text = sweep_sr(spec)
    # signals do not depend on the ratio; masks are drawn once per
    # (ratio, trial) and shared by both solvers; one seeding pass covers
    # the signals, and one each ratio's masks
    assert calls == {"_draw_code": 6, "random_mask": 2 * 6, "substreams": 1 + 2}
    monkeypatch.undo()
    assert text == _one_row_sweep(spec)


@pytest.mark.parametrize("solver", ["csim-alm", "fista", "iht"])
def test_run_solver_batch_rows_equal_run_solver(solver):
    D = build_dictionary("dct", 16, 16)
    masks = [observation_mask(16, 0.6, 3, i) for i in range(5)]
    Y = np.array([apply_mask(substream(3, i).standard_normal(16), m) for i, m in enumerate(masks)])
    batch = run_solver_batch(solver, Y, masks, D, max_iter=20)
    for y, mask, result in zip(Y, masks, batch):
        single = run_solver(solver, y, mask, D, max_iter=20)
        assert result.x_hat.tobytes() == single.x_hat.tobytes()
        assert result.s_hat.tobytes() == single.s_hat.tobytes()
        assert result.iterations == single.iterations
        assert result.primal_residuals.tobytes() == single.primal_residuals.tobytes()
        if single.slack_residuals is not None:
            assert result.slack_residuals.tobytes() == single.slack_residuals.tobytes()


def test_solver_settings_echo_every_setting_and_the_gram_norm():
    # the fixed-weight regime reads every field, and these solver constants
    D = build_dictionary("dct", 64, 64)
    settings = solver_settings("csim-alm", D, 0.8, l1_weight=0.01)
    # record_iterates asks for a result; it sets nothing of the solve
    assert {f.name for f in fields(SolverConfig)} - {"record_iterates"} < set(settings)
    gram_norm = settings.pop("gram_norm")
    assert gram_norm == D.spectral_norm_sq == pytest.approx(1.0, rel=1e-12)
    assert settings == {
        "rho1": 0.4 * 51 / 64,  # round(0.8 * 64) = 51 samples
        "rho2": 2.0 * 51 / 64,
        "max_iter": 50,
        "mean_weight": 15.75,
        "var_weight": 63.0,
        "feasibility_tol": 1e-6,
        "l1_weight": 0.01,
        "relaxation": csim.solver._RELAXATION,
        "majorizer_scale": csim.solver._MAJORIZER_SCALE,
        "slack_ridge": csim.solver._SLACK_RIDGE,
    }
    assert type(settings["max_iter"]) is int


def test_protocol_settings_leave_out_what_projection_never_reads():
    # The protocol projects, so rho2 and the index weights cannot change
    # its output; the log names the weight schedule's constants instead.
    D = build_dictionary("dct", 64, 64)
    settings = solver_settings("csim-alm", D, 0.8, mean_weight=2.0, var_weight=5.0)
    assert settings == {
        "rho1": 0.4 * 51 / 64,
        "max_iter": 50,
        "feasibility_tol": 1e-6,
        "l1_weight": None,
        "l1_init_scale": csim.solver._L1_INIT_SCALE,
        "l1_decay": csim.solver._L1_DECAY,
        "l1_weight_min": csim.solver._L1_WEIGHT_MIN,
        "majorizer_scale": csim.solver._MAJORIZER_SCALE,
        "gram_norm": D.spectral_norm_sq,
    }


@pytest.mark.parametrize("solver", ["csim-alm", "fista", "iht"])
def test_every_entry_point_hands_its_settings_to_the_solver_config(solver):
    D = build_dictionary("dct", 16, 16)
    image = synthetic_image(8, 8, seed=1).astype(float)  # four 4x4 patches
    mask = observation_mask(16, 0.6, 2, 0)
    y = apply_mask(image[:4, :4].reshape(-1), mask)
    results = [
        run_solver(solver, y, mask, D, max_iter=7),
        *run_solver_batch(solver, y[None], [mask], D, max_iter=7),
        *recover_patches(image[:4].reshape(2, 16), 0.6, 2, solver, D, max_iter=7),
        *recover_image(image, 0.6, 2, solver, D, max_iter=7)[1],
    ]
    assert len(results) == 8  # one, one, two and four rows
    assert all(result.iterations == 7 for result in results)
    assert solver_settings(solver, D, 0.6, max_iter=7)["max_iter"] == 7


@pytest.mark.parametrize(
    "solver, setting",
    [
        ("csim-alm", "tau0"),
        ("csim-alm", "rho1"),
        ("fista", "feasibility_tol"),
        ("fista", "l1_weight"),
        ("iht", "l1_weight"),
        ("iht", "tau0"),
    ],
)
def test_a_setting_the_solver_config_lacks_raises_type_error(solver, setting):
    D = build_dictionary("dct", 16, 16)
    mask = observation_mask(16, 0.6, 2, 0)
    y = np.zeros(16)
    calls = (
        lambda: run_solver(solver, y, mask, D, **{setting: 0.1}),
        lambda: run_solver_batch(solver, y[None], [mask], D, **{setting: 0.1}),
        lambda: solver_settings(solver, D, 0.6, **{setting: 0.1}),
    )
    for call in calls:
        with pytest.raises(TypeError, match=setting):
            call()


def test_sweep_sr_caps_finite_psnr_at_csv_cap():
    # near-exact iht recoveries score a finite PSNR far above the cap
    spec = ExperimentSpec(srs=(0.8,), trials=20, solvers=("iht",), seed=0)
    assert all(float(row["psnr_db"]) <= PSNR_CSV_CAP for row in parse(sweep_sr(spec)))


def test_sweep_sr_full_observation_recovers_exactly_sparse(monkeypatch):
    # noiseless full observation: every solver pinned to the exact-recovery
    # operating point reports tiny coefficient error
    spec = ExperimentSpec(srs=(1.0,), trials=5, solvers=("csim-alm", "iht"), seed=3, max_iter=250)
    for row in parse(sweep_sr(spec)):
        assert float(row["relerr"]) <= 1e-3
    # fista needs a small l1 weight there, 1e-4 max|A.T y| in place of
    # 0.01; its trials are the sweep's
    monkeypatch.setattr(csim.baselines, "_FISTA_WEIGHT_SCALE", 1e-4)
    D = build_dictionary("dct", 64, 64)
    signals = [synth_sparse_signal(D, 7, substream(3, trial, 1)) for trial in range(5)]
    masks = [observation_mask(64, 1.0, 3, trial) for trial in range(5)]
    X = np.array([signal.x for signal in signals])
    results = run_solver_batch("fista", X, masks, D, max_iter=250)
    for signal, result in zip(signals, results, strict=True):
        assert relative_error(result.s_hat, signal.s) <= 1e-3


def test_sweep_sr_runtime_column_zero_without_timing():
    spec = ExperimentSpec(srs=(0.7,), trials=2, seed=4, max_iter=5)
    rows = parse(sweep_sr(spec))
    assert all(row["runtime_ms"] == "0.000" for row in rows)
    timed = parse(sweep_sr(ExperimentSpec(srs=(0.7,), trials=2, seed=4, max_iter=5, timing=True)))
    assert any(float(row["runtime_ms"]) > 0.0 for row in timed)
    # a row's runtime is its (solver, ratio) group's solve time over the group's rows
    for solver in ("csim-alm", "fista"):
        assert len({row["runtime_ms"] for row in timed if row["solver"] == solver}) == 1


def test_sweep_iters_schema_and_iteration_span():
    spec = ExperimentSpec(srs=(0.8,), trials=3, solvers=("csim-alm", "fista"), seed=5, max_iter=12)
    text = sweep_iters(spec)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_ITERS_HEADER
    rows = parse(text)
    assert len(rows) == 2 * 3 * 12
    for solver in ("csim-alm", "fista"):
        for trial in ("0", "1", "2"):
            iters = [
                int(r["iter"]) for r in rows if r["solver"] == solver and r["trial"] == trial
            ]
            assert iters == list(range(1, 13))


def test_sweep_iters_runs_csim_alm_past_the_point_where_it_would_converge():
    spec = ExperimentSpec(n=16, p=16, srs=(0.9,), trials=2, seed=0, solvers=("csim-alm",), max_iter=200)
    D = build_dictionary("dct", 16, 16)
    for trial in range(spec.trials):
        signal = synth_sparse_signal(D, 2, substream(0, trial, 1))
        mask = observation_mask(16, 0.9, 0, trial)
        alone = run_solver("csim-alm", apply_mask(signal.x, mask), mask, D, max_iter=200)
        assert alone.stop_reason == "converged" and alone.iterations < 200
    rows = parse(sweep_iters(spec))
    for trial in ("0", "1"):
        assert [int(r["iter"]) for r in rows if r["trial"] == trial] == list(range(1, 201))


def test_sweep_iters_elapsed_strictly_increasing_within_trace():
    spec = ExperimentSpec(srs=(0.6,), trials=2, solvers=("csim-alm",), seed=6, max_iter=15, timing=True)
    rows = parse(sweep_iters(spec))
    for trial in ("0", "1"):
        ms = [float(r["elapsed_ms"]) for r in rows if r["trial"] == trial]
        assert all(b > a for a, b in zip(ms, ms[1:]))


def test_sweep_iters_deterministic_without_timing():
    spec = ExperimentSpec(srs=(0.6,), trials=2, solvers=("csim-alm",), seed=6, max_iter=8, timing=False)
    a = sweep_iters(spec)
    assert a == sweep_iters(spec)
    assert all(row["elapsed_ms"] == "0.000000" for row in parse(a))


def test_sweep_iters_traces_mostly_monotone_at_high_sampling():
    # empirical aggregate: after a burn-in of 20 iterations, at least 80%
    # of seeds never step up by more than 10% of the current value
    spec = ExperimentSpec(srs=(0.8,), trials=50, solvers=("csim-alm",), seed=50, max_iter=50)
    rows = parse(sweep_iters(spec))
    monotone = 0
    for trial in range(50):
        rels = np.array(
            [float(r["relerr"]) for r in rows if int(r["trial"]) == trial]
        )
        tail = rels[20:]
        if np.all(np.diff(tail) <= 0.10 * (1e-12 + tail[:-1])):
            monotone += 1
    assert monotone >= 40


def test_sweep_sr_corpus_mode(tmp_path):
    from csim.fileio import save_pgm

    for i in range(2):
        save_pgm(tmp_path / f"img{i}.pgm", synthetic_image(32, 32, seed=i))
    spec = ExperimentSpec(
        srs=(0.8,),
        trials=6,
        solvers=("csim-alm",),
        seed=13,
        max_iter=20,
        corpus=(str(tmp_path),),
    )
    text = sweep_sr(spec)
    assert text == sweep_sr(spec)
    rows = parse(text)
    assert len(rows) == 6
    for row in rows:
        assert row["relerr"] == "nan"
        assert float(row["psnr_db"]) > 10.0  # 8-bit scale scoring
        assert -1.0 <= float(row["ssim"]) <= 1.0


def test_sweep_iters_rejects_corpus_mode(tmp_path):
    from csim.fileio import save_pgm

    save_pgm(tmp_path / "img.pgm", synthetic_image(16, 16, seed=3))
    spec = ExperimentSpec(
        srs=(0.8,), trials=1, solvers=("csim-alm",), corpus=(str(tmp_path),)
    )
    with pytest.raises(ValueError):
        sweep_iters(spec)


def test_corpus_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentSpec(n=60, corpus=("x.pgm",))  # not a square patch length
    spec = ExperimentSpec(srs=(0.5,), trials=1, corpus=(str(tmp_path),))
    with pytest.raises(ValueError):
        sweep_sr(spec)  # empty directory
    missing = tmp_path / "nothere.pgm"
    with pytest.raises(ValueError) as err:
        corpus_files([missing])
    assert str(err.value) == f"no such file or directory: {missing}"


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(srs=(0.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(srs=(1.2,))
    with pytest.raises(ValueError):
        ExperimentSpec(solvers=("sl0",))
    with pytest.raises(ValueError):
        ExperimentSpec(dict_kind="learned")


def test_plot_scripts_compile():
    for mode in ("sweep-sr", "sweep-iters"):
        script = emit_plot_script("results.csv", mode)
        compile(script, "plot.py", "exec")
    with pytest.raises(ValueError):
        emit_plot_script("results.csv", "other")


def test_synthetic_image_deterministic_uint8():
    a = synthetic_image(64, 48, seed=9)
    b = synthetic_image(64, 48, seed=9)
    assert a.dtype == np.uint8
    assert a.shape == (64, 48)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, synthetic_image(64, 48, seed=10))


def test_add_noise_achieves_target_snr():
    image = synthetic_image(128, 128, seed=11)
    noisy = add_noise_snr(image, 1.0, seed=12)
    noise = noisy - image.astype(float)
    measured = 10.0 * np.log10(float(image.astype(float).var()) / float(noise.var()))
    assert measured == pytest.approx(1.0, abs=0.2)


def test_unknown_solver_names_raise_naming_the_solver():
    D = build_dictionary("dct", 16, 16)
    mask = observation_mask(16, 0.5, 0, 0)
    y = np.zeros(16)
    calls = (
        lambda: run_solver("bogus", y, mask, D),
        lambda: run_solver_batch("bogus", y[None], [mask], D),
        lambda: solver_settings("bogus", D, 0.5),
    )
    for call in calls:
        with pytest.raises(ValueError, match="unknown solver 'bogus'"):
            call()


@pytest.mark.parametrize("kind", DICTIONARY_KINDS)
def test_every_dictionary_kind_is_built_accepted_and_offered(kind):
    D = build_dictionary(kind, 16, 32)
    assert (D.n, D.p) == (16, 32)
    assert ExperimentSpec(dict_kind=kind).dict_kind == kind
    assert build_parser().parse_args(["dict-info", "--dict", kind]).dict == kind


def test_an_unknown_dictionary_kind_is_refused_everywhere(capsys):
    with pytest.raises(ValueError, match="^unknown dictionary kind 'dct2'$"):
        build_dictionary("dct2", 16, 16)
    with pytest.raises(ValueError, match="^unknown dictionary kind 'dct2'$"):
        ExperimentSpec(dict_kind="dct2")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["dict-info", "--dict", "dct2"])
    assert "invalid choice: 'dct2'" in capsys.readouterr().err
