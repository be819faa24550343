"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Covers the self-time arithmetic of the tracer, the installation of its
wrappers, the agreement of BENCHMARK.json with what the runner reports,
and that each correctness check rejects a deliberately corrupted output.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import csim.baselines  # noqa: E402
import csim.dictionaries  # noqa: E402
import csim.solver  # noqa: E402
from csim import cli, experiments  # noqa: E402
from csim.denoise import empirical_stats, mse_filter  # noqa: E402
from csim.signals import SamplingMask  # noqa: E402


def thread_spans(rows) -> spans.ThreadSpans:
    """Spans from (name id, parent index, start, end) rows."""
    out = spans.ThreadSpans()
    for name, parent, start, end in rows:
        out.add(name, parent, start, end)
    return out


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_on_one_thread(self):
        # 0: A [0, 10] holds 1: B [1, 4] and 2: C [5, 9]; C holds 3: D [6, 7].
        tree = thread_spans([(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 0, 5.0, 9.0), (3, 2, 6.0, 7.0)])
        calls, inclusive, self_time = spans.layer_times([tree], 4)
        np.testing.assert_array_equal(calls, [1, 1, 1, 1])
        np.testing.assert_allclose(inclusive, [10.0, 3.0, 4.0, 1.0])
        np.testing.assert_allclose(self_time, [3.0, 3.0, 3.0, 1.0])

    def test_two_threads_sum_and_do_not_nest(self):
        # Thread 1: A [0, 10] holds B [2, 5].  Thread 2 runs B [1, 8] on
        # A's behalf; it is not A's child, so A keeps that time as self time.
        first = thread_spans([(0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0)])
        second = thread_spans([(1, -1, 1.0, 8.0), (1, -1, 8.5, 9.0)])
        calls, inclusive, self_time = spans.layer_times([first, second], 2)
        np.testing.assert_array_equal(calls, [1, 3])
        np.testing.assert_allclose(self_time, [7.0, 3.0 + 7.0 + 0.5])
        # Summed over threads, B's self time exceeds the 10 s the pass took.
        self.assertGreater(self_time[1], 10.0)

    def test_child_calls_counts_direct_children_only(self):
        # 0: fista [0, 10] holds 1: soft [1, 2] and 1: soft [3, 4]; 2: other
        # [5, 9] holds 1: soft [6, 7], which is not a direct child of 0.
        tree = thread_spans([
            (0, -1, 0, 10), (1, 0, 1, 2), (1, 0, 3, 4), (2, 0, 5, 9), (1, 3, 6, 7), (1, -1, 11, 12),
        ])
        self.assertEqual(spans.child_calls([tree], child=1, parent=0), 2)

    def test_wrappers_keep_a_stack_per_thread(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(inner(x)))
        threads = [threading.Thread(target=lambda: [outer(i) for i in range(50)]) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            self.assertFalse(t.is_alive())
        calls, _, _ = spans.layer_times(tracer.threads, len(tracer.names))
        self.assertEqual(len(tracer.threads), 2)
        self.assertEqual(calls[tracer.name_id("outer")], 100)
        self.assertEqual(calls[tracer.name_id("inner")], 200)
        for spans_of_thread in tracer.threads:
            parents = np.asarray(spans_of_thread.parents)
            names = np.asarray(spans_of_thread.names)
            inner_rows = names == tracer.name_id("inner")
            self.assertTrue(np.all(names[parents[inner_rows]] == tracer.name_id("outer")))

    def test_installed_patches_every_binding_and_restores(self):
        original = csim.solver.soft_threshold
        tracer = spans.Tracer()
        with spans.installed(tracer):
            self.assertIsNot(csim.solver.soft_threshold, original)
            self.assertIs(csim.baselines.soft_threshold, csim.solver.soft_threshold)
            experiments.run_solver("fista", *self._problem())
        self.assertIs(csim.solver.soft_threshold, original)
        self.assertIs(csim.baselines.soft_threshold, original)
        metrics = spans.per_layer_metrics(tracer, 0, 0.0)
        self.assertEqual(metrics["baselines.fista_solve.calls"]["value"], 1)
        self.assertGreaterEqual(metrics["baselines.fista_restarts"]["value"], 0)
        self.assertGreater(metrics["solver.soft_threshold.self_s"]["value"], 0.0)

    @staticmethod
    def _problem():
        D = experiments.build_dictionary("dct", 64, 64)
        _, observed, y = checks.sweep_trial(D.atoms, 0, 0.8, 0)
        return y, SamplingMask(64, observed), D


class BenchmarkFileTest(unittest.TestCase):
    def test_names_match_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(list(workloads.WORKLOADS), list(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(spans.PER_LAYER))


class ChecksRejectCorruptionTest(unittest.TestCase):
    def test_shuffled_sweep_rows(self):
        spec = experiments.ExperimentSpec(srs=(0.8,), trials=6, seed=3, solvers=("fista",))
        rows = checks.parse_csv(experiments.sweep_sr(spec))
        self.assertTrue(all(checks.sweep_row_flags(rows, "fista", (0.8,), 6)))
        shuffled = [rows[i] for i in (1, 0, 2, 3, 5, 4)]
        self.assertEqual(sum(checks.sweep_row_flags(shuffled, "fista", (0.8,), 6)), 2)

    def test_wrong_relerr(self):
        D = experiments.build_dictionary("dct", 64, 64)
        spec = experiments.ExperimentSpec(srs=(0.6,), trials=2, seed=4, solvers=("csim-alm",))
        row = checks.parse_csv(experiments.sweep_sr(spec))[1]
        s_true, observed, y = checks.sweep_trial(D.atoms, 4, 0.6, 1)
        result = experiments.run_solver("csim-alm", y, SamplingMask(64, observed), D)
        self.assertTrue(checks.relerr_matches(row, result.s_hat, s_true))
        wrong = dict(row, relerr=repr(float(row["relerr"]) * 1.000001))
        self.assertFalse(checks.relerr_matches(wrong, result.s_hat, s_true))

    def test_dct_atoms(self):
        atoms = experiments.build_dictionary("dct", 64, 64).atoms
        reference = checks.dct_ii_atoms(64)
        self.assertTrue(np.allclose(atoms, reference, rtol=0.0, atol=1e-12))
        self.assertFalse(np.allclose(atoms[:, ::-1], reference, rtol=0.0, atol=1e-12))

    def test_flipped_observed_pixel(self):
        image = experiments.synthetic_image(16, 16, seed=5).astype(float)
        (HERE / "_work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
            src, out = Path(tmp) / "in.pgm", Path(tmp) / "out.pgm"
            checks.write_pgm(src, image)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["recover", "--input", str(src), "--out", str(out), "--sr", "0.7", "--seed", "9"])
            self.assertEqual(code, 0)
            recovered = checks.read_pgm(out)
        masks = checks.recover_masks(16, 16, 9, 0.7)
        self.assertTrue(checks.observed_pixel_flags(recovered, image, masks).all())
        r, c = divmod(int(masks[2][0]), 8)  # patch 2 sits at (8, 0)
        recovered[8 + r, c] = 255 - recovered[8 + r, c]
        np.testing.assert_array_equal(checks.observed_pixel_flags(recovered, image, masks), [True, True, False, True])

    def test_perturbed_taps(self):
        rng = checks.generator(6, 1)
        patch = np.round(120 + 30 * np.sin(np.arange(64) / 5) + 20 * rng.standard_normal(64))
        taps = mse_filter(empirical_stats(patch, 6, 400.0)).taps
        reference = checks.wiener_taps(patch, 6, 400.0)
        self.assertTrue(checks.taps_match(taps, reference))
        self.assertFalse(checks.taps_match(taps * (1 + 1e-8), reference))

    def test_stationarity_gap(self):
        D = csim.dictionaries.haar_wp_dictionary(64, 128)
        s = checks.sparse_code(128, 6, 606, 0, checks.TAG_SIGNAL)
        observed = checks.observed_indices(64, 51, 606, 0, checks.TAG_MASK, 51)
        y = np.zeros(64)
        y[observed] = (D.atoms @ s)[observed]
        config = csim.solver.SolverConfig.analysis(l1_weight=1e-3, max_iter=2000, feasibility_tol=1e-8)
        r = csim.solver.solve(y, SamplingMask(64, observed), D, config)
        W = checks.dense_index_matrix(64, 0.25 * 63, 63.0)
        self.assertTrue(checks.stationarity_ok(r.final_slack, r.final_dual_x, r.final_dual_z, observed, W, 1.0))
        self.assertFalse(checks.stationarity_ok(r.final_slack, r.final_dual_x + 1e-3, r.final_dual_z, observed, W, 1.0))


if __name__ == "__main__":
    unittest.main()
