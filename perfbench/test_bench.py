"""Self-tests of the benchmark: percentile rule, span self time, output schema,
strict command line, and the composed advection loop against the library's
AmrAdvectionDriver.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last test builds esamr_perfbench into .bench_build/ on first use.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as M  # noqa: E402
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        for n in range(1, 250):
            values = [float(i) for i in range(n)]
            p = M.tail_percentile(values)
            if p is None:
                self.assertLess(n, 100)
                continue
            self.assertGreaterEqual(n, 100)
            self.assertGreaterEqual(sum(1 for v in values if v > p), 10)

    def test_p90_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(M.tail_percentile(values), 90)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertAlmostEqual(M.self_time(0.0, 2.0, []), 2.0)

    def test_disjoint_and_overlapping_children(self):
        kids = [(0.5, 1.0), (0.8, 1.2), (1.5, 1.6)]
        self.assertAlmostEqual(M.self_time(0.0, 2.0, kids), 2.0 - 0.7 - 0.1)

    def test_nested_children_count_once(self):
        kids = [(0.2, 1.8), (0.5, 0.6), (1.0, 1.5)]
        self.assertAlmostEqual(M.self_time(0.0, 2.0, kids), 0.4)

    def test_children_clipped_to_parent(self):
        self.assertAlmostEqual(M.self_time(1.0, 2.0, [(0.0, 1.5), (1.9, 3.0)]), 0.4)

    def test_root_self_times_from_span_rows(self):
        raw = {"span_names": ["step", "forest.nodes"], "op_fields": ["x"], "loop_wall_s": [1.0],
               "spans": [
            [0, 0, 0, -1, 0.0, 1.0, 0.9, 0.0, 0, 0, 0],
            [1, 0, 0, 0, 0.1, 0.7, 0.6, 0.0, 2, 64, 5],
            [0, 1, 0, -1, 0.0, 1.2, 1.0, 0.0, 0, 0, 0],
            [1, 1, 0, 2, 0.2, 0.4, 0.2, 0.1, 1, 32, 1],
        ]}
        spans = M.parse_spans(raw)
        self.assertEqual([round(t, 9) for t in M.root_self_times(spans)], [1.0])
        table = M.phase_table(spans, ["forest.nodes"])["forest.nodes"]
        self.assertAlmostEqual(table["busy_s"], 0.6)
        self.assertAlmostEqual(table["wait_s"], 0.1)
        self.assertEqual(table["msgs"], 3)
        self.assertEqual(table["calls"], 1)
        self.assertEqual(table["ops"]["x"], 6)


def fake_raw(workload):
    return {
        "workload": workload, "seed": 0, "inputs": "x", "build": {"compiler": "c",
                                                                 "build_type": "b"},
        "setup_s": [0.1, 0.2, 0.3], "loop_wall_s": [1.0, 1.1, 1.2], "loop_core_s": [4.0, 4.1, 4.2],
        "step_s": [0.01 * (i + 1) for i in range(120)], "adapt_s": [0.02, 0.03],
        "loop_steps": [40, 40, 40], "loop_adapts": [1, 1, 0], "loop_steal_frac": [0.0, 0.0, 0.0],
        "loop_clean": [1, 1, 1], "peak_rss_kb": [2048.0, 4096.0, 1024.0],
        "samples": {"octants": [[1000.0]], "elements": [[1000.0]]},
        "comm": {"msgs": 10, "bytes": 100, "coll_calls": 1, "bytes_verified": 100,
                 "retransmits": 0, "wait_s": 0.01, "buffer_copies": 0,
                 "buffer_zero_copy_takes": 3},
        "checks": {"attempted": 4, "failed": 0, "failures": []},
        "span_names": ["step", "sfem.step"], "op_fields": ["ckpt_delta_bytes"],
        "spans": [[0, 0, 0, -1, 0.0, 1.0, 0.9, 0.0, 0, 0, 0],
                  [1, 0, 0, 0, 0.1, 0.7, 0.6, 0.0, 2, 64, 0]],
    }


class CleanLoops(unittest.TestCase):
    def test_stolen_loops_are_dropped(self):
        raw = fake_raw("advect_shell")
        raw["loop_clean"] = [1, 0, 1]
        raw["loop_steal_frac"] = [0.0, 0.2, 0.01]
        view = M.clean_loops(raw)
        self.assertEqual(view["loop_wall_s"], [1.0, 1.2])
        self.assertEqual(view["step_s"], raw["step_s"][:40] + raw["step_s"][80:])
        self.assertEqual(view["adapt_s"], [0.02])
        self.assertEqual(view["checks"], raw["checks"])
        self.assertEqual(run.end_to_end(raw)["wall_s"], 1.1)

    def test_all_stolen_keeps_everything(self):
        raw = fake_raw("advect_shell")
        raw["loop_clean"] = [0, 0, 0]
        self.assertEqual(M.clean_loops(raw)["step_s"], raw["step_s"])


class OutputSchema(unittest.TestCase):
    def bench_spec(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            return json.load(f)

    def check_line(self, line, spec):
        obj = json.loads(line)
        self.assertEqual(set(obj), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(obj["attempted"], int)
        self.assertGreaterEqual(obj["attempted"], 1)
        self.assertEqual(set(obj["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = obj["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))

    def test_end_to_end_line(self):
        values = run.end_to_end(fake_raw("advect_shell"))
        line = run.result_line(True, 4, 0, values, run.END_TO_END)
        self.check_line(line, self.bench_spec()["end_to_end"])
        self.assertEqual(json.loads(line)["metrics"]["pass_frac"]["value"], 1.0)

    def test_per_layer_line(self):
        raw = fake_raw("advect_shell")
        probe = {"triad_GBps": 10.0, "fma_GFlops": 20.0, "array_bytes": 1 << 20,
                 "llc_bytes": 1 << 18}
        values, _, _ = run.per_layer("advect_shell", raw, raw, raw, probe, raw)
        line = run.result_line(True, 4, 0, values, run.PER_LAYER)
        self.check_line(line, self.bench_spec()["per_layer"])

    def test_benchmark_json_matches_code(self):
        spec = self.bench_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)


class StrictCommandLine(unittest.TestCase):
    def run_cli(self, *args):
        return subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py")] +
                              list(args), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)

    def test_rejected(self):
        good = ["--workload", "fractal_build", "--seed", "1", "--seconds", "5", "--trace", "0"]
        for bad in (["--help"], good + ["--bogus"], good[:3] + ["five"] + good[4:],
                    good[:2] + ["x"] + good[3:], good[:-1] + ["2"], good[:6]):
            proc = self.run_cli(*bad)
            self.assertNotEqual(proc.returncode, 0, bad)
            self.assertIn("usage", proc.stderr)
            self.assertEqual(proc.stdout, "")


class ComposedAdvection(unittest.TestCase):
    def test_matches_library_loop_bit_for_bit(self):
        run.build()
        for bad in (["--help"], ["--workload", "nope"], ["--seed", "abc"]):
            proc = subprocess.run([run.BINARY] + bad, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIn("usage", proc.stderr)
        proc = subprocess.run([run.BINARY, "--self-test"], stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertTrue(json.loads(proc.stdout)["ok"])


if __name__ == "__main__":
    unittest.main()
