"""Unit tests of bench_pairs.py's verdict arithmetic (no benchmark runs).

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs as B  # noqa: E402

CORE = {"name": "core_s", "unit": "s", "better": "lower", "bound": 0.25}
PASS = {"name": "pass_frac", "unit": "frac", "better": "higher", "bound": 0.01}


class Order(unittest.TestCase):
    def test_parent_runs_first_on_odd_pairs(self):
        self.assertEqual([B.parent_first(i) for i in range(1, 5)], [True, False, True, False])


class Quartiles(unittest.TestCase):
    def test_inclusive_quartiles(self):
        self.assertEqual(B.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0))

    def test_single_run(self):
        self.assertEqual(B.quartiles([7.0]), (7.0, 7.0, 7.0))


class Wins(unittest.TestCase):
    def test_ties_count_for_neither(self):
        self.assertEqual(B.wins([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "lower"), 1)
        self.assertEqual(B.wins([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "higher"), 1)


class Claim(unittest.TestCase):
    parent = [2.60, 2.55, 2.65, 2.58, 2.62, 2.61, 2.59, 2.57, 2.63, 2.60]

    def test_gain_needs_nine_of_ten_and_a_gap_beyond_the_iqr(self):
        change = [p - 0.3 for p in self.parent]
        self.assertEqual(B.verdict(CORE, self.parent, change, True)["verdict"], "gain")

    def test_eight_wins_are_not_enough(self):
        change = [p - 0.3 for p in self.parent]
        change[0] = change[1] = 3.0
        row = B.verdict(CORE, self.parent, change, True)
        self.assertEqual(row["won"], 8)
        self.assertEqual(row["verdict"], "no gain")

    def test_gap_inside_the_parent_iqr_is_no_gain(self):
        # Every pair won by 0.01 s, but the parent's quartiles lie 0.04 s apart.
        change = [p - 0.01 for p in self.parent]
        row = B.verdict(CORE, self.parent, change, True)
        self.assertEqual(row["won"], 10)
        self.assertEqual(row["verdict"], "no gain")

    def test_more_failed_checks_deny_the_gain(self):
        change = [p - 0.3 for p in self.parent]
        row = B.verdict(CORE, self.parent, change, True, more_failures=True)
        self.assertEqual(row["won"], 10)
        self.assertEqual(row["verdict"], "no gain")

    def test_direction_follows_the_metric(self):
        parent = [0.90] * 10
        self.assertEqual(B.verdict(PASS, parent, [1.0] * 10, True)["verdict"], "gain")
        self.assertEqual(B.verdict(PASS, parent, [0.8] * 10, True)["verdict"], "no gain")


class Failures(unittest.TestCase):
    def test_share_not_count_decides(self):
        self.assertFalse(B.fails_more((0, 7068), (0, 7980)))
        self.assertTrue(B.fails_more((0, 7068), (1, 7980)))
        self.assertFalse(B.fails_more((10, 1000), (11, 2000)))
        self.assertTrue(B.fails_more((10, 2000), (10, 1000)))

    def test_no_checks_attempted_counts_as_none_failed(self):
        self.assertFalse(B.fails_more((0, 0), (0, 0)))
        self.assertTrue(B.fails_more((0, 0), (1, 5)))


class Bound(unittest.TestCase):
    def test_within_the_bound_holds(self):
        row = B.verdict(CORE, [2.0] * 10, [2.4] * 10, False)
        self.assertEqual(row["verdict"], "holds")

    def test_beyond_the_bound_is_worse(self):
        row = B.verdict(CORE, [2.0] * 10, [2.6] * 10, False)
        self.assertEqual(row["verdict"], "worse")

    def test_higher_is_better_bound(self):
        self.assertEqual(B.verdict(PASS, [1.0] * 4, [0.995] * 4, False)["verdict"], "holds")
        self.assertEqual(B.verdict(PASS, [1.0] * 4, [0.98] * 4, False)["verdict"], "worse")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 1.0, 2.0, 3.0, 3.0]  # IQR 2.0 > 0.25 * median 2.0
        row = B.verdict(CORE, parent, [2.1] * 5, False)
        self.assertEqual(row["verdict"], "unresolved")

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        parent = [1.0, 1.0, 2.0, 3.0, 3.0]
        row = B.verdict(CORE, parent, [0.5] * 5, False)
        self.assertEqual(row["verdict"], "holds")


class Parse(unittest.TestCase):
    def test_last_line_is_the_result(self):
        out = 'fractal_build seed=0\n  core_s 2.5 s\n{"correct": true, "attempted": 3, ' \
              '"failed": 0, "metrics": {"core_s": {"value": 2.5, "unit": "s"}}}\n'
        self.assertEqual(B.parse_result(out)["metrics"]["core_s"]["value"], 2.5)

    def test_empty_output_raises(self):
        with self.assertRaises(ValueError):
            B.parse_result("\n")

    def test_benchmark_json_names_the_workloads(self):
        names = B.load_workloads(os.path.join(B.ROOT, "BENCHMARK.json"))
        self.assertEqual(names, ["fractal_build", "front_adapt", "advect_shell"])

    def test_workload_outside_the_benchmark_is_rejected(self):
        # "all" runs every workload under prefixed metric names; refused
        # before any pair runs.
        with self.assertRaises(SystemExit), open(os.devnull, "w") as null:
            stderr, sys.stderr = sys.stderr, null
            try:
                B.main(["--parent", ".", "--change", ".", "--workload", "all"])
            finally:
                sys.stderr = stderr

    def test_benchmark_json_names_the_metrics(self):
        specs = B.load_end_to_end(os.path.join(B.ROOT, "BENCHMARK.json"))
        self.assertIn("core_s", [s["name"] for s in specs])
        for s in specs:
            self.assertIn(s["better"], ("lower", "higher"))
            self.assertGreater(s["bound"], 0)


if __name__ == "__main__":
    unittest.main()
