"""Tests for the end-to-end runner's statistics, bounds and verdicts.

  python3 -m unittest bench/e2e/test_run.py

Synthetic data only: nothing here builds or runs bench_e2e_suite.
"""

import contextlib
import importlib.util
import io
import json
import statistics
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


class Statistics(unittest.TestCase):
    def test_median_and_quartiles_follow_statistics_quantiles(self):
        for xs in ([5.0, 1.0, 3.0], [4.0, 1.0, 3.0, 2.0],
                   [float(x) for x in range(1, 11)]):
            q = statistics.quantiles(xs, n=4)
            self.assertEqual(run.quartiles(xs), (q[0], q[2]))
            self.assertEqual(run.median(xs), statistics.median(xs))
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0))

    def test_spread_is_iqr_over_median(self):
        xs = [float(x) for x in range(1, 11)]
        q1, q3 = run.quartiles(xs)
        self.assertAlmostEqual(run.spread(xs), (q3 - q1) / 5.5)
        self.assertEqual(run.spread([2.0, 2.0, 2.0]), 0.0)

    def test_nearest_rank_p99(self):
        self.assertEqual(run.nearest_rank(list(range(1, 101)), 99), 99)
        # 1000 samples: the first p99 with ten samples above it.
        self.assertEqual(run.nearest_rank(list(range(1, 1001)), 99), 990)
        # Fewer than 100 samples: p99 is the maximum.
        self.assertEqual(run.nearest_rank(list(range(10, 0, -1)), 99), 10)
        self.assertEqual(run.nearest_rank([4, 1, 3, 2], 50), 2)

    def test_round_metrics_from_a_chrome_trace(self):
        # bench_e2e_suite's layout: one event per line.
        events = [{"name": "round", "ph": "X", "dur": float(d)}
                  for d in range(1, 201)]
        events.insert(7, {"name": "sim.step", "ph": "X", "dur": 1e9})
        text = ('{"displayTimeUnit":"ms","traceEvents":[\n'
                + ",\n".join(json.dumps(e, separators=(",", ":"))
                              for e in events) + "\n]}\n")
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "w.trace.json"
            path.write_text(text)
            self.assertEqual(len(json.loads(text)["traceEvents"]), 201)
            m = run.round_metrics(path)
        self.assertEqual(m, {"round.p50_us": 100.5, "round.p99_us": 198.0,
                             "round.samples": 200})

    def test_parse_seeds(self):
        self.assertEqual(run.parse_seeds("1-3,5"), [1, 2, 3, 5])
        self.assertEqual(run.parse_seeds("7"), [7])


class Bounds(unittest.TestCase):
    def test_relative_bound(self):
        self.assertTrue(run.regressed([1.0] * 5, [1.2] * 5, "lower", 0.1))
        self.assertFalse(run.regressed([1.0] * 5, [1.05] * 5, "lower", 0.1))
        self.assertTrue(run.regressed([100.0] * 5, [85.0] * 5, "higher", 0.1))
        self.assertFalse(run.regressed([100.0] * 5, [120.0] * 5, "higher", 0.1))

    def test_absolute_floor(self):
        # Doubling a 1 ms setup is within the 50 ms floor ...
        self.assertFalse(run.regressed([0.001] * 5, [0.002] * 5, "lower", 0.1,
                                       floor=0.05))
        # ... a 0.3 s slip on a 1 s setup is not.
        self.assertTrue(run.regressed([1.0] * 5, [1.3] * 5, "lower", 0.1,
                                      floor=0.05))


class Verdict(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]

    def test_clear_gain(self):
        change = [x * 1.05 for x in self.base]
        self.assertEqual(run.verdict(self.base, change, "higher", 0.1), "gain")
        # The same numbers are a loss within the bound when lower is better.
        self.assertEqual(run.verdict(self.base, change, "lower", 0.1), "same")

    def test_ties_count_for_neither_side(self):
        change = [x * 1.05 for x in self.base]
        pairs = list(zip(self.base, change))
        one_tie = [(b, b) if i == 0 else (b, c)
                   for i, (b, c) in enumerate(pairs)]
        # 9 wins + 1 tie out of 10 pairs still reaches 9/10 ...
        self.assertEqual(run.verdict(self.base, change, "higher", 0.1,
                                     pairs=one_tie), "gain")
        two_ties = [(b, b) if i < 2 else (b, c)
                    for i, (b, c) in enumerate(pairs)]
        # ... 8 wins + 2 ties does not.
        self.assertEqual(run.verdict(self.base, change, "higher", 0.1,
                                     pairs=two_ties), "same")

    def test_fewer_than_ten_pairs_is_no_gain(self):
        change = [x * 1.05 for x in self.base]
        self.assertEqual(run.verdict(self.base[:9], change[:9], "higher", 0.1),
                         "same")

    def test_difference_inside_the_base_iqr_is_no_gain(self):
        change = [x + 0.2 for x in self.base]  # wins every pair, tiny shift
        q1, q3 = run.quartiles(self.base)
        self.assertLess(0.2, q3 - q1)
        self.assertEqual(run.verdict(self.base, change, "higher", 0.1), "same")

    def test_regression(self):
        change = [x * 0.8 for x in self.base]
        self.assertEqual(run.verdict(self.base, change, "higher", 0.1),
                         "regression")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        change = [x * 1.02 for x in noisy]
        self.assertGreater(run.spread(noisy), 0.1)
        self.assertEqual(run.verdict(noisy, change, "higher", 0.1),
                         "unresolved")
        # Unless every change run beats every base run.
        far = [x + 200.0 for x in noisy]
        self.assertEqual(run.verdict(noisy, far, "higher", 0.1), "gain")


class Compare(unittest.TestCase):
    spec = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "work_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1}]}

    @staticmethod
    def results(work, failed=0):
        return {"runs": [{"workload": "w", "seed": 1, "rep": i,
                          "e2e": {"setup_s": 0.001, "work_per_s": x},
                          "attempted": 10, "failed": failed}
                         for i, x in enumerate(work)]}

    def check(self, base, change):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            bad = run.compare_results(base, change, self.spec)
        return bad, out.getvalue()

    def test_same_commit_reports_no_regression(self):
        work = [100.0, 101.0, 99.0, 100.0, 100.5]
        bad, out = self.check(self.results(work), self.results(work[::-1]))
        self.assertEqual(bad, 0)
        self.assertNotIn("regression", out)

    def test_regression_and_fail_frac_increase_are_flagged(self):
        work = [100.0, 101.0, 99.0, 100.0, 100.5]
        bad, out = self.check(self.results(work),
                              self.results([x * 0.5 for x in work], failed=1))
        self.assertEqual(bad, 2)
        self.assertIn("regression", out)
        self.assertIn("INCREASED", out)

    def test_summary_fail_frac(self):
        s = run.summary_of(self.results([1.0, 2.0], failed=1)["runs"],
                           self.spec)
        self.assertEqual(s["w"]["fail_frac"], 0.1)
        self.assertEqual(s["w"]["work_per_s"]["median"], 1.5)


class Digests(unittest.TestCase):
    def test_status(self):
        expected = {"w": {"1": "0xab"}}
        self.assertEqual(run.digest_status(expected, "w", 1, "0xab"), "match")
        self.assertEqual(run.digest_status(expected, "w", 2, "0xab"),
                         "unrecorded")
        self.assertTrue(run.digest_status(expected, "w", 1, "0xcd")
                        .startswith("MISMATCH"))

    def test_every_workload_has_seeds_1_to_3_recorded(self):
        spec = run.load_spec()
        expected = run.load_expected()
        for w in spec["workloads"]:
            self.assertEqual(sorted(expected[w["name"]]), ["1", "2", "3"])


class BenchmarkSpec(unittest.TestCase):
    def test_bounds_and_names(self):
        spec = run.load_spec()
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertLessEqual(max(m["bound"] for m in e2e.values()), 0.25)
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(run.ROUND_METRICS <=
                        {m["name"] for m in spec["per_layer"]})


if __name__ == "__main__":
    unittest.main()
