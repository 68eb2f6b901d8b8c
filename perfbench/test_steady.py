#!/usr/bin/env python3
"""Tests of the compare verdicts and spread figures in steady.py.

    python3 perfbench/test_steady.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import steady  # noqa: E402


class SummaryTest(unittest.TestCase):
    def test_spread_is_quartile_distance_over_median(self):
        median, q1, q3, spread = steady.summary([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(median, 5.5)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(spread, 1.0)

    def test_single_value_has_no_spread(self):
        self.assertEqual(steady.summary([4.0]), (4.0, 4.0, 4.0, 0.0))


class WorseByTest(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(steady.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(steady.worse_by(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(steady.worse_by(100, 90, "higher"), 0.10)


class VerdictTest(unittest.TestCase):
    steady_base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_unchanged_within_bound(self):
        new = [v * 1.03 for v in self.steady_base]
        self.assertEqual(steady.verdict(self.steady_base, new, "lower", 0.1),
                         "unchanged")

    def test_worse_beyond_bound(self):
        new = [v * 1.2 for v in self.steady_base]
        self.assertEqual(steady.verdict(self.steady_base, new, "lower", 0.1),
                         "worse")
        self.assertEqual(steady.verdict(new, self.steady_base, "higher", 0.1),
                         "worse")

    def test_better_beyond_bound(self):
        new = [v * 0.8 for v in self.steady_base]
        self.assertEqual(steady.verdict(self.steady_base, new, "lower", 0.1),
                         "better")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [50, 150, 80, 120, 100, 60, 140, 90, 110, 100]
        self.assertEqual(steady.verdict(noisy, noisy, "lower", 0.1),
                         "unresolved")
        self.assertEqual(steady.verdict(self.steady_base, noisy, "lower", 0.1),
                         "unresolved")

    def test_noisy_but_every_run_better_is_better(self):
        noisy_base = [200, 300, 250, 220, 280]
        new = [50, 90, 70, 60, 80]
        self.assertEqual(steady.verdict(noisy_base, new, "lower", 0.1), "better")


class MismatchTest(unittest.TestCase):
    spec = {"end_to_end": [{"name": "ingest_tps"}, {"name": "setup_s"}]}

    @staticmethod
    def result_set(seconds, results):
        return {"run_seconds": seconds, "results": results}

    def full(self):
        return {"ingest_p10": {"ingest_tps": [1.0], "setup_s": [0.1]},
                "query_mixed": {"ingest_tps": [2.0], "setup_s": [0.2]}}

    def test_matching_sets_compare(self):
        a = self.result_set(20, self.full())
        self.assertEqual(steady.mismatches(a, a, self.spec), [])

    def test_missing_workload_on_either_side_is_refused(self):
        partial = self.full()
        del partial["query_mixed"]
        a, b = self.result_set(20, self.full()), self.result_set(20, partial)
        self.assertEqual(steady.mismatches(a, b, self.spec),
                         ["new set lacks workload query_mixed"])
        self.assertEqual(steady.mismatches(b, a, self.spec),
                         ["base set lacks workload query_mixed"])

    def test_missing_metric_is_refused(self):
        partial = self.full()
        partial["ingest_p10"]["setup_s"] = []
        a, b = self.result_set(20, self.full()), self.result_set(20, partial)
        self.assertEqual(steady.mismatches(a, b, self.spec),
                         ["new set lacks setup_s on ingest_p10"])

    def test_different_run_lengths_are_refused(self):
        a, b = self.result_set(20, self.full()), self.result_set(10, self.full())
        self.assertEqual(steady.mismatches(a, b, self.spec),
                         ["run lengths differ: 20 s and 10 s"])


if __name__ == "__main__":
    unittest.main()
