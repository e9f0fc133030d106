#!/usr/bin/env python3
"""Unit tests of bench/e2e_gate.py's comparison, without running the bench.

    python3 tests/e2e_gate_test.py

Feeds synthetic trajectory rows and run.py results to compare() and
checks which of them fail.
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))
import e2e_gate  # noqa: E402

END_TO_END = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "sim_requests_per_s", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
    {"name": "sim_served_frac", "better": "higher", "bound": 0.25},
]
REFERENCE = {"setup_s": 0.25, "sim_requests_per_s": 100000.0,
             "peak_rss_mb": 50.0, "sim_served_frac": 0.8}
FINGERPRINT = "4b3427e2f47f4d02"


def row(metrics, fingerprint=FINGERPRINT, seconds=5, commit="abc1234"):
    return {"commit": commit, "pr": 1, "seconds": seconds,
            "metrics": dict(metrics),
            "fingerprint": {"1": fingerprint} if fingerprint else {}}


def result(scale=None, correct=True, failed=0):
    scale = scale or {}
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "metrics": {name: {"value": value * scale.get(name, 1.0)}
                        for name, value in REFERENCE.items()}}


def compare(rows, res, fingerprint=FINGERPRINT):
    return e2e_gate.compare("w", END_TO_END, rows, res, fingerprint)


class CompareTest(unittest.TestCase):
    def test_parity_passes(self):
        self.assertEqual(compare([row(REFERENCE)], result()), [])

    def test_inside_every_bound_passes(self):
        scale = {"setup_s": 1.24, "sim_requests_per_s": 0.81,
                 "peak_rss_mb": 1.14, "sim_served_frac": 0.76}
        self.assertEqual(compare([row(REFERENCE)], result(scale)), [])

    def test_slower_rate_fails_and_names_the_row(self):
        failures = compare([row(REFERENCE)],
                           result({"sim_requests_per_s": 0.79}))
        self.assertEqual(len(failures), 1)
        self.assertIn("sim_requests_per_s", failures[0])
        self.assertIn("0.790x", failures[0])
        self.assertIn("row 0 (commit abc1234", failures[0])

    def test_slower_setup_fails(self):
        failures = compare([row(REFERENCE)], result({"setup_s": 1.26}))
        self.assertEqual(len(failures), 1)
        self.assertIn("setup_s", failures[0])

    def test_more_memory_and_fewer_served_fail(self):
        failures = compare([row(REFERENCE)],
                           result({"peak_rss_mb": 1.16,
                                   "sim_served_frac": 0.74}))
        self.assertEqual(len(failures), 2)

    def test_changed_fingerprint_fails(self):
        failures = compare([row(REFERENCE)], result(), "4b3427e2f47f4d03")
        self.assertEqual(len(failures), 1)
        self.assertIn("fingerprint", failures[0])
        # A report without a fingerprint line fails too.
        self.assertEqual(len(compare([row(REFERENCE)], result(), None)), 1)

    def test_incorrect_run_fails(self):
        self.assertEqual(
            len(compare([row(REFERENCE)], result(correct=False))), 1)

    def test_failed_operations_fail(self):
        self.assertEqual(len(compare([row(REFERENCE)], result(failed=3))),
                         1)

    def test_null_metrics_fall_back_to_the_last_row_with_a_value(self):
        newer = dict(REFERENCE, sim_requests_per_s=None, setup_s=None)
        rows = [row(REFERENCE, commit="old"), row(newer, None, commit="new")]
        # The newest row has no rate, so the rate compares with "old".
        failures = compare(rows, result({"sim_requests_per_s": 0.79}))
        self.assertEqual(len(failures), 1)
        self.assertIn("commit old", failures[0])
        self.assertEqual(compare(rows, result()), [])
        # A newest row with a value wins over older ones.
        faster = dict(REFERENCE, sim_requests_per_s=200000.0)
        failures = compare(rows + [row(faster, commit="fast")], result())
        self.assertEqual(len(failures), 1)
        self.assertIn("commit fast", failures[0])

    def test_seconds_come_from_the_newest_row_with_a_value(self):
        empty = dict.fromkeys(REFERENCE)
        rows = [row(REFERENCE, seconds=20), row(REFERENCE, seconds=5),
                row(empty, seconds=10)]
        self.assertEqual(e2e_gate.reference_seconds(rows, END_TO_END), 5)
        with self.assertRaises(ValueError):
            e2e_gate.reference_seconds([row(empty)], END_TO_END)


if __name__ == "__main__":
    unittest.main()
