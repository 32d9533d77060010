#!/usr/bin/env python3
"""Unit tests for bench_gate.py, on fixtures derived from BENCH_fork.json.

Run from anywhere: python3 scripts/test_bench_gate.py
"""

import contextlib
import copy
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_gate  # noqa: E402

with open(os.path.join(HERE, "..", "BENCH_fork.json")) as f:
    COMMITTED = json.load(f)


def run_gate(old, new):
    with contextlib.redirect_stdout(io.StringIO()):
        return bench_gate.gate(old, new, 0.15, 2.0)


def scaled(family, metric, factor):
    doc = copy.deepcopy(COMMITTED)
    for row in doc[family]:
        row[metric] *= factor
    return doc


SIMULATED = [
    (family, metric)
    for family, (_, gated, _) in bench_gate.FAMILIES.items()
    if family != bench_gate.HOST
    for metric in gated
]


class GateTest(unittest.TestCase):
    def test_identical_data_passes(self):
        self.assertEqual(run_gate(COMMITTED, COMMITTED), [])

    def test_simulated_regression_fails_and_names_metric(self):
        for family, metric in SIMULATED:
            with self.subTest(family=family, metric=metric):
                failures = run_gate(COMMITTED, scaled(family, metric, 1.16))
                self.assertTrue(failures)
                self.assertTrue(
                    all(f.startswith(family + " ") and metric in f for f in failures), failures
                )

    def test_simulated_improvement_passes(self):
        for family, metric in SIMULATED:
            with self.subTest(family=family, metric=metric):
                self.assertEqual(run_gate(COMMITTED, scaled(family, metric, 0.84)), [])

    def test_added_and_removed_rows_are_informational(self):
        for family, (keys, _, _) in bench_gate.FAMILIES.items():
            with self.subTest(family=family):
                removed = copy.deepcopy(COMMITTED)
                del removed[family][0]
                self.assertEqual(run_gate(COMMITTED, removed), [])
                self.assertEqual(run_gate(removed, COMMITTED), [])
                added = copy.deepcopy(COMMITTED)
                extra = dict(added[family][0], **{keys[0]: "added"})
                added[family].append(extra)
                self.assertEqual(run_gate(COMMITTED, added), [])

    def test_breaking_each_ratio_fails(self):
        for family, _, _, (match, metric), _, _, _, where in bench_gate.RATIOS:
            with self.subTest(family=family):
                doc = copy.deepcopy(COMMITTED)
                for row in doc[family]:
                    if where(row) and all(row[k] == v for k, v in match.items()):
                        row[metric] *= 100
                failures = run_gate(doc, doc)
                self.assertTrue(failures)
                self.assertTrue(all(f.startswith(f"cross {family} ") for f in failures))

    def test_zero_baseline_growing_fails(self):
        zeros = [r for r in COMMITTED["fork_phases"] if r["sim_total_ns"] == 0]
        self.assertTrue(zeros)
        for row in zeros:
            with self.subTest(mode=row["mode"], phase=row["phase"]):
                doc = copy.deepcopy(COMMITTED)
                doc["fork_phases"][COMMITTED["fork_phases"].index(row)]["sim_total_ns"] = 1.0
                failures = run_gate(COMMITTED, doc)
                self.assertEqual(len(failures), 1)
                self.assertIn(f"{row['mode']}/{row['phase']}/sim_total_ns", failures[0])

    def test_host_metrics_get_the_wide_threshold(self):
        self.assertEqual(run_gate(COMMITTED, scaled("results", "best_ns", 2.5)), [])
        failures = run_gate(COMMITTED, scaled("results", "best_ns", 3.5))
        self.assertEqual(len(failures), len(COMMITTED["results"]))


if __name__ == "__main__":
    unittest.main()
