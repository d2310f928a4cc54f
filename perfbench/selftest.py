#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic and output checks.

    python3 perfbench/selftest.py

Covers the self-time arithmetic on synthetic nested spans, the tracer's
parent links, the compare verdicts, and output checks that must reject
corrupted reports, a diverged CLI result and a wrong spectral basis.
"""

from __future__ import annotations

import math
import sys
import tempfile
import time
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import compare  # noqa: E402
import nscontrol  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            span("a", 0.0, 10.0, -1),
            span("b", 1.0, 4.0, 0),
            span("c", 2.0, 3.0, 1),
            span("d", 5.0, 9.0, 0),
            span("e", 6.0, 8.0, 3),
            span("f", 7.0, 8.5, 3),  # overlaps e: d's children cover [6, 8.5]
            span("g", 2.5, 3.5, 2),  # runs past its parent c: clipped to [2.5, 3]
        ]
        expected = [10 - 3 - 4, 3 - 1, 1 - 0.5, 4 - 2.5, 2.0, 1.5, 1.0]
        for got, want in zip(tracing.self_times(spans), expected):
            self.assertAlmostEqual(got, want, places=12)

    def test_layer_metrics_subtract_the_callback(self):
        spans = [
            span("harness.run_experiment", 0.0, 10.0, -1),
            span("lds_core.simulate", 1.0, 5.0, 0),
            span("harness.controller_callback", 1.5, 2.5, 1),
            span("harness.controller_callback", 3.0, 4.0, 1),
            span("harness.comparator", 6.0, 9.0, 0),
        ]
        metrics = tracing.layer_metrics(spans, {})
        self.assertAlmostEqual(metrics["lds_core.simulate.self_s"], 2.0)
        self.assertAlmostEqual(metrics["lds_core.simulate.step_us"], 1e6)
        self.assertAlmostEqual(metrics["harness.comparator.share"], 0.3)
        self.assertEqual(metrics["harness.comparator.calls"], 1)

    def test_tracer_records_parents_and_self_time_adds_up(self):
        tracer = tracing.Tracer()

        def leaf():
            time.sleep(0.002)

        inner = tracer.wrap("inner", lambda: [leaf_traced() for _ in range(2)])
        leaf_traced = tracer.wrap("leaf", leaf)
        outer = tracer.wrap("outer", lambda: inner())
        outer()
        spans, _ = tracer.take()
        self.assertEqual([s[tracing.NAME] for s in spans], ["outer", "inner", "leaf", "leaf"])
        self.assertEqual([s[tracing.PARENT] for s in spans], [-1, 0, 1, 1])
        total = spans[0][tracing.END] - spans[0][tracing.START]
        self.assertAlmostEqual(sum(tracing.self_times(spans)), total, places=9)


class SpeedScaleTest(unittest.TestCase):
    def test_interval_scaled_by_the_references_around_it(self):
        times = iter([0.2, 0.3, 0.1])
        original = run.reference_seconds
        run.reference_seconds = lambda: next(times)
        try:
            scale = run.SpeedScale()
            nominal = run.REFERENCE_NOMINAL_S
            self.assertAlmostEqual(scale.scaled(5.0), 5.0 * nominal / 0.25)
            self.assertAlmostEqual(scale.scaled(5.0), 5.0 * nominal / 0.2)
        finally:
            run.reference_seconds = original


class VerdictTest(unittest.TestCase):
    def test_verdicts(self):
        base = {s: 10.0 + 0.01 * s for s in range(10)}
        faster = {s: 8.0 + 0.01 * s for s in range(10)}
        slower = {s: 12.0 + 0.01 * s for s in range(10)}
        noisy = {s: 10.0 + (5.0 if s % 2 else 0.0) for s in range(10)}
        self.assertEqual(compare.verdict(base, faster, "lower", 0.1)[3], "better")
        self.assertEqual(compare.verdict(base, slower, "lower", 0.1)[3], "worse")
        self.assertEqual(compare.verdict(base, base, "lower", 0.1)[3], "within bound")
        self.assertEqual(compare.verdict(noisy, slower, "lower", 0.1)[3], "unresolved")
        self.assertEqual(compare.verdict(base, slower, "higher", None)[3], "better")


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        scratch = HERE.parent / ".perfbench_out"
        scratch.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=scratch)
        runs = workloads.build("regret-grc", workloads.DEFAULT_SEED, cls.tmp.name)
        cls.outcome = workloads.execute(runs[1])  # iid-gaussian, with a reference

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def corrupted(self, **changes):
        return replace(self.outcome, report=replace(self.outcome.report, **changes))

    def test_real_run_passes(self):
        self.assertEqual(workloads.check(self.outcome), [])

    def test_non_finite_cost_is_rejected(self):
        costs = self.outcome.report.costs.copy()
        costs[7] = math.nan
        self.assertIn("non-finite costs", workloads.check(self.corrupted(costs=costs)))

    def test_total_off_the_reference_is_rejected(self):
        costs = self.outcome.report.costs * (1.0 + 1e-4)
        problems = workloads.check(self.corrupted(costs=costs))
        self.assertTrue(any("reference" in p for p in problems), problems)

    def test_comparator_above_its_zero_policy_is_rejected(self):
        run = replace(self.outcome.run, seed=1)  # no reference: only the property holds
        report = self.outcome.report
        comparator = report.comparator_costs + report.costs.max()
        outcome = replace(self.outcome, run=run,
                          report=replace(report, comparator_costs=comparator))
        problems = workloads.check(outcome)
        self.assertTrue(any("M=0" in p for p in problems), problems)

    def test_diverged_cli_result_is_rejected(self):
        run = workloads.build("cli-filter-sysid", 1, self.tmp.name)[2]
        good = workloads.Outcome(run, exit_code=0, stdout="scalar-0.9: avg_regret=0.25")
        bad = workloads.Outcome(run, exit_code=0, stdout="scalar-0.9: avg_regret=1.7e+155")
        self.assertEqual(workloads.check(good), [])
        self.assertNotEqual(workloads.check(bad), [])
        self.assertNotEqual(workloads.check(replace(good, exit_code=3)), [])

    def test_missing_artifacts_are_rejected_not_raised(self):
        run = workloads.build("cli-filter-sysid", 1, self.tmp.name)[1]  # filter, never run
        outcome = workloads.Outcome(run, exit_code=0, stdout="b747: kalman mse_state=0.3")
        problems = workloads.check(outcome)
        self.assertTrue(any("unreadable" in p for p in problems), problems)

    def test_wrong_basis_is_rejected(self):
        basis = nscontrol.spectral_basis(200, 5)
        good, bad = Path(self.tmp.name, "good.txt"), Path(self.tmp.name, "bad.txt")
        nscontrol.save_basis(basis, str(good))
        vectors = basis.vectors.copy()
        vectors[2] = np.roll(vectors[2], 1)
        nscontrol.save_basis(replace(basis, vectors=vectors), str(bad))
        found = workloads.check_bases([str(good), str(bad)])
        self.assertEqual(found[0], [])
        self.assertNotEqual(found[1], [])


if __name__ == "__main__":
    unittest.main()
