"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest perfbench/test_perfbench.py
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import ops  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _first_round(workload, seed):
    return next(ops.rounds(workload, seed))


class SeedTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in ops.WORKLOADS:
            self.assertEqual(_first_round(workload, 5), _first_round(workload, 5))

    def test_different_seed_different_ops(self):
        for workload in ops.WORKLOADS:
            self.assertNotEqual(_first_round(workload, 5), _first_round(workload, 6))

    def test_a_round_runs_every_op_once(self):
        for workload in ops.WORKLOADS:
            ran = [op for session in _first_round(workload, 3) for op in session]
            self.assertEqual(sorted(map(ops.op_key, ran)),
                             sorted(map(ops.op_key, ops.round_ops(workload))))

    def test_every_op_has_a_digest(self):
        digests = run.load_digests()
        missing = [ops.op_key(op) for op in ops.all_ops()
                   if ops.op_key(op) not in digests]
        self.assertEqual(missing, [])


def _span(name, start, end, parent, agg=0.0):
    return [name, start, end, parent, 0, agg]


class SelfTimeTest(unittest.TestCase):
    # virasoro.verify_case [0, 10], 1 s of tring directly inside
    # +- vertex.apply_B [1, 5], 0.5 s of tring inside
    # |  +- vertex.one_row [2, 3]
    # +- vertex.hl_q [6, 9]
    #    +- vertex.apply_B [6.5, 8.5]
    # vertex.hl_q [11, 12]   (a second op, no children: a hit)
    SPANS = [
        _span("virasoro.verify_case", 0.0, 10.0, -1, agg=1.0),
        _span("vertex.apply_B", 1.0, 5.0, 0, agg=0.5),
        _span("vertex.one_row", 2.0, 3.0, 1),
        _span("vertex.hl_q", 6.0, 9.0, 0),
        _span("vertex.apply_B", 6.5, 8.5, 3),
        _span("vertex.hl_q", 11.0, 12.0, -1),
    ]

    def test_span_self_times(self):
        self.assertEqual(tracer.span_self_times(self.SPANS),
                         [10 - 4 - 3 - 1, 4 - 1 - 0.5, 1.0, 3 - 2, 2.0, 1.0])

    def test_layer_self_times(self):
        self.assertEqual(tracer.layer_self_times(self.SPANS),
                         {"virasoro": 2.0, "vertex": 2.5 + 1 + 1 + 2 + 1})

    def test_hl_q_hits(self):
        self.assertEqual(tracer.hl_q_hits(self.SPANS), (1, 2))


class GateTest(unittest.TestCase):
    def setUp(self):
        self.digests = run.load_digests()
        self.verify_op = next(op for op in ops.round_ops("generic-rho")
                              if op[0] == "verify")
        self.cli_op = next(op for op in ops.round_ops("cli-queries") if op[2] == 3)

    def _ok(self, op):
        key = ops.op_key(op)
        return {"ok": True, "error": None, "digest": self.digests[key],
                "exit": op[2] if op[0] == "cli" else None, "stderr": ""}

    def test_recorded_output_passes(self):
        self.assertIsNone(run.gate(self.verify_op, self._ok(self.verify_op), self.digests))
        self.assertIsNone(run.gate(self.cli_op, self._ok(self.cli_op), self.digests))

    def test_corrupted_digest_fails(self):
        for op in (self.verify_op, self.cli_op):
            outcome = dict(self._ok(op), digest="0" * 16)
            self.assertIn("differs", run.gate(op, outcome, self.digests))

    def test_wrong_exit_code_fails(self):
        outcome = dict(self._ok(self.cli_op), exit=1)
        self.assertIn("exit code 1", run.gate(self.cli_op, outcome, self.digests))

    def test_unequal_verdict_and_exceptions_fail(self):
        outcome = dict(self._ok(self.verify_op), ok=False)
        self.assertIsNotNone(run.gate(self.verify_op, outcome, self.digests))
        outcome = dict(self._ok(self.verify_op), error="ValueError: boom")
        self.assertEqual(run.gate(self.verify_op, outcome, self.digests),
                         "ValueError: boom")


class SummarizeTest(unittest.TestCase):
    def test_times_are_scaled_by_their_unit(self):
        # a unit run while the host was twice as slow as the reference
        # (scale 0.5) counts the same as one run at reference speed
        units = [(0.2, 4.0, [1.0, 2.0], 0.5), (None, 2.0, [0.5, 1.0], 1.0)]
        metrics = run.summarize(units)
        self.assertEqual(metrics["setup_s"], 0.1)
        self.assertEqual(metrics["ops_per_s"], 4 / (2.0 + 2.0))
        self.assertEqual(metrics["op_p50_ms"], 750.0)

    def test_reference_loop_does_fixed_work(self):
        self.assertGreater(run.reference_s(), 0)


class MetricNamesTest(unittest.TestCase):
    def test_reported_metrics_are_those_of_benchmark_json(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([name for name, _ in run.END_TO_END],
                         [m["name"] for m in spec["end_to_end"]])
        record = {"counts": {}, "agg_self_s": {}, "exactnum_busy_s": 0.0,
                  "terms_out": 0, "import_s": 0.05,
                  "spans": [_span("cli.main", 1.0, 1.5, -1)]}
        reported = run.layer_metrics([record], [record], 0.02)
        reported["trace.overhead_frac"] = (0.1, "ratio")
        self.assertEqual(sorted(reported), sorted(m["name"] for m in spec["per_layer"]))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual({name: unit for name, (_, unit) in reported.items()}, units)


class TracerTest(unittest.TestCase):
    def test_patches_every_import_and_restores(self):
        import hlvir.cli  # noqa: F401
        from hlvir import exactnum, vertex, virasoro
        from hlvir.exactnum import RhoSpec
        original = vertex.apply_B
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(virasoro.apply_B, original)
            self.assertIs(virasoro.apply_B, vertex.apply_B)
            self.assertIs(exactnum.RatFunc.__radd__, exactnum.RatFunc.__add__)
            vertex.clear_caches()
            vertex.hl_q((2, 1), RhoSpec.generic())
        finally:
            t.uninstall()
        self.assertIs(vertex.apply_B, original)
        self.assertIs(virasoro.apply_B, original)
        self.assertGreater(t.counts["vertex.apply_B"], 0)
        self.assertGreater(t.counts["exactnum.ratfunc_mul"], 0)
        self.assertEqual(t.counts["vertex.hl_q"],
                         sum(1 for s in t.spans if s[0] == "vertex.hl_q"))


if __name__ == "__main__":
    unittest.main()
