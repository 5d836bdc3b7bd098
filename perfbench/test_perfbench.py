"""Tests of the benchmark itself: python3 -m unittest discover -s perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TracerTest(unittest.TestCase):
    def test_self_time_of_a_synthetic_call_tree(self):
        # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
        t = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        t.enter("root")
        t.enter("a")
        t.enter("b")
        t.exit()
        t.exit()
        t.enter("c")
        t.exit(failed=True)
        t.exit()
        calls = {name: s[0] for name, s in t.stats.items()}
        total = {name: s[1] for name, s in t.stats.items()}
        self_s = {name: s[2] for name, s in t.stats.items()}
        self.assertEqual(calls, {"root": 1, "a": 1, "b": 1, "c": 1})
        self.assertEqual(self_s, {"root": 3, "a": 2, "b": 1, "c": 4})
        self.assertEqual(total, {"root": 10, "a": 3, "b": 1, "c": 4})
        self.assertEqual(t.stats["c"][3], 1)
        self.assertEqual(t.self_total(), 10)
        ids = {span[2]: span[0] for span in t.spans}
        parents = {span[2]: span[1] for span in t.spans}
        self.assertEqual(parents, {"root": None, "a": ids["root"], "b": ids["a"], "c": ids["root"]})

    def test_recursion_counts_total_once_and_hot_leaves_fold(self):
        t = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 7]), keep_leaves=1)
        t.enter("f")
        t.enter("f")
        t.exit()
        t.enter("f")
        t.exit()
        t.exit()
        t.enter("f")
        t.exit()
        # outer f [0, 5] holds leaves [1, 2] and [3, 4]; a last f runs [6, 7]
        self.assertEqual(t.stats["f"][:3], [4, 6, 6])
        self.assertEqual(len(t.spans), 3)  # the second leaf under "f" was folded
        self.assertEqual(t.dump()["folded_leaves"], [["f", "f", 1, 1]])

    def test_install_reaches_every_namespace_and_restores(self):
        import fibk3.cli
        import fibk3.engine
        import fibk3.fibgen

        original = fibk3.fibgen.entry_point
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            self.assertIsNot(fibk3.engine.entry_point, original)
            with contextlib.redirect_stdout(io.StringIO()):
                fibk3.cli.main(["candidates", "61", "1", "--json"])
        finally:
            restore()
        self.assertIs(fibk3.engine.entry_point, original)
        self.assertIs(fibk3.fibgen.entry_point, original)
        self.assertEqual(tracer.stats["cli.main"][0], 1)
        self.assertEqual(tracer.stats["engine.analyze"][0], 1)
        self.assertEqual(tracer.counts["fibgen.entry_point.steps"], 15)
        self.assertGreater(tracer.stats["salem._resultant_sylvester"][0], 0)
        self.assertEqual(tracer.counts["salem.resultant.agreed"], tracer.stats["salem._resultant_sylvester"][0])


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_ops_other_seed_other_ops(self):
        for name in ("verdict-grid", "verdict-bigint"):
            w = WORKLOADS[name]
            first = next(w.passes(7))
            self.assertEqual(first, next(w.passes(7)))
            self.assertNotEqual(first, next(w.passes(8)))
            self.assertEqual(first[: len(w.anchors)], list(w.anchors))
            self.assertEqual(len(first), len(w.anchors) + w.pass_size)
            drawn = [m for m, _ in first[len(w.anchors):]]
            self.assertTrue(all(10**w.lo - 1 < m < 10**w.hi for m in drawn))

    def test_every_slice_of_the_pool_is_drawn_from(self):
        # grid: 8 * 1000 // 3 draws per a, so the pool does not split into
        # equal integer slices; the largest entry points that fit the digit
        # limit (e < 4096 for a = 3) must still be drawn
        w = WORKLOADS["verdict-grid"]
        ops = next(w.passes(3))[len(w.anchors):]
        top = max(checks.entry_point(a, m) for m, a in ops if a == 3)
        self.assertGreater(top, 3000)

    def test_every_op_fits_the_digit_limit(self):
        for w in (WORKLOADS["verdict-grid"], WORKLOADS["verdict-bigint"]):
            for m, a in next(w.passes(1)) + [w.setup_op]:
                self.assertTrue(workloads.fits_digit_limit(a, checks.entry_point(a, m)), (w.name, m, a))

    def test_digit_predicate_keeps_answered_and_drops_refused_requests(self):
        import fibk3.cli

        # (10079, 1): e = 10078, a 4213-digit trace, answered. (10315, 1):
        # e = 10320, a 4314-digit trace, refused while the limit defect lasts.
        self.assertTrue(workloads.fits_digit_limit(1, checks.entry_point(1, 10079)))
        self.assertFalse(workloads.fits_digit_limit(1, checks.entry_point(1, 10315)))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(fibk3.cli.main(["candidates", "10079", "1", "--json"]), 0)

    def test_later_passes_draw_new_ops(self):
        passes = WORKLOADS["verdict-grid"].passes(1)
        self.assertNotEqual(next(passes), next(passes))


class ChecksTest(unittest.TestCase):
    def test_entry_point_matches_direct_search(self):
        for a in range(1, 5):
            for m in range(2, 400):
                x, y, n = 0, 1, 0
                while True:
                    x, y, n = y, (a * y + x) % m, n + 1
                    if x == 0:
                        break
                self.assertEqual(checks.entry_point(a, m), n, (a, m))

    def _verdict(self, m, a):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            import fibk3.cli

            rc = fibk3.cli.main(["candidates", str(m), str(a), "--json"])
        return out.getvalue(), rc

    def test_accepts_real_verdicts(self):
        for m, a in ((3, 1), (13, 2), (15, 1), (61, 1), (9699690, 1), (1000, 3)):
            text, rc = self._verdict(m, a)
            self.assertEqual(checks.check_verdict(m, a, text, rc), ("ok", []), (m, a))

    def test_rejects_corrupted_verdicts(self):
        text, rc = self._verdict(61, 1)
        doc = json.loads(text)

        wrong_e = json.loads(text)
        wrong_e["payload"]["entry_point"] = "30"
        missing_pair = json.loads(text)
        missing_pair["payload"]["candidates"].pop()
        wrong_tau = json.loads(text)
        wrong_tau["payload"]["candidates"][0]["tau"] = str(int(doc["payload"]["candidates"][0]["tau"]) + 1)
        no_flags = json.loads(text)
        no_flags["errata_flags"] = []
        for bad in (wrong_e, missing_pair, wrong_tau, no_flags):
            status, misses = checks.check_verdict(61, 1, checks.canonical(bad), rc)
            self.assertTrue(misses, bad)
        _, misses = checks.check_verdict(61, 1, json.dumps(doc), rc)
        self.assertIn("canonical re-serialization is not byte-identical", misses)
        self.assertTrue(checks.check_verdict(61, 1, text, 1)[1])

    def test_taus_beyond_the_digit_limit(self):
        # 7^20000 has 16902 digits: written out in 4000-digit chunks, as
        # str() would refuse it under the default limit
        n = 7**20000
        chunks = []
        while n:
            n, r = divmod(n, 10**4000)
            chunks.append(r)
        digits = str(chunks[-1]) + "".join(f"{c:04000d}" for c in reversed(chunks[:-1]))
        self.assertGreater(len(digits), 4300)
        self.assertEqual(checks.decimal_mod(digits), pow(7, 20000, checks._P))
        self.assertEqual(checks.decimal_mod("0" * 9000 + "12"), 12)
        for bad in ("", "12a", "-5", 12):
            with self.assertRaises(ValueError):
                checks.decimal_mod(bad)

        # a verdict whose tau has 5000+ digits but is right modulo P passes;
        # one off by one does not
        text, rc = self._verdict(61, 1)
        doc = json.loads(text)
        tau = doc["payload"]["candidates"][0]["tau"]
        doc["payload"]["candidates"][0]["tau"] = str(checks._P) + tau.rjust(5000, "0")
        self.assertEqual(checks.check_verdict(61, 1, checks.canonical(doc), rc), ("ok", []))
        off = tau[:-1] + str((int(tau[-1]) + 1) % 10)
        doc["payload"]["candidates"][0]["tau"] = str(checks._P) + off.rjust(5000, "0")
        _, misses = checks.check_verdict(61, 1, checks.canonical(doc), rc)
        self.assertEqual(len(misses), 1)
        self.assertIn("tau of", misses[0])

    def test_refusal_is_a_status_not_a_miss(self):
        text, rc = self._verdict(100003, 1)
        self.assertEqual(rc, 1)
        self.assertEqual(checks.check_verdict(100003, 1, text, rc), ("input_error", []))

    def test_suite_checks(self):
        self.assertEqual(checks.check_suite("pell", 64, 0), [])
        self.assertTrue(checks.check_suite("pell", 64, 1))
        self.assertTrue(checks.check_suite("pell", 63, 0))


class MetricsTest(unittest.TestCase):
    def test_failed_ops_rank_slowest(self):
        latencies = [i / 1000 for i in range(1, 21)] + [0.0001] * 5
        ok = [True] * 20 + [False] * 5
        p50, tail, pct = run.latency_quantiles(latencies, ok)
        self.assertEqual(p50, 0.013)
        self.assertEqual(tail, 0.015)  # ten samples above it: five completed, five failed
        self.assertEqual(pct, 60.0)
        _, tail, pct = run.latency_quantiles([0.2, 0.1], [True, True])
        self.assertEqual((tail, pct), (0.2, 100.0))  # too few samples: the slowest
        _, tail, pct = run.latency_quantiles([i / 1000 for i in range(1, 2001)], [True] * 2000)
        self.assertEqual((tail, pct), (1.98, 99.0))  # p99 once it leaves ten samples above
        # a failed op is worth its own latency plus the fixed penalty, and
        # ranks above a completed op even when that one took longer
        _, tail, _ = run.latency_quantiles([run.FAILED_OP_PENALTY_S + 5, 0.25], [True, False])
        self.assertEqual(tail, run.FAILED_OP_PENALTY_S + 0.25)
        failed = [0.01 * i for i in range(12)]
        _, tail, _ = run.latency_quantiles(failed, [False] * 12)
        self.assertEqual(tail, run.FAILED_OP_PENALTY_S + 0.01)

    def test_driver_time_is_timed_apart_from_op_latency(self):
        class Runner:
            def run(self, op):
                time.sleep(0.02)  # the benchmark's own work around an op
                return run.Outcome(0.005, 1, 0, "ok", None, 0, [])

        got = run.measure(Runner(), [[1, 2, 3]], 0.0, 1, between=lambda busy: time.sleep(0.01))
        self.assertEqual(len(got.outcomes), 3)
        self.assertAlmostEqual(got.busy, 0.015)
        self.assertGreaterEqual(got.driver, 3 * (0.02 + 0.01 - 0.005))

    def test_setup_child_fails_unless_the_op_returns_ok(self):
        self.assertTrue(run.measure_setup(run.VerdictRunner, WORKLOADS["verdict-bigint"].setup_op)[1])
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertFalse(run.measure_setup(run.VerdictRunner, (100003, 1))[1])

    def test_host_speed_scaling_uses_nearby_samples(self):
        speed = run.HostSpeed()
        speed.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        speed.loop_s = [run.REFERENCE_S] * 4 + [2 * run.REFERENCE_S] * 4
        self.assertEqual(speed.scale(0.5), 1.0)
        self.assertEqual(speed.scale(6.5), 0.5)
        self.assertEqual(speed.scaled([1.0, 1.0, 4.0, 1.0]), [1.0, 1.0, 2.0, 0.5])

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
