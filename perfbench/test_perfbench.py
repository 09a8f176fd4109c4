"""Tests of the benchmark's own pieces.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Run from the repository root; the tests import ``unicusp`` from ./src.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import probe  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from unicusp import cli, corpus, curves, poly  # noqa: E402,F401  (cli: the tracer wraps cli.main)
from unicusp.curves import IntersectionCycle, ProjPoint, SingularLocus  # noqa: E402

POINT = workloads.parameter_points(7, 1)[0]


def inputs_at(p):
    return workloads.build_inputs([p])


class SeededPoints(unittest.TestCase):
    def test_same_seed_gives_same_points(self):
        for seed in range(20):
            for w in ("corpus-verify", "elimination", "cremona"):
                self.assertEqual(workloads.run_points(w, seed), workloads.run_points(w, seed))

    def test_points_obey_the_stated_ranges(self):
        seen = set()
        for seed in range(50):
            pts = workloads.parameter_points(seed, 3)
            self.assertEqual(len(set(pts)), 3)
            for a, b, c in pts:
                self.assertTrue(a and b and c)
                self.assertNotEqual(4 * a**3 + 27 * b**2, 0)
                for v in (a, b, c):
                    self.assertLessEqual(abs(v.numerator), 3)
                    self.assertLessEqual(v.denominator, 3)
            seen.add(tuple(pts))
        self.assertGreater(len(seen), 40)

    def test_corpus_verify_uses_the_frozen_points(self):
        want = [(ps.a, ps.b, ps.c) for ps in corpus.DEFAULT_PARAMS]
        self.assertEqual(workloads.run_points("corpus-verify", 3), want)


class SelfTime(unittest.TestCase):
    # A[0,10] holds B[1,4] (which holds C[2,3]) and B[5,9], which holds
    # the recursive call B[6,8].
    SPANS = [
        ["A", 0.0, 10.0, -1, 0, None],
        ["B", 1.0, 4.0, 0, 0, None],
        ["C", 2.0, 3.0, 1, 0, None],
        ["B", 5.0, 9.0, 0, 0, None],
        ["B", 6.0, 8.0, 3, 0, None],
    ]

    def test_self_and_busy_time_on_a_nested_trace(self):
        agg = tracing.aggregate(self.SPANS)
        self.assertEqual(agg["A"]["calls"], 1)
        self.assertAlmostEqual(agg["A"]["self_s"], 3.0)
        self.assertAlmostEqual(agg["A"]["busy_s"], 10.0)
        self.assertEqual(agg["B"]["calls"], 3)
        self.assertAlmostEqual(agg["B"]["self_s"], 6.0)
        self.assertAlmostEqual(agg["B"]["busy_s"], 7.0)  # the recursion is not counted twice
        self.assertAlmostEqual(agg["C"]["self_s"], 1.0)
        self.assertAlmostEqual(sum(r["self_s"] for r in agg.values()), 10.0)

    def test_counts_and_shares(self):
        spans = [
            ["poly.exact_divide", 0.0, 1.0, -1, 0,
             {"dividend_terms": 5, "monomial_divisor_share": True, "not_divisible_share": False}],
            ["poly.exact_divide", 1.0, 1.5, -1, 0,
             {"dividend_terms": 7, "monomial_divisor_share": False, "not_divisible_share": False}],
            ["poly.exact_divide", 2.0, 2.5, -1, 0, None],  # raised: no counts
        ]
        m = tracing.layer_metrics(spans)
        self.assertEqual(m["poly.exact_divide.calls"], 3)
        self.assertEqual(m["poly.exact_divide.dividend_terms"], 12)
        self.assertAlmostEqual(m["poly.exact_divide.monomial_divisor_share"], 1 / 3)
        self.assertEqual(m["poly.exact_divide.not_divisible_share"], 0)
        self.assertEqual(m["resolution.blow_up_once.calls"], 0)


class Oracles(unittest.TestCase):
    def setUp(self):
        self.ps = corpus.ParamSet(*POINT)
        self.cs = inputs_at(POINT)[self.ps].curves

    def test_verify_output(self):
        good = json.dumps({"passed": True, "checks": 3, "failures": 0})
        self.assertIsNone(workloads.check_verify_output(0, good))
        self.assertIsNotNone(workloads.check_verify_output(1, good))
        self.assertIsNotNone(workloads.check_verify_output(0, good.replace("true", "false")))
        self.assertIsNotNone(workloads.check_verify_output(0, "not json"))

    def test_singular_points(self):
        for name in ("node-cubic", "contact-cubic", "cusp-quartic"):
            c = self.cs[name]
            locus = curves.find_rational_singular_points(c)
            self.assertIsNone(workloads.check_singular_points(name, self.ps, c, locus), name)
        c = self.cs["cusp-quartic"]
        (q, m), = curves.find_rational_singular_points(c).points
        perturbed = [
            SingularLocus([(q, m + 1)], []),
            SingularLocus([(ProjPoint.of(1, 0, 0), m)], []),
            SingularLocus([], []),
            SingularLocus([(q, m)], ["blocker"]),
        ]
        for locus in perturbed:
            self.assertIsNotNone(workloads.check_singular_points("cusp-quartic", self.ps, c, locus))
        smooth = self.cs["contact-cubic"]
        fake = SingularLocus([(ProjPoint.of(0, 0, 1), 2)], [])
        self.assertIsNotNone(workloads.check_singular_points("contact-cubic", self.ps, smooth, fake))

    def test_cycles(self):
        # The first two pairs have a stored cycle; the third only Bezout,
        # incidence and the multiplicity lower bound at the cusp.
        for left, right in (("contact-cubic", "line-x"), ("cusp-quartic", "line-z"), ("image-quintic", "conic")):
            c1, c2 = self.cs[left], self.cs[right]
            cyc = curves.intersection_cycle(c1, c2)
            self.assertIsNone(workloads.check_cycle(left, right, self.ps, c1, c2, cyc), (left, right))
            q, m = max(cyc.points, key=lambda t: t[1])
            rest = [t for t in cyc.points if t[0] != q]
            perturbed = [
                IntersectionCycle(cyc.points, cyc.residual, cyc.bezout + 1),
                IntersectionCycle([(q, m + 1)] + rest, cyc.residual, cyc.bezout),
                IntersectionCycle([(ProjPoint.of(1, 1, 1), m)] + rest, cyc.residual, cyc.bezout),
                IntersectionCycle(rest, cyc.residual, cyc.bezout),
                IntersectionCycle([(q, 1)] + rest, cyc.residual + m - 1, cyc.bezout),
            ]
            if left != "image-quintic":
                perturbed.append(IntersectionCycle([(q, m - 1)] + rest, cyc.residual + 1, cyc.bezout))
            for bad in perturbed:
                self.assertIsNotNone(workloads.check_cycle(left, right, self.ps, c1, c2, bad), bad)

    def test_transforms(self):
        ref = corpus.REFERENCE_FORMULAS["cusp-quartic"](self.ps)
        self.assertIsNone(workloads.check_proportional(curves.make_curve(ref * 3), ref))
        bad = curves.make_curve(ref + poly.X**4)
        self.assertIsNotNone(workloads.check_proportional(bad, ref))
        ops = workloads._cremona_at(self.ps, inputs_at(POINT)[self.ps])
        (inv,) = [op for op in ops if op.name.startswith("is-involution")]
        self.assertIsNone(inv.check(True))
        self.assertIsNotNone(inv.check(False))


class TracedRun(unittest.TestCase):
    def _bindings(self):
        mods = [m for n, m in sys.modules.items() if n == "unicusp" or n.startswith("unicusp.")]
        return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}, dict(vars(poly.Poly))

    def test_wrappers_are_removed_after_the_traced_run(self):
        before = self._bindings()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            from unicusp import resolution

            self.assertIsNot(resolution.exact_divide, before[0][("unicusp.poly", "exact_divide")])
            self.assertIsNot(vars(poly.Poly)["substitute"], before[1]["substitute"])
            ps = corpus.ParamSet(*POINT)
            tracer.op = 4
            corpus.analysis("cusp-quartic", ps)
        finally:
            tracer.uninstall()
            corpus.analysis.cache_clear()
            corpus._cached_curve.cache_clear()
        after = self._bindings()
        self.assertEqual(before[0].keys(), after[0].keys())
        for key, value in before[0].items():
            self.assertIs(after[0][key], value, key)
        self.assertIs(after[1]["substitute"], before[1]["substitute"])
        names = {s[0] for s in tracer.spans}
        self.assertLessEqual(
            {"corpus.analysis", "resolution.blow_up_once", "poly.exact_divide", "poly.Poly.substitute"},
            names,
        )
        self.assertTrue(all(s[4] == 4 for s in tracer.spans))
        blowups = [s for s in tracer.spans if s[0] == "resolution.blow_up_once"]
        # exact_divide called from resolution is recorded as a child span
        self.assertTrue(any(tracer.spans[s[3]][0] == "resolution.blow_up_once"
                            for s in tracer.spans if s[0] == "poly.exact_divide" and s[3] >= 0))
        self.assertGreaterEqual(len(blowups), 2)


class TimeLimit(unittest.TestCase):
    def test_an_operation_is_stopped_at_its_limit(self):
        import signal

        def spin():
            while True:
                pass

        old = signal.signal(signal.SIGALRM, worker._alarm)
        try:
            op = workloads.Operation("spin", "-", spin, lambda r: None)
            self.assertEqual(worker.time_operation(op, 0.2), (0.2, "timeout", "stopped at the 0.2 s limit"))
            boom = workloads.Operation("boom", "-", lambda: 1 / 0, lambda r: None)
            self.assertEqual(worker.time_operation(boom, 5)[1], "error")
            wrong = workloads.Operation("wrong", "-", lambda: 1, lambda r: "bad answer")
            self.assertEqual(worker.time_operation(wrong, 5)[1:], ("wrong", "bad answer"))
        finally:
            signal.signal(signal.SIGALRM, old)


class SpeedProbeTest(unittest.TestCase):
    def test_factor_is_reference_over_mean_sample(self):
        p = probe.SpeedProbe()
        self.assertEqual(p.factor(), 1.0)
        p.samples = [probe.REFERENCE_S, 3 * probe.REFERENCE_S]
        self.assertAlmostEqual(p.factor(), 0.5)
        self.assertAlmostEqual(p.factor(since=1), 1 / 3)

    def test_samples_while_computing_and_stops(self):
        import signal
        import time

        old = signal.getsignal(signal.SIGPROF)
        p = probe.SpeedProbe()
        try:
            p.start()
            end = time.process_time() + 0.3
            while time.process_time() < end:
                pass
            p.stop()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, old)
        self.assertGreaterEqual(len(p.samples), 2)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))
        self.assertGreater(p.spent, sum(p.samples))  # the warm-up counts too


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def test_per_layer_metrics_match_the_tracer(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["per_layer"]}, tracing.metric_units()
        )

    def test_workloads_state_their_limits(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.LIMIT_S))
        for w in self.spec["workloads"]:
            self.assertIn(f"per-op limit {workloads.LIMIT_S[w['name']]} s", w["why"])

    def test_end_to_end_metrics_match_the_runner(self):
        import run

        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END_UNITS)


if __name__ == "__main__":
    unittest.main()
