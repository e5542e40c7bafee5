"""Smoke tests for the benchmark itself (not for confrac).

    python3 perfbench/smoke.py

They check that the generators are seeded and stratified, that the closed
forms the oracles rely on are right, that the tracer restores what it wraps,
and that run.py prints a well-formed result or refuses to run without a
package.  The end-to-end cases run the cheapest workload for one round.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def first_rounds(workload, seed, n=2):
    stream = workloads.rounds(workload, seed)
    return [next(stream) for _ in range(n)]


def shape(op):
    """What an operation is, without its seeded parameters."""
    return (op["kind"], op.get("ineq"), op.get("cls"), op.get("text"),
            op["n"] if op["kind"] == "taylor" else None,
            repr(op["expect"]["code"]) if op["kind"] == "cli" and op["expect"]["code"] else
            op["argv"][0] if op["kind"] == "cli" else None)


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(first_rounds(w, 3), first_rounds(w, 3), w)

    def test_other_seed_other_inputs_same_mix(self):
        for w in workloads.WORKLOADS:
            a, b = first_rounds(w, 3, 1)[0], first_rounds(w, 4, 1)[0]
            self.assertNotEqual(a, b, w)
            self.assertEqual(Counter(map(shape, a)), Counter(map(shape, b)), w)

    def test_properties_cover_every_field(self):
        ops = first_rounds("cli", 1, 3)[0]
        props = workloads.input_properties(ops)
        self.assertEqual(props["operations"], len(ops))
        self.assertEqual(sum(props["expected_exit_codes"].values()), len(ops))
        ivp = workloads.input_properties(first_rounds("ivp", 1, 1)[0])
        self.assertAlmostEqual(sum(ivp["ivp_class_share"].values()), 1.0)


class ClosedForms(unittest.TestCase):
    def test_derivatives_match_finite_differences(self):
        fns = [workloads.ExpU(0.7, -1.3, 0.4), workloads.SinU(1.0, 1.7, 2.0),
               workloads.PolyU({2: 0.5, 0: 1.0}, "")]
        for f in fns:
            for j in range(3):
                u, h = 0.9, 1e-5
                fd = (f.deriv(j, u + h) - f.deriv(j, u - h)) / (2 * h)
                self.assertAlmostEqual(f.deriv(j + 1, u), fd, places=5)

    def test_integral_matches_midpoint_rule(self):
        f = workloads.SinU(1.0, 1.3, 0.5)
        n, ua, ub = 20000, 0.2, 3.1
        h = (ub - ua) / n
        mid = h * sum(f.deriv(0, ua + (i + 0.5) * h) for i in range(n))
        self.assertAlmostEqual(f.integral(ua, ub), mid, places=7)

    def test_sin_extremes_match_dense_sampling(self):
        f = workloads.SinU(1.0, 2.3, 0.0)
        for j in range(3):
            for ua, ub in ((0.1, 0.5), (0.3, 4.0), (1.0, 1.2)):
                lo, hi = f.extremes(j, ua, ub)
                vals = [f.deriv(j, ua + (ub - ua) * i / 4000) for i in range(4001)]
                self.assertLessEqual(lo, min(vals) + 1e-12)
                self.assertGreaterEqual(hi, max(vals) - 1e-12)
                self.assertAlmostEqual(lo, min(vals), places=5)
                self.assertAlmostEqual(hi, max(vals), places=5)

    def test_ivp_oracle_paths_agree(self):
        import oracles
        # coefficient-free closed form against the ODE solver with p = (0, 0)
        args = (0.75, 0.4, 1.6, [0.3, -0.2])
        closed = oracles.ivp_value(2, [], "1", *args)
        solved = oracles.ivp_value(2, ["0", "0"], "1", *args)
        self.assertTrue(math.isclose(closed, solved, rel_tol=1e-9))


class Tracing(unittest.TestCase):
    def test_install_and_uninstall_restore_everything(self):
        sys.path.insert(0, str(ROOT / "src"))
        try:
            import confrac
            import confrac.cli  # noqa: F401
            from confrac import calculus, expr
            from tracing import Tracer
        finally:
            sys.path.remove(str(ROOT / "src"))
        before = (expr.parse, calculus.frac_integral, confrac.frac_integral,
                  calculus.ConformableFn.frac_expr)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(calculus.frac_integral, before[1])
            f = confrac.ConformableFn.from_expr("exp(t)")
            value = confrac.frac_integral(f, 0.5, (0.5, 1.5))
        finally:
            tracer.uninstall()
        after = (expr.parse, calculus.frac_integral, confrac.frac_integral,
                 calculus.ConformableFn.frac_expr)
        self.assertEqual(before, after)
        metrics = tracer.layer_metrics()
        self.assertEqual(metrics["calculus.integral.calls"], 1)
        self.assertEqual(metrics["expr.parse.calls"], 1)
        self.assertGreater(metrics["expr.eval.calls"], 0)
        self.assertEqual(value, confrac.frac_integral(f, 0.5, (0.5, 1.5)))


class EndToEnd(unittest.TestCase):
    def _run(self, *args, cwd=ROOT):
        done = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                              timeout=170)
        return done

    def test_cli_workload_result_line(self):
        done = self._run("--workload", "cli", "--seed", "1", "--seconds", "0.1")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]),
                         {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"})
        self.assertGreater(result["attempted"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        done = self._run("--workload", "cli", "--seed", "1", "--seconds", "0.1",
                         "--trace", "1")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["per_layer"]})
        self.assertGreater(result["metrics"]["cli.runs"]["value"], 0)

    def test_refuses_to_run_without_the_package(self):
        bare = ROOT / ".bench_out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
