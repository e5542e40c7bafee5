"""The benchmark's tracer binds package internals by name; keep them bound.

perfbench/tracing.py wraps module-level functions of every layer, the
ConformableFn.frac_expr method and index 0 of _frac_compiled of the
function objects built at import time.  This test installs it, runs one
traced derivative grid and checks that uninstalling puts every original
back, and does the same around one solve of a linear IVP, around first
derivatives of an expression function and around six inequality checks,
three of them remainder bounds, whose quadrature panels are batched.  In a
fresh interpreter, where confrac.inequalities is not loaded until the
tracer imports it, it does the same around one ``check`` command.
"""

import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from confrac import calculus, cli, inequalities, ivp  # noqa: F401 (the tracer wraps cli too)
from confrac.calculus import Alpha, ConformableFn, Interval, frac_deriv, frac_deriv_fn
from confrac.ivp import IvpSpec, LinearOperator, solve_full

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("confrac_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every attribute of every confrac module, and the patched extras."""
    out = {(name, attr): value
           for name, mod in list(sys.modules.items())
           if name == "confrac" or name.startswith("confrac.")
           for attr, value in vars(mod).items()}
    out["frac_expr"] = ConformableFn.__dict__["frac_expr"]
    out["_ONE._eval"] = inequalities._ONE._eval
    out["_ONE._frac_compiled[0]"] = inequalities._ONE._frac_compiled[0]
    return out


def test_tracer_installs_and_restores():
    f = ConformableFn.from_expr("exp(-t)*cos(t^alpha/alpha)")
    ts = [0.5, 1.0, 1.5, 2.0]
    want = frac_deriv_fn(f, 2).values(ts, 0.5)
    before = _bindings()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert calculus.frac_deriv_fn is not before[("confrac.calculus", "frac_deriv_fn")]
        got = calculus.frac_deriv_fn(ConformableFn.from_expr("exp(-t)*cos(t^alpha/alpha)"),
                                     2).values(ts, 0.5)
    finally:
        tracer.uninstall()
    assert got == want
    assert tracer.calls["calculus.deriv_fn"] == 1
    assert tracer.calls["calculus.frac_expr"] == 0  # no chain on this path
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_counts_one_rk4_pass_per_solve():
    def spec():
        op = LinearOperator(order=2, alpha=Alpha(0.5), coefficients=(
            ConformableFn.from_expr("0.4"), ConformableFn.from_expr("0.2*t")))
        return IvpSpec(op, ConformableFn.from_expr("exp(-t)"), 1.0, (0.5, -0.2))

    want = solve_full(spec(), 2.5, steps=600)
    before = _bindings()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert ivp._rk4_solve is not before[("confrac.ivp", "_rk4_solve")]
        got = ivp.solve_full(spec(), 2.5, steps=600)
    finally:
        tracer.uninstall()
    assert got == want
    assert tracer.calls["ivp.solve"] == 1
    assert tracer.calls["ivp.rk4"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_sees_first_derivatives_build_and_compile_nothing():
    f = ConformableFn.from_expr("sin(t)*exp(-t^alpha/alpha)/(1+t^2)")
    ts = [0.3, 1.0, 2.5]
    want = [frac_deriv(f, 0.5, t) for t in ts]
    before = _bindings()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        got = [calculus.frac_deriv(f, 0.5, t) for t in ts]
    finally:
        tracer.uninstall()
    assert got == want
    # D f is the series pass's c_1: no d/dt tree, no compilation
    assert tracer.calls["calculus.deriv"] == len(ts)
    assert tracer.calls["expr.diff"] == 0
    assert tracer.calls["expr.compile"] == 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_sees_batched_panels_and_changes_no_report():
    # the tracer wraps adaptive_integrate(fn, a, b, *rest), so the batch
    # integrand of a panel must pass by position, and come out unchanged
    window = Interval(0.4, 2.2)

    def reports():
        f = ConformableFn.from_expr("exp(-t)*(2+sin(t))")
        g = ConformableFn.from_expr("t^alpha/alpha+0.3*t")
        return [inequalities.hermite_hadamard_1(f, 0.5, window),
                inequalities.cebysev(f, g, 0.75, window),
                inequalities.montgomery_residual(f, 0.5, window, 1.1),
                inequalities.remainder_steffensen(f, 0.5, 1, window),
                inequalities.remainder_mm_bounds(f, 0.75, 2, inequalities.BoundsPair(-5.0, 5.0),
                                                 window),
                inequalities.remainder_cebysev(g, 0.5, 0, window)]

    want = reports()
    before = _bindings()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert calculus.adaptive_integrate is not before[("confrac.calculus",
                                                          "adaptive_integrate")]
        got = reports()
    finally:
        tracer.uninstall()
    assert got == want
    assert tracer.counts["inequalities.checks"] == 6
    assert tracer.counts["quad.integrals"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


# run in a fresh interpreter: confrac.inequalities is loaded on first use,
# here by Tracer.install, which imports it itself
_FRESH_CHECK = """
import importlib.util, io, json, sys
import confrac, confrac.cli

def bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "confrac" or name.startswith("confrac.")
            for attr, value in vars(mod).items()}

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = confrac.cli.run(argv, out, err)
    return [code, out.getvalue(), err.getvalue()]

def traced_code(value):
    # every wrapper the tracer binds is a function defined in tracing.py
    return getattr(getattr(value, "__code__", None), "co_filename", None) == TRACING

TRACING, argv = sys.argv[1], sys.argv[2:]
loaded_at_start = "confrac.inequalities" in sys.modules
confrac.cli._parser()   # the first command builds it, traced or not
before = bindings()
spec = importlib.util.spec_from_file_location("confrac_bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
try:
    traced = run(argv)
finally:
    tracer.uninstall()
after = bindings()
fns = [v for v in vars(sys.modules["confrac.inequalities"]).values()
       if isinstance(v, confrac.ConformableFn)]
print(json.dumps({
    "loaded_at_start": loaded_at_start,
    "checks": tracer.counts["inequalities.checks"],
    "runs": tracer.calls["cli.run"],
    "changed": [list(k) for k in before if after[k] is not before[k]],
    "new_modules": sorted({k[0] for k in after.keys() - before.keys() if k[0] != "confrac"}),
    "new_in_package": sorted(k[1] for k in after.keys() - before.keys() if k[0] == "confrac"),
    "wrapped": [list(k) for k, v in after.items() if traced_code(v)]
               + [f.name for f in fns if traced_code(f._eval) or traced_code(f._frac_compiled[0])]
               + ["frac_expr"] * traced_code(confrac.ConformableFn.__dict__["frac_expr"]),
    "traced": traced,
    "untraced": run(argv),
}))
"""


def test_tracer_restores_a_module_it_loaded_itself():
    argv = ["check", "--ineq", "rem-cebysev", "--f", "exp(t)", "--n", "1",
            "--alpha", "0.5", "--a", "1", "--b", "2", "--json"]
    out, err = io.StringIO(), io.StringIO()
    want = [cli.run(argv, out, err), out.getvalue(), err.getvalue()]
    env = dict(os.environ, PYTHONPATH=str(TRACING.parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", _FRESH_CHECK, str(TRACING), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    got = json.loads(done.stdout)
    assert got["loaded_at_start"] is False
    assert (got["checks"], got["runs"]) == (1, 1)
    assert got["traced"] == got["untraced"] == want
    assert want[0] == 0
    # nothing rebound, the package namespace included; what is new is the
    # modules loaded on first use (the checkers, and the Taylor-mode code
    # that their derivative grids compile) and their entries in the package
    assert got["changed"] == []
    assert "confrac.inequalities" in got["new_modules"]
    assert got["new_in_package"] == [name.split(".")[1] for name in got["new_modules"]]
    assert got["wrapped"] == []
