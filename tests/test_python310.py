"""The package on its oldest supported Python (pyproject: requires-python >= 3.10).

Runs a short script under a Python 3.10 interpreter, when one can be found,
and under the interpreter running the tests; both must print the same.  The
3.10 interpreter needs nothing but the standard library: the script does not
use pytest.
"""

import glob
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import confrac

SCRIPT = r'''
import io, json, sys
from confrac import cli, expr as ex
from confrac.errors import ExprSyntaxError

results = {}
# the last four are one shape: two literal patterns, then "#" and 1e999 texts of it
for text in ["exp(-t)*cos(t)", " 2.5e-3 * t ^ 2\t", "\x1ct　+ 1.", "sin(t", "1 2 @",
             "(" * 150 + "t" + ")" * 150, "(" * 150 + "t" + ")" * 149 + "#", "",
             "0.5*t+0.5", "0.5*t+0.7", "#*t+0.7", "1e999*t+0.7"]:
    try:
        tree = ex.parse(text)
        results[text] = [ex.to_text(tree), ex.compile_expr(tree)(1.5, 0.5)]
    except ExprSyntaxError as exc:
        results[text] = [str(exc), exc.offset]
results["parse cache"] = list(ex.parse_cache_info())
out, err = io.StringIO(), io.StringIO()
code = cli.run(["sweep", "--ineq", "hh2", "--f", "t^0.5", "--alphas", "0.25,0.75,1",
                "--a", "0", "--b", "1", "--json"], out, err)
results["sweep"] = [code, out.getvalue(), err.getvalue()]
# usage errors and abbreviated flags: the command-line table, not argparse
for argv in [["deriv", "--exp", "-t", "--alph", "0.5", "--at=4", "--ord", "1"],
             ["sweep", "--alpha", "0.5,1", "--ineq", "hh2", "--f", "-exp(-t)", "--a", "0.5",
              "--b", "1", "--cs"],
             [], ["bogus"], ["deriv", "--a", "1"], ["deriv", "--expr", "--"],
             ["deriv", "--alpha", "x", "--expr", "t", "--at", "1"], ["deriv", "--at"],
             ["deriv", "--expr", "t", "--alpha", "1", "--at", "1", "--order", "2.0"],
             ["check", "--ineq", "hh4"], ["check", "--json", "--csv"], ["taylor", "--rem=1"],
             ["deriv", "-hx"], ["deriv", "--expr", "t", "--alpha", "1", "--at", "1", "x"],
             ["deriv", "-h"],
             # at t = 0: the u-series' exact zero, and the limit of D^n f(s) as s -> 0+
             ["deriv", "--expr", "exp(t)", "--alpha", "0.7", "--order", "1", "--at", "0"],
             ["deriv", "--expr", "abs(t)", "--alpha", "1", "--order", "3", "--at", "0"],
             ["deriv", "--expr", "exp(t)", "--alpha", "0.7", "--order", "24", "--at", "0"],
             # adaptive steps on a fast oscillator, cos(1600) at t = 4
             ["solve", "--order", "2", "--coeffs", "0;160000", "--alpha", "1", "--from", "0",
              "--to", "4", "--init", "1,0"]]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    results[json.dumps(argv)] = [code, out.getvalue(), err.getvalue()]
# generated kernels: t-free coefficients, a t-dependent coefficient and a
# forcing, alpha 1 stepping back to 0, and a fault partway through, in 600
# RK4 steps; and the default adaptive route on a forced solve from 0
from confrac.calculus import Alpha, ConformableFn
from confrac.ivp import LinearOperator, _rk4_solve
for name, alpha, coeffs, rhs, s, t, steps in [
        ("t-free", 0.5, ["0.4", "0.2*alpha"], None, 1.0, 2.5, 600),
        ("forced", 0.7, ["0.4", "0.2*t"], "exp(-t)*cos(t)", 0.0, 2.0, 600),
        ("alpha 1", 1.0, ["1", "t", "sin(t)"], "t^2", 2.0, 0.0, 600),
        ("fault", 1.0, ["0.4", "ln(1.2025-t)"], "1", 0.0, 2.0, 600),
        ("adaptive", 0.7, ["0.4", "0.2*t"], "exp(-t)*cos(t)", 0.0, 2.0, None)]:
    op = LinearOperator(order=len(coeffs), alpha=Alpha(alpha),
                        coefficients=tuple(map(ConformableFn.from_expr, coeffs)))
    init = [0.5 - 0.25 * k for k in range(len(coeffs))]
    try:
        results["solve " + name] = _rk4_solve(
            op, s, t, init, steps, ConformableFn.from_expr(rhs) if rhs else None)
    except Exception as exc:
        results["solve " + name] = [type(exc).__name__, str(exc)]
print(json.dumps({"version": sys.version_info[:2], "results": results}, sort_keys=True))
'''


def _python310():
    """A working Python 3.10 interpreter: python3.10 on PATH, or one that
    pyenv has installed; None if there is none."""
    candidates = [shutil.which("python3.10")]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        if root:
            candidates += sorted(glob.glob(os.path.join(root, "versions", "3.10*", "bin",
                                                        "python3.10")))
    for exe in filter(None, candidates):
        try:
            probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                                   capture_output=True, text=True, timeout=60)
        except OSError:
            continue
        if probe.returncode == 0 and probe.stdout.strip() == "(3, 10)":
            return exe
    return None


def _run(exe):
    src = str(Path(confrac.__file__).resolve().parents[1])
    done = subprocess.run([exe, "-c", SCRIPT], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_parse_and_sweep_on_python_3_10():
    exe = _python310()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter found")
    old, here = _run(exe), _run(sys.executable)
    assert old["version"] == [3, 10]
    assert old["results"] == here["results"]
    code, out, _ = here["results"]["sweep"]
    assert code == 4 and len(json.loads(out)) == 3
    assert here["results"]["0.5*t+0.7"] == ["0.5*t+0.7", 1.45]
    assert here["results"]["#*t+0.7"] == ["unexpected character '#' (offset 0)", 0]
    assert here["results"]["parse cache"][:2] == [1, 9]
    assert here["results"][json.dumps(["deriv", "--a", "1"])] == [
        3, "", "confrac: usage error: ambiguous option: --a could match --alpha, --at\n"]
    code, out, _ = here["results"][json.dumps(["deriv", "-h"])]
    assert code == 0 and out.startswith("usage: confrac deriv")
    deriv0 = ["deriv", "--expr", "exp(t)", "--alpha", "0.7", "--order", "1", "--at", "0"]
    assert here["results"][json.dumps(deriv0)] == [0, "0\n", ""]
    code, out, _ = here["results"][json.dumps(
        ["deriv", "--expr", "abs(t)", "--alpha", "1", "--order", "3", "--at", "0"])]
    assert code == 0 and abs(float(out)) <= 1e-12
    code, _, err = here["results"][json.dumps(deriv0[:6] + ["24", "--at", "0"])]
    assert code == 4 and "diverges" in err
    assert here["results"]["solve fault"] == ["EvalDomainError", "math domain error"]
    for name in ("t-free", "forced", "alpha 1", "adaptive"):
        assert len(here["results"]["solve " + name]) in (2, 3)
    code, out, _ = here["results"][json.dumps(["solve", "--order", "2", "--coeffs", "0;160000",
                                               "--alpha", "1", "--from", "0", "--to", "4",
                                               "--init", "1,0"])]
    assert code == 0 and abs(float(out) - math.cos(1600)) <= 1e-9
