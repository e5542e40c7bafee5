"""The package on its oldest supported Python (pyproject: requires-python >= 3.10).

Runs a short script under a Python 3.10 interpreter, when one can be found,
and under the interpreter running the tests; both must print the same.  The
3.10 interpreter needs nothing but the standard library: the script does not
use pytest.
"""

import glob
import json
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
for text in ["exp(-t)*cos(t)", " 2.5e-3 * t ^ 2\t", "\x1ct　+ 1.", "sin(t", "1 2 @",
             "(" * 150 + "t" + ")" * 150, "(" * 150 + "t" + ")" * 149 + "#", ""]:
    try:
        results[text] = ex.to_text(ex.parse(text))
    except ExprSyntaxError as exc:
        results[text] = [str(exc), exc.offset]
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
             ["deriv", "-h"]]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    results[json.dumps(argv)] = [code, out.getvalue(), err.getvalue()]
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
    assert here["results"][json.dumps(["deriv", "--a", "1"])] == [
        3, "", "confrac: usage error: ambiguous option: --a could match --alpha, --at\n"]
    code, out, _ = here["results"][json.dumps(["deriv", "-h"])]
    assert code == 0 and out.startswith("usage: confrac deriv")
