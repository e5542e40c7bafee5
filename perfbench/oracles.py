"""Correctness oracles, computed in the parent process after the timed run.

Nothing here imports confrac.  Expected values come from closed forms in u =
t^alpha/alpha (see workloads.py), from scipy (``solve_ivp`` for IVPs with
coefficients, ``quad`` for forced closed-form kernels), from the identity
``poly + remainder = f(at)``, and from the rule that an inequality holds
whenever its hypotheses are verified.  Each ``check_*`` returns None when the
output is right and a short reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from scipy.integrate import quad, solve_ivp

from workloads import t_of, u_of


def _close(got, want, rel=1e-8, abs_=1e-8) -> bool:
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= abs_ + rel * abs(want))


_NAMES = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
          "sqrt": math.sqrt, "abs": abs, "pi": math.pi, "__builtins__": {}}


def py_function(text: str):
    """Evaluate generated expression text with Python's own arithmetic.

    '^' and Python's '**' share precedence and associativity (both bind
    tighter than unary minus and group to the right).
    """
    code = compile(re.sub(r"\bln\(", "log(", text.replace("^", "**")), "<oracle>", "eval")
    return lambda t, alpha: eval(code, _NAMES, {"t": t, "alpha": alpha})


def ivp_value(order, coeffs, rhs, alpha, s, t, init) -> float:
    """y(t) for D^n y + sum p_i D^(n-i) y = f, D^k y(s) = init[k].

    In u the operator is d/du, so coefficient-free problems have the Taylor
    sum plus the (u_t - w)^(n-1)/(n-1)! kernel integral, and the rest go to
    an 8th-order Runge-Kutta solver at tight tolerance.
    """
    us, ut = u_of(s, alpha), u_of(t, alpha)
    f = py_function(rhs) if rhs else None
    if not coeffs:
        z = ut - us
        hom = sum(v * z ** k / math.factorial(k) for k, v in enumerate(init))
        if f is None:
            return hom
        kernel = lambda w: ((ut - w) ** (order - 1) / math.factorial(order - 1)
                            * f(t_of(w, alpha), alpha))
        value, _ = quad(kernel, us, ut, epsabs=1e-13, epsrel=1e-12, limit=200)
        return hom + value
    ps = [py_function(p) for p in coeffs]

    def rhs_u(w, z):
        tt = t_of(max(w, 0.0), alpha)
        top = f(tt, alpha) if f is not None else 0.0
        for i, p in enumerate(ps, start=1):
            top -= p(tt, alpha) * z[order - i]
        return [*z[1:], top]

    sol = solve_ivp(rhs_u, (us, ut), list(init), method="DOP853", rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"oracle solver failed: {sol.message}")
    return float(sol.y[0, -1])


def _num(x):
    return float(x) if isinstance(x, str) else x


def _slack_ok(lower, actual, upper, scale_tol=1e-7) -> bool:
    sides = [abs(v) for v in (lower, actual, upper) if v is not None]
    tol = scale_tol * (1.0 + max(sides))
    return ((lower is None or actual - lower >= -tol)
            and (upper is None or upper - actual >= -tol))


def check_battery(op, out):
    if op["ineq"] == "montgomery-residual":
        res = _num(out)
        if not abs(res) <= 1e-7 * (1.0 + abs(op["f_at_t"])):
            return f"montgomery residual {res!r}"
        return None
    hyp_ok, holds, lower, actual, upper = [_num(v) for v in out]
    if not hyp_ok:
        return "hypotheses not verified although they hold by construction"
    if not holds or not _slack_ok(lower, actual, upper):
        return f"verdict violated: {lower!r} <= {actual!r} <= {upper!r}"
    if "expect_actual" in op and not _close(actual, op["expect_actual"]):
        return f"actual {actual!r}, closed form {op['expect_actual']!r}"
    return None


def check_taylor(op, out):
    coeffs, poly, rem = out
    coeffs = [_num(c) for c in coeffs]
    n, alpha = op["n"], op["alpha"]
    if len(coeffs) != n + 1:
        return f"{len(coeffs)} coefficients for degree {n}"
    z = u_of(op["at"], alpha) - u_of(op["center"], alpha)
    terms = [c * z ** k / math.factorial(k) for k, c in enumerate(coeffs)]
    rem = _num(rem)
    f_at = op["f_at"]
    scale = 1.0 + sum(abs(x) for x in terms) + abs(rem) + abs(f_at)
    if not abs(math.fsum(terms[:n]) + rem - f_at) <= 1e-7 * scale:
        return f"poly + remainder = {math.fsum(terms[:n]) + rem!r}, f(at) = {f_at!r}"
    if not abs(_num(poly) - math.fsum(terms)) <= 1e-9 * scale:
        return f"expansion value {poly!r} disagrees with its coefficients"
    for k, want in enumerate(op.get("expect_coeffs", ())):
        if not _close(coeffs[k], want, rel=1e-7, abs_=1e-7):
            return f"D^{k} f(center) = {coeffs[k]!r}, closed form {want!r}"
    return None


def check_ivp(op, out):
    want = ivp_value(op["order"], op["coeffs"], op["rhs"], op["alpha"], op["s"],
                     op["t"], op["init"])
    got = _num(out)
    if not _close(got, want, rel=1e-6, abs_=1e-6):
        return f"y(t) = {got!r}, oracle {want!r}"
    return None


def _floats(line):
    return [float(x) for x in re.findall(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan", line)]


def _report_ok(obj, want):
    return (obj["holds"] and all(h["verified"] for h in obj["hypotheses"])
            and _close(obj["actual"], want))


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return [dict(zip(rows[0], r)) for r in rows[1:]]


def _csv_ok(row, want):
    return (row["holds"] == "true" and "FAIL" not in row["hypotheses"]
            and _close(float(row["actual"]), want))


def _text_ok(line, want):
    # "HOLDS  lo <= actual <= hi" or "alpha=..  lo <= actual  HOLDS"
    if "HOLDS" not in line or "not verified" in line:
        return False
    body = line.split("HOLDS")[1] if line.startswith("HOLDS") else line.split("  ", 1)[1]
    return any(_close(v, want) for v in _floats(body))


def check_cli(op, out):
    code, stdout, _stderr = out
    expect = op["expect"]
    allowed = expect["code"] if isinstance(expect["code"], list) else [expect["code"]]
    if code not in allowed:
        return f"exit {code}, expected {allowed}"
    if code != 0:
        return None
    form = expect["form"]
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    try:
        if form == "numbers":
            want = expect.get("values")
            if want is None:
                p = expect["ivp"]
                want = [ivp_value(p["order"], [repr(c) for c in p["coeffs"]],
                                  repr(p["rhs_const"]) if p["rhs_const"] else None,
                                  p["alpha"], p["s"], p["t"], p["init"])]
            got = [float(ln.split()[-1]) for ln in lines]
            ok = len(got) == len(want) and all(_close(g, w) for g, w in zip(got, want))
        elif form == "report-json":
            ok = _report_ok(json.loads(stdout), expect["actual"][0])
        elif form == "report-csv":
            rows = _csv_rows(stdout)
            ok = len(rows) == 1 and _csv_ok(rows[0], expect["actual"][0])
        elif form == "report-text":
            ok = _text_ok(lines[-1], expect["actual"][0])
        elif form == "sweep-json":
            objs = json.loads(stdout)
            ok = len(objs) == len(expect["actual"]) and all(
                _report_ok(o, w) for o, w in zip(objs, expect["actual"]))
        elif form == "sweep-csv":
            rows = _csv_rows(stdout)
            ok = len(rows) == len(expect["actual"]) and all(
                _csv_ok(r, w) for r, w in zip(rows, expect["actual"]))
        else:  # sweep-text
            ok = len(lines) == len(expect["actual"]) and all(
                _text_ok(ln, w) for ln, w in zip(lines, expect["actual"]))
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable {form} output: {exc}"
    return None if ok else f"{form} output does not match the oracle: {stdout[:200]!r}"


CHECK = {"battery": check_battery, "taylor": check_taylor, "ivp": check_ivp, "cli": check_cli}


def classify(op, out) -> tuple[str, str]:
    """('ok' | 'error' | 'wrong', detail) for one operation's output."""
    if isinstance(out, dict):
        return "error", f"{out['error']}: {out['message'][:120]}"
    reason = CHECK[op["kind"]](op, out)
    return ("ok", "") if reason is None else ("wrong", reason)
