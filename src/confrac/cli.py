"""Command-line frontend.

Subcommands: deriv, integrate, taylor, solve, ell, check, sweep.  Reports
can be emitted as human-readable text, JSON (sorted keys, 12 significant
digits) or CSV (fixed header, one row per report).  Exit codes: 0 success /
inequality holds, 1 inequality violated, 2 hypothesis check failed,
3 usage or parse error, 4 numeric failure, an expression too deep to
compile, or any other internal fault.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from typing import Optional

from .calculus import Alpha, ConformableFn, Interval, QuadratureConfig, frac_deriv_n, frac_integral
from .errors import (ConfracError, EvalDomainError, ExprSyntaxError, HypothesisError,
                     LimitError, QuadratureError, SmoothnessError, SolverError)
from .inequalities import (BoundsPair, InequalityReport, cebysev, check_sandwich_lemma,
                           gruss, gruss_montgomery, hermite_hadamard_1,
                           hermite_hadamard_2, hermite_hadamard_3, HypothesisCheck,
                           jensen, montgomery_check, ostrowski, remainder_cebysev,
                           remainder_mm_bounds, remainder_steffensen, steffensen,
                           steffensen_ell)
from .ivp import IvpSpec, LinearOperator, solve_full
from .taylor import expand, taylor_remainder

__all__ = ["run", "main", "emit_report"]

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_HYPOTHESIS = 2
EXIT_USAGE = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = (EvalDomainError, QuadratureError, SolverError, LimitError,
                   SmoothnessError)

CSV_HEADER = ["theorem", "alpha", "a", "b", "lower", "actual", "upper",
              "slack_low", "slack_high", "holds", "hypotheses"]


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return ""
    if not math.isfinite(x):
        return "nan"
    return f"{x:.12g}"


def _round12(x: Optional[float]):
    if x is None or not math.isfinite(x):
        return None
    return float(f"{x:.12g}")


# ---------------------------------------------------------------------------
# report emission

def _report_json_obj(r: InequalityReport) -> dict:
    return {
        "theorem": r.theorem,
        "alpha": _round12(r.alpha),
        "a": _round12(r.window.a),
        "b": _round12(r.window.b),
        "hypotheses": [
            {"name": h.name, "verified": h.verified, "witness": _round12(h.witness)}
            for h in r.hypotheses
        ],
        "lower": _round12(r.lower),
        "actual": _round12(r.actual),
        "upper": _round12(r.upper),
        "slack_low": _round12(r.slack_low),
        "slack_high": _round12(r.slack_high),
        "holds": r.holds,
    }


def _hypotheses_cell(r: InequalityReport) -> str:
    parts = []
    for h in r.hypotheses:
        if h.verified:
            parts.append(f"{h.name}=ok")
        else:
            parts.append(f"{h.name}=FAIL@{_fmt(h.witness)}")
    return "; ".join(parts)


def _report_csv_row(r: InequalityReport) -> list[str]:
    return [r.theorem, _fmt(r.alpha), _fmt(r.window.a), _fmt(r.window.b),
            _fmt(r.lower), _fmt(r.actual), _fmt(r.upper), _fmt(r.slack_low),
            _fmt(r.slack_high), str(r.holds).lower(), _hypotheses_cell(r)]


# csv and json are imported where they are used: most commands print
# neither, and importing both is a noticeable share of start-up time

def _csv_text(rows: list[list[str]]) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _report_text(r: InequalityReport) -> str:
    lines = [f"theorem={r.theorem} alpha={_fmt(r.alpha)} "
             f"window=[{_fmt(r.window.a)}, {_fmt(r.window.b)}]"]
    for h in r.hypotheses:
        if h.verified:
            lines.append(f"  hypothesis {h.name}: ok")
        else:
            lines.append(f"  hypothesis {h.name}: FAIL (witness t={_fmt(h.witness)})")
    sides = []
    if r.lower is not None:
        sides.append(_fmt(r.lower))
    sides.append(_fmt(r.actual))
    if r.upper is not None:
        sides.append(_fmt(r.upper))
    status = "HOLDS" if r.holds else "VIOLATED"
    suffix = "" if r.hypotheses_ok else "  (hypotheses not verified)"
    lines.append(f"{status}  {' <= '.join(sides)}{suffix}")
    return "\n".join(lines)


def emit_report(r: InequalityReport, format: str = "text") -> str:
    """Render a report as text, JSON (byte-stable) or CSV (header + row)."""
    if format == "json":
        import json
        return json.dumps(_report_json_obj(r), sort_keys=True)
    if format == "csv":
        return _csv_text([_report_csv_row(r)])
    if format == "text":
        return _report_text(r)
    raise ValueError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# argument plumbing

def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="confrac",
                             description="conformable fractional calculus toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deriv", help="conformable derivative at a point")
    p.add_argument("--expr", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--order", type=int, default=1)

    p = sub.add_parser("integrate", help="weighted fractional integral")
    p.add_argument("--expr", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("taylor", help="fractional Taylor polynomial (and remainder)")
    p.add_argument("--expr", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--center", type=float, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--remainder", action="store_true")

    p = sub.add_parser("solve", help="linear fractional initial value problem")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--coeffs", default=None,
                   help="semicolon-separated coefficient expressions p1;...;pN")
    p.add_argument("--rhs", default=None, help="forcing expression (omit for 0)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--init", default=None, help="comma-separated initial values")
    p.add_argument("--steps", type=int, default=None)

    p = sub.add_parser("ell", help="Steffensen comparison-window length")
    p.add_argument("--g", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)

    for name in ("check", "sweep"):
        p = sub.add_parser(name, help="verify an inequality" if name == "check"
                           else "verify an inequality over an alpha grid")
        p.add_argument("--ineq", required=True, choices=sorted(_CHECKS))
        p.add_argument("--f", default=None)
        p.add_argument("--g", default=None)
        p.add_argument("--w", default=None)
        p.add_argument("--F", default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--m", default=None,
                       help="lower bound(s); two comma-separated values for gruss")
        p.add_argument("--M", default=None,
                       help="upper bound(s); two comma-separated values for gruss")
        p.add_argument("--t", type=float, default=None,
                       help="evaluation point (defaults to the window midpoint)")
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--b", type=float, required=True)
        p.add_argument("--tol", type=float, default=None)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true")
        fmt.add_argument("--csv", action="store_true")
        if name == "check":
            p.add_argument("--alpha", type=float, required=True)
        else:
            p.add_argument("--alphas", required=True,
                           help="grid start:stop:step or comma-separated values")
    return parser


def _make_cfg(tol: Optional[float]) -> Optional[QuadratureConfig]:
    if tol is None:
        return None
    return QuadratureConfig(abs_tol=tol, rel_tol=tol)


def _fn(text: str, flag: str) -> ConformableFn:
    try:
        return ConformableFn.from_expr(text)
    except ExprSyntaxError as exc:
        raise _UsageError(f"{flag} {text!r}: {exc}") from exc


def _built(args, flag: str) -> ConformableFn:
    """The function of --flag, built once per command: a sweep runs every
    alpha on the same object, whose compiled code takes alpha as an argument.
    A ConfracError from building it is raised again at every alpha."""
    built = vars(args).setdefault("built", {})
    if flag not in built:
        try:
            built[flag] = _fn(getattr(args, flag), f"--{flag}")
        except ConfracError as exc:
            built[flag] = exc
    if isinstance(built[flag], ConfracError):
        raise built[flag]
    return built[flag]


def _require(args, *flags: str):
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise _UsageError(f"--ineq {args.ineq} requires {', '.join(missing)}")


def _parse_bound(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"{flag} expects a number or comma pair, got {text!r}") from None


def _single_bounds(args) -> BoundsPair:
    _require(args, "m", "M")
    m = _parse_bound(args.m, "--m")
    M = _parse_bound(args.M, "--M")
    if len(m) != 1 or len(M) != 1:
        raise _UsageError(f"--ineq {args.ineq} takes single --m and --M values")
    return BoundsPair(m[0], M[0])


def _pair_bounds(args) -> tuple[BoundsPair, BoundsPair]:
    _require(args, "m", "M")
    m = _parse_bound(args.m, "--m")
    M = _parse_bound(args.M, "--M")
    if len(m) == 1:
        m = m * 2
    if len(M) == 1:
        M = M * 2
    if len(m) != 2 or len(M) != 2:
        raise _UsageError("gruss takes at most two comma-separated values for --m/--M")
    return BoundsPair(m[0], M[0]), BoundsPair(m[1], M[1])


def _point(args, window: Interval) -> float:
    t = args.t if args.t is not None else 0.5 * (window.a + window.b)
    if not window.contains(t):
        raise _UsageError(f"--t {t} lies outside [{window.a}, {window.b}]")
    return t


def _nonneg_n(args) -> int:
    _require(args, "n")
    if args.n < 0:
        raise _UsageError(f"--n must be >= 0, got {args.n}")
    return args.n


def _ostrowski(args, alpha: float, window: Interval,
               cfg: Optional[QuadratureConfig]) -> InequalityReport:
    M = None
    if args.M is not None:
        vals = _parse_bound(args.M, "--M")
        if len(vals) != 1:
            raise _UsageError("ostrowski takes a single --M value")
        M = vals[0]
    return ostrowski(_built(args, "f"), alpha, window, _point(args, window), cfg, M=M)


def _gruss(args, alpha: float, window: Interval,
           cfg: Optional[QuadratureConfig]) -> InequalityReport:
    b1, b2 = _pair_bounds(args)
    return gruss(_built(args, "f"), _built(args, "g"), alpha, window, b1, b2, cfg)


# inequality id -> (flags checked before anything is built, builder); the
# builders check the flags their helpers read (--n, --m, --M, --t) themselves
_CHECKS = {
    "steffensen": (("f", "g"), lambda args, alpha, window, cfg: steffensen(
        _built(args, "f"), _built(args, "g"), alpha, window, cfg)),
    "sandwich": (("g",), lambda args, alpha, window, cfg: check_sandwich_lemma(
        _built(args, "g"), alpha, window, cfg)),
    "rem-steffensen": (("f",), lambda args, alpha, window, cfg: remainder_steffensen(
        _built(args, "f"), alpha, _nonneg_n(args), window, cfg)),
    "hh1": (("f",), lambda args, alpha, window, cfg: hermite_hadamard_1(
        _built(args, "f"), alpha, window, cfg)),
    "mm-bounds": (("f",), lambda args, alpha, window, cfg: remainder_mm_bounds(
        _built(args, "f"), alpha, _nonneg_n(args), _single_bounds(args), window, cfg)),
    "cebysev": (("f", "g"), lambda args, alpha, window, cfg: cebysev(
        _built(args, "f"), _built(args, "g"), alpha, window, cfg)),
    "rem-cebysev": (("f",), lambda args, alpha, window, cfg: remainder_cebysev(
        _built(args, "f"), alpha, _nonneg_n(args), window, cfg)),
    "hh2": (("f",), lambda args, alpha, window, cfg: hermite_hadamard_2(
        _built(args, "f"), alpha, window, cfg)),
    "montgomery": (("f",), lambda args, alpha, window, cfg: montgomery_check(
        _built(args, "f"), alpha, window, _point(args, window), cfg)),
    "ostrowski": (("f",), _ostrowski),
    "jensen": (("w", "g", "F"), lambda args, alpha, window, cfg: jensen(
        _built(args, "w"), _built(args, "g"), _built(args, "F"), alpha, window, cfg)),
    "gruss": (("f", "g"), _gruss),
    "gruss-montgomery": (("f",), lambda args, alpha, window, cfg: gruss_montgomery(
        _built(args, "f"), alpha, window, _point(args, window), _single_bounds(args), cfg)),
    "hh3": (("f",), lambda args, alpha, window, cfg: hermite_hadamard_3(
        _built(args, "f"), alpha, window, _single_bounds(args), cfg)),
}


def _run_check(args, alpha: float, window: Interval,
               cfg: Optional[QuadratureConfig]) -> InequalityReport:
    flags, build = _CHECKS[args.ineq]
    _require(args, *flags)
    return build(args, alpha, window, cfg)


def _report_exit(r: InequalityReport) -> int:
    if not r.hypotheses_ok:
        return EXIT_HYPOTHESIS
    if not r.holds:
        return EXIT_VIOLATED
    return EXIT_OK


def _parse_alphas(grid: str) -> list[float]:
    try:
        if ":" in grid:
            start, stop, step = (float(p) for p in grid.split(":"))
            if step <= 0:
                raise ValueError
            count = int(round((stop - start) / step))
            values = [round(start + i * step, 12) for i in range(count + 1)]
            values = [v for v in values if v <= stop + 1e-12]
        else:
            values = [float(p) for p in grid.split(",")]
    except ValueError:
        raise _UsageError(f"cannot parse alpha grid {grid!r}") from None
    if not values:
        raise _UsageError(f"empty alpha grid {grid!r}")
    for v in values:
        if not (0.0 < v <= 1.0):
            raise _UsageError(f"alpha {v} outside (0, 1]")
    return values


def _failed_report(args, alpha: float, window: Interval, reason: str) -> InequalityReport:
    return InequalityReport(theorem=args.ineq, alpha=alpha, window=window,
                            hypotheses=(HypothesisCheck(reason, False, None, 0),),
                            lower=None, actual=float("nan"), upper=None,
                            slack_low=None, slack_high=None, holds=False)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_deriv(args, out, err) -> int:
    alpha = Alpha(args.alpha)
    if args.order < 0:
        raise _UsageError(f"--order must be >= 0, got {args.order}")
    if args.at < 0:
        raise _UsageError(f"--at must be >= 0, got {args.at}")
    f = _fn(args.expr, "--expr")
    print(_fmt(frac_deriv_n(f, alpha, args.order, args.at)), file=out)
    return EXIT_OK


def _cmd_integrate(args, out, err) -> int:
    alpha = Alpha(args.alpha)
    window = Interval(args.a, args.b)
    f = _fn(args.expr, "--expr")
    print(_fmt(frac_integral(f, alpha, window, _make_cfg(args.tol))), file=out)
    return EXIT_OK


def _cmd_taylor(args, out, err) -> int:
    alpha = Alpha(args.alpha)
    if args.degree < 0:
        raise _UsageError(f"--degree must be >= 0, got {args.degree}")
    if min(args.center, args.at) < 0:
        raise _UsageError("--center and --at must be >= 0")
    f = _fn(args.expr, "--expr")
    poly = expand(f, alpha, args.degree, args.center).evaluate(args.at)
    if args.remainder:
        rem = taylor_remainder(f, alpha, args.degree, args.center, args.at)
        print(f"poly {_fmt(poly)}", file=out)
        print(f"remainder {_fmt(rem)}", file=out)
    else:
        print(_fmt(poly), file=out)
    return EXIT_OK


def _cmd_solve(args, out, err) -> int:
    alpha = Alpha(args.alpha)
    if args.order < 1:
        raise _UsageError(f"--order must be >= 1, got {args.order}")
    if min(args.from_, args.to) < 0:
        raise _UsageError("--from and --to must be >= 0")
    if args.steps is not None and args.steps < 16:
        raise _UsageError(f"--steps must be >= 16, got {args.steps}")
    coeffs = ()
    if args.coeffs:
        parts = [p.strip() for p in args.coeffs.split(";")]
        if len(parts) != args.order:
            raise _UsageError(
                f"--coeffs needs {args.order} expressions, got {len(parts)}")
        coeffs = tuple(_fn(p, "--coeffs") for p in parts)
    init = (0.0,) * args.order
    if args.init:
        try:
            init = tuple(float(p) for p in args.init.split(","))
        except ValueError:
            raise _UsageError(f"cannot parse --init {args.init!r}") from None
        if len(init) != args.order:
            raise _UsageError(f"--init needs {args.order} values, got {len(init)}")
    forcing = _fn(args.rhs, "--rhs") if args.rhs else None
    op = LinearOperator(order=args.order, alpha=alpha, coefficients=coeffs)
    spec = IvpSpec(operator=op, forcing=forcing, base_point=args.from_,
                   initial_values=init)
    print(_fmt(solve_full(spec, args.to, steps=args.steps)), file=out)
    return EXIT_OK


def _cmd_ell(args, out, err) -> int:
    alpha = Alpha(args.alpha)
    window = Interval(args.a, args.b)
    result = steffensen_ell(_fn(args.g, "--g"), alpha, window)
    print(_fmt(result.ell), file=out)
    return EXIT_OK


def _cmd_check(args, out, err) -> int:
    alpha = Alpha(args.alpha)
    window = Interval(args.a, args.b)
    report = _run_check(args, alpha.value, window, _make_cfg(args.tol))
    fmt = "json" if args.json else "csv" if args.csv else "text"
    print(emit_report(report, fmt), file=out)
    return _report_exit(report)


def _cmd_sweep(args, out, err) -> int:
    window = Interval(args.a, args.b)
    alphas = _parse_alphas(args.alphas)
    cfg = _make_cfg(args.tol)
    reports = []
    flagged = []  # (alpha, reason) of the rows whose check raised
    numeric_failure = False
    for a in alphas:
        try:
            reports.append(_run_check(args, a, window, cfg))
            continue
        except HypothesisError as exc:
            reason = str(exc)
        except ConfracError as exc:
            numeric_failure = True
            reason = f"numeric failure: {exc}"
        flagged.append((a, reason))
        reports.append(_failed_report(args, a, window, reason))
    if args.json:
        import json
        print(json.dumps([_report_json_obj(r) for r in reports], sort_keys=True),
              file=out)
    elif args.csv:
        print(_csv_text([_report_csv_row(r) for r in reports]), file=out)
    else:
        # a flagged row prints no cause; JSON and CSV carry it as a hypothesis
        for a, reason in flagged:
            print(f"confrac: alpha={_fmt(a)}: {reason}", file=err)
        for r in reports:
            status = "HOLDS" if r.holds else "VIOLATED"
            if not r.hypotheses_ok:
                status += " (hypotheses not verified)"
            sides = [side for side in
                     (_fmt(r.lower), _fmt(r.actual), _fmt(r.upper)) if side]
            print(f"alpha={_fmt(r.alpha)}  {' <= '.join(sides)}  {status}", file=out)
    if numeric_failure:
        return EXIT_NUMERIC
    if any(not r.hypotheses_ok for r in reports):
        return EXIT_HYPOTHESIS
    if any(not r.holds for r in reports):
        return EXIT_VIOLATED
    return EXIT_OK


_COMMANDS = {
    "deriv": _cmd_deriv,
    "integrate": _cmd_integrate,
    "taylor": _cmd_taylor,
    "solve": _cmd_solve,
    "ell": _cmd_ell,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
}


# flags whose values may begin with '-' (expressions like "-1" or
# "-exp(...)", negative bounds, comma pairs); fused into --flag=value so
# argparse never mistakes the value for an option; "--", which argparse drops, is refused
_VALUE_FLAGS = ("--expr", "--f", "--g", "--w", "--F", "--rhs", "--coeffs",
                "--init", "--m", "--M", "--alphas")


def _fuse_values(argv):
    fused = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            i += 1
            tok = f"{tok}={argv[i]}"
        if tok.startswith("--") and tok.endswith("=--"):
            raise _UsageError(f"{tok[:-3]} expects a value, got '--'")
        fused.append(tok)
        i += 1
    return fused


_PARSER: Optional[_ArgumentParser] = None


def _parser() -> _ArgumentParser:
    """The command-line parser, built on first use and reused: parsing
    leaves it unchanged, and building it costs more than most commands."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def run(argv, stdout=None, stderr=None) -> int:
    """Dispatch a command line; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _parser().parse_args(_fuse_values(list(argv)))
        return _COMMANDS[args.command](args, out, err)
    except _UsageError as exc:
        print(f"confrac: usage error: {exc}", file=err)
        return EXIT_USAGE
    except (ExprSyntaxError, ValueError) as exc:
        print(f"confrac: invalid input: {exc}", file=err)
        return EXIT_USAGE
    except HypothesisError as exc:
        print(f"confrac: hypothesis failed: {exc}", file=err)
        return EXIT_HYPOTHESIS
    except _NUMERIC_ERRORS as exc:
        print(f"confrac: numeric failure: {exc}", file=err)
        return EXIT_NUMERIC
    except ConfracError as exc:
        print(f"confrac: error: {exc}", file=err)
        return EXIT_NUMERIC
    except Exception as exc:
        # last resort: an internal fault must not pass for a verdict (1, 2)
        # or escape as a traceback; SystemExit and KeyboardInterrupt pass
        print(f"confrac: internal error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run(sys.argv[1:]))
