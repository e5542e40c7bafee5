"""Command-line frontend.

Subcommands: deriv, integrate, taylor, solve, ell, check, sweep.  Reports
can be emitted as human-readable text, JSON (sorted keys, 12 significant
digits) or CSV (fixed header, one row per report).  Exit codes: 0 success /
inequality holds, 1 inequality violated, 2 hypothesis check failed,
3 usage or parse error, 4 numeric failure, an expression too deep to
compile, or any other internal fault.

Command lines are read from one table (``_build_parser``) by ``_parse``,
with the rules argparse gave this tool and its messages: a long flag may be
shortened to any unique prefix, ``--flag=value`` equals ``--flag value``,
the last occurrence of a flag wins, and ``-h``/``--help`` prints help from
the table to stdout (exit 0).  The expression and list flags (``dash_value``
in the table) take the next argument whatever it is, so their values may
begin with '-'; the number flags take negative numbers (-1, -.5, -1e-3,
-inf) but not arguments that look like flags.

Every command runs in a fresh interpreter, so importing this module loads
only what every command uses: the inequality checkers (confrac.inequalities)
are imported where check, sweep or ell first needs them (_inequalities), and
csv and json where a report is printed in that format.
"""

from __future__ import annotations

import io
import math
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from .calculus import Alpha, ConformableFn, Interval, QuadratureConfig, frac_deriv_n, frac_integral
from .errors import (ConfracError, EvalDomainError, ExprSyntaxError, HypothesisError,
                     LimitError, QuadratureError, SmoothnessError, SolverError)
from .ivp import IvpSpec, LinearOperator, solve_full
from .taylor import expand, taylor_remainder

if TYPE_CHECKING:
    from .inequalities import BoundsPair, InequalityReport

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


def _inequalities():
    """confrac.inequalities, imported on first use: only check, sweep and
    ell need it, and loading it is a noticeable share of start-up time."""
    from . import inequalities
    return inequalities


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
    return _inequalities().BoundsPair(m[0], M[0])


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
    pair = _inequalities().BoundsPair
    return pair(m[0], M[0]), pair(m[1], M[1])


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


def _ostrowski(ineq, args, alpha: float, window: Interval,
               cfg: Optional[QuadratureConfig]) -> InequalityReport:
    M = None
    if args.M is not None:
        vals = _parse_bound(args.M, "--M")
        if len(vals) != 1:
            raise _UsageError("ostrowski takes a single --M value")
        M = vals[0]
    return ineq.ostrowski(_built(args, "f"), alpha, window, _point(args, window), cfg, M=M)


def _gruss(ineq, args, alpha: float, window: Interval,
           cfg: Optional[QuadratureConfig]) -> InequalityReport:
    b1, b2 = _pair_bounds(args)
    return ineq.gruss(_built(args, "f"), _built(args, "g"), alpha, window, b1, b2, cfg)


# inequality id -> (flags checked before anything is built, builder); a
# builder takes the confrac.inequalities module first and checks the flags
# its helpers read (--n, --m, --M, --t) itself
_CHECKS = {
    "steffensen": (("f", "g"), lambda ineq, args, alpha, window, cfg: ineq.steffensen(
        _built(args, "f"), _built(args, "g"), alpha, window, cfg)),
    "sandwich": (("g",), lambda ineq, args, alpha, window, cfg: ineq.check_sandwich_lemma(
        _built(args, "g"), alpha, window, cfg)),
    "rem-steffensen": (("f",), lambda ineq, args, alpha, window, cfg: ineq.remainder_steffensen(
        _built(args, "f"), alpha, _nonneg_n(args), window, cfg)),
    "hh1": (("f",), lambda ineq, args, alpha, window, cfg: ineq.hermite_hadamard_1(
        _built(args, "f"), alpha, window, cfg)),
    "mm-bounds": (("f",), lambda ineq, args, alpha, window, cfg: ineq.remainder_mm_bounds(
        _built(args, "f"), alpha, _nonneg_n(args), _single_bounds(args), window, cfg)),
    "cebysev": (("f", "g"), lambda ineq, args, alpha, window, cfg: ineq.cebysev(
        _built(args, "f"), _built(args, "g"), alpha, window, cfg)),
    "rem-cebysev": (("f",), lambda ineq, args, alpha, window, cfg: ineq.remainder_cebysev(
        _built(args, "f"), alpha, _nonneg_n(args), window, cfg)),
    "hh2": (("f",), lambda ineq, args, alpha, window, cfg: ineq.hermite_hadamard_2(
        _built(args, "f"), alpha, window, cfg)),
    "montgomery": (("f",), lambda ineq, args, alpha, window, cfg: ineq.montgomery_check(
        _built(args, "f"), alpha, window, _point(args, window), cfg)),
    "ostrowski": (("f",), _ostrowski),
    "jensen": (("w", "g", "F"), lambda ineq, args, alpha, window, cfg: ineq.jensen(
        _built(args, "w"), _built(args, "g"), _built(args, "F"), alpha, window, cfg)),
    "gruss": (("f", "g"), _gruss),
    "gruss-montgomery": (("f",), lambda ineq, args, alpha, window, cfg: ineq.gruss_montgomery(
        _built(args, "f"), alpha, window, _point(args, window), _single_bounds(args), cfg)),
    "hh3": (("f",), lambda ineq, args, alpha, window, cfg: ineq.hermite_hadamard_3(
        _built(args, "f"), alpha, window, _single_bounds(args), cfg)),
}


def _run_check(args, alpha: float, window: Interval,
               cfg: Optional[QuadratureConfig]) -> InequalityReport:
    flags, build = _CHECKS[args.ineq]
    _require(args, *flags)
    return build(_inequalities(), args, alpha, window, cfg)


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
    ineq = _inequalities()
    return ineq.InequalityReport(theorem=args.ineq, alpha=alpha, window=window,
                                 hypotheses=(ineq.HypothesisCheck(reason, False, None, 0),),
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
    result = _inequalities().steffensen_ell(_fn(args.g, "--g"), alpha, window)
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


# ---------------------------------------------------------------------------
# command-line table and parser

class _Help(Exception):
    """-h/--help was read: print the help of ``command`` (None: the top level)."""

    def __init__(self, command):
        super().__init__(command)
        self.command = command


class _Flag:
    """One flag of a subcommand.  ``type`` is str, float, int, bool (a
    switch, default False) or None (-h/--help); ``exclusive`` flags (--json,
    --csv) exclude each other; a ``dash_value`` flag takes the next argument
    as its value whatever it is, so expressions and bounds may begin with '-'."""

    __slots__ = ("option", "name", "dest", "type", "required", "default", "choices",
                 "exclusive", "dash_value", "help")

    def __init__(self, option, type=str, *, required=False, default=None, choices=None,
                 exclusive=False, dash_value=False, dest=None, help=""):
        self.option = option
        self.name = option                 # as error messages name it
        self.dest = dest or option.lstrip("-")
        self.type = type
        self.required = required
        self.default = False if type is bool else default
        self.choices = choices
        self.exclusive = exclusive
        self.dash_value = dash_value
        self.help = help


_HELP = _Flag("--help", None, help="show this help message and exit")
_HELP.name = "-h/--help"


class _Command:
    """A subcommand: its flags in declaration order and its option table
    ('-h', '--help', then each flag, the order ambiguity messages list)."""

    __slots__ = ("name", "help", "flags", "options", "defaults")

    def __init__(self, name, help, flags):
        self.name = name
        self.help = help
        self.flags = tuple(flags)
        self.options = {"-h": _HELP, "--help": _HELP}
        self.options.update((f.option, f) for f in self.flags)
        self.defaults = {f.dest: f.default for f in self.flags}


class _Table:
    """The subcommands by name, the options before a command, and the
    dash-value options, which take the next argument wherever they stand."""

    __slots__ = ("commands", "top", "dash_values")

    def __init__(self, commands):
        self.commands = {c.name: c for c in commands}
        self.top = {"-h": _HELP, "--help": _HELP}
        self.dash_values = frozenset(f.option for c in commands for f in c.flags
                                     if f.dash_value)


def _build_parser() -> _Table:
    """The command-line table: the seven subcommands and their flags."""
    def expr(option, **kw):
        return _Flag(option, dash_value=True, **kw)

    def req(option, type=float):
        return _Flag(option, type, required=True)

    commands = [
        _Command("deriv", "conformable derivative at a point", [
            expr("--expr", required=True), req("--alpha"), req("--at"),
            _Flag("--order", int, default=1)]),
        _Command("integrate", "weighted fractional integral", [
            expr("--expr", required=True), req("--alpha"), req("--a"), req("--b"),
            _Flag("--tol", float)]),
        _Command("taylor", "fractional Taylor polynomial (and remainder)", [
            expr("--expr", required=True), req("--alpha"), req("--center"),
            req("--degree", int), req("--at"), _Flag("--remainder", bool)]),
        _Command("solve", "linear fractional initial value problem", [
            req("--order", int),
            expr("--coeffs", help="semicolon-separated coefficient expressions p1;...;pN"),
            expr("--rhs", help="forcing expression (omit for 0)"),
            req("--alpha"), _Flag("--from", float, required=True, dest="from_"),
            req("--to"), expr("--init", help="comma-separated initial values"),
            _Flag("--steps", int)]),
        _Command("ell", "Steffensen comparison-window length", [
            expr("--g", required=True), req("--alpha"), req("--a"), req("--b")]),
    ]
    for name in ("check", "sweep"):
        grid = (req("--alpha") if name == "check" else
                expr("--alphas", required=True,
                     help="grid start:stop:step or comma-separated values"))
        commands.append(_Command(name, "verify an inequality" if name == "check"
                                 else "verify an inequality over an alpha grid", [
            _Flag("--ineq", required=True, choices=sorted(_CHECKS)),
            expr("--f"), expr("--g"), expr("--w"), expr("--F"), _Flag("--n", int),
            expr("--m", help="lower bound(s); two comma-separated values for gruss"),
            expr("--M", help="upper bound(s); two comma-separated values for gruss"),
            _Flag("--t", float, help="evaluation point (defaults to the window midpoint)"),
            req("--a"), req("--b"), _Flag("--tol", float),
            _Flag("--json", bool, exclusive=True), _Flag("--csv", bool, exclusive=True),
            grid]))
    return _Table(commands)


# argparse's negative numbers (-1, -.5), also in exponent form (-1e-3) and -inf
_NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+|\d*\.\d+)(?:[eE][-+]?\d+)?|inf)$").match


def _classify(arg: str, options: dict):
    """None if ``arg`` is a value, else (flag or None if unknown, option
    string, the value after '=' or None).  A long option may be shortened to
    any unique prefix; an ambiguous one is a usage error."""
    if not arg or arg[0] != "-":
        return None
    flag = options.get(arg)
    if flag is not None:
        return flag, arg, None
    if len(arg) == 1:
        return None
    option, eq, value = arg.partition("=")
    explicit = value if eq else None
    if eq and option in options:
        return options[option], option, value
    if arg[1] == "-":
        matches = [(options[o], o, explicit) for o in options if o.startswith(option)]
    else:   # '-hVALUE': a one-letter option and its value
        short = options.get(arg[:2])
        matches = [(short, arg[:2], arg[2:])] if short is not None else []
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: {arg} could match "
                          f"{', '.join(m[1] for m in matches)}")
    if matches:
        return matches[0]
    if _NEGATIVE_NUMBER(arg) or " " in arg:
        return None
    return None, arg, None


def _store(values: dict, flag: _Flag, text: str) -> None:
    value = text
    if flag.type is not str:
        try:
            value = flag.type(text)
        except (TypeError, ValueError):
            raise _UsageError(f"argument {flag.name}: invalid {flag.type.__name__} "
                              f"value: {text!r}") from None
    if flag.choices is not None and value not in flag.choices:
        raise _UsageError(f"argument {flag.name}: invalid choice: {value!r} (choose from "
                          f"{', '.join(map(repr, flag.choices))})")
    values[flag.dest] = value


def _expected(flag: _Flag) -> _UsageError:
    return _UsageError(f"argument {flag.name}: expected one argument")


def _ignored(flag: _Flag, text: str) -> _UsageError:
    return _UsageError(f"argument {flag.name}: ignored explicit argument {text!r}")


def _invalid_command(table: _Table, arg: str) -> _UsageError:
    return _UsageError(f"argument command: invalid choice: {arg!r} (choose from "
                       f"{', '.join(map(repr, table.commands))})")


def _parse(table: _Table, argv: list):
    """Read a command line in one pass over its arguments.

    Errors are reported in a fixed order, wherever they stand on the line:
    a '--' value first, then an error before the command, an invalid or
    missing command, an ambiguous option, the first error in reading the
    flags (where -h/--help comes first, help is printed instead), missing
    required flags, and unrecognized arguments last.  A dash-value flag
    takes the next argument as its value, as if written --flag=value.
    """
    dash_values = table.dash_values
    options = table.top      # None once only a '--' value can still be reported
    command = None
    values = None
    failure = None           # the first error (or _Help), raised at the end
    reading = True           # flags are read until the first failure
    dashes = False           # a '--' was read: nothing after it is a flag
    pending = None           # a flag waiting for its value
    exclusive = None         # the --json/--csv flag given
    extras = []
    n = len(argv)
    i = 0
    while i < n:
        arg = argv[i]
        i += 1
        name = None
        if arg in dash_values and i < n:
            name, value = arg, argv[i]
            i += 1
            arg = f"{name}={value}"
        if arg.endswith("=--") and arg.startswith("--"):
            raise _UsageError(f"{arg[:-3]} expects a value, got '--'")
        if options is None:
            continue
        if dashes:
            extras.append(arg)
            continue
        if arg == "--":
            # nothing after it is a flag; before the command it is taken as
            # the command when anything follows
            if not reading:
                options = None
            elif pending is not None or (command is None and i < n):
                failure = (_expected(pending) if pending is not None
                           else _invalid_command(table, arg))
                reading, options = False, None
            else:
                dashes = True
                extras.append(arg)
            continue
        if name is not None and name in options:
            item = (options[name], name, value)
        else:
            try:
                item = _classify(arg, options)
            except _UsageError as exc:    # found before any flag is read
                failure, reading, options = exc, False, None
                continue
        if not reading:
            continue
        try:
            if item is None:
                if pending is not None:
                    _store(values, pending, arg)
                    pending = None
                elif command is None:     # the first value is the command
                    command = table.commands.get(arg)
                    if command is None:
                        raise _invalid_command(table, arg)
                    options = command.options
                    values = dict(command.defaults)
                else:
                    extras.append(arg)
                continue
            flag, option, explicit = item
            if pending is not None:
                raise _expected(pending)
            if flag is None:
                extras.append(arg)
            elif flag.type is None:
                if explicit is not None:
                    # '-hh' is -h twice; '-hx', '-h=' and '--help=x' are errors
                    rest = explicit.lstrip("h") if option == "-h" else explicit
                    if rest or not explicit:
                        raise _ignored(flag, rest)
                raise _Help(command)
            elif flag.type is bool:
                if explicit is not None:
                    raise _ignored(flag, explicit)
                if flag.exclusive:
                    if exclusive is not None and exclusive is not flag:
                        raise _UsageError(f"argument {flag.name}: not allowed with "
                                          f"argument {exclusive.name}")
                    exclusive = flag
                values[flag.dest] = True
            elif explicit is None:
                pending = flag
            else:
                _store(values, flag, explicit)
        except (_UsageError, _Help) as exc:
            failure, reading = exc, False
            if command is None:
                options = None
    if pending is not None and reading:
        failure = _expected(pending)
    if failure is not None:
        raise failure
    if command is None:
        raise _UsageError("the following arguments are required: command")
    missing = [f.name for f in command.flags if f.required and values[f.dest] is None]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command.name, **values)


def _wrap(words: list, first: str, indent: str, width: int = 79) -> list:
    """``words`` joined by spaces into lines of at most ``width`` characters
    where that is possible, the first after ``first``, the others after ``indent``."""
    lines, line = [], first
    for word in words:
        if len(line) + 1 + len(word) > width and line not in (first, indent):
            lines.append(line)
            line = indent
        line += word if line.endswith(" ") else " " + word
    return lines + [line]


def _metavar(flag: _Flag) -> str:
    if flag.type is None:
        return "-h, --help"
    if flag.type is bool:
        return flag.option
    return f"{flag.option} {'ID' if flag.choices else flag.option.lstrip('-').upper()}"


def _describe(flag: _Flag, command: _Command) -> str:
    notes = [flag.help] if flag.help else []
    if flag.choices:
        notes.append(f"one of {', '.join(flag.choices)}")
    if flag.type in (float, int):
        notes.append("a number" if flag.type is float else "an integer")
    if flag.required:
        notes.append("required")
    elif flag.default not in (None, False):
        notes.append(f"default {flag.default}")
    if flag.dash_value:
        notes.append("may begin with '-'")
    if flag.exclusive:
        notes.append("not with " + " or ".join(
            f.option for f in command.flags if f.exclusive and f is not flag))
    return "; ".join(notes)


def _help_text(table: _Table, command: Optional[_Command]) -> str:
    """Help for the top level (command None) or for one subcommand."""
    if command is None:
        names = ",".join(table.commands)
        rows = [(name, c.help) for name, c in table.commands.items()]
        return "\n".join([
            f"usage: confrac [-h] {{{names}}} ...", "",
            "conformable fractional calculus toolkit", "",
            "commands:", *_rows(rows), "",
            "options:", *_rows([(_metavar(_HELP), _HELP.help)]), "",
            "Run 'confrac COMMAND -h' for the flags of a command.  Long flags may be",
            "shortened to any unique prefix and written --flag=value; a flag given",
            "twice keeps its last value.", ""])
    words = ["[-h]"]
    exclusive = [f.option for f in command.flags if f.exclusive]
    for flag in command.flags:
        if flag.required:
            words.append(_metavar(flag))
        elif not flag.exclusive:
            words.append(f"[{_metavar(flag)}]")
        elif flag.option == exclusive[0]:
            words.append(f"[{' | '.join(exclusive)}]")
    rows = [(_metavar(_HELP), _HELP.help)] + [(_metavar(f), _describe(f, command))
                                               for f in command.flags]
    first = f"usage: confrac {command.name}"
    return "\n".join([*_wrap(words, first, " " * (len(first) + 1)), "",
                      command.help, "", "options:", *_rows(rows), ""])


def _rows(rows: list) -> list:
    """Two columns: the flags or commands, and their descriptions."""
    width = max(len(left) for left, _ in rows) + 4    # two before, two after
    lines = []
    for left, right in rows:
        first = f"  {left}".ljust(width)
        lines += [line.rstrip() for line in _wrap(right.split(), first, " " * width)]
    return lines


_PARSER: Optional[_Table] = None


def _parser() -> _Table:
    """The command-line table, built on first use and reused: parsing
    leaves it unchanged."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def run(argv, stdout=None, stderr=None) -> int:
    """Dispatch a command line; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _parse(_parser(), list(argv))
        return _COMMANDS[args.command](args, out, err)
    except _Help as exc:
        print(_help_text(_parser(), exc.command), end="", file=out)
        return EXIT_OK
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
