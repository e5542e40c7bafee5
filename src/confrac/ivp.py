"""Linear conformable initial value problems.

The operator is L y = D^n y + sum_i p_i D^{n-i} y with continuous
coefficients.  Under the substitution u = t^alpha/alpha the conformable
derivative becomes d/du exactly, so L y = f is the classical linear system
z' = A(u) z + f(t(u)) e_n in the state z = (y, D y, ..., D^{n-1} y), which
one pass in u integrates from the initial data: by default in adaptive
Dormand-Prince 8(5,3) steps (DOP853) under an error estimate, or, given a
step count, in that many fixed classical RK4 steps.  The pass is one
generated kernel per method and operator shape.  The coefficient-free case
has the closed-form kernel ((t^a - s^a)/a)^(n-1)/(n-1)!: its homogeneous part is
the exact fractional Taylor sum and its forced part the
variation-of-constants integral (solve_voc), which also serves as an
independent check of the direct solve.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

from . import expr as ex
from ._value import FrozenValue
from .calculus import (Alpha, ConformableFn, QuadratureConfig, frac_integral)
from .errors import EvalDomainError, SolverError
from .taylor import TaylorExpansion, cauchy_kernel

__all__ = ["LinearOperator", "IvpSpec", "cauchy_function", "solve_voc", "solve_full"]

MIN_STEPS = 16
MAX_DEFAULT_STEPS = 75_000  # attempted adaptive steps: 0.4-0.7 s at orders 1-2
_RTOL, _ATOL, _FLOOR = 1e-12, 1e-14, 1e-2
# a method's stages after the first, one a line, a line that starts with two
# spaces continuing the last: node c; scale; the weights on k_1, k_2, ... of
# the stage's state z + scale * sum w k at u + c h.  The last line, with no
# node, is the step's end.
_RK4 = """0.5; hh; 1
0.5; hh; 0 1
1; h; 0 0 1
; h6; 1 2.0 2.0 1"""
# Dormand and Prince's 8(5,3) pair (Hairer, Norsett and Wanner, Solving ODEs
# I, II.10, their DOP853); _DOP853_ERR holds the weights of its fifth- and
# third-order error estimates, each b - b^.
_DOP853 = """0.05260015195876773; h; 0.05260015195876773
0.0789002279381516; h; 0.0197250569845379 0.0591751709536137
0.1183503419072274; h; 0.02958758547680685 0 0.08876275643042054
0.2816496580927726; h; 0.2413651341592667 0 -0.8845494793282861 0.924834003261792
0.3333333333333333; h; 0.037037037037037035 0 0 0.17082860872947386 0.12546768756682242
0.25; h; 0.037109375 0 0 0.17025221101954405 0.06021653898045596 -0.017578125
0.3076923076923077; h; 0.03709200011850479 0 0 0.17038392571223998 0.10726203044637328
  -0.015319437748624402 0.008273789163814023
0.6512820512820513; h; 0.6241109587160757 0 0 -3.3608926294469414 -0.868219346841726
  27.59209969944671 20.154067550477894 -43.48988418106996
0.6; h; 0.47766253643826434 0 0 -2.4881146199716677 -0.590290826836843 21.230051448181193
  15.279233632882423 -33.28821096898486 -0.020331201708508627
0.8571428571428571; h; -0.9371424300859873 0 0 5.186372428844064 1.0914373489967295
  -8.149787010746927 -18.52006565999696 22.739487099350505 2.4936055526796523
  -3.0467644718982196
1; h; 2.273310147516538 0 0 -10.53449546673725 -2.0008720582248625 -17.9589318631188
  27.94888452941996 -2.8589982771350235 -8.87285693353063 12.360567175794303
  0.6433927460157636
; h; 0.054293734116568765 0 0 0 0 4.450312892752409 1.8915178993145003 -5.801203960010585
  0.3111643669578199 -0.1521609496625161 0.20136540080403034 0.04471061572777259"""
_DOP853_ERR = """0.01312004499419488 0 0 0 0 -1.2251564463762044 -0.4957589496572502
  1.6643771824549864 -0.35032884874997366 0.3341791187130175 0.08192320648511571
  -0.022355307863886294
-0.18980075407240762 0 0 0 0 4.450312892752409 1.8915178993145003 -5.801203960010585
  -0.4226823213237919 -0.1521609496625161 0.20136540080403034 0.02265179219836082"""
_DOP853_ORDER = 8  # the step factor's exponent is -1/8
_DOPRI_LOOP = """\
 hmax = (ut - u) * {spacing!r}; tries = taken = 0; grow = 10.0; held = 1e300
{first}
 h = hmax
 while u != ut:
  tries += 1
  if tries > m or grow == 1.0 and abs(h) * {closest!r} <= 1e-15 * abs(u):
   raise SolverError(f"step error above tolerance: {{taken}} steps taken, {{tries - 1 - taken}} "
                     f"rejected, the last of {{h!r}} at u={{u!r}} on the way to u={{ut!r}}")
  un = u + h
  if (un + 0.01 * h - ut) * h >= 0.0: h = ut - u; un = ut
{step}
  err = abs(h) * e5 / ((e5 + 0.01 * e3) * {n!r} + 1e-300) ** 0.5
  if err != err:
   raise SolverError(f"non-finite state at u={{u!r}} while stepping")
  fac = 0.9 * (err + 1e-300) ** {exponent!r}
  if err <= 1.0:
   u = un; {z}, = {new},; taken += 1
{accept}
   if fac > grow: fac = grow
   grow = 10.0
  else:
   if fac < 0.2: fac = 0.2
   grow = 1.0
  h *= fac
  if abs(h) > abs(hmax): h = hmax"""


def _rows(tableau: str) -> list:
    """A tableau's lines as [node c, scale, weights] (see _RK4)."""
    return [line.split("; ") for line in tableau.replace("\n  ", " ").splitlines()]


def _gaps(rows: list) -> list:
    """The gaps between the distinct nodes of one step, over the step's length."""
    cs = sorted({0.0, 1.0}.union(float(c) for c, _, _ in rows if c))
    return [b - a for a, b in zip(cs, cs[1:])]


class LinearOperator(FrozenValue):
    """L = D^order + p_1 D^(order-1) + ... + p_order; empty coefficients mean L = D^order."""

    __slots__ = __match_args__ = ("order", "alpha", "coefficients")

    def __init__(self, order: int, alpha: Alpha, coefficients: tuple[ConformableFn, ...] = ()):
        if order < 1:
            raise ValueError(f"operator order must be >= 1, got {order}")
        if coefficients and len(coefficients) != order:
            raise ValueError(
                f"expected {order} coefficient functions, got {len(coefficients)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "coefficients", coefficients)


class IvpSpec(FrozenValue):
    """Forced problem L y = f with initial data D^i y(base_point), i < order."""

    __slots__ = __match_args__ = ("operator", "forcing", "base_point", "initial_values")

    def __init__(self, operator: LinearOperator, forcing: Optional[ConformableFn],
                 base_point: float, initial_values: tuple[float, ...]):
        if base_point < 0.0:
            raise ValueError(f"base point must be >= 0, got {base_point}")
        if len(initial_values) != operator.order:
            raise ValueError(
                f"expected {operator.order} initial values, got {len(initial_values)}")
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "forcing", forcing)
        object.__setattr__(self, "base_point", base_point)
        object.__setattr__(self, "initial_values", initial_values)


_STEPPER_CACHE_SIZE = 64


def _own_code(fn: ConformableFn) -> Optional[tuple]:
    """The compiled code of fn's tree (see expr._compiled) where fn
    evaluates through its point form and the code has a shape source, else
    None: plain callables and wrapped evaluators are called, never inlined."""
    e = fn.expr
    if e is None:
        return None
    code = e._code
    if type(code) is tuple and code[0] is fn._eval and code[2] is not None:
        return code
    return None


def _kernel_source(n: int, unit: bool, forced: bool, kinds: tuple, adaptive: bool) -> str:
    """Python source of kernel(z, u, ut, m, alpha, inv, *args): the state
    z = (y, D y, ..., D^(n-1) y) at u carried to ut in m RK4 steps, or
    where ``adaptive`` in DOP853 steps, at most m of them attempted.

    kinds holds one entry per function, the forcing first where ``forced``,
    then p_1..p_n: None for a function the kernel calls (its evaluator is
    one of args), or (shape source, reads t, literal count) for a tree
    evaluated inline, its literals among args.  At each node the kernel
    computes t(u), with u clamped at 0 (t = u where ``unit``, alpha 1),
    then each function in turn, a tree's arithmetic faults mapped as its
    point form maps them; a tree without t is evaluated once.  A step
    evaluates its new nodes, then its stages, a local per state component
    and a statement per p_i z[n - i], so a high order stays flat.  A step's
    last node is the next step's first; a step taken ends with the finite
    check.  An adaptive step is taken where DOP853's combined error
    estimate |h| e5^2 / sqrt(n (e5^2 + 0.01 e3^2)) is at most 1, e5 and e3
    the norms of its two estimates, component j over a + _RTOL (|z_j| +
    |new z_j|) / 2, with a = _RTOL _FLOOR sum |z_k| (plus _ATOL where
    forced): relative to the state, so a decaying homogeneous solution
    keeps its digits, and absolute only where forcing lifts a zero state.
    The step's slope at its end, the next step's first, is taken from the
    new state and the end node's values.  No step is longer than the widest
    gap between its nodes allows, so the nodes of a window are never
    sparser than the fixed route's are at MIN_STEPS steps, 1/32 of the
    window (a feature narrower than that can still fall between them); the
    first attempt is that longest step.  The next is 0.9 err^(-1/8) times
    as long, within [1/5, 10] times, at most 1 after a rejection.  A nan
    error estimate is a non-finite state.  SolverError, with the counts,
    ends more than m attempts, and, after a rejection, a step whose closest
    nodes lie within 1e-15 |u| of each other, where rounding blurs them and
    the error estimate is noise.  Where a step is held (no growth asked)
    past DOP853's stability bound by Hairer's estimate, h lambda =
    |h| |k - k'| / |z - z'| over the two stages at u + h above 6.1, and
    the rest of the window needs 32 times more steps of its size
    than attempts remain, the steps left are projected from the least such
    step at the rate the steps have grown since; where that is still 32
    times the attempts left, they are spent at once.  The margin keeps a
    stiffness that eases faster than that rate, such as (1 + u)^-2, from
    ending a pass the attempts would finish.
    """
    names = (["f"] if forced else []) + [f"p{i}" for i in range(1, len(kinds) + 1 - forced)]
    params = ["z", "u", "ut", "m", "alpha", "inv"]
    tableau = _rows(_DOP853 if adaptive else _RK4)
    end = "un" if adaptive else "u + h"  # the step's end, clipped to ut where adaptive
    rows = [(c and (end if c == "1" else f"u + {c} * h"), scale, weights)
            for c, scale, weights in tableau]
    # one label per distinct node in evaluation order, "0" the step's start
    labels = {at: str(k) for k, at in enumerate(
        dict.fromkeys(["u"] + [row[0] for row in rows if row[0]]))}
    evaluate = {label: [] for label in labels.values()}
    carried = []  # functions evaluated at every node: the end value is the next start value
    for name, kind in zip(names, kinds):
        if kind is None:
            params.append(name.upper())
            nodes = list(evaluate)
            for node in nodes:
                evaluate[node].append(f"{name}_{node} = {name.upper()}(t, alpha)")
        else:
            source, reads_t, literals = kind
            source = ex._prefixed(source, f"{name}_")
            params += [f"{name}_c{k}" for k in range(literals)]
            # a source that reads t gives a float already
            nodes, source = (list(evaluate), source) if reads_t else (["0"], f"float({source})")
            for node in nodes:
                evaluate[node] += ["try:", f" {name}_{node} = {source}",
                                   "except _FAULTS as exc:",
                                   " raise _domain_error(exc) from None"]
        if len(nodes) > 1:
            carried.append(name)

    def value(name: str, node: str) -> str:
        return f"{name}_{labels[node] if name in carried else '0'}"

    def at(node: str, indent: str) -> list:  # nothing where no function reads t
        lines = [f"t = {node}", "if t < 0.0:", " t = 0.0"]  # max(t, 0.0), -0.0 and nan kept
        if not unit:
            lines.append("t = pow(alpha * t, inv)")
        body = evaluate[labels[node]]
        return [indent + line for line in lines + body] if body else []

    ps = names[1:] if forced else names
    z = [f"z{j}" for j in range(n)]
    states = [z]

    def top(stage: int, node: str, indent: str) -> list:
        return [f"{indent}q{stage} = {value('f', node) if forced else '0.0'}"] + [
            f"{indent}q{stage} -= {value(p, node)} * {states[-1][n - i]}"
            for i, p in enumerate(ps, start=1)]

    def combination(weights: str, j: int) -> str:  # sum w k_i, component j
        terms = []
        for i, w in enumerate(weights.split(), start=1):
            k = states[i - 1][j + 1] if j < n - 1 else f"q{i}"
            terms += [] if w == "0" else [k] if w == "1" else [f"{w} * {k}"]
        return " + ".join(terms)

    first = top(1, "u", " ")  # the slope at the step's start, from its carried node values
    step = [line for node in list(labels)[1:] for line in at(node, "  ")]
    step += [] if adaptive else [" " + line for line in first]
    for stage, (node, scale, weights) in enumerate(rows, start=2):
        state = [f"s{stage}_{j}" for j in range(n)] if node or adaptive else z
        # without coefficients nothing reads an inner stage's first component;
        # ascending j reads RK4's k1[j] = z[j + 1] before z[j + 1] is updated
        lines = [f"  {state[j]} = z{j} + {scale} * ({combination(weights, j)})"
                 for j in range(0 if ps or stage > len(rows) else 1, n)]
        states.append(state)
        lines += top(stage, node, "  ") if node else []
        step += lines
    finish = [f"  if {' or '.join(f'{v} - {v}' for v in z)}:",  # nan (true) unless finite
              '   raise SolverError(f"non-finite state at u={u!r} while stepping")']
    finish += [f"  {name}_0 = {value(name, end)}" for name in carried]
    head = [f"def kernel({', '.join(params)}):", f" {', '.join(z)}, = z"] + at("u", " ")
    if not adaptive:
        return "\n".join(head + [" h = (ut - u) / m", " hh = 0.5 * h", " h6 = h / 6.0",
                                 " for _ in range(m):"] + step + ["  u += h"] + finish
                         + [f" return [{', '.join(z)}]"])
    atol = _ATOL if forced else 1e-300
    size = " + ".join(f"abs(z{j})" for j in range(n))
    step.append(f"  a = {atol!r} + {_RTOL * _FLOOR!r} * ({size})")
    e5, e3 = _rows(_DOP853_ERR)
    for j in range(n):
        step += [f"  sc = a + {_RTOL / 2!r} * (abs(z{j}) + abs({states[-1][j]}))",
                 f"  d = ({combination(e5[0], j)}) / sc; e5 {'+' if j else ''}= d * d",
                 f"  d = ({combination(e3[0], j)}) / sc; e3 {'+' if j else ''}= d * d"]
    finish += [" " + line for line in first]
    if ps:  # Hairer's h lambda from the two slopes at u + h: |h| |k - k'| / |z - z'|
        last = max(stage for stage, row in enumerate(rows, start=2) if row[0] == end)
        pairs = [(f"z{j}", f"s{last}_{j}") for j in range(n)]
        slopes = pairs[1:] + [("q1", f"q{last}")]
        finish += ["  if fac <= 1.0 and abs(ut - u) > abs(h) * 32.0 * (m - tries):",
                   "   num = den = 0.0"] + [
            f"   d = {k} - {k_}; num += d * d; d = {y} - {y_}; den += d * d"
            for (k, k_), (y, y_) in zip(slopes, pairs)]
        # past DOP853's stability bound, 6.1 (Hairer's), steps grow only as
        # the stiffness eases: from the least such step on, project the steps
        # left at the growth seen since, and spend the attempts where that is
        # 32 times more than remain: growth linear in u overestimates the
        # steps of a stiffness easing as (1 + u)^-k, R units of u from the
        # end, about (1 - 1/k) ln(k R / (1 + u)) times, under 32 for k R < 7e13
        finish += ["   if h * h * num > 37.21 * den:",
                   "    if abs(h) < held: held = abs(h); uh = u",
                   "    else:",
                   "     g = (abs(h) - held) / abs(u - uh); left = abs(ut - u) / abs(h)",
                   "     if (log(1.0 + g * left) / g if g else left) > 32.0 * (m - tries): m = tries"]
    # hmax: a step's widest node gap spans at most the fixed route's at MIN_STEPS
    gaps = _gaps(tableau)
    loop = _DOPRI_LOOP.format(first="\n".join(first), step="\n".join(step), n=float(n),
                              exponent=-1.0 / _DOP853_ORDER,
                              spacing=max(_gaps(_rows(_RK4))) / MIN_STEPS / max(gaps),
                              closest=min(gaps),
                              z=", ".join(z), new=", ".join(states[-1]),
                              accept="\n".join(" " + line for line in finish))
    return "\n".join(head + [loop, f" return [{', '.join(z)}]"])


@functools.lru_cache(maxsize=_STEPPER_CACHE_SIZE)
def _kernel(n: int, unit: bool, forced: bool, kinds: tuple, adaptive: bool) -> Callable:
    """The generated kernel of one method and operator shape (see _kernel_source)."""
    namespace: dict = {}
    exec(compile(_kernel_source(n, unit, forced, kinds, adaptive),
                 "<dopri>" if adaptive else "<rk4>", "exec"),
         dict(ex._EVAL_GLOBALS, SolverError=SolverError, range=range), namespace)
    return namespace["kernel"]


def _rk4_solve(op: LinearOperator, s: float, t: float, state: list[float],
               steps: Optional[int],
               forcing: Optional[ConformableFn] = None) -> list[float]:
    """Integrate L y = forcing (L y = 0 if None) in the u variable from u(s)
    to u(t), starting from ``state`` = (y, D y, ..., D^(n-1) y) at s; returns
    the state at t.  With ``steps`` None in adaptive Dormand-Prince 8(5,3)
    steps to a relative tolerance of 1e-12, raising SolverError where that
    takes more than MAX_DEFAULT_STEPS attempts or is projected to take far
    more; given ``steps``, in that many classical RK4 steps, the same floats on
    every run (the contract of --steps).  Nodes are evaluated one after
    another, at each the forcing, then p_1..p_n, and the steps before a
    failing node are taken, so a state gone non-finite before it raises
    first.  The name dates from when every pass was RK4; the benchmark's
    tracer counts passes under it.
    """
    a = op.alpha.value
    us = math.pow(s, a) / a
    ut = math.pow(t, a) / a
    if steps is None:
        if not math.isfinite(ut - us):  # an alpha within rounding of 0
            raise SolverError(f"cannot step from u={us!r} to u={ut!r}")
    elif steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}, got {steps}")
    kinds = []
    args = []
    for fn in ([forcing] if forcing is not None else []) + list(op.coefficients):
        code = _own_code(fn)
        if code is None:
            kinds.append(None)
            args.append(fn._eval)
        else:
            kinds.append((code[2], fn.expr.contains_t, len(code[3])))
            args += code[3]
    kernel = _kernel(op.order, a == 1.0, forcing is not None, tuple(kinds), steps is None)
    return kernel(state, us, ut, steps or MAX_DEFAULT_STEPS, a, 1.0 / a, *args)


def cauchy_function(op: LinearOperator, s: float, t: float,
                    steps: Optional[int] = None, method: str = "auto") -> float:
    """Two-parameter kernel y(t, s) for L y = 0.

    For fixed s it solves L y = 0 with D^i y(s) = 0 for i <= n-2 and
    D^(n-1) y(s) = 1.  Coefficient-free operators use the closed form;
    otherwise (or with method="rk4") the defining problem is integrated
    numerically in the u variable, adaptively unless ``steps`` is given.
    """
    if method not in ("auto", "closed", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    if min(s, t) < 0.0:
        raise ValueError("s and t must be >= 0")
    if method == "closed" or (method == "auto" and not op.coefficients):
        if method == "closed" and op.coefficients:
            raise ValueError("closed form only exists for coefficient-free operators")
        return cauchy_kernel(op.order, op.alpha, t, s)
    state = [0.0] * op.order
    state[op.order - 1] = 1.0
    return _rk4_solve(op, s, t, state, steps)[0]


_VOC_QUADRATURE = QuadratureConfig(abs_tol=None)


def solve_voc(spec: IvpSpec, t: float, steps: Optional[int] = None,
              cfg: Optional[QuadratureConfig] = None) -> float:
    """Variation-of-constants solution for zero initial data.

    y(t) = int_s^t y(t, tau) f(tau) tau^(alpha-1) dtau, with y(t, tau) the
    kernel of the operator.  Requires all initial values to be zero (use
    solve_full otherwise).  Without ``cfg`` the quadrature's absolute
    tolerance follows the integral's size below 1 (see _quad), so a tiny
    solution keeps its relative digits.
    """
    if any(v != 0.0 for v in spec.initial_values):
        raise ValueError("solve_voc requires zero initial values; use solve_full")
    if spec.forcing is None:
        return 0.0
    op = spec.operator
    a = op.alpha.value
    s = spec.base_point

    def integrand(tau: float, _alpha: float = a) -> float:
        return cauchy_function(op, tau, t, steps) * spec.forcing.value(tau, a)

    return frac_integral(ConformableFn(integrand), op.alpha, (s, t), cfg or _VOC_QUADRATURE)


def solve_full(spec: IvpSpec, t: float, steps: Optional[int] = None,
               cfg: Optional[QuadratureConfig] = None) -> float:
    """Solution of L y = f with the given initial data, at t.

    Operators with coefficients are integrated directly: one pass in u from
    the full initial data (adaptive unless ``steps`` is given, see
    _rk4_solve), with the forcing evaluated beside the coefficients at
    every step node, end points included.  A forcing that cannot be
    evaluated at a node (typically an integrable singularity at the base
    point, such as ln(t) from 0) falls back to the homogeneous pass plus
    the variation-of-constants integral (solve_voc), whose quadrature never
    samples the end points.  Coefficient-free operators take the exact
    fractional Taylor sum of the initial data (TaylorExpansion) as the
    homogeneous part and add solve_voc for the forcing.  ``cfg`` configures
    solve_voc's quadrature.
    """
    op = spec.operator
    s = spec.base_point
    init = list(spec.initial_values)
    if op.coefficients:
        try:
            return _rk4_solve(op, s, t, init, steps, spec.forcing)[0]
        except EvalDomainError:
            if spec.forcing is None:
                raise
        hom = _rk4_solve(op, s, t, init, steps)[0]
    else:
        hom = TaylorExpansion(s, op.order - 1, op.alpha, spec.initial_values).evaluate(t)
    if spec.forcing is None:
        return hom
    zero_spec = IvpSpec(op, spec.forcing, s, (0.0,) * op.order)
    return hom + solve_voc(zero_spec, t, steps, cfg)
