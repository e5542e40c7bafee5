"""Linear conformable initial value problems.

The operator is L y = D^n y + sum_i p_i D^{n-i} y with continuous
coefficients.  Under the substitution u = t^alpha/alpha the conformable
derivative becomes d/du exactly, so L y = f is the classical linear system
z' = A(u) z + f(t(u)) e_n in the state z = (y, D y, ..., D^{n-1} y), which
one pass in u integrates from the initial data: by default in adaptive
Dormand-Prince 5(4) steps under an error estimate, or, given a step count,
in that many fixed classical RK4 steps.  The pass is one generated kernel
per method and operator shape.  The coefficient-free case has the
closed-form kernel ((t^a - s^a)/a)^(n-1)/(n-1)!: its homogeneous part is
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
MAX_DEFAULT_STEPS = 150_000  # attempted adaptive steps: 0.2-0.6 s at orders 1-2
_RTOL, _ATOL, _FLOOR = 1e-12, 1e-14, 1e-2
# a method's stages after the first, one a line: node; scale; the weights on
# k_1, k_2, ... ("1" alone, "p/q" the float p / q) of the stage's state
# z + scale * sum w k.  RK4's last line, with no node, updates z.  Dormand
# and Prince (1980): the last stage is the step's fifth-order end, and the
# next step's first (FSAL); _DOPRI_ERR holds b - b*, the error estimate.
_RK4 = """u + hh; hh; 1
u + hh; hh; 0 1
u + h; h; 0 0 1
; h6; 1 2.0 2.0 1"""
_DOPRI = """u + 0.2 * h; h; 1/5
u + 0.3 * h; h; 3/40 9/40
u + 0.8 * h; h; 44/45 -56/15 32/9
u + 0.8888888888888888 * h; h; 19372/6561 -25360/2187 64448/6561 -212/729
un; h; 9017/3168 -355/33 46732/5247 49/176 -5103/18656
un; h; 35/384 0 500/1113 125/192 -2187/6784 11/84"""
_DOPRI_ERR = "71/57600 0 -71/16695 71/1920 -17253/339200 22/525 -1/40"
_DOPRI_LOOP = """\
 w = ut - u; hmax = w / {min_steps}; tries = taken = 0; grow = 10.0
{first}
 if w:
{start}
 while u != ut:
  tries += 1
  if tries > m or grow == 1.0 and abs(h) <= 1e-15 * (abs(u) + abs(w)):
   raise SolverError(f"step error above tolerance: {{taken}} steps taken, {{tries - 1 - taken}} "
                     f"rejected, the last of {{h!r}} at u={{u!r}} on the way to u={{ut!r}}")
  un = u + h
  if (un + 0.01 * h - ut) * h >= 0.0: h = ut - u; un = ut
{step}
  if err != err:
   raise SolverError(f"non-finite state at u={{u!r}} while stepping")
  fac = 0.9 * (err / {n} + 1e-300) ** -0.1
  if err <= {n}:
   u = un; {z}, = {new},; q1 = q7; taken += 1
{accept}
   if fac > grow: fac = grow
   grow = 10.0
  else:
   if fac < 0.2: fac = 0.2
   grow = 1.0
  h *= fac
  if abs(h) > abs(hmax): h = hmax"""


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
    where ``adaptive`` in Dormand-Prince steps, at most m of them attempted.

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
    check.  An adaptive step is taken where the RMS of its error estimate,
    component j over a + _RTOL (|z_j| + |new z_j|) / 2, is at most 1, with
    a = _RTOL _FLOOR sum |z_k| (plus _ATOL where forced): relative to the
    state, so a decaying homogeneous solution keeps its digits, and
    absolute only where forcing lifts a zero state.  The next attempt is
    0.9 err^(-1/5) times as long, within [1/5, 10] times, at most 1 after a
    rejection; the first is Hairer's estimate from the slopes at u and
    u + h0 (Hairer, Norsett and Wanner, Solving ODEs I, II.4), and no step
    exceeds 1/MIN_STEPS of the window, so the nodes of a window are never
    sparser than the fixed route's minimum (a feature narrower than that
    spacing can still fall between them).  A nan error estimate is a
    non-finite state; more than m attempts, or a step below 1e-15 (|u| +
    window) after a rejection, raise SolverError with the counts.
    """
    names = (["f"] if forced else []) + [f"p{i}" for i in range(1, len(kinds) + 1 - forced)]
    params = ["z", "u", "ut", "m", "alpha", "inv"]
    rows = [line.split("; ") for line in (_DOPRI if adaptive else _RK4).splitlines()]
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
            if "/" in w:
                num, den = w.split("/")
                w = repr(int(num) / int(den))
            k = states[i - 1][j + 1] if j < n - 1 else f"q{i}"
            terms += [] if w == "0" else [k] if w == "1" else [f"{w} * {k}"]
        return " + ".join(terms)

    first = top(1, "u", " ")  # before the adaptive loop, then carried (FSAL)
    step = [line for node in list(labels)[1:] for line in at(node, "  ")]
    step += [] if adaptive else [" " + line for line in first]
    for stage, (node, scale, weights) in enumerate(rows, start=2):
        state = [f"s{stage}_{j}" for j in range(n)] if node else z
        # without coefficients nothing reads an inner stage's first component;
        # ascending j reads RK4's k1[j] = z[j + 1] before z[j + 1] is updated
        lines = [f"  {state[j]} = z{j} + {scale} * ({combination(weights, j)})"
                 for j in range(0 if ps or stage > len(rows) else 1, n)]
        states.append(state)
        lines += top(stage, node, "  ") if node else []
        step += lines
        if stage == 2:  # Dormand-Prince's k_2 at h = 5 h0 is the slope at u + h0 past z + h0 k_1
            probe = at(node, "  ") + lines
    finish = [f"  if {' or '.join(f'{v} - {v}' for v in z)}:",  # nan (true) unless finite
              '   raise SolverError(f"non-finite state at u={u!r} while stepping")']
    finish += [f"  {name}_0 = {value(name, rows[-1][0] or 'u + h')}" for name in carried]
    head = [f"def kernel({', '.join(params)}):", f" {', '.join(z)}, = z"] + at("u", " ")
    if not adaptive:
        return "\n".join(head + [" h = (ut - u) / m", " hh = 0.5 * h", " h6 = h / 6.0",
                                 " for _ in range(m):"] + step + ["  u += h"] + finish
                         + [f" return [{', '.join(z)}]"])
    atol = _ATOL if forced else 1e-300
    size = " + ".join(f"abs(z{j})" for j in range(n))
    step.append(f"  a = {atol!r} + {_RTOL * _FLOOR!r} * ({size})")
    for j in range(n):
        step += [f"  d = h * ({combination(_DOPRI_ERR, j)}) / "
                 f"(a + {_RTOL / 2!r} * (abs(z{j}) + abs({states[-1][j]})))",
                 "  err += d * d" if j else "  err = d * d"]
    slopes = [(f"z{j + 1}", f"s2_{j + 1}") for j in range(n - 1)] + [("q1", "q2")]
    start = ["  d0 = d1 = d2 = 0.0", f"  a = {atol!r} + {_RTOL * _FLOOR!r} * ({size})"] + [
        f"  sc{j} = a + {_RTOL!r} * abs(z{j}); d = z{j} / sc{j}; d0 += d * d; "
        f"d = {k1} / sc{j}; d1 += d * d" for j, (k1, _) in enumerate(slopes)]
    start += [f"  h = min(0.01 * (d0 / d1) ** 0.5 if d0 > {1e-10 * n!r} and d1 > {1e-10 * n!r} "
              "else 1e-6 * abs(w), abs(hmax))",
              "  h0 = h if w > 0 else -h; h = 5.0 * h0"] + probe
    start += [f"  d = ({k2} - {k1}) / sc{j}; d2 += d * d" for j, (k1, k2) in enumerate(slopes)]
    start += [f"  d = max(d1, d2 / (h0 * h0 + 1e-300)) / {float(n)!r}",
              "  h = min(100.0 * abs(h0), (1e-4 / d) ** 0.1 if d > 1e-30 else "
              "max(1e-6 * abs(w), 1e-3 * abs(h0)), abs(hmax))",
              "  if w < 0: h = -h"]
    loop = _DOPRI_LOOP.format(first="\n".join(first), step="\n".join(step), n=float(n),
                              start="\n".join(start), min_steps=MIN_STEPS,
                              z=", ".join(z), new=", ".join(states[-1]),
                              accept="\n".join(" " + line for line in finish))
    return "\n".join(head + [loop, f" return [{', '.join(z)}]"])


@functools.lru_cache(maxsize=_STEPPER_CACHE_SIZE)
def _kernel(n: int, unit: bool, forced: bool, kinds: tuple, adaptive: bool) -> Callable:
    """The generated kernel of one method and operator shape (see _kernel_source)."""
    namespace: dict = {}
    exec(compile(_kernel_source(n, unit, forced, kinds, adaptive),
                 "<dopri>" if adaptive else "<rk4>", "exec"),
         dict(ex._EVAL_GLOBALS, SolverError=SolverError, range=range, min=min, max=max), namespace)
    return namespace["kernel"]


def _rk4_solve(op: LinearOperator, s: float, t: float, state: list[float],
               steps: Optional[int],
               forcing: Optional[ConformableFn] = None) -> list[float]:
    """Integrate L y = forcing (L y = 0 if None) in the u variable from u(s)
    to u(t), starting from ``state`` = (y, D y, ..., D^(n-1) y) at s; returns
    the state at t.  With ``steps`` None in adaptive Dormand-Prince 5(4)
    steps to a relative tolerance of 1e-12, raising SolverError where that
    takes more than MAX_DEFAULT_STEPS attempts; given ``steps``, in that
    many classical RK4 steps, the same floats on every run (the contract of
    --steps).  Nodes are evaluated one after another, at each the forcing,
    then p_1..p_n, and the steps before a failing node are taken, so a
    state gone non-finite before it raises first.  The name dates from when
    every pass was RK4; the benchmark's tracer counts passes under it.
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
