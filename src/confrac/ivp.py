"""Linear conformable initial value problems.

The operator is L y = D^n y + sum_i p_i D^{n-i} y with continuous
coefficients.  Under the substitution u = t^alpha/alpha the conformable
derivative becomes d/du exactly, so L y = f is the classical linear system
z' = A(u) z + f(t(u)) e_n in the state z = (y, D y, ..., D^{n-1} y), which
one fixed-step RK4 pass in u integrates from the initial data.  The pass
is one generated kernel per operator shape (the order, whether alpha is 1,
and the compiled shape of the forcing and of each coefficient): it takes
every step with one local per state component and the functions evaluated
inline at each node, and calls only the evaluators that are not a tree's
own compiled code.  The coefficient-free case has the closed-form kernel
((t^a - s^a)/a)^(n-1)/(n-1)!: its homogeneous part is the exact fractional
Taylor sum and its forced part the variation-of-constants integral
(solve_voc), which also serves as an independent check of the direct solve.
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

STEPS_PER_UNIT = 512
MIN_STEPS = 16
# u = t^alpha/alpha grows as 1/alpha: alpha 1e-4 over [0, 4] would take 5.1
# million default steps (8 s); explicit steps are the caller's choice
MAX_DEFAULT_STEPS = 2 ** 20


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


def _step_count(us: float, ut: float, steps: Optional[int]) -> int:
    if steps is not None:
        if steps < MIN_STEPS:
            raise ValueError(f"steps must be >= {MIN_STEPS}, got {steps}")
        return steps
    count = STEPS_PER_UNIT * abs(ut - us)
    if not math.isfinite(count):  # an alpha within rounding of 0
        raise SolverError(f"cannot step from u={us!r} to u={ut!r}")
    if count > MAX_DEFAULT_STEPS:
        raise SolverError(f"stepping from u={us!r} to u={ut!r} takes {math.ceil(count)} steps "
                          f"by default, more than {MAX_DEFAULT_STEPS}; pass steps (--steps)")
    return max(64, math.ceil(count))


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


def _kernel_source(n: int, unit: bool, forced: bool, kinds: tuple) -> str:
    """Python source of kernel(z, u, h, m, alpha, inv, *args): m RK4 steps
    of size h in u from u, the state z = (y, D y, ..., D^(n-1) y).

    kinds holds one entry per function, the forcing first where ``forced``,
    then p_1..p_n: None for a function the kernel calls (its evaluator is
    one of args), or (shape source, reads t, literal count) for a tree
    evaluated inline, its literals among args.  At each node the kernel
    computes t(u), with u clamped at 0 (t = u where ``unit``, alpha 1),
    then each function in turn, a tree's arithmetic faults mapped as its
    point form maps them; a tree without t is evaluated once, at the first
    node.  Every state component is its own local, the top component of
    each stage subtracts p_i z[n - i] one statement at a time, every step
    ends with the finite check, and the end node's values are the next
    step's first, so a high order stays a flat sequence of statements.
    """
    names = (["f"] if forced else []) + [f"p{i}" for i in range(1, len(kinds) + 1 - forced)]
    params = ["z", "u", "h", "m", "alpha", "inv"]
    evaluate = {"0": [], "m": [], "1": []}  # statements at a step's start, midpoint, end
    carried = []  # functions evaluated at every node: the end value is the next start value
    for name, kind in zip(names, kinds):
        if kind is None:
            params.append(name.upper())
            nodes = "0m1"
            for node in nodes:
                evaluate[node].append(f"{name}_{node} = {name.upper()}(t, alpha)")
        else:
            source, reads_t, literals = kind
            source = ex._prefixed(source, f"{name}_")
            params += [f"{name}_c{k}" for k in range(literals)]
            # a source that reads t gives a float already
            nodes, source = ("0m1", source) if reads_t else ("0", f"float({source})")
            for node in nodes:
                evaluate[node] += ["try:", f" {name}_{node} = {source}",
                                   "except _FAULTS as exc:",
                                   " raise _domain_error(exc) from None"]
        if len(nodes) > 1:
            carried.append(name)

    def value(name: str, node: str) -> str:
        return f"{name}_{node if name in carried else '0'}"

    def node_time(at: str, indent: str) -> list:
        lines = [f"t = {at}", "if t < 0.0:", " t = 0.0"]  # max(t, 0.0), -0.0 and nan kept
        if not unit:
            lines.append("t = pow(alpha * t, inv)")
        return [indent + line for line in lines]

    def at(node: str, indent: str) -> list:
        return [indent + line for line in evaluate[node]]

    z = [f"z{j}" for j in range(n)]
    lines = [f"def kernel({', '.join(params)}):",
             f" {', '.join(z)}, = z",
             " hh = 0.5 * h",
             " h6 = h / 6.0"]
    lines += node_time("u", " ") + at("0", " ")
    lines.append(" for _ in range(m):")
    lines += node_time("u + hh", "  ") + at("m", "  ")
    lines.append("  u += h")
    lines += node_time("u", "  ") + at("1", "  ")
    ps = names[1:] if forced else names
    ks = []
    state = z
    for stage, (node, scale, nxt) in enumerate(
            (("0", "hh", "y"), ("m", "hh", "w"), ("m", "h", "x"), ("1", None, None)), start=1):
        top = f"q{stage}"
        lines.append(f"  {top} = {value('f', node) if forced else '0.0'}")
        lines += [f"  {top} -= {value(p, node)} * {state[n - i]}"
                  for i, p in enumerate(ps, start=1)]
        k = state[1:] + [top]
        ks.append(k)
        if nxt is not None:
            state = [f"{nxt}{j}" for j in range(n)]
            # without coefficients nothing reads a stage's first component
            lines += [f"  {state[j]} = z{j} + {scale} * {k[j]}"
                      for j in range(0 if ps else 1, n)]
    # ascending j reads k1[j] = z[j + 1] before z[j + 1] is updated
    lines += [f"  z{j} = z{j} + h6 * ({ks[0][j]} + 2.0 * {ks[1][j]} + 2.0 * {ks[2][j]}"
              f" + {ks[3][j]})" for j in range(n)]
    # x - x is 0.0 for a finite x and nan (true) for an infinite or nan one
    lines.append(f"  if {' or '.join(f'{v} - {v}' for v in z)}:")
    lines.append('   raise SolverError(f"non-finite state at u={u!r} while stepping")')
    lines += [f"  {name}_0 = {name}_1" for name in carried]
    lines.append(f" return [{', '.join(z)}]")
    return "\n".join(lines)


@functools.lru_cache(maxsize=_STEPPER_CACHE_SIZE)
def _kernel(n: int, unit: bool, forced: bool, kinds: tuple) -> Callable:
    """The generated RK4 kernel of one operator shape (see _kernel_source)."""
    namespace: dict = {}
    exec(compile(_kernel_source(n, unit, forced, kinds), "<rk4>", "exec"),
         dict(ex._EVAL_GLOBALS, SolverError=SolverError, range=range), namespace)
    return namespace["kernel"]


def _rk4_solve(op: LinearOperator, s: float, t: float, state: list[float],
               steps: Optional[int],
               forcing: Optional[ConformableFn] = None) -> list[float]:
    """Integrate L y = forcing (L y = 0 if None) in the u variable from u(s)
    to u(t), starting from ``state`` = (y, D y, ..., D^(n-1) y) at s; returns
    the state at t.

    An RK4 step samples only u and u + h/2 (k2 and k3 share it, and k4's
    u + h is the next step's k1), so the coefficients and the forcing are
    evaluated once per distinct node: 2m + 1 times over m steps, node after
    node and at each node the forcing, then p_1..p_n.  One kernel, generated
    once per operator shape (the order, whether alpha is 1, and for each
    function its compiled shape, or that it is called), takes all the steps:
    the values and errors are those of a step-by-step loop, and the steps
    before a failing node are taken, so a state gone non-finite before it
    raises first.
    """
    a = op.alpha.value
    us = math.pow(s, a) / a
    ut = math.pow(t, a) / a
    m = _step_count(us, ut, steps)
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
    kernel = _kernel(op.order, a == 1.0, forcing is not None, tuple(kinds))
    return kernel(state, us, (ut - us) / m, m, a, 1.0 / a, *args)


def cauchy_function(op: LinearOperator, s: float, t: float,
                    steps: Optional[int] = None, method: str = "auto") -> float:
    """Two-parameter kernel y(t, s) for L y = 0.

    For fixed s it solves L y = 0 with D^i y(s) = 0 for i <= n-2 and
    D^(n-1) y(s) = 1.  Coefficient-free operators use the closed form;
    otherwise (or with method="rk4") the defining problem is integrated
    numerically in the u variable.
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


def solve_voc(spec: IvpSpec, t: float, steps: Optional[int] = None,
              cfg: Optional[QuadratureConfig] = None) -> float:
    """Variation-of-constants solution for zero initial data.

    y(t) = int_s^t y(t, tau) f(tau) tau^(alpha-1) dtau, with y(t, tau) the
    kernel of the operator.  Requires all initial values to be zero (use
    solve_full otherwise).
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

    return frac_integral(ConformableFn(integrand), op.alpha, (s, t), cfg)


def solve_full(spec: IvpSpec, t: float, steps: Optional[int] = None,
               cfg: Optional[QuadratureConfig] = None) -> float:
    """Solution of L y = f with the given initial data, at t.

    Operators with coefficients are integrated directly: one RK4 pass in u
    from the full initial data, with the forcing evaluated beside the
    coefficients at every step node, end points included.  A forcing that
    cannot be evaluated at a node (typically an integrable singularity at
    the base point, such as ln(t) from 0) falls back to the homogeneous pass
    plus the variation-of-constants integral (solve_voc), whose quadrature
    never samples the end points.  Coefficient-free operators take the exact
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
