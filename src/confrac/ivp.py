"""Linear conformable initial value problems.

The operator is L y = D^n y + sum_i p_i D^{n-i} y with continuous
coefficients.  Under the substitution u = t^alpha/alpha the conformable
derivative becomes d/du exactly, so L y = f is the classical linear system
z' = A(u) z + f(t(u)) e_n in the state z = (y, D y, ..., D^{n-1} y), which
one fixed-step RK4 pass in u integrates from the initial data.  The pass
goes in chunks of steps: the forcing and each coefficient are evaluated
once per chunk as a batch, and a stepper compiled once per order, with one
local per state component, advances the state over the chunk.  The
coefficient-free case has the closed-form kernel
((t^a - s^a)/a)^(n-1)/(n-1)!: its homogeneous part is the exact fractional
Taylor sum and its forced part the variation-of-constants integral
(solve_voc), which also serves as an independent check of the direct solve.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

from ._value import FrozenValue
from .calculus import (Alpha, ConformableFn, QuadratureConfig, frac_integral)
from .errors import EvalDomainError, SolverError
from .taylor import cauchy_kernel

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


# steps advanced per batch of node evaluations: the node values of one chunk
# are all that is held, so memory stays bounded however many steps a solve takes
_CHUNK_STEPS = 256
_STEPPER_CACHE_SIZE = 64
_ZEROS = (0.0,) * (2 * _CHUNK_STEPS + 1)  # the forcing of L y = 0 at a chunk's nodes


def _stepper_source(n: int, coefficients: bool) -> str:
    """Python source of step(z, h, ends, f, ps): the RK4 steps of one chunk.

    f holds the forcing and ps[i - 1] the coefficient p_i at the chunk's
    nodes u, u + h/2, u + h, ...; ends holds the u reached by each step.
    Every state component is its own local, the top component of each stage
    subtracts p_i z[n - i] one statement at a time, and every step ends with
    the finite check, so a high order stays a flat sequence of statements.
    """
    ps = [f"p{i}" for i in range(1, n + 1)] if coefficients else []
    columns = ["f"] + ps
    z = [f"z{j}" for j in range(n)]
    lines = ["def step(z, h, ends, f, ps):",
             f" {', '.join(z)}, = z",
             " hh = 0.5 * h",
             " h6 = h / 6.0"]
    if ps:
        lines.append(f" {', '.join(ps)}, = ps")
    # per step: each column at the step's start (_0), midpoint (_m) and end (_1)
    lines.append(f" for {', '.join(f'{c}_{k}' for c in columns for k in '0m1')}, u in zip("
                 f"{', '.join(f'{c}[{i}::2]' for c in columns for i in range(3))}, ends):")
    ks = []
    state = z
    for stage, (node, scale, nxt) in enumerate(
            (("0", "hh", "y"), ("m", "hh", "w"), ("m", "h", "x"), ("1", None, None)), start=1):
        top = f"q{stage}"
        lines.append(f"  {top} = f_{node}")
        lines += [f"  {top} -= {p}_{node} * {state[n - i]}" for i, p in enumerate(ps, start=1)]
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
    lines.append(f" return [{', '.join(z)}]")
    return "\n".join(lines)


@functools.lru_cache(maxsize=_STEPPER_CACHE_SIZE)
def _stepper(n: int, coefficients: bool) -> Callable:
    """The generated chunk stepper of an order-n operator (see _stepper_source)."""
    namespace: dict = {}
    exec(compile(_stepper_source(n, coefficients), "<rk4>", "exec"),
         {"SolverError": SolverError}, namespace)
    return namespace["step"]


def _node_time(u: float, a: float, inv: float) -> float:
    # stepping back to t = 0 can overshoot u = 0 by a rounding error
    u = max(u, 0.0)
    return math.pow(a * u, inv) if a != 1.0 else u


def _first_fault(fns: list, us: list, a: float, inv: float):
    """Evaluate fns at t(u) for u in us point by point, node after node and
    in the order of fns at each node; return the columns of values up to the
    first fault, the index of the failing node (None if none fails) and its
    exception."""
    cols = [[] for _ in fns]
    for j, u in enumerate(us):
        try:
            tv = _node_time(u, a, inv)
            row = [fn.value(tv, a) for fn in fns]
        except Exception as exc:  # re-raised by the caller once it has stepped
            return cols, j, exc
        for col, v in zip(cols, row):
            col.append(v)
    return cols, None, None


def _rk4_solve(op: LinearOperator, s: float, t: float, state: list[float],
               steps: Optional[int],
               forcing: Optional[ConformableFn] = None) -> list[float]:
    """Integrate L y = forcing (L y = 0 if None) in the u variable from u(s)
    to u(t), starting from ``state`` = (y, D y, ..., D^(n-1) y) at s; returns
    the state at t.

    An RK4 step samples only u and u + h/2 (k2 and k3 share it, and k4's
    u + h is the next step's k1), so the coefficients and the forcing are
    evaluated once per distinct node: 2m + 1 times over m steps.  The steps
    go in chunks of _CHUNK_STEPS: each function is evaluated once per chunk
    through ConformableFn.values (the chunk's first node is the last one's
    end), then a stepper generated once per order advances the state over
    the chunk with the arithmetic of one step at a time.  Where a batch
    fails, the chunk is evaluated again point by point in the order of a
    step-by-step loop (the forcing, then p_1..p_n, at each node), the steps
    whose nodes come before the first fault are taken, and that fault is
    raised: values and errors are those of the step-by-step loop.
    """
    a = op.alpha.value
    us = math.pow(s, a) / a
    ut = math.pow(t, a) / a
    m = _step_count(us, ut, steps)
    h = (ut - us) / m
    hh = 0.5 * h
    inv = 1.0 / a
    fns = ([forcing] if forcing is not None else []) + list(op.coefficients)
    pow_ = math.pow
    z = list(state)
    u = us
    tv = _node_time(u, a, inv)
    last = [fn.value(tv, a) for fn in fns]
    step = _stepper(op.order, bool(op.coefficients))
    for first in range(0, m, _CHUNK_STEPS):
        nodes = []  # u + h/2 and u + h of each step of the chunk
        for _ in range(min(_CHUNK_STEPS, m - first)):
            nodes.append(u + hh)
            u += h
            nodes.append(u)
        try:
            ts = nodes if min(nodes) >= 0.0 else [max(v, 0.0) for v in nodes]
            if a != 1.0:
                ts = [pow_(a * v, inv) for v in ts]
            cols = [fn.values(ts, a) for fn in fns]
            fault = None
        except Exception:
            cols, j, fault = _first_fault(fns, nodes, a, inv)
        cols = [[v] + col for v, col in zip(last, cols)]
        fs, ps = (cols[0], cols[1:]) if forcing is not None else (_ZEROS, cols)
        if fault is not None:
            # the steps whose nodes all precede the failing one (nodes[j]),
            # so that a state gone non-finite before it raises first
            step(z, h, nodes[1:j:2], fs, ps)
            raise fault
        z = step(z, h, nodes[1::2], fs, ps)
        last = [col[-1] for col in cols]
    return z


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
    fractional Taylor sum as the homogeneous part and add solve_voc for the
    forcing.  ``cfg`` configures solve_voc's quadrature.
    """
    op = spec.operator
    a = op.alpha.value
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
        z = (math.pow(t, a) - math.pow(s, a)) / a
        hom = 0.0
        zk = 1.0
        for k, v in enumerate(init):
            if k > 0:
                zk *= z / k
            hom += v * zk
    if spec.forcing is None:
        return hom
    zero_spec = IvpSpec(op, spec.forcing, s, (0.0,) * op.order)
    return hom + solve_voc(zero_spec, t, steps, cfg)
