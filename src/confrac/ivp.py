"""Linear conformable initial value problems.

The operator is L y = D^n y + sum_i p_i D^{n-i} y with continuous
coefficients.  Under the substitution u = t^alpha/alpha the conformable
derivative becomes d/du exactly, so L y = f is the classical linear system
z' = A(u) z + f(t(u)) e_n in the state z = (y, D y, ..., D^{n-1} y), which
one fixed-step RK4 pass in u integrates from the initial data.  The
coefficient-free case has the closed-form kernel
((t^a - s^a)/a)^(n-1)/(n-1)!: its homogeneous part is the exact fractional
Taylor sum and its forced part the variation-of-constants integral
(solve_voc), which also serves as an independent check of the direct solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .calculus import (Alpha, ConformableFn, QuadratureConfig, frac_integral)
from .errors import EvalDomainError, SolverError
from .taylor import cauchy_kernel

__all__ = ["LinearOperator", "IvpSpec", "cauchy_function", "solve_voc", "solve_full"]

STEPS_PER_UNIT = 512
MIN_STEPS = 16


@dataclass(frozen=True)
class LinearOperator:
    """L = D^order + p_1 D^(order-1) + ... + p_order; empty coefficients mean L = D^order."""

    order: int
    alpha: Alpha
    coefficients: tuple[ConformableFn, ...] = ()

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"operator order must be >= 1, got {self.order}")
        if self.coefficients and len(self.coefficients) != self.order:
            raise ValueError(
                f"expected {self.order} coefficient functions, got {len(self.coefficients)}")


@dataclass(frozen=True)
class IvpSpec:
    """Forced problem L y = f with initial data D^i y(base_point), i < order."""

    operator: LinearOperator
    forcing: Optional[ConformableFn]
    base_point: float
    initial_values: tuple[float, ...]

    def __post_init__(self):
        if self.base_point < 0.0:
            raise ValueError(f"base point must be >= 0, got {self.base_point}")
        if len(self.initial_values) != self.operator.order:
            raise ValueError(
                f"expected {self.operator.order} initial values, got {len(self.initial_values)}")


def _step_count(us: float, ut: float, steps: Optional[int]) -> int:
    if steps is not None:
        if steps < MIN_STEPS:
            raise ValueError(f"steps must be >= {MIN_STEPS}, got {steps}")
        return steps
    return max(64, math.ceil(STEPS_PER_UNIT * abs(ut - us)))


def _rk4_solve(op: LinearOperator, s: float, t: float, state: list[float],
               steps: Optional[int],
               forcing: Optional[ConformableFn] = None) -> list[float]:
    """Integrate L y = forcing (L y = 0 if None) in the u variable from u(s)
    to u(t), starting from ``state`` = (y, D y, ..., D^(n-1) y) at s; returns
    the state at t.

    An RK4 step samples only u and u + h/2 (k2 and k3 share it, and k4's
    u + h is the next step's k1), so the coefficients and the forcing are
    evaluated once per distinct node: 2m + 1 times over m steps.
    """
    a = op.alpha.value
    n = op.order
    us = math.pow(s, a) / a
    ut = math.pow(t, a) / a
    m = _step_count(us, ut, steps)
    h = (ut - us) / m
    inv = 1.0 / a
    coefficients = [p.value for p in op.coefficients]
    f = forcing.value if forcing is not None else None

    def node(u: float) -> tuple[float, list[float]]:
        """Forcing and coefficient values at t(u)."""
        # stepping back to t = 0 can overshoot u = 0 by a rounding error
        u = max(u, 0.0)
        tv = math.pow(a * u, inv) if a != 1.0 else u
        return (0.0 if f is None else f(tv, a)), [p(tv, a) for p in coefficients]

    def rhs(at: tuple[float, list[float]], z: list[float]) -> list[float]:
        top, ps = at
        for i, p in enumerate(ps, start=1):
            top -= p * z[n - i]
        dz = z[1:]
        dz.append(top)
        return dz

    z = list(state)
    u = us
    at_u = node(u)
    for _ in range(m):
        at_mid = node(u + 0.5 * h)
        at_end = node(u + h)
        k1 = rhs(at_u, z)
        k2 = rhs(at_mid, [z[j] + 0.5 * h * k1[j] for j in range(n)])
        k3 = rhs(at_mid, [z[j] + 0.5 * h * k2[j] for j in range(n)])
        k4 = rhs(at_end, [z[j] + h * k3[j] for j in range(n)])
        z = [z[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
             for j in range(n)]
        u += h
        at_u = at_end
        if not all(math.isfinite(v) for v in z):
            raise SolverError(f"non-finite state at u={u!r} while stepping")
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
