"""Fractional Taylor expansions, integral remainders, and remainder identities.

With z = (t^alpha - s^alpha)/alpha, the degree-n expansion of f around s is
sum_{k<=n} z^k D^k f(s) / k!, and the remainder after it has the exact
integral form  (1/n!) int_s^t ((t^a - tau^a)/a)^n D^{n+1} f(tau) d_a tau.
The remainder's two faces (value minus partial sum, and the weighted
integral) are both available here, together with the split and endpoint
identities that the inequality checkers build on.

Since D_alpha is d/du in u = t^alpha/alpha, D^k f(s)/k! are the Taylor
coefficients of f(t(u)) at u = s^alpha/alpha.  Away from 0 (centres s > 0
and the quadrature nodes of the remainder integrals) a symbolic f gets
them all from one truncated power-series pass over its expression tree,
with no derivative tree built or compiled.  At t = 0 the symbolic chain
with its limit handling is used, and plain callables keep finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .calculus import (Alpha, ConformableFn, Interval, QuadratureConfig,
                       _alpha_value, _float_factorials, _jet_coefficients,
                       frac_deriv_fn, frac_deriv_n, frac_integral)
from .errors import EvalDomainError

__all__ = [
    "TaylorExpansion", "EndpointIdentity", "cauchy_kernel", "expand",
    "taylor_poly", "taylor_remainder", "remainder_split_residual",
    "remainder_endpoint_integral", "binomial_identity_residual",
]

AlphaLike = Union[Alpha, float]


def cauchy_kernel(n: int, alpha: AlphaLike, t: float, s: float) -> float:
    """Closed-form kernel ((t^a - s^a)/a)^(n-1) / (n-1)! for D_alpha^n = 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if t < 0.0 or s < 0.0:
        raise ValueError("t and s must be >= 0")
    a = _alpha_value(alpha)
    z = (math.pow(t, a) - math.pow(s, a)) / a
    return z ** (n - 1) / math.factorial(n - 1)


@dataclass(frozen=True)
class TaylorExpansion:
    """Degree-n expansion data around a center point.

    coefficients[k] is D^k f evaluated at the center, so evaluating at the
    center returns coefficients[0] exactly (the k = 0 term uses 0^0 = 1).
    """

    center: float
    degree: int
    alpha: Alpha
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if len(self.coefficients) != self.degree + 1:
            raise ValueError("expected degree + 1 coefficients")

    def evaluate(self, t: float) -> float:
        a = self.alpha.value
        z = (math.pow(t, a) - math.pow(self.center, a)) / a
        total = 0.0
        zk = 1.0
        for k, c in enumerate(self.coefficients):
            if k > 0:
                zk *= z / k
            total += c * zk
        return total


def expand(f: ConformableFn, alpha: AlphaLike, n: int, s: float) -> TaylorExpansion:
    """Expansion of f to degree n around s: coefficients D^k f(s), k = 0..n.

    For a symbolic f at s > 0 every coefficient comes from one truncated
    power-series pass in u = t^alpha/alpha (O(n^2) per node of f's tree);
    at s = 0, and for a plain callable, each D^k f(s) is evaluated on its
    own (at 0: the symbolic chain with its limit handling).  A coefficient
    that overflows raises EvalDomainError.
    """
    a = Alpha(_alpha_value(alpha))
    if f.is_symbolic and s > 0.0:
        # a zero coefficient stays 0 where k! is inf
        coeffs = tuple(c * fact if c != 0.0 else c for c, fact in
                       zip(_jet_coefficients(f, a.value, n, s), _float_factorials(n)))
        if not all(map(math.isfinite, coeffs)):
            raise EvalDomainError(
                f"a derivative of order <= {n} at {s!r} overflows a float")
    else:
        coeffs = tuple(frac_deriv_n(f, a, k, s) for k in range(n + 1))
    return TaylorExpansion(center=s, degree=n, alpha=a, coefficients=coeffs)


def taylor_poly(f: ConformableFn, alpha: AlphaLike, n: int, s: float, t: float) -> float:
    """Value at t of the degree-n expansion of f around s."""
    return expand(f, alpha, n, s).evaluate(t)


def _scaled_derivative(f: ConformableFn, a: float, m: int) -> Callable[[float], float]:
    """tau -> D^m f(tau) / m!, the integrand factor of the remainder forms.

    A symbolic f takes it from a series pass at each tau > 0; a node that
    underflowed to tau = 0, and a plain callable, use frac_deriv_fn.
    """
    slow = None
    fact = _float_factorials(m)[m]

    def from_level(tau: float) -> float:
        nonlocal slow
        if slow is None:
            slow = frac_deriv_fn(f, m)
        return slow.value(tau, a) / fact

    if not f.is_symbolic:
        return from_level

    def from_series(tau: float) -> float:
        if tau == 0.0:
            return from_level(tau)
        return _jet_coefficients(f, a, m, tau)[m]

    return from_series


def taylor_remainder(f: ConformableFn, alpha: AlphaLike, n: int,
                     center: float, at: float,
                     cfg: Optional[QuadratureConfig] = None) -> float:
    """Remainder R_{n,f}(center, at) via its weighted-integral form.

    Argument order matters: the first point is the expansion center, the
    second the evaluation point.  n = -1 returns f(at) by definition.  The
    integrand is (n+1) c(tau) z^n with c = D^{n+1} f(tau)/(n+1)!; for a
    symbolic f, c comes from a series pass at each quadrature node tau > 0,
    so no derivative tree is built and no factorial can overflow.
    """
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    a = _alpha_value(alpha)
    if n == -1:
        return f.value(at, a)
    top = _scaled_derivative(f, a, n + 1)
    at_pow = math.pow(at, a)

    def integrand(tau: float, _alpha: float = a) -> float:
        z = (at_pow - math.pow(tau, a)) / a
        return (n + 1) * top(tau) * z ** n

    return frac_integral(ConformableFn(integrand), a, (center, at), cfg)


def _remainder_sum_form(f: ConformableFn, a: float, n: int, center: float):
    """R_{n,f}(center, .) as value minus partial sum; coefficients precomputed."""
    derivatives = expand(f, a, n, center).coefficients if n >= 0 else ()
    coeffs = [d / fact for d, fact in zip(derivatives, _float_factorials(n))]
    c_pow = math.pow(center, a)

    def rem(s: float) -> float:
        z = (math.pow(s, a) - c_pow) / a
        acc = f.value(s, a)
        zk = 1.0
        for k, c in enumerate(coeffs):
            if k > 0:
                zk *= z
            acc -= c * zk
        return acc

    return rem


def remainder_split_residual(f: ConformableFn, alpha: AlphaLike, n: int,
                             window: Interval, t: float,
                             cfg: Optional[QuadratureConfig] = None) -> float:
    """Residual of the split identity; approximately zero for valid inputs.

    Left side: int_a^b D^{n+1} f(s)/(n+1)! ((t^a - s^a)/a)^{n+1} d_a s.
    Right side: int_a^t R_{n,f}(a, s) d_a s + int_t^b R_{n,f}(b, s) d_a s.
    """
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    if not window.contains(t):
        raise ValueError(f"t={t} outside window [{window.a}, {window.b}]")
    a_val = _alpha_value(alpha)
    aa, bb = window.a, window.b

    top = _scaled_derivative(f, a_val, n + 1)
    t_pow = math.pow(t, a_val)

    def lhs_integrand(s: float, _alpha: float = a_val) -> float:
        z = (t_pow - math.pow(s, a_val)) / a_val
        return top(s) * z ** (n + 1)

    lhs = frac_integral(ConformableFn(lhs_integrand), a_val, (aa, bb), cfg)

    rem_a = _remainder_sum_form(f, a_val, n, aa)
    rem_b = _remainder_sum_form(f, a_val, n, bb)
    rhs = (frac_integral(ConformableFn(lambda s, _=0.0: rem_a(s)), a_val, (aa, t), cfg)
           + frac_integral(ConformableFn(lambda s, _=0.0: rem_b(s)), a_val, (t, bb), cfg))
    return lhs - rhs


@dataclass(frozen=True)
class EndpointIdentity:
    """Both sides of an endpoint remainder identity."""

    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return self.lhs - self.rhs

    @property
    def value(self) -> float:
        return 0.5 * (self.lhs + self.rhs)


def remainder_endpoint_integral(f: ConformableFn, alpha: AlphaLike, n: int,
                                window: Interval, which: str,
                                cfg: Optional[QuadratureConfig] = None) -> EndpointIdentity:
    """Endpoint identity with the kernel anchored at a ("at-a") or b ("at-b").

    "at-a":  int_a^b D^{n+1} f(s)/(n+1)! ((a^a - s^a)/a)^{n+1} d_a s
             equals int_a^b R_{n,f}(b, s) d_a s;
    "at-b":  the (b^a - s^a) kernel against int_a^b R_{n,f}(a, s) d_a s.
    """
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    if which not in ("at-a", "at-b"):
        raise ValueError(f"which must be 'at-a' or 'at-b', got {which!r}")
    a_val = _alpha_value(alpha)
    aa, bb = window.a, window.b
    anchor = aa if which == "at-a" else bb
    center = bb if which == "at-a" else aa

    top = _scaled_derivative(f, a_val, n + 1)
    anchor_pow = math.pow(anchor, a_val)

    def lhs_integrand(s: float, _alpha: float = a_val) -> float:
        z = (anchor_pow - math.pow(s, a_val)) / a_val
        return top(s) * z ** (n + 1)

    lhs = frac_integral(ConformableFn(lhs_integrand), a_val, (aa, bb), cfg)
    rem = _remainder_sum_form(f, a_val, n, center)
    rhs = frac_integral(ConformableFn(lambda s, _=0.0: rem(s)), a_val, (aa, bb), cfg)
    return EndpointIdentity(lhs=lhs, rhs=rhs)


def binomial_identity_residual(n: int, alpha: AlphaLike, t: float, s: float,
                               r: float) -> float:
    """Residual of the fractional binomial convolution identity.

    (1/n!) ((t^a - r^a)/a)^n  minus
    sum_k ((t^a - s^a)/a)^k ((s^a - r^a)/a)^(n-k) / (k! (n-k)!).

    Both sides are evaluated from the shared differences x = (t^a - s^a)/a
    and y = (s^a - r^a)/a (the left side as (x + y)^n/n!), with an exactly
    rounded summation, so the residual stays at rounding level.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if min(t, s, r) < 0.0:
        raise ValueError("t, s, r must be >= 0")
    a = _alpha_value(alpha)
    x = (math.pow(t, a) - math.pow(s, a)) / a
    y = (math.pow(s, a) - math.pow(r, a)) / a
    lhs = (x + y) ** n / math.factorial(n)
    terms = [x ** k * y ** (n - k) / (math.factorial(k) * math.factorial(n - k))
             for k in range(n + 1)]
    return lhs - math.fsum(terms)
