"""Fractional Taylor expansions, integral remainders, and remainder identities.

With z = (t^alpha - s^alpha)/alpha, the degree-n expansion of f around s is
sum_{k<=n} z^k D^k f(s) / k!, and the remainder after it has the exact
integral form  (1/n!) int_s^t ((t^a - tau^a)/a)^n D^{n+1} f(tau) d_a tau.
The remainder's two faces (value minus partial sum, and the weighted
integral) are both available here, together with the split and endpoint
identities that the inequality checkers build on.

Since D_alpha is d/du in u = t^alpha/alpha, D^k f(s)/k! are the Taylor
coefficients of f(t(u)) at u = s^alpha/alpha.  A symbolic f gets them
from its series (calculus._derivatives at a centre, calculus._top and
_tops at the quadrature nodes of the remainder integrals), with no
derivative tree built.  Where no such series exists they come from
frac_deriv_n order by order, as for plain callables: at t > 0 it raises
EvalDomainError there, and at 0 (t^c with c/alpha not a whole number and
at most the order, for instance, since t = (alpha u)^(1/alpha)) it takes
the accelerated limit of D^k f(s) as s -> 0+.  The kernel side of the
split and endpoint identities is one weighted integral (_kernel_integral),
which the inequality checkers' remainder bounds use too.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from ._value import FrozenValue
from .calculus import (Alpha, ConformableFn, Interval, QuadratureConfig, _alpha_value,
                       _derivatives, _float_factorials, _log_over_factorial, _over_factorial,
                       _top, _tops, frac_deriv_n, frac_integral)
from .errors import EvalDomainError

__all__ = [
    "TaylorExpansion", "EndpointIdentity", "cauchy_kernel", "expand",
    "taylor_poly", "taylor_remainder", "remainder_split_residual",
    "remainder_endpoint_integral", "binomial_identity_residual",
]

AlphaLike = Union[Alpha, float]


def _power(z: float, k: int) -> float:
    """z ** k, with an overflow (z grows as 1/alpha) as EvalDomainError."""
    try:
        return z ** k
    except OverflowError:
        raise EvalDomainError(f"{z!r} ** {k} is out of float range") from None


def _power_over_factorial(z: float, k: int) -> float:
    """z^k / k!: _over_factorial(z ** k, k) wherever z ** k fits a float;
    where it overflows, the quotient of exact integers, rounded once, so a
    quotient that fits is not lost to a power that does not.  Only a
    quotient out of float range raises EvalDomainError."""
    try:
        return _over_factorial(z ** k, k)
    except OverflowError:
        pass
    # a quotient far outside float range needs no integers of k * 53 bits
    log = _log_over_factorial(k * math.log(abs(z)), k)
    if log is None:  # a zero of z^k's sign
        return math.copysign(0.0, z) if k % 2 else 0.0
    if log <= 710.0:
        num, den = z.as_integer_ratio()
        try:
            return num ** k / (den ** k * math.factorial(k))  # one correctly rounded int division
        except OverflowError:
            pass
    raise EvalDomainError(f"{z!r} ** {k} / {k}! is out of float range")


def cauchy_kernel(n: int, alpha: AlphaLike, t: float, s: float) -> float:
    """Closed-form kernel ((t^a - s^a)/a)^(n-1) / (n-1)! for D_alpha^n = 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if t < 0.0 or s < 0.0:
        raise ValueError("t and s must be >= 0")
    a = _alpha_value(alpha)
    z = (math.pow(t, a) - math.pow(s, a)) / a
    return _power_over_factorial(z, n - 1)


class TaylorExpansion(FrozenValue):
    """Degree-n expansion data around a center point.

    coefficients[k] is D^k f evaluated at the center, so evaluating at the
    center returns coefficients[0] exactly (the k = 0 term uses 0^0 = 1).
    """

    __slots__ = __match_args__ = ("center", "degree", "alpha", "coefficients")

    def __init__(self, center: float, degree: int, alpha: Alpha,
                 coefficients: tuple[float, ...]):
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if len(coefficients) != degree + 1:
            raise ValueError("expected degree + 1 coefficients")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "coefficients", coefficients)

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

    For a symbolic f every coefficient comes from one truncated power-series
    pass in u = t^alpha/alpha, at s = 0 as at s > 0 (calculus._derivatives;
    coefficient 0 is f's value).  Where that series does not exist or meets
    a domain error, each D^k f(s) comes from frac_deriv_n, as for a plain
    callable: at s > 0 that raises EvalDomainError, at s = 0 (a power t^c
    with c/alpha not a whole number and at most n, say) it takes the
    accelerated limit of D^k f(t) as t -> 0+.  A coefficient that is not
    finite raises EvalDomainError, the value included; a negative s raises
    ValueError.
    """
    a = Alpha(_alpha_value(alpha))
    if s < 0.0:
        raise ValueError(f"t must be >= 0, got {s}")
    # coefficient 0 is checked here, for both kinds of f and at n = 0 too;
    # the derivative routes raise where a higher one is not finite
    value = f.value(s, a.value)
    if not math.isfinite(value):
        raise EvalDomainError(f"derivatives at t={s!r} are not finite")
    derivs = _derivatives(f, a.value, n, s) if f.is_symbolic and n else None
    if derivs is None:
        derivs = [value] + [frac_deriv_n(f, a, k, s) for k in range(1, n + 1)]
    return TaylorExpansion(center=s, degree=n, alpha=a, coefficients=(value, *derivs[1:]))


def taylor_poly(f: ConformableFn, alpha: AlphaLike, n: int, s: float, t: float) -> float:
    """Value at t of the degree-n expansion of f around s."""
    return expand(f, alpha, n, s).evaluate(t)


def _scaled_derivative(f: ConformableFn, a: float, m: int) -> Callable[[float], float]:
    """tau -> D^m f(tau) / m!, the integrand factor of the remainder forms:
    for a symbolic f at tau > 0 the coefficient c_m of calculus._top, with
    no factorial; at a node where tau underflows to 0, and for a plain
    callable, frac_deriv_n's value over m!."""
    if m == 0:
        return lambda tau: f.value(tau, a)
    if not f.is_symbolic:
        return lambda tau: _over_factorial(frac_deriv_n(f, a, m, tau), m)
    return lambda tau: (_top(f, a, m, tau) if tau > 0.0
                        else _over_factorial(frac_deriv_n(f, a, m, tau), m))


def _kernel_integral(f: ConformableFn, a: float, n: int, window: Interval,
                     anchor: float, cfg: Optional[QuadratureConfig]) -> float:
    """int_window D^{n+1} f(s)/(n+1)! ((anchor^a - s^a)/a)^{n+1} d_a s, the
    kernel side of the split and endpoint remainder identities.

    A quadrature panel takes its coefficients c_{n+1} from one call of
    calculus._tops, each times the kernel power as the point form takes
    it, and goes point by point where that gives none, so the values and
    errors are those of the point form."""
    m = n + 1
    top = _scaled_derivative(f, a, m)
    anchor_pow = math.pow(anchor, a)

    def integrand(s: float, _alpha: float = a) -> float:
        z = (anchor_pow - math.pow(s, a)) / a
        return top(s) * _power(z, m)

    def batch(ss, _alpha: float = a) -> list:
        cs = _tops(f, a, m, ss, 1.0)
        if cs is None:
            return [integrand(s) for s in ss]
        # an overflowing power raises OverflowError here, and the panel is
        # evaluated again point by point, where _power maps it
        return [c * ((anchor_pow - math.pow(s, a)) / a) ** m for s, c in zip(ss, cs)]

    return frac_integral(ConformableFn(integrand, batch=batch), a, window, cfg)


def taylor_remainder(f: ConformableFn, alpha: AlphaLike, n: int,
                     center: float, at: float,
                     cfg: Optional[QuadratureConfig] = None) -> float:
    """Remainder R_{n,f}(center, at) via its weighted-integral form.

    Argument order matters: the first point is the expansion center, the
    second the evaluation point.  n = -1 returns f(at) by definition.  The
    integrand is (n+1) c(tau) z^n with c = D^{n+1} f(tau)/(n+1)!; for a
    symbolic f, c comes from a series pass at each quadrature node, so no
    derivative tree is built and no factorial can overflow.
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
        return (n + 1) * top(tau) * _power(z, n)

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
    lhs = _kernel_integral(f, a_val, n, window, t, cfg)
    rem_a = _remainder_sum_form(f, a_val, n, aa)
    rem_b = _remainder_sum_form(f, a_val, n, bb)
    rhs = (frac_integral(ConformableFn(lambda s, _=0.0: rem_a(s)), a_val, (aa, t), cfg)
           + frac_integral(ConformableFn(lambda s, _=0.0: rem_b(s)), a_val, (t, bb), cfg))
    return lhs - rhs


class EndpointIdentity(FrozenValue):
    """Both sides of an endpoint remainder identity."""

    __slots__ = __match_args__ = ("lhs", "rhs")

    def __init__(self, lhs: float, rhs: float):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

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
    lhs = _kernel_integral(f, a_val, n, window, anchor, cfg)
    rem = _remainder_sum_form(f, a_val, n, center)
    rhs = frac_integral(ConformableFn(lambda s, _=0.0: rem(s)), a_val, (aa, bb), cfg)
    return EndpointIdentity(lhs=lhs, rhs=rhs)


def binomial_identity_residual(n: int, alpha: AlphaLike, t: float, s: float,
                               r: float) -> float:
    """Residual of the fractional binomial convolution identity.

    (1/n!) ((t^a - r^a)/a)^n  minus
    sum_k ((t^a - s^a)/a)^k ((s^a - r^a)/a)^(n-k) / (k! (n-k)!).

    Both sides are evaluated from the shared differences x = (t^a - s^a)/a
    and y = (s^a - r^a)/a (the left side as (x + y)^n/n!, each term as
    (x^k/k!) (y^(n-k)/(n-k)!)), with an exactly rounded summation, so the
    residual stays at rounding level.  A quotient z^k/k! out of float range
    raises EvalDomainError; a power that overflows alone does not.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if min(t, s, r) < 0.0:
        raise ValueError("t, s, r must be >= 0")
    a = _alpha_value(alpha)
    x = (math.pow(t, a) - math.pow(s, a)) / a
    y = (math.pow(s, a) - math.pow(r, a)) / a
    lhs = _power_over_factorial(x + y, n)
    terms = [_power_over_factorial(x, k) * _power_over_factorial(y, n - k)
             for k in range(n + 1)]
    return lhs - math.fsum(terms)
