"""Conformable fractional differentiation and the weighted fractional integral.

For order alpha in (0, 1] the conformable derivative of a differentiable f at
t > 0 is t^(1-alpha) f'(t); at t = 0 it is the right-hand limit of that
quantity.  The fractional integral over [a, b] integrates f against the
weight t^(alpha-1).

With u = t^alpha/alpha the conformable derivative is d/du, so D^k f(t) =
k! c_k with c_k the Taylor coefficients of f(t(u)) at u(t).  For a function
with an expression tree one truncated power-series pass over the tree gives
c_0..c_n (_coefficients), D f = c_1 included.  At t > 0 the series alone
gives D^k f: one c_n from _top, a list of points from _tops, and the
function decides whether compiled code or the pass computes it
(ConformableFn._jets); where the series does not exist D^k f(t) raises
EvalDomainError.  At t = 0, where the series does not exist, D^n f(0) is
the accelerated right-hand limit of D^n f(s) (_limit_at_zero), the limit
plain callables take too.  Plain callables use finite differences.  No
numeric route builds the exact symbolic chain D^1..D^n; it is an export
(ConformableFn.frac_expr).
"""

from __future__ import annotations

import math
import sys
import threading
import warnings
from typing import Callable, Optional, Sequence, Union

from . import expr as ex
from ._quad import adaptive_integrate
from ._value import FrozenValue
from .errors import (EvalDomainError, ExprSizeError, LimitError, InstabilityWarning,
                     SmoothnessError)

__all__ = [
    "Alpha", "Interval", "QuadratureConfig", "ConformableFn",
    "frac_deriv", "frac_deriv_n", "frac_deriv_fn", "frac_integral",
]

_EPS_CBRT = 6.055454452393339e-06  # cube root of machine epsilon


class Alpha(FrozenValue):
    """Fractional order, restricted to (0, 1]."""

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: float):
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise ValueError(f"alpha must be a finite number, got {value!r}")
        if not (0.0 < value <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {value}")
        object.__setattr__(self, "value", value)


def _alpha_value(alpha: Union[Alpha, float]) -> float:
    if isinstance(alpha, Alpha):
        return alpha.value
    return Alpha(float(alpha)).value


class Interval(FrozenValue):
    """Window [a, b] with 0 <= a < b."""

    __slots__ = __match_args__ = ("a", "b")

    def __init__(self, a: float, b: float):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("interval endpoints must be finite")
        if not (0.0 <= a < b):
            raise ValueError(f"interval requires 0 <= a < b, got [{a}, {b}]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains(self, t: float) -> bool:
        return self.a <= t <= self.b


Window = Union[Interval, tuple]


def _window_span(window: Window) -> tuple[float, float, float]:
    """Resolve a window into (lo, hi, sign); reversed tuples flip the sign."""
    if isinstance(window, Interval):
        return window.a, window.b, 1.0
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("window endpoints must be finite")
    if min(lo, hi) < 0.0:
        raise ValueError(f"window endpoints must be >= 0, got ({lo}, {hi})")
    if lo <= hi:
        return lo, hi, 1.0
    return hi, lo, -1.0


class QuadratureConfig(FrozenValue):
    """Tolerance and refinement policy for the weighted integral.

    mode "transformed" substitutes u = t^alpha/alpha, which removes the
    weight exactly; "direct" integrates f(t) t^(alpha-1) as written.  An
    abs_tol of None follows the integral's size (see _quad).
    """

    __slots__ = __match_args__ = ("abs_tol", "rel_tol", "max_subdivisions", "mode")

    def __init__(self, abs_tol: Optional[float] = 1e-10, rel_tol: float = 1e-10,
                 max_subdivisions: int = 1000, mode: str = "transformed"):
        if not ((abs_tol is None or abs_tol > 0.0) and rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if mode not in ("transformed", "direct"):
            raise ValueError(f"unknown quadrature mode {mode!r}")
        object.__setattr__(self, "abs_tol", abs_tol)
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "max_subdivisions", max_subdivisions)
        object.__setattr__(self, "mode", mode)


DEFAULT_QUADRATURE = QuadratureConfig()


# the orders ConformableFn._jets compiles (the source grows with n^2 per
# node): there the compiled pass is 6-27x faster per point than the
# interpreted one and compiles in 0.6-2.6 ms, which a 257-point grid repays;
# the checkers sample orders 1-3
_JET_UNROLL_MAX = 4


class ConformableFn:
    """Evaluatable real function of t, optionally with exact derivatives.

    Built from an expression tree the function is symbolic: its conformable
    derivatives D^k f(t) = k! c_k come from the Taylor coefficients c_k of
    f(t(u)) in u = t^alpha/alpha, which one series pass carries through the
    tree, compiled for low orders (_jets); at t = 0, where that series does
    not exist, D^n f(0) is the accelerated limit of D^n f(s) as s -> 0+.
    The exact symbolic chain D^1..D^n is built only on request (frac_expr).
    Built from a plain callable it may carry explicit classical-derivative
    callables and a declared smoothness order; beyond those, central finite
    differences are used (iterated conformable derivatives capped at n = 3).

    The evaluator signature is (t, alpha) -> float; callables wrapped via
    :meth:`from_callable` ignore alpha.  An optional batch evaluator
    (ts, alpha) -> list must return what the evaluator returns point for
    point; :meth:`values` uses it.  Instances are immutable after
    construction (internal caches aside) and safe to share across threads.
    """

    __slots__ = ("_eval", "_batch", "expr", "derivatives", "smoothness", "_name",
                 "_frac_chain", "_chain_sizes", "_frac_compiled", "_lock",
                 "_derivative_of")

    def __init__(self, evaluator: Callable[[float, float], float], *,
                 expr: Optional[ex.Expr] = None,
                 derivatives: Sequence[Callable[[float], float]] = (),
                 smoothness: Optional[int] = None,
                 name: Optional[str] = None,
                 batch: Optional[Callable[[Sequence[float], float], list]] = None):
        self._eval = evaluator
        self._batch = batch
        self.expr = expr
        self.derivatives = tuple(derivatives)
        self.smoothness = smoothness
        self._name = name
        self._frac_chain = [expr] if expr is not None else None
        self._chain_sizes = []  # distinct nodes per built level of the chain
        # per order k >= 1: the Taylor-mode functions of order k (None until
        # first needed); index 0 is the function's own evaluator
        self._frac_compiled = [evaluator] if expr is not None else None
        self._lock = threading.Lock() if expr is not None else None
        self._derivative_of = None  # (f, n) for frac_deriv_fn(f, n)

    @classmethod
    def from_expr(cls, source: Union[str, ex.Expr], name: Optional[str] = None) -> "ConformableFn":
        tree = ex.parse(source) if isinstance(source, str) else source
        f = cls(ex.compile_expr(tree), expr=tree, batch=ex.compile_batch(tree), name=name)
        if name is None:
            f._name = lambda: ex.to_text(tree)
        return f

    @classmethod
    def from_callable(cls, fn: Callable[[float], float],
                      derivatives: Sequence[Callable[[float], float]] = (),
                      smoothness: Optional[int] = None,
                      name: Optional[str] = None) -> "ConformableFn":
        return cls(lambda t, alpha=1.0: float(fn(t)),
                   derivatives=derivatives, smoothness=smoothness, name=name)

    @property
    def name(self) -> Optional[str]:
        """The function's name; from_expr and frac_deriv_fn name it after its
        expression, printed on first read."""
        name = self._name
        if callable(name):
            name = self._name = name()
        return name

    @property
    def is_symbolic(self) -> bool:
        return self.expr is not None

    def value(self, t: float, alpha: float = 1.0) -> float:
        return self._eval(t, alpha)

    def values(self, ts: Sequence[float], alpha: float = 1.0) -> list[float]:
        """[self.value(t, alpha) for t in ts], in one call where the function
        has a batch evaluator; the first point that fails raises as value()
        would there."""
        if self._batch is not None:
            return self._batch(ts, alpha)
        return [self._eval(t, alpha) for t in ts]

    def classical_derivative(self, t: float, alpha: float = 1.0) -> float:
        """f'(t): exact when an expression or derivative callable exists."""
        if self.expr is not None:
            return ex.evaluate_at(ex.diff_classical(self.expr), t, alpha)
        if self.derivatives:
            return float(self.derivatives[0](t))
        return _central_fd(lambda x: self._eval(x, alpha), t)

    def frac_expr(self, n: int) -> ex.Expr:
        """Exact expression for the n-th conformable derivative (symbolic only),
        an export: no numeric route builds it.

        Each level has about twice the distinct nodes of the one before
        (D^12 exp(t) has 20,708), so a level that would exceed
        _CHAIN_NODE_BUDGET distinct nodes, projected from the growth of the
        last step or counted once built, raises ExprSizeError instead."""
        if self._derivative_of is not None:
            f, k = self._derivative_of
            return f.frac_expr(k + n)
        if self.expr is None:
            raise SmoothnessError("function has no expression tree")
        chain = self._frac_chain
        if len(chain) <= n:
            with self._lock:
                sizes = self._chain_sizes
                if not sizes:
                    sizes.append(_distinct_nodes(chain[0]))
                while len(chain) <= n:
                    if len(sizes) >= 2 and sizes[-1] ** 2 > _CHAIN_NODE_BUDGET * sizes[-2]:
                        raise ExprSizeError(
                            f"D^{len(chain)} would exceed {_CHAIN_NODE_BUDGET} distinct nodes")
                    level = _conformable_step(chain[-1])
                    size = _distinct_nodes(level)
                    if size > _CHAIN_NODE_BUDGET:
                        raise ExprSizeError(
                            f"D^{len(chain)} has {size} distinct nodes, "
                            f"more than {_CHAIN_NODE_BUDGET}")
                    chain.append(level)
                    sizes.append(size)
        return chain[n]

    def _jets(self, n: int):
        """The Taylor-mode functions of order n, a _taylor_mode.Jets, compiled
        on first use; None for a plain callable and outside orders
        1.._JET_UNROLL_MAX, where the series pass runs instead."""
        fns = self._frac_compiled
        if fns is None or not 1 <= n <= _JET_UNROLL_MAX:
            return None
        if len(fns) <= n:
            with self._lock:
                fns.extend([None] * (n + 1 - len(fns)))
        jets = fns[n]
        if jets is None:
            from . import _taylor_mode  # imported on first use, see its docstring
            jets = fns[n] = _taylor_mode.compile_jet(self.expr, n)
        return jets

    def __repr__(self):
        return f"ConformableFn({self.name or ('<callable>' if self.expr is None else ex.to_text(self.expr))})"


# building the levels up to this size takes under 1 s (0.3-0.8 s measured
# for exp(t), sqrt(t-1), 1/(1+t), ln(t-2), exp(-t)*cos(t) and the product
# sin(t)*exp(t^alpha/alpha)/(1+t^2)), and D^12 exp(t) stays below it
_CHAIN_NODE_BUDGET = 25_000


def _distinct_nodes(root: ex.Expr) -> int:
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(ex._children(node))
    return len(seen)


_T_POW_1MA = ex.Pow(ex.T, ex.Sub(ex.Num(1.0), ex.ALPHA))


def _needs_push(e: ex.Expr, memo: dict) -> bool:
    """True if a t-dependent sum sits under products/quotients/negations."""
    if isinstance(e, (ex.Add, ex.Sub)):
        return e.contains_t
    found = memo.get(e)
    if found is None:
        if isinstance(e, ex.Neg):
            found = _needs_push(e.operand, memo)
        elif isinstance(e, (ex.Mul, ex.Div)):
            found = _needs_push(e.left, memo) or _needs_push(e.right, memo)
        else:
            found = False
        memo[e] = found
    return found


@ex._depth_guarded
def _distribute(factor: ex.Expr, e: ex.Expr) -> ex.Expr:
    """factor * e with the product pushed down to the terms of t-dependent sums.

    Shared subtrees of e are distributed over once per call."""
    pushes: dict = {}
    done: dict = {}

    def push(e: ex.Expr) -> ex.Expr:
        out = done.get(e)
        if out is not None:
            return out
        if isinstance(e, ex.Add):
            out = ex._add(push(e.left), push(e.right))
        elif isinstance(e, ex.Sub):
            out = ex._sub(push(e.left), push(e.right))
        elif isinstance(e, ex.Neg):
            out = ex._neg(push(e.operand))
        elif isinstance(e, ex.Div):
            out = ex._div(push(e.left), e.right)
        elif isinstance(e, ex.Mul) and _needs_push(e.left, pushes):
            out = ex._mul(push(e.left), e.right)
        elif isinstance(e, ex.Mul) and _needs_push(e.right, pushes):
            out = ex._mul(e.left, push(e.right))
        else:
            out = ex._mul(factor, e)
        done[e] = out
        return out

    try:
        return push(e)
    finally:
        del push  # a recursive closure is a cycle; unlink it to free the memo now


def _conformable_step(tree: ex.Expr) -> ex.Expr:
    # distributing t^(1-alpha) over the derivative's terms lets each term
    # collect a single net power of t, keeping the formula regular at 0
    # whenever the derivative is
    return ex.normalize_t_powers(_distribute(_T_POW_1MA, ex.diff_classical(tree)))


def _central_fd(fn: Callable[[float], float], t: float, h: Optional[float] = None) -> float:
    if h is None:
        h = _EPS_CBRT * max(1.0, abs(t))
    if t - h >= 0.0:
        return (fn(t + h) - fn(t - h)) / (2.0 * h)
    # one-sided second-order stencil keeps the sample points in [0, inf)
    return (-3.0 * fn(t) + 4.0 * fn(t + h) - fn(t + 2.0 * h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# the limit defining D_alpha f(0)

_LIMIT_T0 = 1e-2
_LIMIT_STEPS = 21
_LIMIT_TOL = 1e-8


def _limit_at_zero(g: Callable[[float], float]) -> float:
    """Accelerated right-hand limit of g over t_k = t0 * 2^-k.

    The sampled sequence is geometric for conformable derivatives of smooth
    functions, so Aitken's delta-squared transform (Richardson acceleration
    for an unknown geometric rate) recovers the limit; convergence is
    declared when consecutive accelerated values differ by less than 1e-8.
    """
    seq = []
    for k in range(_LIMIT_STEPS):
        try:
            v = g(_LIMIT_T0 * 2.0 ** (-k))
        except EvalDomainError as exc:
            if len(seq) >= 6:
                break
            raise LimitError(f"cannot evaluate near t=0: {exc}") from exc
        if not math.isfinite(v):
            raise LimitError("derivative limit at t=0 does not exist (non-finite samples)")
        seq.append(v)

    # geometric growth of successive differences means the one-sided limit
    # does not exist (acceleration would silently produce an antilimit)
    diffs = [seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
    ratios = [abs(diffs[i + 1]) / abs(diffs[i])
              for i in range(len(diffs) - 1) if diffs[i] != 0.0]
    if len(ratios) >= 4 and all(r > 1.0001 for r in ratios[-4:]):
        raise LimitError("derivative limit at t=0 diverges")

    scale = 1.0 + abs(seq[0])
    for _ in range(6):
        if len(seq) >= 2 and abs(seq[-1] - seq[-2]) < _LIMIT_TOL:
            return seq[-1]
        if abs(seq[-1]) > 1e12 * scale:
            raise LimitError("derivative limit at t=0 diverges")
        nxt = []
        for i in range(len(seq) - 2):
            d1 = seq[i + 1] - seq[i]
            d2 = seq[i + 2] - seq[i + 1]
            denom = d2 - d1
            if denom == 0.0:
                nxt.append(seq[i + 2])
            else:
                nxt.append(seq[i + 2] - d2 * d2 / denom)
        if len(nxt) < 2:
            break
        seq = nxt
    if len(seq) >= 2 and abs(seq[-1] - seq[-2]) < _LIMIT_TOL:
        return seq[-1]
    raise LimitError("derivative limit at t=0 did not converge")


def _value_at_zero(g: Callable[[float], float], exact: bool) -> float:
    """Right-hand limit of g at 0.

    When g comes from an exact formula, direct substitution at 0 equals the
    limit wherever the formula stays real and finite (powers follow the
    0^0 = 1 convention); the accelerated limit is the fallback for the
    genuinely singular forms and for callables that raise at exactly 0.
    """
    if exact:
        try:
            v = g(0.0)
            if math.isfinite(v):
                return v
        except (EvalDomainError, ArithmeticError, ValueError):
            pass
    return _limit_at_zero(g)


# ---------------------------------------------------------------------------
# D^k f from the Taylor coefficients of f(t(u)) in u = t^alpha/alpha

_FLOAT_FACTORIAL_MAX = 170  # 171! overflows a float


def _float_factorials(n: int) -> list[float]:
    """k! for k = 0..n as a running float product (inf from k = 171 on)."""
    out = [1.0]
    for k in range(1, n + 1):
        out.append(out[-1] * k)
    return out


_FACTORIALS = _float_factorials(_FLOAT_FACTORIAL_MAX)


def _times_factorial(c: float, k: int) -> float:
    """k! c for a finite c; past 170! exactly, rounded once, so a derivative
    that fits a float is not lost to an infinite k!.  There it is inf where
    k! c does not fit, and where c is subnormal: its few bits would be
    scaled up into a wrong value of normal size."""
    if k <= _FLOAT_FACTORIAL_MAX:
        return c * _FACTORIALS[k]
    if abs(c) < sys.float_info.min:
        return c if c == 0.0 else math.copysign(math.inf, c)
    num, den = c.as_integer_ratio()
    try:
        return num * math.factorial(k) / den  # one correctly rounded int division
    except OverflowError:
        return math.copysign(math.inf, c)


def _log_over_factorial(log_abs: float, k: int) -> Optional[float]:
    """log(|c| / k!) from log_abs = log|c|, or None where it is below -746:
    c / k! is then under half the least subnormal (ln 2^-1075 = -745.1) and
    rounds to a zero of c's sign."""
    log = log_abs - math.lgamma(k + 1)
    return None if log < -746.0 else log


def _over_factorial(c: float, k: int) -> float:
    """c / k!, the twin of _times_factorial: past 170! exactly, rounded
    once, so a quotient that fits a float is not lost to a k! too large for
    one; a quotient that rounds to zero is a signed zero at once, with no k!
    built (999999! has 5.6 million digits)."""
    if k <= _FLOAT_FACTORIAL_MAX:
        return c / _FACTORIALS[k]
    if c == 0.0 or not math.isfinite(c):
        return c  # c / k! already
    if _log_over_factorial(math.log(abs(c)), k) is None:
        return math.copysign(0.0, c)
    num, den = c.as_integer_ratio()
    return num / (den * math.factorial(k))  # one correctly rounded int division


def _monomial_seed(a: float, n: int) -> Callable[[float], list]:
    """t^c in u at u = 0: t = (a u)^(1/a), so t^c = a^r u^r with r = c/a,
    a power series only for a whole r >= 0.  A power r above n, whole or
    not, is zero through order n, exactly: D^k u^r -> 0 for every k <= n < r,
    and sums, products, quotients by a nonzero lead and exp, sin, cos or ln
    of such a term only raise its exponent.  A zero lead still raises where
    it is divided by or meets sqrt, abs, ln or a non-integer power."""
    def t_power(c: float) -> list:
        r = c / a
        out = [0.0] * (n + 1)
        if r > n:
            return out
        if r < 0.0 or not r.is_integer():
            raise ex.NoTaylorSeries(f"t ^ {c!r} has no series in u at 0")
        out[int(r)] = math.pow(a, r)
        return out
    return t_power


def _coefficients(f: ConformableFn, a: float, n: int, t: float) -> Optional[list[float]]:
    """c_k = D^k f(t) / k!, k = 0..n, for symbolic f at t >= 0, in one pass.

    With u = t^a/a the conformable derivative is d/du, so these are the
    Taylor coefficients of f(t(u)) at u0 = t^a/a, and the series pass over
    f's tree carries them from the series of t^c: at t > 0 the binomial
    series t^c (1 + h/u0)^(c/a) in h = u - u0, at t = 0 the monomial of
    _monomial_seed.  At t > 0 a series that does not exist or meets a
    domain error raises EvalDomainError; at t = 0 the result is None there
    (the limit of D^n f(s) as s -> 0+ may still have a value).  A
    coefficient may be inf or nan.
    """
    seed = ex.t_power_at(t, a, n) if t > 0.0 else _monomial_seed(a, n)
    try:
        return ex.taylor_series(f.expr, n, a, seed)
    except EvalDomainError:
        if t > 0.0:
            raise
    except (ex.NoTaylorSeries, ZeroDivisionError, ValueError, OverflowError) as exc:
        if t > 0.0:
            raise EvalDomainError(str(exc)) from exc
    return None


def _derivatives(f: ConformableFn, a: float, n: int, t: float) -> Optional[list[float]]:
    """D^k f(t) = k! c_k for k = 0..n from one series pass (_coefficients),
    or None at t = 0 where there is no series; a coefficient that is not
    finite, or a D^k out of float range, raises EvalDomainError."""
    coeffs = _coefficients(f, a, n, t)
    if coeffs is None:
        return None
    if not all(map(math.isfinite, coeffs)):
        raise EvalDomainError(f"derivatives at t={t!r} are not finite")
    out = [_times_factorial(c, k) for k, c in enumerate(coeffs)]
    if not all(map(math.isfinite, out)):
        raise EvalDomainError(f"a derivative of order <= {n} at {t!r} is out of float range")
    return out


def _top(f: ConformableFn, a: float, n: int, t: float) -> float:
    """c_n = D^n f(t) / n! for symbolic f at t > 0, n >= 1, where only c_n
    has to be finite.  It comes from the Taylor-mode code f holds of order
    n, which gives the pass's value, and from the series pass where f holds
    none or the code raises or gives a value that is not finite, so the
    errors are the pass's: EvalDomainError where c_n is not finite or
    there is no series."""
    fns = f._frac_compiled
    if n < len(fns) and fns[n] is not None:
        try:
            c = fns[n].top(t, a)
        except (ex.NoTaylorSeries, EvalDomainError):
            pass
        else:
            if math.isfinite(c):
                return c
    c = _coefficients(f, a, n, t)[n]
    if not math.isfinite(c):
        raise EvalDomainError(f"derivatives at t={t!r} are not finite")
    return c


def _tops(f: ConformableFn, a: float, n: int, ts: Sequence[float],
          scale: float) -> Optional[list[float]]:
    """[scale * _top(f, a, n, t) for t in ts] from one call of f's compiled
    Taylor-mode code of order n (ConformableFn._jets), or None where f has
    no such code or the call raises or gives a value that is not finite:
    the caller then goes point by point, for the point form's values and
    errors."""
    jets = f._jets(n)
    if jets is None:
        return None
    try:
        out = jets.batch(ts, a, scale)
    except (ex.NoTaylorSeries, EvalDomainError):
        return None
    return out if all(map(math.isfinite, out)) else None


# ---------------------------------------------------------------------------
# operations

def frac_deriv(f: ConformableFn, alpha: Union[Alpha, float], t: float) -> float:
    """Conformable derivative D_alpha f at t >= 0, frac_deriv_n at order 1.

    At t > 0 it is t^(1-alpha) f'(t), for a symbolic f the coefficient c_1
    of the series pass.  At t = 0 it is the right-hand limit, and a
    LimitError reports non-existence.
    """
    return frac_deriv_n(f, alpha, 1, t)


def frac_deriv_n(f: ConformableFn, alpha: Union[Alpha, float], n: int, t: float) -> float:
    """Iterated conformable derivative D_alpha^n f at t; n = 0 returns f(t).

    A symbolic f takes D^n f(t) = n! c_n from its series.  At t > 0 c_n
    comes from _top, and only D^n itself has to be finite; EvalDomainError
    reports a series that does not exist.  At t = 0 every D^k, k <= n, has
    to be finite (_derivatives), and where the series does not exist D^n is
    the accelerated limit (_limit_at_zero) of D^n f(s), s > 0, the route
    above; LimitError reports one that does not exist.  A t that is
    negative or not finite raises ValueError.
    """
    a = _alpha_value(alpha)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if n == 0:
        return f.value(t, a)
    if f._derivative_of is not None:
        base, k = f._derivative_of
        return frac_deriv_n(base, a, k + n, t)
    if not f.is_symbolic:
        return _frac_deriv_n_numeric(f, a, n, t)
    if t == 0.0:
        d = _derivatives(f, a, n, t)
        return d[n] if d is not None else _limit_at_zero(lambda s: frac_deriv_n(f, a, n, s))
    d = _times_factorial(_top(f, a, n, t), n)
    if not math.isfinite(d):
        raise EvalDomainError(f"a derivative of order <= {n} at {t!r} is out of float range")
    return d


def _frac_deriv_n_numeric(f: ConformableFn, a: float, n: int, t: float) -> float:
    if f.smoothness is not None and n > f.smoothness:
        raise SmoothnessError(
            f"order-{n} derivative requested but smoothness is {f.smoothness}")
    if n > 3:
        raise SmoothnessError(
            "finite-difference fallback is limited to n <= 3; supply an expression")

    def level(k: int) -> Callable[[float], float]:
        if k == 1:
            return lambda s: math.pow(s, 1.0 - a) * f.classical_derivative(s, a)
        prev = level(k - 1)
        return lambda s: math.pow(s, 1.0 - a) * _central_fd(prev, s)

    top = level(n)
    if t == 0.0:
        return _value_at_zero(top, n == 1 and bool(f.derivatives))
    value = top(t)
    if not math.isfinite(value):
        raise EvalDomainError(
            f"finite differences produced a non-finite value at t={t!r}")
    if n >= 2:
        # error probe: recompute the top-level difference at half step
        prev = level(n - 1)
        h = _EPS_CBRT * max(1.0, abs(t))
        alt = math.pow(t, 1.0 - a) * _central_fd(prev, t, 0.5 * h)
        if abs(alt - value) > 1e-4 * (1.0 + abs(value)):
            warnings.warn(
                f"iterated finite differences unstable at t={t} (n={n})",
                InstabilityWarning, stacklevel=2)
    return value


def frac_deriv_fn(f: ConformableFn, n: int) -> ConformableFn:
    """The n-th conformable derivative as a function object.

    Its point form is frac_deriv_n.  For a symbolic f the first point
    t > 0 makes f hold its compiled Taylor-mode code of order n
    (ConformableFn._jets), which frac_deriv_n then reads, and the batch
    form is one call of that code (_tops); a batch that code cannot give
    is evaluated point by point, so it always returns what the point form
    returns.  Derivatives of the result are derivatives of f.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return f
    if f._derivative_of is not None:
        base, k = f._derivative_of
        return frac_deriv_fn(base, k + n)
    if not f.is_symbolic:
        remaining = None if f.smoothness is None else max(f.smoothness - n, 0)
        return ConformableFn(lambda t, alpha=1.0: frac_deriv_n(f, alpha, n, t),
                             smoothness=remaining, name=f"D^{n}[{f.name or 'fn'}]")
    # n!, read only where f has compiled code of order n
    fact = _FACTORIALS[n] if n <= _FLOAT_FACTORIAL_MAX else math.inf

    def evaluator(t: float, alpha: float = 1.0) -> float:
        if t > 0.0:
            f._jets(n)  # held from here on, for frac_deriv_n to read
        return frac_deriv_n(f, alpha, n, t)

    def batch(ts: Sequence[float], alpha: float = 1.0) -> list[float]:
        out = _tops(f, alpha, n, ts, fact)
        return [evaluator(t, alpha) for t in ts] if out is None else out

    d = ConformableFn(evaluator, batch=batch)
    d._name = lambda: f"D^{n}[{f.name or ex.to_text(f.expr)}]"
    d._derivative_of = (f, n)
    return d


def frac_integral(f: ConformableFn, alpha: Union[Alpha, float], window: Window,
                  cfg: Optional[QuadratureConfig] = None) -> float:
    """Weighted integral of f(t) t^(alpha-1) over the window, orientation-signed.

    The default "transformed" mode substitutes u = t^alpha/alpha so the
    weight vanishes exactly and an endpoint at 0 with alpha < 1 is regular;
    "direct" mode integrates the weighted integrand as written (it falls
    back to the substitution when the window touches 0 with alpha < 1, where
    refinement toward the singular endpoint cannot pay off).  A function
    with a batch evaluator is sampled one panel per call.
    """
    a_val = _alpha_value(alpha)
    lo, hi, sign = _window_span(window)
    if lo == hi:
        return 0.0
    if cfg is None:
        cfg = DEFAULT_QUADRATURE

    mode = cfg.mode
    if mode == "direct" and lo == 0.0 and a_val < 1.0:
        mode = "transformed"

    fb = f._batch
    gb = None
    if mode == "transformed":
        if a_val == 1.0:
            g = lambda u: f.value(u, 1.0)
            if fb is not None:
                gb = lambda us: fb(us, 1.0)
            ua, ub = lo, hi
        else:
            inv = 1.0 / a_val
            g = lambda u: f.value(math.pow(a_val * u, inv), a_val)
            if fb is not None:
                gb = lambda us: fb([math.pow(a_val * u, inv) for u in us], a_val)
            ua = math.pow(lo, a_val) / a_val
            ub = math.pow(hi, a_val) / a_val
    else:
        g = lambda t: f.value(t, a_val) * math.pow(t, a_val - 1.0)
        if fb is not None:
            gb = lambda ts: [v * math.pow(t, a_val - 1.0)
                             for t, v in zip(ts, fb(ts, a_val))]
        ua, ub = lo, hi
    # the batch form goes by position: a wrapper of adaptive_integrate may
    # pass on extra positional arguments only
    value = adaptive_integrate(g, ua, ub, cfg.abs_tol, cfg.rel_tol,
                               cfg.max_subdivisions, gb)
    return sign * value
