"""Conformable fractional differentiation and the weighted fractional integral.

For order alpha in (0, 1] the conformable derivative of a differentiable f at
t > 0 is t^(1-alpha) f'(t); at t = 0 it is the right-hand limit of that
quantity.  The fractional integral over [a, b] integrates f against the
weight t^(alpha-1).  Iterated derivatives are built symbolically whenever the
function carries an expression tree, so no precision is lost to nested
finite differences.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from . import expr as ex
from ._quad import adaptive_integrate
from .errors import EvalDomainError, LimitError, InstabilityWarning, SmoothnessError

__all__ = [
    "Alpha", "Interval", "QuadratureConfig", "ConformableFn",
    "frac_deriv", "frac_deriv_n", "frac_deriv_fn", "frac_integral",
]

_EPS_CBRT = 6.055454452393339e-06  # cube root of machine epsilon


@dataclass(frozen=True)
class Alpha:
    """Fractional order, restricted to (0, 1]."""

    value: float

    def __post_init__(self):
        if not (isinstance(self.value, (int, float)) and math.isfinite(self.value)):
            raise ValueError(f"alpha must be a finite number, got {self.value!r}")
        if not (0.0 < self.value <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.value}")


def _alpha_value(alpha: Union[Alpha, float]) -> float:
    if isinstance(alpha, Alpha):
        return alpha.value
    return Alpha(float(alpha)).value


@dataclass(frozen=True)
class Interval:
    """Window [a, b] with 0 <= a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not (0.0 <= self.a < self.b):
            raise ValueError(f"interval requires 0 <= a < b, got [{self.a}, {self.b}]")

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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and refinement policy for the weighted integral.

    mode "transformed" substitutes u = t^alpha/alpha, which removes the
    weight exactly; "direct" integrates f(t) t^(alpha-1) as written.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 1000
    mode: str = "transformed"

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.mode not in ("transformed", "direct"):
            raise ValueError(f"unknown quadrature mode {self.mode!r}")


DEFAULT_QUADRATURE = QuadratureConfig()


class ConformableFn:
    """Evaluatable real function of t, optionally with exact derivatives.

    Built from an expression tree the function is symbolic: classical and
    conformable derivatives of any order are constructed exactly and cached,
    and each derivative level is compiled when it is first evaluated at
    t > 0.
    Built from a plain callable it may carry explicit classical-derivative
    callables and a declared smoothness order; beyond those, central finite
    differences are used (iterated conformable derivatives capped at n = 3).

    The evaluator signature is (t, alpha) -> float; callables wrapped via
    :meth:`from_callable` ignore alpha.  An optional batch evaluator
    (ts, alpha) -> list must return what the evaluator returns point for
    point; :meth:`values` uses it.  Instances are immutable after
    construction (internal caches aside) and safe to share across threads.
    """

    __slots__ = ("_eval", "_batch", "expr", "derivatives", "smoothness", "name",
                 "_frac_chain", "_frac_compiled", "_ddt_compiled", "_chain_lock")

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
        self.name = name
        self._frac_chain = [expr] if expr is not None else None
        # compiled levels, aligned with _frac_chain; None until first needed
        self._frac_compiled = [evaluator] if expr is not None else None
        self._ddt_compiled = None
        self._chain_lock = threading.Lock() if expr is not None else None

    @classmethod
    def from_expr(cls, source: Union[str, ex.Expr], name: Optional[str] = None) -> "ConformableFn":
        tree = ex.parse(source) if isinstance(source, str) else source
        return cls(ex.compile_expr(tree), expr=tree, batch=ex.compile_batch(tree),
                   name=name if name is not None else ex.to_text(tree))

    @classmethod
    def from_callable(cls, fn: Callable[[float], float],
                      derivatives: Sequence[Callable[[float], float]] = (),
                      smoothness: Optional[int] = None,
                      name: Optional[str] = None) -> "ConformableFn":
        return cls(lambda t, alpha=1.0: float(fn(t)),
                   derivatives=derivatives, smoothness=smoothness, name=name)

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
            if self._ddt_compiled is None:
                self._ddt_compiled = ex.compile_expr(ex.diff_classical(self.expr))
            return self._ddt_compiled(t, alpha)
        if self.derivatives:
            return float(self.derivatives[0](t))
        return _central_fd(lambda x: self._eval(x, alpha), t)

    def frac_expr(self, n: int) -> ex.Expr:
        """Exact expression for the n-th conformable derivative (symbolic only)."""
        if self.expr is None:
            raise SmoothnessError("function has no expression tree")
        chain = self._frac_chain
        if len(chain) <= n:
            with self._chain_lock:
                while len(chain) <= n:
                    chain.append(_conformable_step(chain[-1]))
                    self._frac_compiled.append(None)
        return chain[n]

    def _frac_eval(self, n: int) -> Callable[[float, float], float]:
        """Compiled evaluator of the n-th conformable derivative."""
        tree = self.frac_expr(n)
        fn = self._frac_compiled[n]
        if fn is None:
            fn = self._frac_compiled[n] = ex.compile_expr(tree)
        return fn

    def __repr__(self):
        return f"ConformableFn({self.name or ('<callable>' if self.expr is None else ex.to_text(self.expr))})"


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
    genuinely singular forms.
    """
    if exact:
        try:
            v = g(0.0)
            if math.isfinite(v):
                return v
        except EvalDomainError:
            pass
    return _limit_at_zero(g)


# ---------------------------------------------------------------------------
# operations

def frac_deriv(f: ConformableFn, alpha: Union[Alpha, float], t: float) -> float:
    """Conformable derivative D_alpha f at t >= 0.

    At t = 0 the value is the right-hand limit of D_alpha f (evaluated
    directly when the derivative formula is regular there, otherwise by
    sequence acceleration over t_k = 1e-2 * 2^-k); a LimitError reports
    non-existence.
    """
    a = _alpha_value(alpha)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        if f.is_symbolic:
            return frac_deriv_n(f, a, 1, 0.0)
        g = lambda s: math.pow(s, 1.0 - a) * f.classical_derivative(s, a)
        return _value_at_zero(g, bool(f.derivatives))
    value = math.pow(t, 1.0 - a) * f.classical_derivative(t, a)
    if not math.isfinite(value):
        raise EvalDomainError(f"derivative evaluation at t={t!r} is not finite")
    return value


def frac_deriv_n(f: ConformableFn, alpha: Union[Alpha, float], n: int, t: float) -> float:
    """Iterated conformable derivative D_alpha^n f at t; n = 0 returns f(t)."""
    a = _alpha_value(alpha)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if n == 0:
        return f.value(t, a)
    if f.is_symbolic:
        if t == 0.0:
            # alpha-specialized tree: t-independent zero coefficients fold
            # away, so regular-at-0 formulas evaluate exactly
            tree = ex.substitute_alpha(f.frac_expr(n), a)
            try:
                v = ex.evaluate_at(tree, 0.0, a)
                if math.isfinite(v):
                    return v
            except EvalDomainError:
                pass
            fn = f._frac_eval(n)
            return _limit_at_zero(lambda s: fn(s, a))
        return f._frac_eval(n)(t, a)
    return _frac_deriv_n_numeric(f, a, n, t)


def _jet_coefficients(f: ConformableFn, a: float, n: int,
                      t: float) -> Optional[list[float]]:
    """D^k f(t) / k! for k = 0..n, symbolic f at t >= 0, in one series pass.

    With u = t^a/a the conformable derivative is d/du, so these are the
    Taylor coefficients of f(t(u)) at u0 = t^a/a, and the expression layer
    carries them through f's tree from the series of t^c.  At t > 0 that is
    the binomial series t^c (1 + h/u0)^(c/a) in h = u - u0; at t = 0 it is
    the monomial a^r u^r with r = c/a, since t = (a u)^(1/a), and a series
    only for a whole r >= 0.  Coefficient 0 is f.value(t, a) exactly.
    Returns None where the series does not exist or the pass meets a
    domain error (the symbolic derivatives may still have values there);
    an overflowing coefficient raises EvalDomainError.
    """
    value = f.value(t, a)
    if n == 0:
        return [value]
    if t > 0.0:
        u0 = math.pow(t, a) / a

        def t_power(c: float) -> list:
            r = c / a
            term = math.pow(t, c)
            out = [term]
            for k in range(1, n + 1):
                term *= (r - k + 1) / (k * u0)
                out.append(term)
            return out
    else:
        def t_power(c: float) -> list:
            r = c / a
            if r < 0.0 or not r.is_integer():
                raise ex.NoTaylorSeries(f"t ^ {c!r} has no series in u at 0")
            out = [0.0] * (n + 1)
            if r <= n:
                out[int(r)] = math.pow(a, r)
            return out

    try:
        coeffs = ex.taylor_series(f.expr, n, a, t_power)
    except (ex.NoTaylorSeries, EvalDomainError):
        return None
    except OverflowError as exc:
        raise EvalDomainError(f"overflow in the derivatives at t={t!r}: {exc}") from None
    coeffs[0] = value
    if not all(map(math.isfinite, coeffs)):
        raise EvalDomainError(f"derivatives at t={t!r} are not finite")
    return coeffs


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
        return _limit_at_zero(top)
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
    """The n-th conformable derivative as a function object."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return f
    if f.is_symbolic:
        tree = f.frac_expr(n)
        fast = fast_values = None

        def evaluator(t: float, alpha: float = 1.0) -> float:
            nonlocal fast
            if t == 0.0:
                # route through the regularized limit-aware path
                return frac_deriv_n(f, alpha, n, 0.0)
            if fast is None:
                fast = f._frac_eval(n)
            return fast(t, alpha)

        def level_values(ts: Sequence[float], alpha: float) -> list[float]:
            nonlocal fast_values
            if fast_values is None:
                f._frac_eval(n)  # compiles the level, its batch form with it
                fast_values = ex.compile_batch(tree)
            return fast_values(ts, alpha)

        def batch(ts: Sequence[float], alpha: float = 1.0) -> list[float]:
            if 0.0 not in ts:
                return level_values(ts, alpha)
            # a point at 0 takes the limit path; the runs between such
            # points are batched in order, so the first failure raises first
            out, start = [], 0
            for i in [i for i, t in enumerate(ts) if t == 0.0] + [len(ts)]:
                if start < i:
                    out += level_values(ts[start:i], alpha)
                if i < len(ts):
                    out.append(frac_deriv_n(f, alpha, n, 0.0))
                start = i + 1
            return out

        return ConformableFn(evaluator, expr=tree, batch=batch,
                             name=f"D^{n}[{f.name or ex.to_text(f.expr)}]")
    remaining = None if f.smoothness is None else max(f.smoothness - n, 0)
    return ConformableFn(lambda t, alpha=1.0: frac_deriv_n(f, alpha, n, t),
                         smoothness=remaining, name=f"D^{n}[{f.name or 'fn'}]")


def frac_integral(f: ConformableFn, alpha: Union[Alpha, float], window: Window,
                  cfg: Optional[QuadratureConfig] = None) -> float:
    """Weighted integral of f(t) t^(alpha-1) over the window, orientation-signed.

    The default "transformed" mode substitutes u = t^alpha/alpha so the
    weight vanishes exactly and an endpoint at 0 with alpha < 1 is regular;
    "direct" mode integrates the weighted integrand as written (it falls
    back to the substitution when the window touches 0 with alpha < 1, where
    refinement toward the singular endpoint cannot pay off).
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

    if mode == "transformed":
        if a_val == 1.0:
            g = lambda u: f.value(u, 1.0)
            ua, ub = lo, hi
        else:
            inv = 1.0 / a_val
            g = lambda u: f.value(math.pow(a_val * u, inv), a_val)
            ua = math.pow(lo, a_val) / a_val
            ub = math.pow(hi, a_val) / a_val
        value = adaptive_integrate(g, ua, ub, cfg.abs_tol, cfg.rel_tol,
                                   cfg.max_subdivisions)
    else:
        g = lambda t: f.value(t, a_val) * math.pow(t, a_val - 1.0)
        value = adaptive_integrate(g, lo, hi, cfg.abs_tol, cfg.rel_tol,
                                   cfg.max_subdivisions)
    return sign * value
