"""Fractional integral inequality checkers.

Every checker evaluates the two (or one) comparison sides of its inequality
by weighted quadrature and exact endpoint formulas, grid-verifies the
stated hypotheses, and returns an InequalityReport with the raw slacks.
Hypothesis verification is sampled evidence on a uniform grid, never a
proof; a report therefore distinguishes "the comparison held numerically"
(holds) from "and the hypotheses were verified" (hypotheses_ok).  A grid is
evaluated in one batched call (ConformableFn.values), and a function is
sampled once for all the properties a checker tests on it on one window;
the values, and so the witnesses, are those of point-by-point sampling.

Remainder integrals int_a^b R_{n,f}(a, t) d_a t are computed through the
endpoint identity as a single weighted integral of D^{n+1} f against the
kernel ((b^a - t^a)/a)^{n+1}/(n+1)!: the kernel side of that identity in
the taylor module (taylor._kernel_integral), whose other side the taylor
module checks independently.
"""

from __future__ import annotations

import math
import operator
from itertools import islice
from typing import Optional, Union

from ._value import FrozenValue
from .calculus import (Alpha, ConformableFn, Interval, QuadratureConfig,
                       _alpha_value, frac_deriv_fn, frac_integral)
from .errors import EvalDomainError, HypothesisError
from .taylor import _kernel_integral, _power

__all__ = [
    "BoundsPair", "HypothesisCheck", "MontgomeryKernel", "SteffensenEll",
    "InequalityReport",
    "verify_hypothesis", "steffensen_ell", "check_sandwich_lemma", "steffensen",
    "remainder_steffensen", "hermite_hadamard_1", "remainder_mm_bounds",
    "cebysev", "remainder_cebysev", "hermite_hadamard_2", "montgomery_residual",
    "montgomery_check", "ostrowski", "jensen", "gruss", "gruss_montgomery",
    "hermite_hadamard_3",
]

AlphaLike = Union[Alpha, float]

DEFAULT_GRID = 256
HOLDS_TOL = 1e-9  # scaled by 1 + max|side| when setting the holds flag


class BoundsPair(FrozenValue):
    """Bounds m <= M on a function or one of its derivatives."""

    __slots__ = __match_args__ = ("m", "M")

    def __init__(self, m: float, M: float):
        if not (math.isfinite(m) and math.isfinite(M)):
            raise ValueError("bounds must be finite")
        if m > M:
            raise ValueError(f"bounds require m <= M, got m={m}, M={M}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", M)

    @property
    def spread(self) -> float:
        return self.M - self.m


class HypothesisCheck(FrozenValue):
    """Grid evidence for one hypothesis; witness is the first violating point."""

    __slots__ = __match_args__ = ("name", "verified", "witness", "grid")

    def __init__(self, name: str, verified: bool, witness: Optional[float] = None,
                 grid: int = DEFAULT_GRID):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "verified", verified)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "grid", grid)


class SteffensenEll(FrozenValue):
    """The comparison-window length ell = a(b-a)/(b^a - a^a) int g d_a t."""

    __slots__ = __match_args__ = ("ell", "alpha", "window")

    def __init__(self, ell: float, alpha: Alpha, window: Interval):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "window", window)


class MontgomeryKernel(FrozenValue):
    """Piecewise kernel p(t, s): (s^a - a^a)/a below t, (s^a - b^a)/a above.

    The jump at s = t has size (a^a - b^a)/alpha.
    """

    __slots__ = __match_args__ = ("t", "alpha", "window")

    def __init__(self, t: float, alpha: Alpha, window: Interval):
        if not window.contains(t):
            raise ValueError(f"t={t} outside window [{window.a}, {window.b}]")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "window", window)

    def __call__(self, s: float) -> float:
        a = self.alpha.value
        anchor = self.window.a if s < self.t else self.window.b
        return (math.pow(s, a) - math.pow(anchor, a)) / a

    @property
    def jump(self) -> float:
        a = self.alpha.value
        return (math.pow(self.window.a, a) - math.pow(self.window.b, a)) / a


class InequalityReport(FrozenValue):
    """One checker's verdict: the sides lower <= actual <= upper (a side may
    be None), the slacks actual - lower and upper - actual, and the grid
    evidence for each hypothesis."""

    __slots__ = __match_args__ = ("theorem", "alpha", "window", "hypotheses", "lower",
                                  "actual", "upper", "slack_low", "slack_high", "holds")

    def __init__(self, theorem: str, alpha: float, window: Interval,
                 hypotheses: tuple[HypothesisCheck, ...], lower: Optional[float],
                 actual: float, upper: Optional[float], slack_low: Optional[float],
                 slack_high: Optional[float], holds: bool):
        object.__setattr__(self, "theorem", theorem)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "hypotheses", hypotheses)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "slack_low", slack_low)
        object.__setattr__(self, "slack_high", slack_high)
        object.__setattr__(self, "holds", holds)

    @property
    def hypotheses_ok(self) -> bool:
        return all(h.verified for h in self.hypotheses)


def _make_report(theorem: str, alpha: float, window: Interval,
                 hypotheses: list[HypothesisCheck], lower: Optional[float],
                 actual: float, upper: Optional[float]) -> InequalityReport:
    sides = [abs(v) for v in (lower, actual, upper) if v is not None]
    tau = HOLDS_TOL * (1.0 + max(sides))
    holds = True
    slack_low = slack_high = None
    if lower is not None:
        slack_low = actual - lower
        holds = holds and (lower <= actual + tau)
    if upper is not None:
        slack_high = upper - actual
        holds = holds and (actual <= upper + tau)
    return InequalityReport(theorem=theorem, alpha=alpha, window=window,
                            hypotheses=tuple(hypotheses), lower=lower,
                            actual=actual, upper=upper, slack_low=slack_low,
                            slack_high=slack_high, holds=holds)


def _remainder_report(theorem: str, alpha: float, window: Interval,
                      hypotheses: list[HypothesisCheck], lower: Optional[float],
                      actual: float, upper: Optional[float]) -> InequalityReport:
    """_make_report for a remainder bound, which has no verdict where a side
    is NaN (an infinite D^n f at both ends, say): EvalDomainError there."""
    for side, value in (("lower", lower), ("actual", actual), ("upper", upper)):
        if value is not None and math.isnan(value):
            raise EvalDomainError(f"{theorem}: the {side} side is not a number")
    return _make_report(theorem, alpha, window, hypotheses, lower, actual, upper)


# ---------------------------------------------------------------------------
# hypothesis verification

_PROPERTIES = ("nonnegative", "range01", "increasing", "decreasing", "convex",
               "bounded")


def _grid(lo: float, hi: float, grid_n: int) -> list[float]:
    if lo == hi:
        return [lo]
    step = (hi - lo) / grid_n
    return [lo + i * step for i in range(grid_n + 1)]


def _sample(f: ConformableFn, a: float, window, grid_n: int) -> tuple:
    """(grid, values of f on it, tolerance): one sample serves every
    property tested on the same function, window and grid."""
    if isinstance(window, Interval):
        lo, hi = window.a, window.b
    else:
        lo, hi = float(window[0]), float(window[1])
        if lo > hi:
            lo, hi = hi, lo
    ts = _grid(lo, hi, grid_n)
    vals = f.values(ts, a)
    return ts, vals, 1e-12 * (1.0 + max(map(abs, vals)))


def _violation(prop: str, sample: tuple,
               bounds: Optional[BoundsPair] = None) -> Optional[float]:
    """The first grid point of the sample that violates prop, or None."""
    ts, vals, tol = sample
    if prop == "nonnegative":
        lo, hi = -tol, math.inf
    elif prop == "range01":
        lo, hi = -tol, 1.0 + tol
    elif prop == "bounded":
        lo, hi = bounds.m - tol, bounds.M + tol
    elif prop == "convex":
        for t, prev, v, nxt in zip(islice(ts, 1, None), vals,
                                   islice(vals, 1, None), islice(vals, 2, None)):
            if v > 0.5 * (prev + nxt) + tol:
                return t
        return None
    else:
        pairs = zip(islice(ts, 1, None), vals, islice(vals, 1, None))
        if prop == "increasing":
            for t, prev, v in pairs:
                if v < prev - tol:
                    return t
        else:  # decreasing
            for t, prev, v in pairs:
                if v > prev + tol:
                    return t
        return None
    for t, v in zip(ts, vals):
        if v < lo or v > hi:
            return t
    return None


def verify_hypothesis(f: ConformableFn, alpha: AlphaLike, window,
                      prop: str, grid_n: int = DEFAULT_GRID,
                      bounds: Optional[BoundsPair] = None
                      ) -> tuple[bool, Optional[float]]:
    """Sample f on a uniform grid and test the property.

    window may be an Interval or a raw (lo, hi) pair (the latter admits
    negative endpoints, as needed when testing convexity of an outer
    function over the range of an inner one).  Returns (verified, witness)
    where witness is the first violating grid point.  This is evidence on
    grid_n + 1 points, not a proof.  The grid is evaluated in one batched
    call (ConformableFn.values).
    """
    if grid_n < 8:
        raise ValueError(f"grid_n must be >= 8, got {grid_n}")
    if prop == "convex-outer":
        prop = "convex"
    if prop not in _PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    if prop == "bounded" and bounds is None:
        raise ValueError("property 'bounded' needs a BoundsPair")
    witness = _violation(prop, _sample(f, _alpha_value(alpha), window, grid_n), bounds)
    return witness is None, witness


def _hyp(name: str, f: ConformableFn, alpha: float, window, prop: str,
         grid_n: int, bounds: Optional[BoundsPair] = None) -> HypothesisCheck:
    ok, witness = verify_hypothesis(f, alpha, window, prop, grid_n, bounds)
    return HypothesisCheck(name=name, verified=ok, witness=witness, grid=grid_n)


def _sampled_hyp(name: str, sample: tuple, prop: str, grid_n: int) -> HypothesisCheck:
    witness = _violation(prop, sample)
    return HypothesisCheck(name=name, verified=witness is None, witness=witness,
                           grid=grid_n)


# ---------------------------------------------------------------------------
# shared pieces

_ONE = ConformableFn.from_expr("1", name="1")


def _product(f: ConformableFn, g: ConformableFn) -> ConformableFn:
    """f g, with a batch form where both have one, for frac_integral only:
    where g fails at a point before f's first failure the batch raises f's
    error, and the quadrature panel then evaluates point by point, which
    raises g's, as the point form does."""
    point = lambda t, alpha=1.0: f.value(t, alpha) * g.value(t, alpha)
    fb, gb = f._batch, g._batch
    if fb is None or gb is None:
        return ConformableFn(point)
    return ConformableFn(point, batch=lambda ts, alpha=1.0: list(
        map(operator.mul, fb(ts, alpha), gb(ts, alpha))))


def _span(a: float, window: Interval) -> float:
    """b^a - a^a, alpha times the window's length in u; 0 raises EvalDomainError."""
    span = math.pow(window.b, a) - math.pow(window.a, a)
    if span == 0.0:
        raise EvalDomainError(f"window [{window.a!r}, {window.b!r}] has zero length "
                              f"in u = t^alpha/alpha at alpha={a!r}")
    return span


def _avg_factor(a: float, window: Interval) -> float:
    return a / _span(a, window)


def _mean_value(f: ConformableFn, a: float, window: Interval,
                cfg: Optional[QuadratureConfig]) -> float:
    return _avg_factor(a, window) * frac_integral(f, a, window, cfg)


def _ell_raw(g: ConformableFn, a: float, window: Interval,
             cfg: Optional[QuadratureConfig]) -> float:
    # the normalizer (b^a - a^a)/alpha equals the weighted integral of 1;
    # computing it with the same rule makes the ratio exact for constant g
    _span(a, window)  # raises where that normalizer is 0
    mass = frac_integral(g, a, window, cfg)
    unit = frac_integral(_ONE, a, window, cfg)
    ell = window.width * mass / unit
    return min(max(ell, 0.0), window.width)


def _as_window(window) -> Interval:
    if isinstance(window, Interval):
        return window
    return Interval(float(window[0]), float(window[1]))


# ---------------------------------------------------------------------------
# Steffensen comparison

def steffensen_ell(g: ConformableFn, alpha: AlphaLike, window,
                   cfg: Optional[QuadratureConfig] = None,
                   grid_n: int = DEFAULT_GRID) -> SteffensenEll:
    """Window length ell for g mapping into [0, 1]; hypothesis is enforced."""
    a = _alpha_value(alpha)
    window = _as_window(window)
    ok, witness = verify_hypothesis(g, a, window, "range01", grid_n)
    if not ok:
        raise HypothesisError(f"g is outside [0, 1] at t={witness!r}")
    return SteffensenEll(ell=_ell_raw(g, a, window, cfg), alpha=Alpha(a), window=window)


def check_sandwich_lemma(g: ConformableFn, alpha: AlphaLike, window,
                         cfg: Optional[QuadratureConfig] = None,
                         grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """int over [b-ell, b] of 1 <= int g <= int over [a, a+ell] of 1."""
    a = _alpha_value(alpha)
    window = _as_window(window)
    hyps = [_hyp("g in [0,1]", g, a, window, "range01", grid_n)]
    ell = _ell_raw(g, a, window, cfg)
    lower = frac_integral(_ONE, a, (window.b - ell, window.b), cfg)
    actual = frac_integral(g, a, window, cfg)
    upper = frac_integral(_ONE, a, (window.a, window.a + ell), cfg)
    return _make_report("sandwich", a, window, hyps, lower, actual, upper)


def steffensen(f: ConformableFn, g: ConformableFn, alpha: AlphaLike, window,
               cfg: Optional[QuadratureConfig] = None,
               grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """int_{b-ell}^b f <= int f g <= int_a^{a+ell} f for nonnegative decreasing f.

    Hypothesis failures are reported, not raised; the comparison values are
    still computed for diagnostics (the classic counterexample with f < 0
    shows the left inequality breaking).
    """
    a = _alpha_value(alpha)
    window = _as_window(window)
    f_sample = _sample(f, a, window, grid_n)
    hyps = [
        _sampled_hyp("f nonnegative", f_sample, "nonnegative", grid_n),
        _sampled_hyp("f decreasing", f_sample, "decreasing", grid_n),
        _hyp("g in [0,1]", g, a, window, "range01", grid_n),
    ]
    ell = _ell_raw(g, a, window, cfg)
    lower = frac_integral(f, a, (window.b - ell, window.b), cfg)
    actual = frac_integral(_product(f, g), a, window, cfg)
    upper = frac_integral(f, a, (window.a, window.a + ell), cfg)
    return _make_report("steffensen", a, window, hyps, lower, actual, upper)


# ---------------------------------------------------------------------------
# remainder bounds from the Steffensen comparison

def remainder_steffensen(f: ConformableFn, alpha: AlphaLike, n: int, window,
                         cfg: Optional[QuadratureConfig] = None,
                         grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """Two-sided bound on the scaled remainder integral with ell = (b-a)/(n+2)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a = _alpha_value(alpha)
    window = _as_window(window)
    dn = frac_deriv_fn(f, n)
    dn1 = frac_deriv_fn(f, n + 1)
    hyps = [
        _hyp(f"D^{n + 1} f increasing", dn1, a, window, "increasing", grid_n),
        _hyp(f"D^{n} f decreasing", dn, a, window, "decreasing", grid_n),
    ]
    ell = window.width / (n + 2)
    lower = dn.value(window.a + ell, a) - dn.value(window.a, a)
    upper = dn.value(window.b, a) - dn.value(window.b - ell, a)
    scale = math.factorial(n + 1) * _avg_factor(a, window) ** (n + 1)
    actual = scale * _kernel_integral(f, a, n, window, window.b, cfg)
    return _remainder_report("rem-steffensen", a, window, hyps, lower, actual, upper)


def hermite_hadamard_1(f: ConformableFn, alpha: AlphaLike, window,
                       cfg: Optional[QuadratureConfig] = None,
                       grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """f((a+b)/2) <= weighted mean of f <= f(b) + f(a) - f((a+b)/2)."""
    a = _alpha_value(alpha)
    window = _as_window(window)
    d1 = frac_deriv_fn(f, 1)
    hyps = [
        _hyp("D f increasing", d1, a, window, "increasing", grid_n),
        _hyp("f decreasing", f, a, window, "decreasing", grid_n),
    ]
    mid = 0.5 * (window.a + window.b)
    f_mid = f.value(mid, a)
    lower = f_mid
    actual = _mean_value(f, a, window, cfg)
    upper = f.value(window.b, a) + f.value(window.a, a) - f_mid
    return _make_report("hh1", a, window, hyps, lower, actual, upper)


def remainder_mm_bounds(f: ConformableFn, alpha: AlphaLike, n: int,
                        bounds: BoundsPair, window,
                        cfg: Optional[QuadratureConfig] = None,
                        grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """Bounds on int R_{n,f}(a, t) d_a t from m <= D^{n+1} f <= M (m < M)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not (bounds.m < bounds.M):
        raise ValueError(f"this bound needs m < M, got m={bounds.m}, M={bounds.M}")
    a = _alpha_value(alpha)
    window = _as_window(window)
    m, M = bounds.m, bounds.M
    dn = frac_deriv_fn(f, n)
    dn1 = frac_deriv_fn(f, n + 1)
    hyps = [_hyp(f"m <= D^{n + 1} f <= M", dn1, a, window, "bounded", grid_n, bounds)]

    span = _span(a, window)
    q = span / a
    ell = (a * window.width / (span * (M - m))
           * (dn.value(window.b, a) - dn.value(window.a, a) - m * q))
    ell = min(max(ell, 0.0), window.width)
    qb = (math.pow(window.b, a) - math.pow(window.b - ell, a)) / a
    qa = (math.pow(window.b, a) - math.pow(window.a + ell, a)) / a
    fact = math.factorial(n + 2)
    lower = m / fact * _power(q, n + 2) + (M - m) / fact * _power(qb, n + 2)
    upper = M / fact * _power(q, n + 2) + (m - M) / fact * _power(qa, n + 2)
    actual = _kernel_integral(f, a, n, window, window.b, cfg)
    return _remainder_report("mm-bounds", a, window, hyps, lower, actual, upper)


# ---------------------------------------------------------------------------
# Cebysev ordering

def _classify_monotone(f: ConformableFn, a: float, window: Interval,
                       grid_n: int) -> tuple[bool, bool, Optional[float]]:
    sample = _sample(f, a, window, grid_n)
    w_inc = _violation("increasing", sample)
    return w_inc is None, _violation("decreasing", sample) is None, w_inc


def cebysev(f: ConformableFn, g: ConformableFn, alpha: AlphaLike, window,
            cfg: Optional[QuadratureConfig] = None,
            grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """int f g >= mean-product bound when f, g are monotone the same way.

    Opposite monotonicity reverses the comparison; non-monotone inputs are
    rejected rather than guessed.
    """
    a = _alpha_value(alpha)
    window = _as_window(window)
    f_inc, f_dec, fw = _classify_monotone(f, a, window, grid_n)
    g_inc, g_dec, gw = _classify_monotone(g, a, window, grid_n)
    if not (f_inc or f_dec):
        raise HypothesisError(f"f is not monotone on the window (witness t={fw!r})")
    if not (g_inc or g_dec):
        raise HypothesisError(f"g is not monotone on the window (witness t={gw!r})")
    hyps = [
        HypothesisCheck("f monotone", True, None, grid_n),
        HypothesisCheck("g monotone", True, None, grid_n),
    ]
    same = (f_inc and g_inc) or (f_dec and g_dec)
    actual = frac_integral(_product(f, g), a, window, cfg)
    bound = (_avg_factor(a, window) * frac_integral(f, a, window, cfg)
             * frac_integral(g, a, window, cfg))
    if same:
        return _make_report("cebysev", a, window, hyps, bound, actual, None)
    return _make_report("cebysev", a, window, hyps, None, actual, bound)


def remainder_cebysev(f: ConformableFn, alpha: AlphaLike, n: int, window,
                      cfg: Optional[QuadratureConfig] = None,
                      grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """Chain bound on the centered remainder integral for monotone D^{n+1} f.

    For increasing D^{n+1} f:  edge <= middle <= 0, where middle subtracts
    the mean-growth term from the remainder integral; decreasing reverses
    the chain.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a = _alpha_value(alpha)
    window = _as_window(window)
    dn = frac_deriv_fn(f, n)
    dn1 = frac_deriv_fn(f, n + 1)
    inc, dec, w = _classify_monotone(dn1, a, window, grid_n)
    if not (inc or dec):
        raise HypothesisError(
            f"D^{n + 1} f is not monotone on the window (witness t={w!r})")
    hyps = [HypothesisCheck(f"D^{n + 1} f monotone", True, None, grid_n)]

    q = (math.pow(window.b, a) - math.pow(window.a, a)) / a
    fact = math.factorial(n + 2)
    middle = (_kernel_integral(f, a, n, window, window.b, cfg)
              - (dn.value(window.b, a) - dn.value(window.a, a)) / fact * _power(q, n + 1))
    edge = (dn1.value(window.a, a) - dn1.value(window.b, a)) / fact * _power(q, n + 2)
    if inc:
        return _remainder_report("rem-cebysev", a, window, hyps, edge, middle, 0.0)
    return _remainder_report("rem-cebysev", a, window, hyps, 0.0, middle, edge)


def hermite_hadamard_2(f: ConformableFn, alpha: AlphaLike, window,
                       cfg: Optional[QuadratureConfig] = None,
                       grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """Weighted mean of f against (f(a) + f(b))/2; direction from D f."""
    a = _alpha_value(alpha)
    window = _as_window(window)
    d1 = frac_deriv_fn(f, 1)
    inc, dec, w = _classify_monotone(d1, a, window, grid_n)
    if not (inc or dec):
        raise HypothesisError(f"D f is not monotone on the window (witness t={w!r})")
    hyps = [HypothesisCheck("D f monotone", True, None, grid_n)]
    actual = _mean_value(f, a, window, cfg)
    bound = 0.5 * (f.value(window.a, a) + f.value(window.b, a))
    if inc:
        return _make_report("hh2", a, window, hyps, None, actual, bound)
    return _make_report("hh2", a, window, hyps, bound, actual, None)


# ---------------------------------------------------------------------------
# Montgomery representation / Ostrowski deviation

def montgomery_residual(f: ConformableFn, alpha: AlphaLike, window, t: float,
                        cfg: Optional[QuadratureConfig] = None) -> float:
    """f(t) minus its Montgomery representation; ~0 up to quadrature error.

    The kernel integral is split at the jump s = t so neither quadrature
    straddles the discontinuity.
    """
    a = _alpha_value(alpha)
    window = _as_window(window)
    kernel = MontgomeryKernel(t=t, alpha=Alpha(a), window=window)
    d1 = frac_deriv_fn(f, 1)
    d1_batch = d1._batch
    batch = None
    if d1_batch is not None:
        batch = lambda ss, _=a: list(map(operator.mul, map(kernel, ss), d1_batch(ss, a)))
    weighted = ConformableFn(lambda s, _=a: kernel(s) * d1.value(s, a), batch=batch)
    kernel_int = (frac_integral(weighted, a, (window.a, t), cfg)
                  + frac_integral(weighted, a, (t, window.b), cfg))
    factor = _avg_factor(a, window)
    return f.value(t, a) - factor * frac_integral(f, a, window, cfg) - factor * kernel_int


def montgomery_check(f: ConformableFn, alpha: AlphaLike, window, t: float,
                     cfg: Optional[QuadratureConfig] = None) -> InequalityReport:
    """Report form of the identity residual: |residual| below 10x quadrature tolerance."""
    a = _alpha_value(alpha)
    window = _as_window(window)
    used = cfg if cfg is not None else QuadratureConfig()
    residual = montgomery_residual(f, a, window, t, cfg)
    tol = 10.0 * (used.abs_tol + used.rel_tol * (1.0 + abs(f.value(t, a))))
    return _make_report("montgomery", a, window, [], -tol, residual, tol)


def ostrowski(f: ConformableFn, alpha: AlphaLike, window, t: float,
              cfg: Optional[QuadratureConfig] = None,
              M: Optional[float] = None,
              grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """|f(t) - weighted mean| against the kernel bound with M = sup |D f|.

    A supplied M is trusted as the stated supremum; when omitted it is
    estimated as the grid maximum of |D f| over 1024 points inflated by 1%
    and flagged as an estimate in the hypotheses.
    """
    a = _alpha_value(alpha)
    window = _as_window(window)
    if not window.contains(t):
        raise ValueError(f"t={t} outside window [{window.a}, {window.b}]")
    d1 = frac_deriv_fn(f, 1)
    hyps = []
    if M is None:
        grid = 1024
        samples = list(map(abs, d1.values(_grid(window.a, window.b, grid), a)))
        peak = max(samples)
        M = 1.01 * peak
        hyps.append(HypothesisCheck("M estimated from grid (1% inflation)", True,
                                    None, grid))
        if peak > 0.0 and peak - min(samples) < 1e-9 * (1.0 + peak):
            # a flat sample grid cannot localize the supremum
            hyps.append(HypothesisCheck("flat derivative grid: estimate may be "
                                        "unreliable", True, None, grid))
    else:
        M = float(M)
        hyps.append(HypothesisCheck("M supplied as sup |D f|", True, None, grid_n))
    actual = abs(f.value(t, a) - _mean_value(f, a, window, cfg))
    t_pow, a_pow, b_pow = math.pow(t, a), math.pow(window.a, a), math.pow(window.b, a)
    upper = (M / (2.0 * a * _span(a, window))
             * ((t_pow - a_pow) ** 2 + (b_pow - t_pow) ** 2))
    return _make_report("ostrowski", a, window, hyps, None, actual, upper)


# ---------------------------------------------------------------------------
# Jensen / Gruss

def jensen(w: ConformableFn, g: ConformableFn, F: ConformableFn,
           alpha: AlphaLike, window,
           cfg: Optional[QuadratureConfig] = None,
           grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """F(weighted mean of g) <= weighted mean of F(g) for convex outer F.

    F is applied to the values of g (its expression variable t stands for
    the argument); convexity is midpoint-tested on the sampled range of g.
    """
    a = _alpha_value(alpha)
    window = _as_window(window)
    hyps = [_hyp("w nonnegative", w, a, window, "nonnegative", grid_n)]
    w_mass = frac_integral(w, a, window, cfg)
    if w_mass <= 0.0:
        raise HypothesisError(f"weight has non-positive mass {w_mass!r}")

    g_vals = g.values(_grid(window.a, window.b, grid_n), a)
    g_lo, g_hi = min(g_vals), max(g_vals)
    if g_lo < g_hi:
        ok, witness = verify_hypothesis(F, a, (g_lo, g_hi), "convex", grid_n)
        if not ok:
            raise HypothesisError(
                f"outer function fails the midpoint convexity test at x={witness!r}")
    hyps.append(HypothesisCheck("F convex on range of g", True, None, grid_n))

    mean_g = frac_integral(_product(w, g), a, window, cfg) / w_mass
    outer = ConformableFn(
        lambda t, _=a: w.value(t, a) * F.value(g.value(t, a), a))
    actual = frac_integral(outer, a, window, cfg) / w_mass
    lower = F.value(mean_g, a)
    return _make_report("jensen", a, window, hyps, lower, actual, None)


def gruss(f: ConformableFn, g: ConformableFn, alpha: AlphaLike, window,
          bounds1: BoundsPair, bounds2: BoundsPair,
          cfg: Optional[QuadratureConfig] = None,
          grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """|mean(fg) - mean(f) mean(g)| <= (M1 - m1)(M2 - m2)/4."""
    a = _alpha_value(alpha)
    window = _as_window(window)
    hyps = [
        _hyp("m1 <= f <= M1", f, a, window, "bounded", grid_n, bounds1),
        _hyp("m2 <= g <= M2", g, a, window, "bounded", grid_n, bounds2),
    ]
    factor = _avg_factor(a, window)
    actual = abs(factor * frac_integral(_product(f, g), a, window, cfg)
                 - factor ** 2 * frac_integral(f, a, window, cfg)
                 * frac_integral(g, a, window, cfg))
    upper = 0.25 * bounds1.spread * bounds2.spread
    return _make_report("gruss", a, window, hyps, None, actual, upper)


def gruss_montgomery(f: ConformableFn, alpha: AlphaLike, window, t: float,
                     bounds: BoundsPair,
                     cfg: Optional[QuadratureConfig] = None,
                     grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """Trapezoid-corrected Montgomery deviation bounded by (b^a - a^a)(M - m)/(4a)."""
    a = _alpha_value(alpha)
    window = _as_window(window)
    if not window.contains(t):
        raise ValueError(f"t={t} outside window [{window.a}, {window.b}]")
    d1 = frac_deriv_fn(f, 1)
    hyps = [_hyp("m <= D f <= M", d1, a, window, "bounded", grid_n, bounds)]
    a_pow, b_pow, t_pow = (math.pow(window.a, a), math.pow(window.b, a),
                           math.pow(t, a))
    correction = ((2.0 * t_pow - a_pow - b_pow) / (2.0 * _span(a, window))
                  * (f.value(window.b, a) - f.value(window.a, a)))
    actual = abs(f.value(t, a) - _mean_value(f, a, window, cfg) - correction)
    upper = 0.25 * (b_pow - a_pow) / a * bounds.spread
    return _make_report("gruss-montgomery", a, window, hyps, None, actual, upper)


def hermite_hadamard_3(f: ConformableFn, alpha: AlphaLike, window,
                       bounds: BoundsPair,
                       cfg: Optional[QuadratureConfig] = None,
                       grid_n: int = DEFAULT_GRID) -> InequalityReport:
    """|(f(a) + f(b))/2 - weighted mean| <= (b^a - a^a)(M - m)/(4a)."""
    a = _alpha_value(alpha)
    window = _as_window(window)
    d1 = frac_deriv_fn(f, 1)
    hyps = [_hyp("m <= D f <= M", d1, a, window, "bounded", grid_n, bounds)]
    trapezoid = 0.5 * (f.value(window.a, a) + f.value(window.b, a))
    actual = abs(trapezoid - _mean_value(f, a, window, cfg))
    upper = (0.25 * (math.pow(window.b, a) - math.pow(window.a, a)) / a
             * bounds.spread)
    return _make_report("hh3", a, window, hyps, None, actual, upper)
