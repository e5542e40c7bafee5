"""Seeded input generators for the four benchmark workloads.

Pure Python: this module imports neither ``confrac`` nor numpy, so the
worker that times the package and the parent that checks its outputs build
the identical input stream from the same seed.

A workload's stream is a sequence of *rounds*.  Every round has the same
fixed composition (how many operations of each class); the seed draws the
parameters inside each class and the order within the round.  Runs stop
only at round boundaries, so two seeds do the same mix of work.

Most test functions are functions of ``u = t^alpha/alpha``.  Under that
substitution the conformable derivative is exactly ``d/du`` and the weighted
integral is ``int ... du``, so their derivatives, extrema and integrals have
closed forms here that share no code with the package.
"""

from __future__ import annotations

import math
import random

ALPHAS = (0.25, 0.5, 0.75, 1.0)
WORKLOADS = ("battery", "taylor-deep", "ivp", "cli")


def u_of(t: float, alpha: float) -> float:
    return math.pow(t, alpha) / alpha


def t_of(u: float, alpha: float) -> float:
    return math.pow(alpha * u, 1.0 / alpha)


def _num(x: float) -> str:
    """Literal for expression text; negative values get a leading minus."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# closed-form functions of u


class ExpU:
    """c * exp(k u) + d."""

    def __init__(self, c: float, k: float, d: float = 0.0):
        self.c, self.k, self.d = c, k, d

    @property
    def text(self) -> str:
        k = self.k
        if k == 1.0:
            core = "t^alpha/alpha"
        elif k == -1.0:
            core = "-t^alpha/alpha"
        else:
            core = f"{_num(k)}*t^alpha/alpha"
        s = f"exp({core})" if self.c == 1.0 else f"{_num(self.c)}*exp({core})"
        if self.d > 0:
            s += f"+{_num(self.d)}"
        elif self.d < 0:
            s += f"-{_num(-self.d)}"
        return s

    def deriv(self, j: int, u: float) -> float:
        base = self.c * self.k ** j * math.exp(self.k * u)
        return base + self.d if j == 0 else base

    def integral(self, ua: float, ub: float) -> float:
        return (self.c / self.k * (math.exp(self.k * ub) - math.exp(self.k * ua))
                + self.d * (ub - ua))

    def extremes(self, j: int, ua: float, ub: float) -> tuple[float, float]:
        ends = (self.deriv(j, ua), self.deriv(j, ub))
        return min(ends), max(ends)


class PolyU:
    """sum_p c_p u^p, printed with the text it was built from."""

    def __init__(self, coeffs: dict, text: str):
        self.coeffs = coeffs
        self.text = text

    def deriv(self, j: int, u: float) -> float:
        total = 0.0
        for p, c in self.coeffs.items():
            if p >= j:
                total += c * math.factorial(p) / math.factorial(p - j) * u ** (p - j)
        return total

    def integral(self, ua: float, ub: float) -> float:
        return sum(c * (ub ** (p + 1) - ua ** (p + 1)) / (p + 1)
                   for p, c in self.coeffs.items())

    def extremes(self, j: int, ua: float, ub: float) -> tuple[float, float]:
        # the polynomials built here are monotone in u >= 0; the interior
        # samples guard the bound should that ever change
        vals = [self.deriv(j, ua + (ub - ua) * i / 64) for i in range(65)]
        return min(vals), max(vals)


class SinU:
    """c * sin(k u) + d with c, k > 0."""

    def __init__(self, c: float, k: float, d: float = 0.0):
        self.c, self.k, self.d = c, k, d

    @property
    def text(self) -> str:
        core = "t^alpha/alpha" if self.k == 1.0 else f"{_num(self.k)}*t^alpha/alpha"
        s = f"sin({core})" if self.c == 1.0 else f"{_num(self.c)}*sin({core})"
        return s + (f"+{_num(self.d)}" if self.d else "")

    def deriv(self, j: int, u: float) -> float:
        v = self.c * self.k ** j * math.sin(self.k * u + 0.5 * j * math.pi)
        return v + self.d if j == 0 else v

    def integral(self, ua: float, ub: float) -> float:
        return (-self.c / self.k * (math.cos(self.k * ub) - math.cos(self.k * ua))
                + self.d * (ub - ua))

    def extremes(self, j: int, ua: float, ub: float) -> tuple[float, float]:
        lo_th = self.k * ua + 0.5 * j * math.pi
        hi_th = self.k * ub + 0.5 * j * math.pi
        s_lo, s_hi = sorted((math.sin(lo_th), math.sin(hi_th)))
        # a crest (or trough) inside the phase interval attains +1 (or -1)
        if math.floor((hi_th - 0.5 * math.pi) / (2 * math.pi)) >= math.ceil(
                (lo_th - 0.5 * math.pi) / (2 * math.pi)):
            s_hi = 1.0
        if math.floor((hi_th + 0.5 * math.pi) / (2 * math.pi)) >= math.ceil(
                (lo_th + 0.5 * math.pi) / (2 * math.pi)):
            s_lo = -1.0
        amp = self.c * self.k ** j
        shift = self.d if j == 0 else 0.0
        return amp * s_lo + shift, amp * s_hi + shift


def mean_value(f, alpha: float, a: float, b: float) -> float:
    """Weighted mean of f over [a, b]: int f du / (u_b - u_a)."""
    ua, ub = u_of(a, alpha), u_of(b, alpha)
    return f.integral(ua, ub) / (ub - ua)


def padded_bounds(f, j: int, alphas, a: float, b: float, pad: float):
    """Bounds on D^j f over [a, b] for every alpha given, widened by pad."""
    lo = hi = None
    for alpha in alphas:
        m, M = f.extremes(j, u_of(a, alpha), u_of(b, alpha))
        lo = m if lo is None else min(lo, m)
        hi = M if hi is None else max(hi, M)
    margin = pad * (hi - lo) + 1e-6
    return lo - margin, hi + margin


# ---------------------------------------------------------------------------
# shared draws


def _coef(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def _window(rng, lo_min=0.1):
    a = round(rng.uniform(lo_min, 3.0), 4)
    return a, round(a + rng.uniform(0.3, min(2.0, 5.0 - a)), 4)


def _smooth(rng, alpha):
    """A smooth function of u with closed-form derivatives (five shapes)."""
    c, d = _coef(rng, 0.3, 1.5), _coef(rng, 0.0, 2.0)
    kind = rng.randrange(5)
    if kind == 0:
        return ExpU(1.0, -c, d)
    if kind == 1:
        return ExpU(1.0, c)
    if kind == 2:
        return PolyU({2: c, 0: d}, f"{_num(c)}*(t^alpha/alpha)^2+{_num(d)}")
    if kind == 3:
        return PolyU({1: c * alpha, 0: d}, f"{_num(c)}*t^alpha+{_num(d)}")
    return SinU(1.0, c, 1.0 + d)


def _dec_pos(rng):
    return ExpU(_coef(rng, 0.2, 3.0), -1.0, _coef(rng, 0.0, 2.0))


def _g01_text(rng, a, b, alpha):
    """Text of a function with values in [0, 1] on [a, b]."""
    kind = rng.randrange(4)
    if kind == 0:
        return _num(_coef(rng, 0.0, 1.0))
    if kind == 1:
        return f"exp({_num(a)}^alpha/alpha-t^alpha/alpha)"
    lo, hi = a ** alpha, b ** alpha
    k = rng.randint(1, 3)
    if kind == 2:
        return f"(({_num(hi)}-t^alpha)/{_num(hi - lo)})^{k}"
    return f"((t^alpha-{_num(lo)})/{_num(hi - lo)})^{k}"


def _monotone_text(rng):
    c, d = _coef(rng, 0.3, 2.0), _coef(rng, 0.0, 2.0)
    kind = rng.randrange(5)
    if kind == 0:
        return f"{_num(c)}*t^alpha+{_num(d)}"
    if kind == 1:
        return f"{_num(c)}*exp(-t^alpha/alpha)"
    if kind == 2:
        return f"{_num(c)}*exp(t^alpha/alpha)"
    if kind == 3:
        return f"{_num(d)}-{_num(c)}*t^alpha"
    return _num(c)


def _interior(rng, a, b):
    return round(a + rng.uniform(0.05, 0.95) * (b - a), 6)


# ---------------------------------------------------------------------------
# battery: the 14 checkers and the Montgomery residual


def _battery_op(rng, ineq):
    alpha = rng.choice(ALPHAS)
    a, b = _window(rng)
    op = {"kind": "battery", "ineq": ineq, "alpha": alpha, "a": a, "b": b}
    order = 0
    if ineq == "steffensen":
        op["f"], op["g"] = _dec_pos(rng).text, _g01_text(rng, a, b, alpha)
    elif ineq == "sandwich":
        op["g"] = _g01_text(rng, a, b, alpha)
    elif ineq == "rem-steffensen":
        n = rng.randint(0, 2)
        text = f"{_num(_coef(rng, 0.2, 2.0) * (-1.0) ** n)}*exp(-t^alpha/alpha)"
        if n >= 1 and rng.random() < 0.5:
            text += f"+{_num(_coef(rng, 0.1, 1.0))}*(t^alpha/alpha)^{rng.randint(0, n - 1)}"
        op["f"], op["n"], order = text, n, n + 1
    elif ineq == "hh1":
        f = _dec_pos(rng)
        op["f"], order = f.text, 1
        op["expect_actual"] = mean_value(f, alpha, a, b)
    elif ineq == "mm-bounds":
        n = rng.randint(0, 2)
        f = _smooth(rng, alpha)
        op["f"], op["n"], order = f.text, n, n + 1
        op["m"], op["M"] = padded_bounds(f, n + 1, (alpha,), a, b, 0.1)
    elif ineq == "cebysev":
        op["f"], op["g"] = _monotone_text(rng), _monotone_text(rng)
    elif ineq == "rem-cebysev":
        n = rng.randint(0, 2)
        c = _num(_coef(rng, 0.3, 1.5))
        op["f"] = rng.choice((f"{c}*exp(t^alpha/alpha)", f"{c}*exp(-t^alpha/alpha)",
                              f"{c}*(t^alpha/alpha)^{n + 2}", f"{c}*(t^alpha/alpha)^{n + 1}"))
        op["n"], order = n, n + 1
    elif ineq == "hh2":
        c, d = _coef(rng, 0.3, 1.5), _coef(rng, 0.0, 2.0)
        f = rng.choice((ExpU(c, 1.0, d), ExpU(c, -1.0, d),
                        PolyU({2: c, 0: d}, f"{_num(c)}*(t^alpha/alpha)^2+{_num(d)}"),
                        PolyU({1: c * alpha, 0: d}, f"{_num(c)}*t^alpha+{_num(d)}")))
        op["f"], order = f.text, 1
        op["expect_actual"] = mean_value(f, alpha, a, b)
    elif ineq in ("montgomery", "montgomery-residual"):
        f = _smooth(rng, alpha)
        op["f"], op["t"], order = f.text, _interior(rng, a, b), 1
        op["f_at_t"] = f.deriv(0, u_of(op["t"], alpha))
    elif ineq == "ostrowski":
        f = _smooth(rng, alpha)
        op["f"], op["t"], order = f.text, _interior(rng, a, b), 1
        if rng.random() < 0.5:
            m, M = padded_bounds(f, 1, (alpha,), a, b, 0.1)
            op["M"] = max(abs(m), abs(M))
    elif ineq == "jensen":
        wk = rng.randrange(3)
        if wk == 0:
            op["w"] = _num(_coef(rng, 0.2, 2.0))
        elif wk == 1:
            op["w"] = "exp(-t^alpha/alpha)"
        else:
            op["w"] = f"{_num(_coef(rng, 0.2, 1.0))}*t^alpha+{_num(_coef(rng, 0.1, 1.0))}"
        g = _smooth(rng, alpha)
        op["g"] = g.text
        op["F"] = rng.choice(("t^2", "exp(0.5*t)", "abs(t)", "t^4"))
        if op["F"] == "exp(0.5*t)" and g.extremes(0, u_of(a, alpha), u_of(b, alpha))[1] > 1000:
            op["F"] = "t^2"   # exp(0.5 g) would overflow a double
    elif ineq == "gruss":
        f, g = _smooth(rng, alpha), _smooth(rng, alpha)
        op["f"], op["g"] = f.text, g.text
        op["m"], op["M"] = padded_bounds(f, 0, (alpha,), a, b, 0.05)
        op["m2"], op["M2"] = padded_bounds(g, 0, (alpha,), a, b, 0.05)
    elif ineq in ("gruss-montgomery", "hh3"):
        f = _smooth(rng, alpha)
        op["f"], order = f.text, 1
        op["m"], op["M"] = padded_bounds(f, 1, (alpha,), a, b, 0.05)
        if ineq == "gruss-montgomery":
            op["t"] = _interior(rng, a, b)
        else:
            fa, fb = f.deriv(0, u_of(a, alpha)), f.deriv(0, u_of(b, alpha))
            op["expect_actual"] = abs(0.5 * (fa + fb) - mean_value(f, alpha, a, b))
    else:
        raise ValueError(f"unknown inequality {ineq!r}")
    op["orders"] = [order]
    op["texts"] = [op[k] for k in ("f", "g", "w", "F") if k in op]
    return op


BATTERY_CHECKS = ("steffensen", "sandwich", "rem-steffensen", "hh1", "mm-bounds",
                  "cebysev", "rem-cebysev", "hh2", "montgomery", "ostrowski",
                  "jensen", "gruss", "gruss-montgomery", "hh3")


def battery_round(rng):
    ops = [_battery_op(rng, name) for name in BATTERY_CHECKS + ("montgomery-residual",)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# taylor-deep: derivative chains of degree 2-12 over a small text pool


def _classical(value, derivs):
    """Closed forms known only at alpha = 1 (classical Taylor coefficients)."""
    return value, (lambda k, s, a: derivs(k, s) if a == 1.0 else None)


def _ufn_entry(f):
    return (lambda t, a: f.deriv(0, u_of(t, a)),
            lambda k, s, a: f.deriv(k, u_of(s, a)))


_ZERO_SAFE = (0.25, 0.5, 1.0)   # alphas whose chains stay regular at t = 0
_TO8 = (2, 3, 4, 5, 6, 7, 8)

# text -> (degrees run once per round, alphas allowed at center 0,
#          value(t, alpha), closed-form D^k f(s) or None)
TAYLOR_POOL = {
    "exp(t)": (_TO8, _ZERO_SAFE, *_classical(
        lambda t, a: math.exp(t), lambda k, s: math.exp(s))),
    "sin(t)": (_TO8, _ZERO_SAFE, *_classical(
        lambda t, a: math.sin(t), lambda k, s: math.sin(s + 0.5 * k * math.pi))),
    "cos(t)": (_TO8, _ZERO_SAFE, *_classical(
        lambda t, a: math.cos(t), lambda k, s: math.cos(s + 0.5 * k * math.pi))),
    "t^3+2*t": ((2, 4, 6, 8, 10, 12), _ZERO_SAFE, *_classical(
        lambda t, a: t ** 3 + 2 * t,
        lambda k, s: (s ** 3 + 2 * s, 3 * s * s + 2, 6 * s, 6.0)[k] if k < 4 else 0.0)),
    "1/(1+t)": ((2, 3, 4, 5), _ZERO_SAFE, *_classical(
        lambda t, a: 1.0 / (1.0 + t),
        lambda k, s: (-1.0) ** k * math.factorial(k) / (1.0 + s) ** (k + 1))),
    "exp(-t)*cos(t)": ((2, 3, 4, 5), _ZERO_SAFE, *_classical(
        lambda t, a: math.exp(-t) * math.cos(t),
        lambda k, s: (math.sqrt(2.0) ** k * math.exp(-s)
                      * math.cos(s + 0.75 * k * math.pi)))),
    # the product stops at order 5: from order 6 on its derivative trees
    # reach 2.5M nodes and several GB of memory
    "sin(t)*exp(t^alpha/alpha)/(1+t^2)": ((2, 3, 4, 5), (), (
        lambda t, a: math.sin(t) * math.exp(u_of(t, a)) / (1.0 + t * t)), None),
}
for _f, _degrees in ((ExpU(1.0, 1.0), _TO8), (ExpU(1.0, -1.0), _TO8),
                     (ExpU(1.0, 0.5), _TO8), (SinU(1.0, 1.0), _TO8),
                     (PolyU({3: 1.0 / 6.0}, "(t^alpha/alpha)^3/6.0"), (2, 4, 6, 8, 10, 12)),
                     (PolyU({5: 1.0 / 120.0}, "(t^alpha/alpha)^5/120.0"), (2, 4, 6, 8, 10))):
    TAYLOR_POOL[_f.text] = (_degrees, ALPHAS, *_ufn_entry(_f))
del _f, _degrees

# the baseline slow case: D^12 exp(t), once per round.  Always centred at 0
# with alpha 0.5, so its cost hardly varies with the seed; the deepest tree
# also takes the t = 0 substitution path
DEEP_TEXT, DEEP_DEGREE = "exp(t)", 12


def _rotated(rng, pattern, count=None):
    """The pattern repeated to count items, rotated by a seeded offset.

    Unlike a shuffle, neighbouring degrees keep different settings, so the
    expensive high degrees never all draw the same alpha or centre.
    """
    count = len(pattern) if count is None else count
    if not pattern:
        return []
    offset = rng.randrange(len(pattern))
    return [pattern[(offset + i) % len(pattern)] for i in range(count)]


def _taylor_op(rng, text, degree, alpha, zero):
    value, closed = TAYLOR_POOL[text][2:]
    center = 0.0 if zero else round(rng.uniform(0.3, 2.0), 4)
    at = round(center + rng.uniform(0.2, 1.2), 4)
    op = {"kind": "taylor", "text": text, "alpha": alpha, "n": degree,
          "center": center, "at": at, "orders": [degree], "texts": [text],
          "zero": zero, "f_at": value(at, alpha)}
    if closed is not None:
        coeffs = [closed(k, center, alpha) for k in range(degree + 1)]
        if None not in coeffs:
            op["expect_coeffs"] = coeffs
    return op


# every text but the product also runs these low degrees, so the median
# falls among many similar operations and does not hinge on a few
_LIGHT_DEGREES = (2, 3, 4) * 3 + (2, 3) * 3
# and a block of near-equal mid-weight operations (80-90 ms when written)
# holds ranks 6-13% from the top, so the p90 falls inside one class rather
# than in the gap between degree 6 and degree 8
_BLOCK_TEXT, _BLOCK_DEGREE, _BLOCK_SIZE = "exp(t^alpha/alpha)", 7, 20
_PRODUCT_TEXT = "sin(t)*exp(t^alpha/alpha)/(1+t^2)"


def taylor_round(rng):
    ops = [_taylor_op(rng, DEEP_TEXT, DEEP_DEGREE, 0.5, True)]
    ops.extend(_taylor_op(rng, _BLOCK_TEXT, _BLOCK_DEGREE, alpha, False)
               for alpha in _rotated(rng, ALPHAS, _BLOCK_SIZE))
    for text in sorted(TAYLOR_POOL):
        degrees, zero_alphas = TAYLOR_POOL[text][:2]
        if text != _PRODUCT_TEXT:
            degrees = degrees + _LIGHT_DEGREES
        # 40% of a text's operations sit at center 0 where its chain allows
        # it; alphas are balanced, so every round costs about the same
        n_zero = round(0.4 * len(degrees)) if zero_alphas else 0
        n = len(degrees)
        zeros = _rotated(rng, [(i + 1) * n_zero // n > i * n_zero // n for i in range(n)])
        alphas = {True: iter(_rotated(rng, zero_alphas, n_zero)),
                  False: iter(_rotated(rng, ALPHAS, len(degrees) - n_zero))}
        ops.extend(_taylor_op(rng, text, n, next(alphas[z]), z)
                   for n, z in zip(degrees, zeros))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# ivp: solve_full at one point, four classes


# forced-quick holds ranks 27% to 98% of the latency order, so the median
# and the p90 both fall well inside it rather than on a class boundary
IVP_MIX = {"forced-base0": 1, "forced-quick": 32, "homogeneous": 6, "closed-form": 6}


def _ivp_op(rng, cls, alpha):
    if cls == "forced-base0":
        # the slow baseline case (order 2, p = (1, t), alpha 0.7, from 0 to
        # 2) with a seeded forcing amplitude, which leaves its cost unchanged
        alpha = 0.7
        coeffs = ("1", "t")
        rhs = f"{_num(_coef(rng, 0.5, 2.0))}*sin(t)"
        s, t, init = 0.0, 2.0, (0.0, 0.0)
    elif cls == "forced-quick":
        coeffs = (_num(_coef(rng, 0.2, 1.5)), f"{_num(_coef(rng, 0.2, 1.5))}*t")
        rhs = rng.choice(("1", "exp(-t)", "cos(t)"))
        s = round(rng.uniform(0.5, 1.5), 4)
        t = round(s + rng.uniform(0.4, 0.5), 4)
        init = (_coef(rng, -1.0, 1.0), _coef(rng, -1.0, 1.0))
    elif cls == "homogeneous":
        coeffs = (_num(_coef(rng, 0.2, 1.5)), f"{_num(_coef(rng, 0.2, 1.5))}*t")
        rhs = None
        s = round(rng.uniform(0.3, 1.5), 4)
        t = round(s + rng.uniform(0.2, 0.5), 4)
        init = (_coef(rng, 0.5, 2.0), 0.0)
    else:
        order = rng.randint(1, 3)
        coeffs = ()
        rhs = rng.choice(("1", "exp(-t^alpha/alpha)", "t^alpha"))
        s = round(rng.uniform(0.0, 1.5), 4)
        t = round(s + rng.uniform(0.3, 1.5), 4)
        init = tuple(_coef(rng, -1.0, 1.0) for _ in range(order))
    texts = list(coeffs) + ([rhs] if rhs else [])
    return {"kind": "ivp", "cls": cls, "order": len(init), "coeffs": list(coeffs),
            "rhs": rhs, "alpha": alpha, "s": s, "t": t, "init": list(init),
            "orders": [], "texts": texts}


def ivp_round(rng):
    # alphas are balanced within each class: small alphas stretch the u range
    # and with it the RK4 step count, so an unbalanced draw would change the
    # cost of a round
    ops = [_ivp_op(rng, cls, alpha) for cls, count in IVP_MIX.items()
           for alpha in _rotated(rng, ALPHAS, count)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli: in-process confrac.cli.run over all seven subcommands


def _cli_deriv(rng, closed_form):
    alpha = rng.choice(ALPHAS)
    if closed_form:
        f = _smooth(rng, alpha)
        order = rng.randint(1, 3)
        at = 0.0 if rng.random() < 0.25 else round(rng.uniform(0.2, 3.0), 4)
        text, value = f.text, f.deriv(order, u_of(at, alpha))
    else:
        # classical functions, first order: D f = t^(1-alpha) f'(t)
        text, dfdt = rng.choice((
            ("sin(t)*exp(t)", lambda t: math.exp(t) * (math.sin(t) + math.cos(t))),
            ("t^3+2*t", lambda t: 3 * t * t + 2),
            ("ln(1+t)", lambda t: 1.0 / (1.0 + t)),
            ("sqrt(1+t)", lambda t: 0.5 / math.sqrt(1.0 + t)),
        ))
        order, at = 1, round(rng.uniform(0.2, 3.0), 4)
        value = at ** (1.0 - alpha) * dfdt(at)
    argv = ["deriv", "--expr", text, "--alpha", _num(alpha), "--at", _num(at)]
    if order != 1 or rng.random() < 0.5:
        argv += ["--order", str(order)]
    return argv, {"code": 0, "form": "numbers", "values": [value]}, [order], [text], at == 0.0


def _cli_integrate(rng):
    alpha = rng.choice(ALPHAS)
    f = _smooth(rng, alpha)
    a, b = _window(rng)
    if rng.random() < 0.3:
        a = 0.0
    argv = ["integrate", "--expr", f.text, "--alpha", _num(alpha), "--a", _num(a), "--b", _num(b)]
    value = f.integral(u_of(a, alpha), u_of(b, alpha))
    return argv, {"code": 0, "form": "numbers", "values": [value]}, [0], [f.text], False


def _cli_taylor(rng, degree, with_remainder):
    alpha = rng.choice(ALPHAS)
    f = _smooth(rng, alpha)
    center = 0.0 if rng.random() < 0.3 else round(rng.uniform(0.2, 2.0), 4)
    at = round(center + rng.uniform(0.2, 1.0), 4)
    z = u_of(at, alpha) - u_of(center, alpha)
    uc = u_of(center, alpha)
    poly = sum(f.deriv(k, uc) * z ** k / math.factorial(k) for k in range(degree + 1))
    argv = ["taylor", "--expr", f.text, "--alpha", _num(alpha), "--center", _num(center),
            "--degree", str(degree), "--at", _num(at)]
    values = [poly]
    if with_remainder:
        argv.append("--remainder")
        values.append(f.deriv(0, u_of(at, alpha)) - poly)
    orders = [degree + (1 if len(values) == 2 else 0)]
    return argv, {"code": 0, "form": "numbers", "values": values}, orders, [f.text], center == 0.0


def _cli_solve(rng):
    alpha = rng.choice(ALPHAS)
    s = round(rng.uniform(0.0, 1.5), 4)
    t = round(s + rng.uniform(0.3, 1.0), 4)
    argv = ["solve", "--alpha", _num(alpha), "--from", _num(s), "--to", _num(t)]
    if rng.random() < 0.5:
        order = rng.randint(1, 3)
        init = [_coef(rng, -1.0, 1.0) for _ in range(order)]
        c = _coef(rng, 0.0, 2.0)
        argv += ["--order", str(order), "--rhs", _num(c), "--init", ",".join(map(_num, init))]
        expect = {"code": 0, "form": "numbers", "ivp": {
            "order": order, "coeffs": [], "rhs_const": c, "alpha": alpha, "s": s,
            "t": t, "init": init}}
        texts = [_num(c)]
    else:
        p1, p2 = _coef(rng, 0.2, 1.5), _coef(rng, 0.2, 1.5)
        init = [_coef(rng, -1.0, 1.0), _coef(rng, -1.0, 1.0)]
        argv += ["--order", "2", "--coeffs", f"{_num(p1)};{_num(p2)}",
                 "--init", ",".join(map(_num, init))]
        expect = {"code": 0, "form": "numbers", "ivp": {
            "order": 2, "coeffs": [p1, p2], "rhs_const": 0.0, "alpha": alpha, "s": s,
            "t": t, "init": init}}
        texts = [_num(p1), _num(p2)]
    return argv, expect, [], texts, False


def _cli_ell(rng):
    alpha = rng.choice(ALPHAS)
    a, b = _window(rng)
    ua, ub = u_of(a, alpha), u_of(b, alpha)
    if rng.random() < 0.5:
        r = _coef(rng, 0.0, 1.0)
        text, mass = _num(r), r * (ub - ua)
    else:
        text, mass = f"exp({_num(a)}^alpha/alpha-t^alpha/alpha)", 1.0 - math.exp(ua - ub)
    ell = min(max((b - a) * mass / (ub - ua), 0.0), b - a)
    argv = ["ell", "--g", text, "--alpha", _num(alpha), "--a", _num(a), "--b", _num(b)]
    return argv, {"code": 0, "form": "numbers", "values": [ell]}, [0], [text], False


def _fmt_flag(fmt):
    return {"text": [], "json": ["--json"], "csv": ["--csv"]}[fmt]


def _report_case(rng, ineq, alphas, a, b):
    """Flags and the expected 'actual' side per alpha for a holding check."""
    if ineq == "hh1":
        f = _dec_pos(rng)
        flags = ["--f", f.text]
        actual = [mean_value(f, al, a, b) for al in alphas]
        return flags, actual, [1], [f.text]
    if ineq == "hh2":
        f = ExpU(_coef(rng, 0.3, 1.5), rng.choice((1.0, -1.0)), _coef(rng, 0.0, 2.0))
        return ["--f", f.text], [mean_value(f, al, a, b) for al in alphas], [1], [f.text]
    if ineq == "hh3":
        f = rng.choice((ExpU(1.0, -_coef(rng, 0.3, 1.5), _coef(rng, 0.0, 2.0)),
                        SinU(1.0, _coef(rng, 0.3, 1.5), 1.0)))
        m, M = padded_bounds(f, 1, alphas, a, b, 0.05)
        actual = []
        for al in alphas:
            fa, fb = f.deriv(0, u_of(a, al)), f.deriv(0, u_of(b, al))
            actual.append(abs(0.5 * (fa + fb) - mean_value(f, al, a, b)))
        return ["--f", f.text, "--m", _num(m), "--M", _num(M)], actual, [1], [f.text]
    # ostrowski at an interior point with a valid supremum bound
    f = _smooth(rng, alphas[0])
    t = _interior(rng, a, b)
    m, M = padded_bounds(f, 1, alphas, a, b, 0.1)
    actual = [abs(f.deriv(0, u_of(t, al)) - mean_value(f, al, a, b)) for al in alphas]
    flags = ["--f", f.text, "--t", _num(t), "--M", _num(max(abs(m), abs(M)))]
    return flags, actual, [1], [f.text]


def _cli_check(rng, fmt, ineq):
    alpha = rng.choice(ALPHAS)
    a, b = _window(rng)
    flags, actual, orders, texts = _report_case(rng, ineq, (alpha,), a, b)
    argv = (["check", "--ineq", ineq] + flags
            + ["--alpha", _num(alpha), "--a", _num(a), "--b", _num(b)] + _fmt_flag(fmt))
    return argv, {"code": 0, "form": f"report-{fmt}", "actual": actual}, orders, texts, False


SWEEP_ALPHAS = tuple(round(0.1 * i, 12) for i in range(1, 11))


def _cli_sweep(rng, fmt, ineq):
    a, b = _window(rng)
    flags, actual, orders, texts = _report_case(rng, ineq, SWEEP_ALPHAS, a, b)
    argv = (["sweep", "--ineq", ineq] + flags
            + ["--alphas", "0.1:1.0:0.1", "--a", _num(a), "--b", _num(b)] + _fmt_flag(fmt))
    return argv, {"code": 0, "form": f"sweep-{fmt}", "actual": actual}, orders, texts, False


def _cli_invalid(rng, code):
    """Inputs with a documented non-zero exit code."""
    alpha = _num(rng.choice(ALPHAS))
    a, b = _window(rng)
    win = ["--a", _num(a), "--b", _num(b)]
    if code == 1:
        # a trusted supremum far below sup |D f| makes the bound fail
        f = _dec_pos(rng).text
        argv = ["check", "--ineq", "ostrowski", "--f", f, "--t", _num(a),
                "--M", "1e-09", "--alpha", alpha] + win
        return argv, [1], [f]
    if code == 2:
        kind = rng.randrange(3)
        if kind == 0:
            g = f"{_num(_coef(rng, 1.5, 3.0))}+t"
            return ["ell", "--g", g, "--alpha", alpha] + win, [0], [g]
        if kind == 1:
            return (["check", "--ineq", "steffensen", "--f", "-1", "--g", "0.5",
                     "--alpha", alpha] + win, [0], ["-1", "0.5"])
        # at least one and a half periods inside the window: not monotone
        f = f"sin({_num(round(3.0 * math.pi / (b - a) + rng.uniform(0.0, 2.0), 4))}*t)"
        return (["check", "--ineq", "cebysev", "--f", f, "--g", "t", "--alpha", alpha]
                + win, [0], [f, "t"])
    if code == 3:
        kind = rng.randrange(6)
        if kind == 0:
            return ["deriv", "--expr", "sin(t", "--alpha", alpha, "--at", "1.0"], [], ["sin(t"]
        if kind == 1:
            return ["deriv", "--expr", "foo(t)", "--alpha", alpha, "--at", "1.0"], [], ["foo(t)"]
        if kind == 2:
            return ["integrate", "--expr", "t", "--alpha", "1.5"] + win, [], ["t"]
        if kind == 3:
            return (["taylor", "--expr", "exp(t)", "--alpha", alpha, "--center", "0.5",
                     "--degree", "-1", "--at", "1.0"], [], ["exp(t)"])
        if kind == 4:
            return (["check", "--ineq", "hh3", "--f", "exp(t)", "--alpha", alpha] + win,
                    [], ["exp(t)"])
        return ["sweep", "--ineq", "hh1", "--f", "exp(-t)", "--alphas", "0.5:0.1:x"] + win, [], ["exp(-t)"]
    # code 4: numeric failures
    kind = rng.randrange(3)
    if kind == 0:
        f = f"sqrt(t-{_num(_coef(rng, 5.5, 9.0))})"
        return ["deriv", "--expr", f, "--alpha", alpha, "--at", "1.0"], [1], [f]
    if kind == 1:
        f = f"ln(t-{_num(_coef(rng, 5.5, 9.0))})"
        return ["integrate", "--expr", f, "--alpha", alpha] + win, [0], [f]
    # D^2 sin at 0 diverges for alpha = 0.75: the limit does not exist
    return (["deriv", "--expr", "sin(t)", "--alpha", "0.75", "--order", "2", "--at", "0"],
            [2], ["sin(t)"])


DEEP_PARENS = 2000


def _cli_deep_parens(rng):
    """Valid expression nested 2000 parentheses deep.

    Documented outcomes: the value (exit 0) or a parse error (exit 3).  At
    the time the benchmark was written the parser overflows the Python stack
    and the RecursionError escapes cli.run(), a counted failure.
    """
    alpha = rng.choice(ALPHAS)
    at = round(rng.uniform(0.5, 2.0), 4)
    text = "(" * DEEP_PARENS + "t" + ")" * DEEP_PARENS
    argv = ["deriv", "--expr", text, "--alpha", _num(alpha), "--at", _num(at)]
    expect = {"code": [0, 3], "form": "numbers", "values": [at ** (1.0 - alpha)]}
    return argv, expect, [1], [text], False


def _cli_invalid_op(rng, code):
    argv, orders, texts = _cli_invalid(rng, code)
    return argv, {"code": code, "form": "error"}, orders, texts, False


FORMATS = ("text", "json", "csv")


def cli_round(rng):
    """39 invocations; kinds, formats and parameters that set the cost are
    spread evenly, so every round costs about the same."""
    sweep_ineqs = ["hh1", "hh2", "hh3"]
    rng.shuffle(sweep_ineqs)
    makers = (
        [lambda r, c=c: _cli_deriv(r, c) for c in (True, True, False, False)]
        + [_cli_integrate] * 3
        + [lambda r, n=n, rem=rem: _cli_taylor(r, n, rem)
           for n, rem in ((2, True), (3, False), (4, True), (5, False))]
        + [_cli_solve] * 3 + [_cli_ell] * 2
        + [lambda r, f=f, i=i: _cli_check(r, f, i) for f in FORMATS
           for i in ("hh1", "hh2", "hh3", "ostrowski")]
        + [lambda r, f=f, i=i: _cli_sweep(r, f, i) for f, i in zip(FORMATS, sweep_ineqs)]
        + [lambda r, c=c: _cli_invalid_op(r, c) for c in (1, 2, 2, 3, 3, 4, 4)]
        + [_cli_deep_parens]
    )
    ops = []
    for make in makers:
        argv, expect, orders, texts, zero = make(rng)
        ops.append({"kind": "cli", "argv": argv, "expect": expect, "orders": orders,
                    "texts": texts, "zero": zero})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

_ROUND = {"battery": battery_round, "taylor-deep": taylor_round,
          "ivp": ivp_round, "cli": cli_round}


def rounds(workload: str, seed: int):
    """Endless, deterministic stream of rounds for a workload and seed."""
    make = _ROUND[workload]
    rng = random.Random(f"confrac-bench:{workload}:{seed}")
    while True:
        yield make(rng)


def input_properties(ops) -> dict:
    """Properties of the inputs actually run, printed with every result."""
    seen = set()
    texts = repeated = 0
    orders: dict = {}
    zero = 0
    classes: dict = {}
    codes: dict = {}
    for op in ops:
        for text in op["texts"]:
            texts += 1
            repeated += text in seen
            seen.add(text)
        for n in op["orders"]:
            orders[n] = orders.get(n, 0) + 1
        zero += bool(op.get("zero"))
        if op["kind"] == "ivp":
            classes[op["cls"]] = classes.get(op["cls"], 0) + 1
        if op["kind"] == "cli":
            code = op["expect"]["code"]
            key = "0|3" if isinstance(code, list) else str(code)
            codes[key] = codes.get(key, 0) + 1
    total = max(len(ops), 1)
    return {
        "operations": len(ops),
        "repeated_text_share": repeated / texts if texts else 0.0,
        "derivative_order_histogram": {str(k): orders[k] for k in sorted(orders)},
        "t0_path_share": zero / total,
        "ivp_class_share": {k: v / total for k, v in sorted(classes.items())},
        "expected_exit_codes": {k: codes[k] for k in sorted(codes)},
    }
