"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
import re

import mpmath
import scipy.integrate
from hypothesis import settings

from confrac import expr as ex

# every run draws the same examples: a fixed sequence per test, and no
# database of earlier failures to replay
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# ---------------------------------------------------------------------------
# independent quadrature oracle (scipy, never the package's own integrator)


def quad_oracle(fn, a, b):
    """Plain adaptive quadrature of fn over [a, b] via scipy."""
    val, _ = scipy.integrate.quad(fn, a, b, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val


def frac_quad_oracle(fn, alpha, a, b):
    """Weighted integral of fn(t) t^(alpha-1) over [a, b] via scipy.

    Must stay independent of the package's quadrature: integrates the
    weighted integrand directly, telling scipy about the endpoint power
    singularity when a == 0.
    """
    if alpha == 1.0:
        return quad_oracle(fn, a, b)
    weighted = lambda t: fn(t) * t ** (alpha - 1.0)
    if a == 0.0:
        val, _ = scipy.integrate.quad(weighted, a, b, epsabs=1e-12, epsrel=1e-12,
                                      limit=400, points=[0.0],
                                      weight="alg", wvar=(alpha - 1.0, 0.0))
        return val
    val, _ = scipy.integrate.quad(weighted, a, b, epsabs=1e-12, epsrel=1e-12,
                                  limit=400)
    return val


# ---------------------------------------------------------------------------
# independent oracle for D^k f(0) (sympy's series, never the package's)


def u_series_at_zero(text, alpha, top):
    """The right-hand limits D^k f(0), k = 0..top, of the conformable
    derivatives of text at a rational alpha (a Fraction, or a string such as
    "7/10"), None where a limit does not exist.

    With u = t^alpha/alpha, D^k f is d^k/du^k of f((alpha u)^(1/alpha)),
    whose series at u = 0+ sympy gives as a sum of c_e u^e, a c_e with
    powers of log u included.  d^k/du^k of one term tends to 0 for e > k;
    without log u it tends to c_k k! at e = k and to 0 for a whole e < k;
    otherwise it has no limit.  The series to O(u^(top+1)) so decides every
    order through top.
    """
    import sympy

    a = sympy.Rational(alpha)
    u = sympy.Symbol("u", positive=True)
    f = sympy.sympify(text.replace("^", "**"), rational=True,
                      locals={"t": (a * u) ** (1 / a), "alpha": a, "ln": sympy.log})
    log_u = sympy.Symbol("log_u")  # log(u) apart, so each term is c u^e
    series = sympy.expand(sympy.series(f, u, 0, top + 1).removeO().subs(sympy.log(u), log_u))
    terms: dict = {}
    for term in sympy.Add.make_args(series):
        c, e = term.as_coeff_exponent(u)
        terms[e] = terms.get(e, 0) + c
    out = []
    for k in range(top + 1):
        exists = all(c == 0 or e > k
                     or (not c.has(log_u) and e.is_integer and e >= 0)
                     for e, c in terms.items())
        out.append(float(terms.get(sympy.Integer(k), 0) * sympy.factorial(k))
                   if exists else None)
    return out


# ---------------------------------------------------------------------------
# independent IVP oracles (mpmath at 30 digits, never the package's stepping)

_MP_CALLS = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp, "abs": abs,
             "ln": mpmath.log, "sqrt": mpmath.sqrt}


def mp_function(tree):
    """tree as a function of (t, alpha) in mpmath's working precision.  It
    raises ValueError where the float evaluators fault: ln or sqrt out of
    their domain, a division by zero, a negative base to a fractional power
    or 0 to a negative one."""
    if isinstance(tree, ex.Num):
        c = tree.value
        return lambda t, a: mpmath.mpf(c)
    if isinstance(tree, ex.Sym):
        return (lambda t, a: t) if tree.name == "t" else (lambda t, a: a)
    if isinstance(tree, ex.Neg):
        f = mp_function(tree.operand)
        return lambda t, a: -f(t, a)
    if isinstance(tree, ex.Call):
        f, name = mp_function(tree.arg), tree.func

        def call(t, a):
            x = f(t, a)
            if name == "ln" and x <= 0 or name == "sqrt" and x < 0:
                raise ValueError(f"{name} of {x}")
            return _MP_CALLS[name](x)
        return call
    if isinstance(tree, ex.Pow):
        f, g = mp_function(tree.base), mp_function(tree.exponent)

        def power(t, a):
            x, y = f(t, a), g(t, a)
            if x < 0 and y != int(y) or x == 0 and y < 0:
                raise ValueError(f"{x} to the power {y}")
            return mpmath.power(x, y)
        return power
    f, g, kind = mp_function(tree.left), mp_function(tree.right), type(tree)

    def binary(t, a):
        x, y = f(t, a), g(t, a)
        if kind is ex.Div and y == 0:
            raise ValueError("division by zero")
        return x + y if kind is ex.Add else x - y if kind is ex.Sub else \
            x * y if kind is ex.Mul else x / y
    return binary


def ivp_reference(coeffs, forcing, alpha, s, t, init):
    """The state (y, D y, ..., D^(n-1) y) at t of D^n y + sum_i p_i D^(n-i) y
    = f with D^k y(s) = init[k], in mpmath floats.  In u = t^alpha/alpha the
    problem is a classical linear system, which mpmath.odefun (a Taylor
    method; degree 16 and tolerance 1e-20 at 30 digits) integrates, run in
    -u for a window that goes back.  coeffs and forcing are expression trees
    (forcing None for 0), which must be analytic in u along the window, at
    its start too; t(u) takes u clamped at 0 as the package does."""
    n = len(init)
    ps = [mp_function(p) for p in coeffs]
    f = mp_function(forcing) if forcing is not None else None
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        us, ut = mpmath.mpf(s) ** a / a, mpmath.mpf(t) ** a / a
        sign = 1 if ut >= us else -1

        def rhs(w, z):
            tt = (a * max(sign * w, 0)) ** (1 / a)
            top = f(tt, a) if f is not None else 0
            for i, p in enumerate(ps, start=1):
                top -= p(tt, a) * z[n - i]
            return [sign * v for v in list(z[1:]) + [top]]

        solution = mpmath.odefun(rhs, sign * us, [mpmath.mpf(v) for v in init],
                                 tol=mpmath.mpf(1e-20), degree=16)
        return solution(sign * ut)


def ivp_expm_reference(coeffs, forcing, alpha, s, t, init):
    """The same state for constant coefficients and a constant forcing
    (floats, forcing None for 0): the exponential of the companion matrix,
    with the forcing as one more constant state, over u(t) - u(s)."""
    n = len(init)
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        span = (mpmath.mpf(t) ** a - mpmath.mpf(s) ** a) / a
        m = mpmath.zeros(n + 1, n + 1)
        for j in range(n - 1):
            m[j, j + 1] = 1
        for i, p in enumerate(coeffs, start=1):
            m[n - 1, n - i] = -mpmath.mpf(p)
        m[n - 1, n] = mpmath.mpf(forcing or 0)
        z = mpmath.expm(m * span) * mpmath.matrix([mpmath.mpf(v) for v in init] + [1])
        return [z[j] for j in range(n)]


# ---------------------------------------------------------------------------
# random expression trees (canonical shapes only: literals are non-negative)


def random_tree(rng: random.Random, depth: int = 4) -> ex.Expr:
    """Arbitrary well-formed AST for round-trip testing."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            ex.T, ex.ALPHA,
            ex.Num(round(rng.uniform(0.0, 9.0), 3)),
            ex.Num(float(rng.randint(0, 12))),
        ])
    kind = rng.randrange(8)
    if kind == 0:
        return ex.Neg(random_tree(rng, depth - 1))
    if kind == 1:
        return ex.Add(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 2:
        return ex.Sub(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 3:
        return ex.Mul(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 4:
        return ex.Div(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 5:
        return ex.Pow(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    return ex.Call(rng.choice(ex.FUNCTIONS), random_tree(rng, depth - 1))


# the literals to_text prints: digits, a fraction, an exponent
_PRINTED_LITERAL = re.compile(r"\d+(?:\.\d+)?(?:e[+-]?\d+)?")
_LITERALS = ("0", "1", "2", "0.5", "0.7", "1.0", "3.25", "10", "2.5e-3", "1e2", "0.1",
             "3.141592653589793", "pi", "e")


def random_text(rng: random.Random, tree: ex.Expr = None) -> str:
    """to_text of a random_tree (or of tree) with its literals drawn anew, a
    third of them repeating one drawn before (0.5*t+0.5 beside 0.5*t+0.7),
    some the constants pi and e or the value of pi; one text in five is
    corrupted: a ")" dropped, a "#" inserted, a 1e999 literal, an unknown
    name or a cut."""
    text = ex.to_text(random_tree(rng) if tree is None else tree)
    drawn = []

    def literal(_):
        drawn.append(rng.choice(drawn) if drawn and rng.random() < 0.33
                     else rng.choice(_LITERALS))
        return drawn[-1]

    text = _PRINTED_LITERAL.sub(literal, text)
    if rng.random() < 0.2:
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(5)
        if kind == 0 and ")" in text:
            cut = rng.choice([k for k, c in enumerate(text) if c == ")"])
            text = text[:cut] + text[cut + 1:]
        elif kind == 1:
            text = text[:at] + "#" + text[at:]
        elif kind == 2:
            text = text[:at] + "+1e999" + text[at:]
        elif kind == 3:
            text = text[:at] + rng.choice(("x", "tan(t)", "t2", "alph")) + text[at:]
        else:
            text = text[:at] + text[at + rng.randint(1, 3):]
    return text


def random_safe_tree(rng: random.Random, depth: int = 3) -> ex.Expr:
    """AST from a family that is smooth and domain-safe on t in [0.5, 3]."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            ex.T, ex.T, ex.ALPHA,
            ex.Num(round(rng.uniform(0.25, 2.5), 3)),
        ])
    # affine call arguments and atomic power bases bound the higher
    # derivatives, keeping finite differences trustworthy at h = 1e-5
    kind = rng.randrange(7)
    child = lambda: random_safe_tree(rng, depth - 1)
    affine = lambda: ex.Add(ex.Num(round(rng.uniform(0.0, 2.0), 3)),
                            ex.Mul(ex.Num(round(rng.uniform(0.2, 1.0), 3)), ex.T))
    if kind == 0:
        return ex.Add(child(), child())
    if kind == 1:
        return ex.Sub(child(), child())
    if kind == 2:
        return ex.Mul(child(), random_safe_tree(rng, min(depth - 1, 1)))
    if kind == 3:
        return ex.Pow(rng.choice([ex.T, ex.ALPHA]), ex.Num(float(rng.randint(2, 3))))
    if kind == 4:
        return ex.Call(rng.choice(("sin", "cos")), affine())
    if kind == 5:
        return ex.Call("exp", ex.Mul(ex.Num(0.3), ex.Call("cos", affine())))
    return ex.Div(child(), ex.Add(ex.Num(2.0), ex.Pow(ex.T, ex.Num(2.0))))


def central_fd(fn, t, h):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def random_window(rng: random.Random, lo_min=0.1, hi_max=5.0):
    a = rng.uniform(lo_min, 3.0)
    b = a + rng.uniform(0.3, min(2.0, hi_max - a))
    return a, b


ALPHAS = (0.25, 0.5, 0.75, 1.0)
