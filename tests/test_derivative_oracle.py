"""Iterated conformable derivatives against an independent sympy oracle.

The oracle applies t^(1-alpha) d/dt n times with sympy's own
differentiation and evaluates the result in 30-digit arithmetic, so it
shares no code with the package's expression layer.  Both of the package's
routes are held to it: the Taylor-mode coefficients behind frac_deriv_n and
expand(), and the symbolic chain (frac_expr), which is the fallback where
no series exists.
"""

import mpmath
import pytest
import sympy

from confrac import expr as ex
from confrac.calculus import ConformableFn, frac_deriv_n
from confrac.taylor import expand

# the expression pool of the benchmark's Taylor workload
POOL = (
    "exp(t)", "sin(t)", "cos(t)", "t^3+2*t", "1/(1+t)", "exp(-t)*cos(t)",
    "exp(t^alpha/alpha)", "exp(-t^alpha/alpha)", "exp(0.5*t^alpha/alpha)",
    "sin(t^alpha/alpha)", "(t^alpha/alpha)^3/6.0", "(t^alpha/alpha)^5/120.0",
    "sin(t)*exp(t^alpha/alpha)/(1+t^2)",
)
PRODUCT = "sin(t)*exp(t^alpha/alpha)/(1+t^2)"
POINTS = (0.3, 1.0, 2.2)
ALPHAS = (0.25, 0.5, 0.75, 1.0)

_t = sympy.Symbol("t", positive=True)


def _oracle_chain(text, alpha, top):
    """D^0..D^top of text at a fixed alpha, as mpmath callables of t."""
    a = sympy.Rational(alpha)
    f = sympy.sympify(text.replace("^", "**"), locals={"t": _t, "alpha": a},
                      rational=True)
    chain = []
    for _ in range(top + 1):
        chain.append(sympy.lambdify(_t, f, "mpmath"))
        f = _t ** (1 - a) * sympy.diff(f, _t)
    return chain


@pytest.mark.parametrize("text", POOL)
def test_matches_sympy_and_compiled_equals_tree_walk(text):
    top = 4 if text == PRODUCT else 6
    f = ConformableFn.from_expr(text)
    with mpmath.workdps(30):
        for a in ALPHAS:
            oracle = _oracle_chain(text, a, top)
            jets = {t: expand(f, a, top, t).coefficients for t in POINTS}
            for n in range(1, top + 1):
                tree = f.frac_expr(n)
                for t in POINTS:
                    got = frac_deriv_n(f, a, n, t)
                    want = float(oracle[n](mpmath.mpf(t)))
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-12), (n, t, a)
                    assert jets[t][n] == pytest.approx(want, rel=1e-10, abs=1e-12), (
                        "series", n, t, a)
                    chain = ex.evaluate_at(tree, t, a)
                    assert chain == pytest.approx(want, rel=1e-10, abs=1e-12), (
                        "chain", n, t, a)
                    # the compiled evaluator performs the tree's operations
                    assert ex.compile_expr(tree)(t, a) == chain, (n, t, a)


def distinct_nodes(root: ex.Expr) -> int:
    """Number of distinct node objects reachable from root."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, ex.Neg):
            stack.append(node.operand)
        elif isinstance(node, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
            stack.extend((node.left, node.right))
        elif isinstance(node, ex.Pow):
            stack.extend((node.base, node.exponent))
        elif isinstance(node, ex.Call):
            stack.append(node.arg)
    return len(seen)


def test_exp_chain_grows_by_distinct_nodes():
    f = ConformableFn.from_expr("exp(t)")
    sizes = {n: distinct_nodes(f.frac_expr(n)) for n in range(8, 13)}
    assert sizes[12] <= 25_000
    for n in range(9, 13):
        assert sizes[n] <= 2.2 * sizes[n - 1], sizes
