import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from confrac import _taylor_mode as tm, calculus, expr as ex
from confrac import functions as fam
from confrac.calculus import Alpha, ConformableFn, Interval, frac_deriv_fn, frac_deriv_n
from confrac.errors import EvalDomainError
from confrac.taylor import (binomial_identity_residual, cauchy_kernel, expand,
                            remainder_endpoint_integral, remainder_split_residual,
                            taylor_poly, taylor_remainder)

from conftest import ALPHAS, frac_quad_oracle, random_window


class TestCauchyKernel:
    def test_first_order_is_one(self):
        for t, s in ((0.0, 5.0), (2.0, 2.0), (1.0, 3.0)):
            assert cauchy_kernel(1, 0.5, t, s) == 1.0

    def test_zero_on_diagonal(self):
        for n in (2, 3, 5):
            assert cauchy_kernel(n, 0.75, 1.7, 1.7) == 0.0

    def test_hand_value(self):
        assert cauchy_kernel(3, 0.5, 4.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            cauchy_kernel(0, 0.5, 1.0, 2.0)

    def test_defining_derivatives_through_expression_pipeline(self):
        # D^i of the kernel at t=s vanishes below order n-1 and equals 1 there
        for n in (2, 3, 4):
            for alpha in (0.5, 1.0):
                s = 1.3
                kernel = ConformableFn.from_expr(
                    f"((t^alpha-{s!r}^alpha)/alpha)^{n - 1}/{float(math.factorial(n - 1))!r}")
                for i in range(n):
                    want = 1.0 if i == n - 1 else 0.0
                    got = frac_deriv_n(kernel, alpha, i, s)
                    assert got == pytest.approx(want, abs=1e-12), (n, alpha, i)


class TestTaylorPoly:
    def test_center_value(self):
        f = ConformableFn.from_expr("exp(-t)")
        for n in (0, 3):
            assert taylor_poly(f, 0.5, n, 1.7, 1.7) == f.value(1.7, 0.5)

    def test_exact_for_matching_degree(self):
        f = fam.E(2)
        for s, t in ((1.0, 3.0), (0.5, 2.0)):
            assert taylor_poly(f, 0.5, 2, s, t) == pytest.approx(
                f.value(t, 0.5), rel=1e-12)

    def test_classical_partial_sum(self):
        f = ConformableFn.from_expr("exp(t)")
        assert taylor_poly(f, 1.0, 4, 0.0, 1.0) == pytest.approx(65.0 / 24.0, rel=1e-12)

    def test_expansion_object(self):
        exp = expand(ConformableFn.from_expr("exp(t)"), Alpha(1.0), 3, 0.0)
        assert exp.coefficients == pytest.approx((1.0, 1.0, 1.0, 1.0))
        assert exp.evaluate(0.0) == 1.0


class TestTaylorRemainder:
    def test_minus_one_returns_value(self):
        f = ConformableFn.from_expr("sin(t)")
        assert taylor_remainder(f, 0.5, -1, 9.9, 1.1) == f.value(1.1, 0.5)

    def test_vanishes_for_polynomial(self):
        f = fam.E(2)
        assert taylor_remainder(f, 0.5, 2, 1.0, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_reconstruction_against_quadrature_oracle(self):
        # remainder = f(t) - partial sum, with the integral evaluated by scipy
        f = fam.exp_frac(1.0)
        alpha, n, s, t = 0.5, 2, 1.0, 2.5
        got = taylor_remainder(f, alpha, n, s, t)
        dfn1 = lambda tau: frac_deriv_n(f, alpha, n + 1, tau)
        t_pow = t ** alpha
        integrand = lambda tau: ((t_pow - tau ** alpha) / alpha) ** n * dfn1(tau) / math.factorial(n)
        want = frac_quad_oracle(integrand, alpha, s, t)
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(f.value(t, alpha) - taylor_poly(f, alpha, n, s, t),
                                    rel=1e-9)

    def test_reconstruction_family(self):
        rng = random.Random(71)
        for name, f in fam.standard_family():
            for alpha in (0.25, 0.5, 1.0):
                for _ in range(4):
                    n = rng.randint(0, 4)
                    s = rng.uniform(0.5, 3.0)
                    t = rng.uniform(0.5, 3.0)
                    lhs = f.value(t, alpha)
                    rhs = (taylor_poly(f, alpha, n, s, t)
                           + taylor_remainder(f, alpha, n, s, t))
                    assert abs(lhs - rhs) < 1e-7, (name, alpha, n, s, t)

    def test_reversed_orientation(self):
        # expanding forward or backward across the window both reconstruct f
        f = ConformableFn.from_expr("sin(t)")
        for s, t in ((2.5, 0.8), (0.8, 2.5)):
            rhs = taylor_poly(f, 0.75, 3, s, t) + taylor_remainder(f, 0.75, 3, s, t)
            assert rhs == pytest.approx(f.value(t, 0.75), abs=1e-9)


class TestRemainderIdentities:
    def test_split_residual_n_minus_one(self):
        f = ConformableFn.from_expr("exp(-t)")
        res = remainder_split_residual(f, 0.5, -1, Interval(0.5, 2.0), 1.1)
        assert res == pytest.approx(0.0, abs=1e-10)

    def test_split_residual_constant(self):
        f = fam.constant(3.0)
        for n in (0, 1, 2):
            res = remainder_split_residual(f, 0.5, n, Interval(1.0, 2.0), 1.5)
            assert res == pytest.approx(0.0, abs=1e-12)

    def test_split_residual_smooth(self):
        f = fam.exp_frac(1.0)
        res = remainder_split_residual(f, 0.5, 1, Interval(1.0, 2.0), 1.5)
        assert abs(res) < 1e-7

    def test_split_residual_random(self):
        rng = random.Random(37)
        for _ in range(25):
            f = fam.standard_family()[rng.randrange(8)][1]
            alpha = rng.choice(ALPHAS)
            a, b = random_window(rng)
            t = rng.uniform(a, b)
            n = rng.randint(-1, 3)
            res = remainder_split_residual(f, alpha, n, Interval(a, b), t)
            assert abs(res) < 1e-7, (f.name, alpha, n, a, b, t)

    def test_endpoint_constant(self):
        f = fam.constant(2.0)
        for which in ("at-a", "at-b"):
            ident = remainder_endpoint_integral(f, 0.5, 1, Interval(1.0, 2.0), which)
            assert ident.lhs == pytest.approx(0.0, abs=1e-12)
            assert ident.rhs == pytest.approx(0.0, abs=1e-12)

    def test_endpoint_n_minus_one_reduces_to_integral(self):
        f = ConformableFn.from_expr("exp(-t)")
        want = frac_quad_oracle(lambda t: math.exp(-t), 0.5, 0.5, 2.0)
        for which in ("at-a", "at-b"):
            ident = remainder_endpoint_integral(f, 0.5, -1, Interval(0.5, 2.0), which)
            assert ident.lhs == pytest.approx(want, rel=1e-9)
            assert ident.residual == pytest.approx(0.0, abs=1e-9)

    def test_endpoint_sides_agree_classical(self):
        f = ConformableFn.from_expr("sin(t)")
        ident = remainder_endpoint_integral(f, 1.0, 0, Interval(0.0, 1.0), "at-a")
        assert abs(ident.residual) < 1e-9

    def test_endpoint_random(self):
        rng = random.Random(41)
        for _ in range(25):
            f = fam.standard_family()[rng.randrange(8)][1]
            alpha = rng.choice(ALPHAS)
            a, b = random_window(rng)
            which = rng.choice(("at-a", "at-b"))
            n = rng.randint(-1, 3)
            ident = remainder_endpoint_integral(f, alpha, n, Interval(a, b), which)
            assert abs(ident.residual) < 1e-7, (f.name, alpha, n, a, b, which)


# the texts of the benchmark's Taylor workload; the product stops at order 5
# there (its derivative trees reach millions of nodes from order 6 on)
DEEP_TEXTS = (
    "exp(t)", "sin(t)", "cos(t)", "t^3+2*t", "1/(1+t)", "exp(-t)*cos(t)",
    "exp(t^alpha/alpha)", "exp(-t^alpha/alpha)", "exp(0.5*t^alpha/alpha)",
    "sin(t^alpha/alpha)", "(t^alpha/alpha)^3/6.0", "(t^alpha/alpha)^5/120.0",
    "sin(t)*exp(t^alpha/alpha)/(1+t^2)",
)
_DEEP_FNS = {text: ConformableFn.from_expr(text) for text in DEEP_TEXTS}


def _chain_at(f, k, s, alpha):
    """D^k f(s) by walking the symbolic chain's tree, or None on a domain error."""
    try:
        return ex.evaluate_at(f.frac_expr(k), s, alpha)
    except EvalDomainError:
        return None


# D^1..D^4 f(1) of the symbolic chain where f has no series at t = 1, which
# no route reports: of ln(t-2) and 0*ln(t-2), whose f(1) is undefined, and
# of three constants, whose exact zeros are lost with the series
_ZEROS = {0.5: [0.0] * 4, 1.0: [0.0] * 4}
_CHAIN_ONLY_AT_1 = {
    "ln(t-2)": {0.5: [-1.0, -1.5, -3.5, -12.75], 1.0: [-1.0, -1.0, -2.0, -6.0]},
    "sqrt(t-t)": _ZEROS, "0*abs(t-1)": _ZEROS, "(alpha+(alpha-11))^(-(t-t))": _ZEROS,
    "0*ln(t-2)": _ZEROS,
}


class TestSeriesCoefficients:
    """expand() and frac_deriv_n take every D^k f(s) from one truncated-series
    pass; these tests hold them to the symbolic chain, walked as a tree."""

    @pytest.mark.parametrize("text, defined", [
        ("ln(t-2)", False), ("1/(t-1)", False), ("abs(t-1)", False),
        ("sqrt(t-1)", False),
        # a zero base with an integer exponent has a value, not a division by 0
        ("(t-1)^3", True),
        # identically zero subtrees: the pass meets sqrt or abs at 0, or the
        # log of a negative base, so there is no series and every route
        # raises, while d/dt folds the zero factor away and the chain's
        # levels are the exact zeros of a constant
        ("sqrt(t-t)", True), ("0*abs(t-1)", True),
        ("(alpha+(alpha-11))^(-(t-t))", True),
        # f(1) is undefined, but d/dt folds 0*ln(t-2) to 0: the chain has
        # D^k f(1) = 0, k >= 1, and no route reports them
        ("0*ln(t-2)", False),
    ])
    @pytest.mark.parametrize("alpha", (0.5, 1.0))
    def test_domain_parity_with_compiled_levels(self, text, defined, alpha):
        n, s = 4, 1.0
        g = ConformableFn.from_expr(text)
        want = [_chain_at(g, k, s, alpha) for k in range(n + 1)]
        if text in _CHAIN_ONLY_AT_1:
            # the chain has every level at s, f's value only where defined;
            # the series routes raise at every order instead
            assert (want[0] is not None) == defined
            assert want[1:] == _CHAIN_ONLY_AT_1[text][alpha]
            f = ConformableFn.from_expr(text)
            with pytest.raises(EvalDomainError):
                expand(f, alpha, n, s)
            for k in range(1, n + 1):
                with pytest.raises(EvalDomainError):
                    frac_deriv_n(f, alpha, k, s)
                with pytest.raises(EvalDomainError):
                    frac_deriv_fn(f, k).value(s, alpha)
            return
        try:
            got = expand(ConformableFn.from_expr(text), alpha, n, s).coefficients
        except EvalDomainError:
            got = None
        assert (got is not None) == (None not in want) == defined
        if defined:
            assert got == pytest.approx(want, rel=1e-9)
        f = ConformableFn.from_expr(text)
        for k in range(1, n + 1):
            try:
                value = frac_deriv_n(f, alpha, k, s)
            except EvalDomainError:
                value = None
            assert (value is None) == (want[k] is None), k
            if value is not None:
                assert value == pytest.approx(want[k], rel=1e-9, abs=1e-12), k

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(text=st.sampled_from(DEEP_TEXTS), alpha=st.floats(0.2, 1.0, exclude_min=True),
           s=st.floats(0.05, 3.0, exclude_min=True, exclude_max=True))
    def test_matches_compiled_levels(self, text, alpha, s):
        f = _DEEP_FNS[text]
        top = 5 if text.startswith("sin(t)*") else 8
        got = expand(f, alpha, top, s).coefficients
        for k in range(top + 1):
            # the chain sums expanded terms and can lose digits to
            # cancellation on a small D^k (1/(1+t), k = 8, alpha 0.32, s = 3:
            # the series is within 6e-13 of mpmath, the chain is off by
            # 1e-8 relative), so the floor scales with the largest D^j, j <= k
            scale = max(abs(c) for c in got[:k + 1])
            assert got[k] == pytest.approx(_chain_at(f, k, s, alpha),
                                           rel=1e-9, abs=1e-9 * scale), k
            if k:
                assert frac_deriv_n(f, alpha, k, s) == got[k], k

    def test_no_derivative_tree_and_no_compilation(self, monkeypatch):
        f = ConformableFn.from_expr("sin(t)*exp(t^alpha/alpha)/(1+t^2)")
        compiled = []
        monkeypatch.setattr(ex, "compile_expr", compiled.append)
        monkeypatch.setattr(tm, "compile_jet", lambda e, n: compiled.append(n))
        expand(f, 0.5, 12, 1.3)
        taylor_remainder(f, 0.5, 11, 1.3, 2.0)
        remainder_split_residual(f, 0.5, 6, Interval(0.5, 2.0), 1.1)
        remainder_endpoint_integral(f, 0.5, 6, Interval(0.5, 2.0), "at-b")
        assert len(f._frac_chain) == 1
        assert compiled == []

    @pytest.mark.parametrize("text, g", [
        ("exp(t^alpha/alpha)", mpmath.exp),
        ("exp(-t^alpha/alpha)", lambda u: mpmath.exp(-u)),
        ("exp(0.5*t^alpha/alpha)", lambda u: mpmath.exp(u / 2)),
        ("sin(t^alpha/alpha)", mpmath.sin),
        ("(t^alpha/alpha)^3/6.0", lambda u: u ** 3 / 6),
        ("(t^alpha/alpha)^5/120.0", lambda u: u ** 5 / 120),
    ])
    @pytest.mark.parametrize("alpha", (0.25, 0.5, 1.0))
    def test_remainder_from_zero_in_u(self, text, g, alpha):
        # from centre 0 the quadrature nodes approach t = 0, where a power
        # recurrence on the series of t would cancel; f(t) = g(u) exactly
        f = ConformableFn.from_expr(text)
        with mpmath.workdps(30):
            for n in (1, 4, 7):
                coeffs = mpmath.taylor(g, 0, n)
                for at in (0.7, 1.6):
                    u = mpmath.mpf(at) ** alpha / alpha
                    want = float(g(u) - mpmath.polyval(coeffs[::-1], u))
                    got = taylor_remainder(f, alpha, n, 0.0, at)
                    assert got == pytest.approx(want, rel=1e-8, abs=1e-9), (n, at)

    @pytest.mark.parametrize("alpha", (0.25, 0.5))
    def test_sqrt_remainder_from_zero(self, alpha):
        # sqrt(t) = (alpha u)^(1/(2 alpha)) is u^2/16 or u/2: a polynomial
        # in u, so a remainder past its degree vanishes
        f = ConformableFn.from_expr("sqrt(t)")
        degree = round(1.0 / (2.0 * alpha))
        for n in (degree - 1, degree, 6):
            u = 1.3 ** alpha / alpha
            want = (alpha * u) ** degree if n < degree else 0.0
            got = taylor_remainder(f, alpha, n, 0.0, 1.3)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), n


# f(t(u)) in mpmath for the texts above, given t(u) and u
_DEEP_ORACLES = {
    "exp(t)": lambda t, u: mpmath.exp(t),
    "sin(t)": lambda t, u: mpmath.sin(t),
    "cos(t)": lambda t, u: mpmath.cos(t),
    "t^3+2*t": lambda t, u: t ** 3 + 2 * t,
    "1/(1+t)": lambda t, u: 1 / (1 + t),
    "exp(-t)*cos(t)": lambda t, u: mpmath.exp(-t) * mpmath.cos(t),
    "exp(t^alpha/alpha)": lambda t, u: mpmath.exp(u),
    "exp(-t^alpha/alpha)": lambda t, u: mpmath.exp(-u),
    "exp(0.5*t^alpha/alpha)": lambda t, u: mpmath.exp(u / 2),
    "sin(t^alpha/alpha)": lambda t, u: mpmath.sin(u),
    "(t^alpha/alpha)^3/6.0": lambda t, u: u ** 3 / 6,
    "(t^alpha/alpha)^5/120.0": lambda t, u: u ** 5 / 120,
    "sin(t)*exp(t^alpha/alpha)/(1+t^2)":
        lambda t, u: mpmath.sin(t) * mpmath.exp(u) / (1 + t ** 2),
}


def _loop_at_zero(text, alpha, n):
    """The per-order chain: f(0) and D^k f(0) from the symbolic chain with its
    limit handling, or the error type."""
    g = ConformableFn.from_expr(text)
    try:
        return (g.value(0.0, alpha),) + tuple(
            calculus._chain_derivative(g, alpha, k) for k in range(1, n + 1))
    except Exception as exc:  # the type is compared, not swallowed
        return type(exc)


class TestCentreZeroSeries:
    """expand() at s = 0: t = (alpha u)^(1/alpha), so t^c is a monomial in u
    when c/alpha is whole, and one series pass gives every D^k f(0)."""

    @pytest.mark.parametrize("text", DEEP_TEXTS)
    @pytest.mark.parametrize("alpha", (0.25, 0.5, 1.0))
    def test_matches_mpmath(self, text, alpha):
        power = round(1.0 / alpha)
        oracle = _DEEP_ORACLES[text]
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            # t(u) as the polynomial (alpha u)^(1/alpha), analytic through 0
            coeffs = mpmath.taylor(lambda u: oracle((a * u) ** power, u), 0, 8)
            want = [float(c * mpmath.factorial(k)) for k, c in enumerate(coeffs)]
        f = ConformableFn.from_expr(text)
        got = expand(f, alpha, 8, 0.0).coefficients
        assert len(f._frac_chain) == 1
        # a zero D^k (exp(-t)*cos(t), alpha 1, k = 6) is a sum of terms as
        # large as the other coefficients, so it is met to their rounding
        floor = 1e-14 * max(map(abs, want))
        for k in range(9):
            assert got[k] == pytest.approx(want[k], rel=1e-12, abs=floor), k

    def test_no_derivative_tree_and_no_compilation(self, monkeypatch):
        f = ConformableFn.from_expr("exp(t)")
        compiled = []
        monkeypatch.setattr(ex, "compile_expr", compiled.append)
        monkeypatch.setattr(tm, "compile_jet", lambda e, n: compiled.append(n))
        expand(f, 0.5, 12, 0.0)
        assert len(f._frac_chain) == 1
        assert compiled == []

    @pytest.mark.parametrize("text, alpha, via_series", [
        ("exp(t)", 0.7, False),       # t = (0.7 u)^(1/0.7): no series in u
        ("sqrt(t)", 1.0, False),      # sqrt(t) = u^(1/2): the loop diverges
        ("sqrt(t)", 0.5, True),       # sqrt(t) = u/2
        ("sqrt(t)", 0.25, True),      # sqrt(t) = u^2/16
        ("abs(t)", 0.5, False),       # abs at a zero argument
        ("abs(t)", 1.0, False),
        ("ln(1+t)", 0.5, True),
        ("ln(1+t)", 0.7, False),
        ("sin(t)/t", 0.5, False),     # no value at 0 at all
    ])
    def test_fallback_parity(self, text, alpha, via_series):
        # order 3: from order 4 the loop's limits of sqrt(t) at 0.25 and 0.5
        # no longer converge, while the series still has the exact values
        n = 3
        want = _loop_at_zero(text, alpha, n)
        f = ConformableFn.from_expr(text)
        if isinstance(want, type):
            with pytest.raises(want):
                expand(f, alpha, n, 0.0)
            return
        got = expand(f, alpha, n, 0.0).coefficients
        assert (len(f._frac_chain) == 1) == via_series
        if via_series:
            # the loop's values at 0 are Aitken limits, converged to 1e-8
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)
        else:
            assert got == want

    @pytest.mark.parametrize("alpha, want", [(0.5, (0.0, 0.5, 0.0, 0.0, 0.0, 0.0)),
                                             (0.25, (0.0, 0.0, 0.125, 0.0, 0.0, 0.0))])
    def test_sqrt_exact_where_the_loop_fails(self, alpha, want):
        assert expand(ConformableFn.from_expr("sqrt(t)"), alpha, 5, 0.0).coefficients == want


class TestHighOrderCoefficients:
    def test_past_the_float_factorial(self):
        # exp(t) at alpha 0.5 is exp(u^2/4) in u, so D^200 f(0) = 200! / (4^100 100!),
        # about 5e156, although 200! overflows a float
        got = expand(ConformableFn.from_expr("exp(t)"), 0.5, 200, 0.0).coefficients
        with mpmath.workdps(30):
            want = mpmath.factorial(200) / (4 ** 100 * mpmath.factorial(100))
        assert got[200] == pytest.approx(float(want), rel=1e-12)
        assert got[199] == 0.0

    def test_subnormal_coefficient_is_not_scaled(self):
        # c_278 of exp(u^2/4) is 2.1e-323, a subnormal with two bits left:
        # 278! c_278 would come out 8% below the true 4.6e237
        with pytest.raises(EvalDomainError):
            expand(ConformableFn.from_expr("exp(t)"), 0.5, 278, 0.0)

    @pytest.mark.parametrize("n", (171, 200))
    def test_overflow_is_a_domain_error(self, n):
        # D^k 1/(2-t) at 1 is k!: it fits a float up to k = 170 and no further;
        # the overflow is reported at once, with no fallback to the chain
        f = ConformableFn.from_expr("1/(2-t)")
        assert expand(f, 1.0, 170, 1.0).coefficients[170] == pytest.approx(
            math.factorial(170), rel=1e-12)
        with pytest.raises(EvalDomainError):
            expand(f, 1.0, n, 1.0)
        assert len(f._frac_chain) == 1


class TestBinomialIdentity:
    def test_equal_points_exact(self):
        for n in (1, 2, 5):
            assert binomial_identity_residual(n, 0.5, 4.0, 2.0, 2.0) == 0.0

    def test_first_order_exact(self):
        assert binomial_identity_residual(1, 0.5, 4.0, 2.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_hand_case(self):
        assert abs(binomial_identity_residual(3, 0.5, 4.0, 2.0, 1.0)) < 1e-12

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            binomial_identity_residual(0, 0.5, 1.0, 2.0, 3.0)

    def test_against_mpmath_oracle(self):
        # high-precision evaluation of both sides straight from the points
        rng = random.Random(53)
        mpmath.mp.dps = 50
        for _ in range(50):
            n = rng.randint(1, 6)
            alpha = rng.choice(ALPHAS)
            t, s, r = (rng.uniform(0.0, 5.0) for _ in range(3))
            res = binomial_identity_residual(n, alpha, t, s, r)
            a = mpmath.mpf(alpha)
            z = lambda x, y: (mpmath.mpf(x) ** a - mpmath.mpf(y) ** a) / a
            lhs = z(t, r) ** n / mpmath.factorial(n)
            rhs = mpmath.fsum(
                z(t, s) ** k * z(s, r) ** (n - k)
                / (mpmath.factorial(k) * mpmath.factorial(n - k))
                for k in range(n + 1))
            assert abs(lhs - rhs) < mpmath.mpf("1e-30")
            scale = 1.0 + abs(float(lhs))
            assert abs(res) <= 1e-12 * scale
