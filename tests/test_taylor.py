import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from confrac import expr as ex
from confrac import functions as fam
from confrac.calculus import Alpha, ConformableFn, Interval, frac_deriv_n
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


class TestSeriesCoefficients:
    """expand() at s > 0 takes every D^k f(s) from one truncated-series pass;
    these tests hold it to the compiled derivative levels."""

    @pytest.mark.parametrize("text, defined", [
        ("ln(t-2)", False), ("1/(t-1)", False), ("abs(t-1)", False),
        ("sqrt(t-1)", False),
        # a zero base with an integer exponent has a value, not a division by 0
        ("(t-1)^3", True),
    ])
    @pytest.mark.parametrize("alpha", (0.5, 1.0))
    def test_domain_parity_with_compiled_levels(self, text, defined, alpha):
        n, s = 4, 1.0
        try:
            got = expand(ConformableFn.from_expr(text), alpha, n, s).coefficients
        except EvalDomainError:
            got = None
        g = ConformableFn.from_expr(text)
        try:
            want = [frac_deriv_n(g, alpha, k, s) for k in range(n + 1)]
        except EvalDomainError:
            want = None
        assert (got is not None) == (want is not None) == defined
        if defined:
            assert got == pytest.approx(want, rel=1e-9)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(text=st.sampled_from(DEEP_TEXTS), alpha=st.floats(0.2, 1.0, exclude_min=True),
           s=st.floats(0.05, 3.0, exclude_min=True, exclude_max=True))
    def test_matches_compiled_levels(self, text, alpha, s):
        f = _DEEP_FNS[text]
        top = 5 if text.startswith("sin(t)*") else 8
        got = expand(f, alpha, top, s).coefficients
        for k in range(top + 1):
            # the compiled levels sum expanded terms and can lose digits to
            # cancellation on a small D^k (1/(1+t), k = 8, alpha 0.32, s = 3:
            # the series is within 6e-13 of mpmath, frac_deriv_n is off by
            # 1e-8 relative), so the floor scales with the largest D^j, j <= k
            scale = max(abs(c) for c in got[:k + 1])
            assert got[k] == pytest.approx(frac_deriv_n(f, alpha, k, s),
                                           rel=1e-9, abs=1e-9 * scale), k

    def test_no_derivative_tree_and_no_compilation(self, monkeypatch):
        f = ConformableFn.from_expr("sin(t)*exp(t^alpha/alpha)/(1+t^2)")
        compiled = []
        monkeypatch.setattr(ex, "compile_expr", compiled.append)
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
