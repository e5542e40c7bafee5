import math
import random
import warnings

import pytest

from confrac import functions as fam
from confrac.calculus import (Alpha, ConformableFn, Interval, QuadratureConfig,
                              frac_deriv, frac_deriv_fn, frac_deriv_n, frac_integral)
from confrac import calculus, expr as ex
from confrac.errors import (ExprDepthError, InstabilityWarning, LimitError,
                            QuadratureError, SmoothnessError)

from conftest import ALPHAS, frac_quad_oracle, random_safe_tree, random_window


class TestTypes:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan])
    def test_alpha_rejects(self, bad):
        with pytest.raises(ValueError):
            Alpha(bad)

    def test_alpha_accepts_boundary(self):
        assert Alpha(1.0).value == 1.0
        assert Alpha(1e-6).value == 1e-6

    @pytest.mark.parametrize("a,b", [(-1.0, 2.0), (2.0, 1.0), (1.0, 1.0)])
    def test_interval_rejects(self, a, b):
        with pytest.raises(ValueError):
            Interval(a, b)

    def test_interval_zero_start(self):
        win = Interval(0.0, 1.0)
        assert win.width == 1.0 and win.contains(0.5)

    def test_quadrature_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)
        with pytest.raises(ValueError):
            QuadratureConfig(mode="magic")


class TestFracDeriv:
    def test_identity_function(self):
        f = ConformableFn.from_expr("t")
        assert frac_deriv(f, 0.5, 4.0) == pytest.approx(2.0, abs=1e-14)

    def test_eigenvalue_one(self):
        # t^alpha/alpha differentiates to the constant 1
        f = ConformableFn.from_expr("t^alpha/alpha")
        for alpha in ALPHAS:
            for t in (0.3, 1.0, 2.7):
                assert frac_deriv(f, alpha, t) == pytest.approx(1.0, abs=1e-13)

    def test_alpha_one_is_classical(self):
        rng = random.Random(11)
        for _ in range(50):
            tree = random_safe_tree(rng)
            f = ConformableFn.from_expr(tree)
            t = rng.uniform(0.5, 3.0)
            assert frac_deriv(f, 1.0, t) == pytest.approx(
                f.classical_derivative(t, 1.0), rel=1e-14, abs=1e-14)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            frac_deriv(ConformableFn.from_expr("t"), 0.5, -1.0)

    def test_limit_at_zero_constant_case(self):
        # sqrt at alpha = 1/2: t^(1/2) / (2 sqrt(t)) = 1/2 everywhere
        f = ConformableFn.from_expr("sqrt(t)")
        assert frac_deriv(f, 0.5, 0.0) == pytest.approx(0.5, abs=1e-8)

    def test_limit_at_zero_vanishing(self):
        f = ConformableFn.from_expr("t")
        assert frac_deriv(f, 0.5, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_limit_at_zero_divergent(self):
        with pytest.raises(LimitError):
            frac_deriv(ConformableFn.from_expr("sqrt(t)"), 1.0, 0.0)

    def test_linearity(self):
        rng = random.Random(13)
        for _ in range(50):
            f1 = ConformableFn.from_expr(random_safe_tree(rng))
            f2 = ConformableFn.from_expr(random_safe_tree(rng))
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            t = rng.uniform(0.5, 3.0)
            alpha = rng.choice(ALPHAS)
            lhs = (t ** (1 - alpha)
                   * (a * f1.classical_derivative(t, alpha)
                      + b * f2.classical_derivative(t, alpha)))
            rhs = a * frac_deriv(f1, alpha, t) + b * frac_deriv(f2, alpha, t)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestFracDerivN:
    def test_n_zero_identity(self):
        f = ConformableFn.from_expr("sin(t)")
        assert frac_deriv_n(f, 0.5, 0, 1.3) == f.value(1.3, 0.5)

    def test_e_k_ladder(self):
        # D^k E_k = 1 for every alpha and t
        for k in range(5):
            f = fam.E(k)
            for alpha in (0.25, 0.5, 1.0):
                for t in (0.4, 1.0, 2.5):
                    assert frac_deriv_n(f, alpha, k, t) == pytest.approx(1.0, rel=1e-11)

    def test_eigenfunction(self):
        # exp(t^alpha/alpha) reproduces itself; at alpha=1/2, t=1 the value is e^2
        f = fam.exp_frac(1.0)
        for n in range(5):
            assert frac_deriv_n(f, 0.5, n, 1.0) == pytest.approx(math.exp(2.0), rel=1e-11)

    def test_nested_fd_cross_check(self):
        # low-order numeric fallback agrees with the symbolic route
        sym = ConformableFn.from_expr("exp(t)")
        num = ConformableFn.from_callable(math.exp, smoothness=3)
        for n in (1, 2):
            want = frac_deriv_n(sym, 0.5, n, 1.2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InstabilityWarning)
                got = frac_deriv_n(num, 0.5, n, 1.2)
            assert got == pytest.approx(want, rel=1e-5)

    def test_fallback_capped(self):
        f = ConformableFn.from_callable(math.exp)
        with pytest.raises(SmoothnessError):
            frac_deriv_n(f, 0.5, 4, 1.0)

    def test_smoothness_declared(self):
        f = ConformableFn.from_callable(math.exp, smoothness=1)
        with pytest.raises(SmoothnessError):
            frac_deriv_n(f, 0.5, 2, 1.0)

    def test_frac_deriv_fn_matches(self):
        f = fam.exp_frac(-1.0)
        d2 = frac_deriv_fn(f, 2)
        for t in (0.5, 1.5):
            assert d2.value(t, 0.5) == pytest.approx(frac_deriv_n(f, 0.5, 2, t), rel=1e-13)

    def test_levels_compile_on_first_evaluation_away_from_zero(self):
        f = ConformableFn.from_expr("exp(t)*cos(t)")
        # regular at 0: every level is evaluated from its specialized tree
        assert frac_deriv_n(f, 1.0, 4, 0.0) == pytest.approx(-4.0, rel=1e-12)
        assert f._frac_compiled[1:] == [None] * 4
        frac_deriv_n(f, 0.5, 2, 1.0)
        d3 = frac_deriv_fn(f, 3)
        assert [c is not None for c in f._frac_compiled] == [True, False, True, False, False]
        d3.value(0.7, 0.5)
        assert f._frac_compiled[3] is not None and f._frac_compiled[4] is None

    def test_too_deep_chain_raises_depth_error(self):
        # t*t+...+t*t (3000 terms) parses but is too deep to differentiate,
        # and too deep for the distribution of t^(1-alpha) over its terms
        chain = ex.parse("+".join(["t*t"] * 3000))
        f = ConformableFn(lambda t, alpha=1.0: 3000.0 * t * t, expr=chain)
        with pytest.raises(ExprDepthError):
            f.frac_expr(1)
        with pytest.raises(ExprDepthError):
            calculus._distribute(calculus._T_POW_1MA, chain)


class TestFracIntegral:
    def test_constant_closed_form(self):
        one = fam.constant(1.0)
        for alpha in ALPHAS:
            for a, b in ((0.0, 1.0), (0.5, 2.0), (1.0, 4.0)):
                want = (b ** alpha - a ** alpha) / alpha
                got = frac_integral(one, alpha, Interval(a, b))
                assert got == pytest.approx(want, rel=1e-12)

    def test_singular_weight_at_zero(self):
        one = fam.constant(1.0)
        assert frac_integral(one, 0.5, Interval(0.0, 1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_alpha_one_classical(self):
        f = ConformableFn.from_expr("t")
        assert frac_integral(f, 1.0, Interval(0.0, 1.0)) == pytest.approx(0.5, rel=1e-12)

    def test_orientation_sign(self):
        f = ConformableFn.from_expr("exp(t)")
        fwd = frac_integral(f, 0.5, (1.0, 2.0))
        rev = frac_integral(f, 0.5, (2.0, 1.0))
        assert rev == -fwd

    def test_degenerate_window(self):
        f = ConformableFn.from_expr("exp(t)")
        assert frac_integral(f, 0.5, (1.5, 1.5)) == 0.0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            frac_integral(fam.constant(1.0), 0.5, (-1.0, 1.0))

    def test_modes_agree_away_from_zero(self):
        rng = random.Random(17)
        direct = QuadratureConfig(mode="direct")
        for _ in range(25):
            f = ConformableFn.from_expr(random_safe_tree(rng))
            alpha = rng.choice(ALPHAS)
            a, b = random_window(rng, lo_min=0.2)
            v1 = frac_integral(f, alpha, (a, b))
            v2 = frac_integral(f, alpha, (a, b), direct)
            assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-9)

    def test_direct_mode_at_zero_uses_substitution(self):
        one = fam.constant(1.0)
        got = frac_integral(one, 0.5, Interval(0.0, 1.0), QuadratureConfig(mode="direct"))
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_against_scipy_oracle(self):
        rng = random.Random(19)
        for _ in range(20):
            f = ConformableFn.from_expr(random_safe_tree(rng))
            alpha = rng.choice(ALPHAS)
            a, b = random_window(rng)
            want = frac_quad_oracle(lambda t: f.value(t, alpha), alpha, a, b)
            got = frac_integral(f, alpha, (a, b))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-10)

    def test_linearity(self):
        f = ConformableFn.from_expr("sin(t)")
        g = ConformableFn.from_expr("exp(-t)")
        combo = ConformableFn(lambda t, al: 2.0 * f.value(t, al) - 3.0 * g.value(t, al))
        win = Interval(0.5, 2.0)
        lhs = frac_integral(combo, 0.5, win)
        rhs = 2.0 * frac_integral(f, 0.5, win) - 3.0 * frac_integral(g, 0.5, win)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_unreachable_tolerance_raises(self):
        spiky = ConformableFn.from_expr("1/t")
        with pytest.raises(QuadratureError):
            frac_integral(spiky, 1.0, Interval(0.0, 1.0))

    def test_fundamental_theorem(self):
        rng = random.Random(23)
        for _ in range(60):
            f = ConformableFn.from_expr(random_safe_tree(rng))
            alpha = rng.choice(ALPHAS)
            a, b = random_window(rng)
            d = frac_deriv_fn(f, 1)
            got = frac_integral(d, alpha, (a, b))
            want = f.value(b, alpha) - f.value(a, alpha)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_weight_monotone_on_grid(self):
        for alpha in ALPHAS:
            prev = math.inf
            for i in range(1, 200):
                t = 0.05 * i
                w = t ** (alpha - 1.0)
                assert w <= prev + 1e-15
                prev = w


class TestInstabilityWarning:
    def test_warned_on_rough_function(self):
        # |t - 1.2| has a kink: iterated differences near it are unreliable
        f = ConformableFn.from_callable(lambda t: abs(t - 1.2) ** 1.5)
        with pytest.warns(InstabilityWarning):
            frac_deriv_n(f, 1.0, 2, 1.2000001)
