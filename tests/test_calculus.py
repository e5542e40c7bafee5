import math
import random
import sys
import threading
import time
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from confrac import functions as fam
from confrac.calculus import (Alpha, ConformableFn, Interval, QuadratureConfig,
                              frac_deriv, frac_deriv_fn, frac_deriv_n, frac_integral)
from confrac import _quad, _taylor_mode as tm, calculus, expr as ex, inequalities, taylor
from confrac._quad import adaptive_integrate
from confrac.errors import (ConfracError, EvalDomainError, ExprDepthError, ExprSizeError,
                            InstabilityWarning, LimitError, QuadratureError,
                            SmoothnessError)

from confrac.taylor import expand

from conftest import ALPHAS, frac_quad_oracle, random_safe_tree, random_tree, random_window


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


def _outcome(fn):
    """The value's bits, or the error's type and message."""
    try:
        return fn().hex()
    except ConfracError as exc:
        return type(exc), str(exc)


class TestOneRouteToFirstDerivative:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from(ALPHAS),
           t=st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
           kind=st.sampled_from(("expr", "deriv_fn", "callable", "with_derivative")))
    def test_frac_deriv_is_frac_deriv_n_at_order_one(self, seed, alpha, t, kind):
        rng = random.Random(seed)
        g = ConformableFn.from_expr(random_tree(rng, 3))
        if kind == "expr":
            f = g
        elif kind == "deriv_fn":
            f = frac_deriv_fn(g, rng.randint(1, 3))
        elif kind == "callable":
            f = ConformableFn.from_callable(lambda s: g.value(s, alpha))
        else:
            f = ConformableFn.from_callable(lambda s: g.value(s, alpha),
                                            derivatives=[lambda s: g.classical_derivative(s, alpha)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstabilityWarning)
            assert _outcome(lambda: frac_deriv(f, alpha, t)) == \
                _outcome(lambda: frac_deriv_n(f, alpha, 1, t))

    def test_derivative_callables_substitute_at_zero(self):
        # t^(1/2) cos(t) at 0 is exactly 0; extrapolating samples gave -3.5e-19
        f = ConformableFn.from_callable(math.sin, derivatives=[math.cos])
        assert frac_deriv_n(f, 0.5, 1, 0.0) == 0.0
        assert frac_deriv(f, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("fn, derivative, want", [
        # 0.0 ** -0.5 raises ZeroDivisionError, math.log(0.0) ValueError
        (lambda s: s ** 0.5, lambda s: 0.5 * s ** -0.5, 0.5),
        (lambda s: s ** 1.5, lambda s: 1.5 * math.exp(0.5 * math.log(s)), 0.0),
    ], ids=["zero-division", "value-error"])
    def test_derivative_callable_singular_at_zero_takes_the_limit(self, fn, derivative, want):
        f = ConformableFn.from_callable(fn, derivatives=[derivative])
        assert frac_deriv(f, 0.5, 0.0) == pytest.approx(want, abs=1e-8)
        assert frac_deriv_n(f, 0.5, 1, 0.0) == frac_deriv(f, 0.5, 0.0)
        assert frac_deriv_fn(f, 1).value(0.0, 0.5) == frac_deriv(f, 0.5, 0.0)

    def test_smoothness_zero_callable_has_no_derivative(self):
        f = ConformableFn.from_callable(abs, smoothness=0)
        for t in (0.0, 1.0):
            with pytest.raises(SmoothnessError, match="smoothness is 0"):
                frac_deriv(f, 0.5, t)


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

    @pytest.mark.parametrize("text, alpha", [("exp(t)*cos(t)", 0.5), ("1/(1+t)", 0.5),
                                             ("exp(t)*cos(t)", 1.0)])
    def test_values_at_zero_take_the_scalar_limit(self, text, alpha):
        # exp(t)*cos(t) is regular at 0; 1/(1+t) at alpha 0.5 needs Aitken
        f = ConformableFn.from_expr(text)
        d2 = frac_deriv_fn(f, 2)
        ts = [0.0, 0.5, 1.0, 0.0, 2.0]
        got = d2.values(ts, alpha)
        assert got == [d2.value(t, alpha) for t in ts]
        assert got[0] == got[3] == frac_deriv_n(f, alpha, 2, 0.0)

    def test_values_fail_where_the_pointwise_loop_fails(self):
        d1 = frac_deriv_fn(ConformableFn.from_expr("t^0.5"), 1)  # diverges at 0
        with pytest.raises(LimitError, match="diverges"):
            d1.values([0.5, 0.0, 1.0], 0.75)
        assert d1.values([0.5, 1.0], 0.75) == [d1.value(0.5, 0.75), d1.value(1.0, 0.75)]

    def test_values_of_a_callable_loop_over_value(self):
        f = ConformableFn.from_callable(math.exp)
        assert f.values([0.0, 0.5], 0.5) == [1.0, math.exp(0.5)]

    def test_levels_compile_on_first_evaluation_away_from_zero(self, monkeypatch):
        compiled = []
        compile_jet = tm.compile_jet
        monkeypatch.setattr(tm, "compile_jet",
                            lambda e, n: compiled.append(n) or compile_jet(e, n))
        f = ConformableFn.from_expr("exp(t)*cos(t)")
        # regular at 0: the series pass at u = 0 gives every order, compiling nothing
        assert frac_deriv_n(f, 1.0, 4, 0.0) == pytest.approx(-4.0, rel=1e-12)
        d3 = frac_deriv_fn(f, 3)
        assert d3.value(0.0, 1.0) == frac_deriv_n(f, 1.0, 3, 0.0)
        assert compiled == [] and f._frac_compiled[1:] == []
        # a one-off value is one series pass; the first t > 0 evaluation of a
        # derivative function builds that order's evaluator, and only it
        frac_deriv_n(f, 0.5, 2, 1.0)
        assert compiled == []
        d3.value(0.7, 0.5)
        assert compiled == [3]
        assert [c is not None for c in f._frac_compiled] == [True, False, False, True]
        d3.values([0.5, 1.5], 0.5)
        frac_deriv_fn(f, 3).value(2.0, 0.25)
        frac_deriv_fn(f, 2).values([0.5, 1.5], 0.5)
        assert compiled == [3, 2]
        assert len(f._frac_chain) == 1

    def test_too_deep_chain_raises_depth_error(self):
        # t*t+...+t*t (3000 terms) parses but is too deep to differentiate,
        # and too deep for the distribution of t^(1-alpha) over its terms
        chain = ex.parse("+".join(["t*t"] * 3000))
        f = ConformableFn(lambda t, alpha=1.0: 3000.0 * t * t, expr=chain)
        with pytest.raises(ExprDepthError):
            f.frac_expr(1)
        with pytest.raises(ExprDepthError):
            calculus._distribute(calculus._T_POW_1MA, chain)


class TestFracDerivNIgnoresCompiledState:
    @pytest.mark.parametrize("text, t", [("1e308*10 + t", 1.5), ("exp(-t)*cos(t)", 1.3),
                                         ("sqrt(t - 2)", 1.0)])
    def test_same_outcome_before_and_after_frac_deriv_fn_compiles(self, text, t):
        # 1e308*10 overflows c_0 alone, where compiled jets still give a
        # finite c_1; frac_deriv_n answers from its input, not from what
        # frac_deriv_fn compiled into the function before
        f = ConformableFn.from_expr(text)
        before = [_outcome(lambda: frac_deriv_n(f, 0.5, n, t)) for n in range(1, 5)]
        for n in range(1, 5):
            _outcome(lambda: frac_deriv_fn(f, n).value(t, 0.5))
            assert f._frac_compiled[n] is not None
        assert [_outcome(lambda: frac_deriv_n(f, 0.5, n, t)) for n in range(1, 5)] == before

    @pytest.mark.parametrize("text", ["1e308*10 + t", "exp(-t)*cos(t)", "ln(t-2)"])
    def test_the_jets_and_the_pass_in_both_orders(self, monkeypatch, text):
        # a function holding its jets of order n takes D^n from them, and
        # runs the pass only where they raise or leave float range
        passes = []
        coefficients = calculus._coefficients
        monkeypatch.setattr(calculus, "_coefficients",
                            lambda *args: passes.append(args) or coefficients(*args))
        points = [(n, t) for n in range(1, 5) for t in (0.6, 1.3, 2.5)]

        def outcomes(f):
            return [_outcome(lambda: frac_deriv_n(f, 0.5, n, t)) for n, t in points]

        def with_jets(f):
            for n in range(1, 5):
                f._jets(n)
            return f

        passed_first = ConformableFn.from_expr(text)
        by_pass = outcomes(passed_first)
        assert len(passes) == len(points)
        assert outcomes(with_jets(passed_first)) == by_pass
        jets_first = with_jets(ConformableFn.from_expr(text))
        del passes[:]
        assert outcomes(jets_first) == outcomes(ConformableFn.from_expr(text)) == by_pass
        failed = sum(not isinstance(o, str) for o in by_pass)
        assert len(passes) == len(points) + failed  # the jets ran no pass where they held
        assert (failed > 0) == (text == "ln(t-2)")

    def test_a_failing_point_runs_the_code_once_then_the_pass(self, monkeypatch):
        # ln(t-2) has no series at t = 1: the derivative function's point
        # form tries f's compiled code once, then runs the pass for its error
        counts = {"top": 0, "batch": 0, "pass": 0}
        compile_jet, coefficients = tm.compile_jet, calculus._coefficients

        def counted(name, fn):
            return lambda *args: counts.__setitem__(name, counts[name] + 1) or fn(*args)

        def counted_jet(e, n):
            jets = compile_jet(e, n)
            return tm.Jets(counted("top", jets.top), counted("batch", jets.batch))

        monkeypatch.setattr(tm, "compile_jet", counted_jet)
        monkeypatch.setattr(calculus, "_coefficients", counted("pass", coefficients))
        d = frac_deriv_fn(ConformableFn.from_expr("ln(t-2)"), 2)
        with pytest.raises(EvalDomainError):
            d.value(1.0, 0.5)
        assert counts == {"top": 1, "batch": 0, "pass": 1}
        counts.update({"top": 0, "pass": 0})
        with pytest.raises(EvalDomainError):
            d.values([3.0, 2.5, 1.0], 0.5)
        assert counts == {"top": 3, "batch": 1, "pass": 1}

    def test_a_t_that_is_not_finite_raises(self):
        f = ConformableFn.from_expr("t^2")
        for t in (math.nan, math.inf):
            for n in (0, 1, 2):
                with pytest.raises(ValueError, match="t must be finite"):
                    frac_deriv_n(f, 1.0, n, t)
            with pytest.raises(ValueError, match="t must be finite"):
                frac_deriv(f, 1.0, t)
        with pytest.raises(ValueError, match="t must be >= 0"):
            frac_deriv_n(f, 1.0, 1, -math.inf)


class TestOverFactorial:
    def test_rounds_once_past_170_and_as_before_up_to_22(self):
        rng = random.Random(29)
        for _ in range(400):
            c = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
            k = rng.choice((rng.randint(0, 22), rng.randint(171, 400)))
            got = calculus._over_factorial(c, k)
            if k <= 22:
                assert got == c / math.factorial(k)
            else:  # c / k! does not convert k! to a float
                assert got == float(Fraction(c) / math.factorial(k))
        assert math.copysign(1.0, calculus._over_factorial(-0.0, 200)) == -1.0

    def test_zeros_past_170_without_the_factorial(self):
        # a quotient under half the least subnormal is a signed zero from
        # lgamma, with no k! built: at k = 171 on both sides of that edge
        # against the exact Fraction, at k = 500 for every float c, and at
        # k = 10^6, where math.factorial alone takes seconds, against the
        # bound 2^(k-1) <= k!
        rng = random.Random(21)
        half_least = Fraction(1, 2 ** 1075)
        edge = float(math.factorial(171) * half_least)
        cs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-40, 308) for _ in range(200)]
        cs += [edge * (1.0 + d) for d in (-1e-15, -1e-16, 0.0, 1e-16, 1e-15)]
        cs += [sys.float_info.max, 5e-324]
        assert Fraction(sys.float_info.max) / 2 ** (10 ** 6 - 1) < half_least
        for k in (171, 500, 10 ** 6):
            for c in cs + [-c for c in cs]:
                got = calculus._over_factorial(c, k)
                want = (float(Fraction(c) / math.factorial(k)) if k < 10 ** 6
                        else math.copysign(0.0, c))
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (c, k)


def _same_outcome(first, second) -> bool:
    """Equal values (0.0 and -0.0 alike), or errors of one type and message."""
    def run(fn):
        try:
            return fn()
        except ConfracError as exc:
            return type(exc), str(exc)
    a, b = run(first), run(second)
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


_OVERFLOW = ex.Mul(ex.Num(1e308), ex.Num(10.0))  # inf as a value, c_0 only


def _remainder_check(check: str, f: ConformableFn, alpha: float, n: int):
    """One of the three remainder bounds of f on [0.5, 2]."""
    window = Interval(0.5, 2.0)
    if check == "rem-steffensen":
        return inequalities.remainder_steffensen(f, alpha, n, window)
    if check == "mm-bounds":
        bounds = inequalities.BoundsPair(-1.0, 1e3)
        return inequalities.remainder_mm_bounds(f, alpha, n, bounds, window)
    return inequalities.remainder_cebysev(f, alpha, n, window)


class TestOneFinitenessRule:
    """At t > 0, frac_deriv_n raises only where D^n itself is not finite, as
    the compiled functions of frac_deriv_fn do; expand needs every order."""

    def test_an_infinite_value_leaves_the_derivatives(self):
        f = ConformableFn.from_expr("1e308*10 + t")
        want = frac_deriv_n(f, 0.5, 1, 1.5)
        assert want == pytest.approx(math.sqrt(1.5), rel=1e-15)
        assert frac_deriv_fn(f, 1).value(1.5, 0.5) == want
        assert frac_deriv_n(f, 0.5, 1, 1.5) == want
        for n in (2, 3, 4):
            assert frac_deriv_n(f, 0.5, n, 1.5) == frac_deriv_fn(f, n).value(1.5, 0.5)
        for degree in (0, 2):
            with pytest.raises(EvalDomainError, match="not finite"):
                expand(f, 0.5, degree, 1.5)
        # the integral remainder takes D^{n+1} f alone, as the kernel integrals do
        assert (taylor.taylor_remainder(f, 0.5, 0, 1.0, 2.0)
                == taylor.taylor_remainder(ConformableFn.from_expr("t"), 0.5, 0, 1.0, 2.0))

    def test_expand_of_a_plain_callable_checks_its_value_too(self):
        symbolic = ConformableFn.from_expr("1e308*10 + t")
        plain = ConformableFn.from_callable(lambda t: 1e308 * 10 + t,
                                            derivatives=[lambda t: 1.0])
        for degree in (0, 1):
            with pytest.raises(EvalDomainError) as want:
                expand(symbolic, 0.5, degree, 1.0)
            with pytest.raises(EvalDomainError) as got:
                expand(plain, 0.5, degree, 1.0)
            assert str(got.value) == str(want.value) == "derivatives at t=1.0 are not finite"
        finite = ConformableFn.from_callable(lambda t: t * t, derivatives=[lambda t: 2 * t])
        assert expand(finite, 0.5, 2, 1.5).coefficients == tuple(
            frac_deriv_n(finite, 0.5, k, 1.5) for k in range(3))
        with pytest.raises(ValueError, match="t must be >= 0"):
            expand(finite, 0.5, 0, -1.0)

    def test_expand_at_a_negative_centre_raises_for_both_kinds(self):
        kinds = [ConformableFn.from_expr("t"), ConformableFn.from_expr("exp(t)"),
                 ConformableFn.from_callable(lambda t: t, derivatives=[lambda t: 1.0])]
        for f in kinds:
            for degree in (0, 2):
                with pytest.raises(ValueError) as exc:
                    expand(f, 0.5, degree, -1.0)
                assert str(exc.value) == "t must be >= 0, got -1.0"

    def test_an_infinite_top_order_still_raises(self):
        f = ConformableFn.from_expr("t^alpha*(1e308*10)")
        with pytest.raises(EvalDomainError, match="not finite"):
            frac_deriv_n(f, 0.5, 1, 1.5)
        with pytest.raises(EvalDomainError, match="not finite"):
            frac_deriv_fn(f, 1).value(1.5, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           t=st.floats(0.05, 3.0), alpha=st.sampled_from(ALPHAS),
           wrap=st.sampled_from(("none", "add", "sub")))
    def test_both_routes_agree_on_random_trees(self, seed, n, t, alpha, wrap):
        tree = random_tree(random.Random(seed))
        if wrap == "add":
            tree = ex.Add(_OVERFLOW, tree)
        elif wrap == "sub":
            tree = ex.Sub(tree, _OVERFLOW)
        f = ConformableFn.from_expr(tree)
        direct = lambda: frac_deriv_n(f, alpha, n, t)
        assert _same_outcome(direct, lambda: frac_deriv_fn(f, n).value(t, alpha))
        assert _same_outcome(direct, lambda: frac_deriv_n(ConformableFn.from_expr(tree),
                                                          alpha, n, t))

    @pytest.mark.parametrize("n", range(3))
    @pytest.mark.parametrize("check", ["rem-steffensen", "mm-bounds", "rem-cebysev"])
    def test_remainder_checks_of_an_infinite_value(self, check, n):
        # the kernel integral needs c_{n+1} only; at n = 0 the bound takes
        # D^0 f = f at two points, inf - inf, and a NaN side has no verdict
        run = lambda: _remainder_check(check, ConformableFn.from_expr("1e308*10 + t"), 0.5, n)
        if n == 0:
            with pytest.raises(EvalDomainError, match="side is not a number"):
                run()
            return
        report = run()
        sides = [v for v in (report.lower, report.actual, report.upper) if v is not None]
        assert all(map(math.isfinite, sides))
        with _point_panels():
            assert run() == report


class TestTaylorModeDerivatives:
    """D^k f(t) = k! c_k from the compiled Taylor-mode code, at every order."""

    def test_high_order_against_mpmath(self):
        # exp(t) at alpha 1/2 is exp(u^2/4) with t = u^2/4: D^k is the k-th
        # u-derivative of exp(u^2/4) at u = 2
        f = ConformableFn.from_expr("exp(t)")
        with mpmath.workdps(40):
            for k in (16, 40, 100):
                want = mpmath.diff(lambda u: mpmath.exp(u * u / 4), 2, k)
                assert frac_deriv_n(f, 0.5, k, 1.0) == pytest.approx(float(want), rel=1e-12), k
        assert len(f._frac_chain) == 1

    def test_cancellation_case_against_mpmath(self):
        # the chain loses 1e-8 relative here to cancellation in its sums
        a, t, k = 0.3206, 3.0, 8
        got = frac_deriv_n(ConformableFn.from_expr("1/(1+t)"), a, k, t)
        with mpmath.workdps(40):
            ma = mpmath.mpf(a)
            u0 = mpmath.mpf(t) ** ma / ma
            want = mpmath.diff(lambda u: 1 / (1 + (ma * u) ** (1 / ma)), u0, k)
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_derivatives_of_a_derivative(self):
        f = ConformableFn.from_expr("exp(-t)*cos(t^alpha/alpha)")
        d1 = frac_deriv_fn(f, 1)
        for t in (0.4, 1.7):
            assert frac_deriv_n(d1, 0.5, 2, t) == frac_deriv_n(f, 0.5, 3, t)
            assert frac_deriv_fn(d1, 2).value(t, 0.5) == frac_deriv_fn(f, 3).value(t, 0.5)
            assert frac_deriv(d1, 0.5, t) == frac_deriv_n(f, 0.5, 2, t)
        assert frac_deriv_n(d1, 1.0, 2, 0.0) == frac_deriv_n(f, 1.0, 3, 0.0)
        assert d1.frac_expr(2) is f.frac_expr(3)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           alpha=st.sampled_from((0.25, 0.5, 0.7, 1.0)),
           ts=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 3.0)), min_size=1, max_size=5))
    def test_values_equal_the_point_loop(self, seed, n, alpha, ts):
        f = ConformableFn.from_expr(random_tree(random.Random(seed), 3))
        d = frac_deriv_fn(f, n)
        try:
            want = [d.value(t, alpha) for t in ts]
        except ConfracError as exc:
            with pytest.raises(type(exc)):
                d.values(ts, alpha)
            return
        assert [v.hex() for v in d.values(ts, alpha)] == [v.hex() for v in want]

    def test_threads_sharing_one_function_get_aligned_evaluators(self):
        f = ConformableFn.from_expr("exp(-t)*cos(t^alpha/alpha)/(1+t)")
        ts = [0.3 + 0.1 * i for i in range(20)]
        want = {n: frac_deriv_fn(ConformableFn.from_expr(f.name), n).values(ts, 0.5)
                for n in range(1, 6)}
        workers = 6
        barrier = threading.Barrier(workers)
        got = [None] * workers

        def work(slot):
            barrier.wait(timeout=60)
            got[slot] = {n: frac_deriv_fn(f, n).values(ts, 0.5) for n in (5, 3, 1, 4, 2)}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(g == want for g in got)
        # one slot per compiled order (order 5 runs the pass), none appended twice
        assert len(f._frac_compiled) == calculus._JET_UNROLL_MAX + 1 == 5
        assert None not in f._frac_compiled

    def test_chain_stops_at_its_node_budget(self):
        f = ConformableFn.from_expr("exp(t)")
        assert f.frac_expr(12) is not None  # 20,708 distinct nodes
        start = time.perf_counter()
        with pytest.raises(ExprSizeError):
            f.frac_expr(24)
        assert time.perf_counter() - start < 1.0
        assert len(f._frac_chain) == 13
        # where the series exists no chain is needed, at any order
        assert frac_deriv_n(f, 0.5, 24, 1.0) > 0.0


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


def _point_panels():
    """adaptive_integrate without its batch integrand: every panel point by point."""
    return mock.patch.object(calculus, "adaptive_integrate",
                             lambda fn, a, b, *rest: adaptive_integrate(fn, a, b, *rest[:3]))


def _bits_or_error(fn):
    try:
        return fn().hex()
    except Exception as exc:  # the integrand's own errors pass through
        return type(exc), str(exc)


class TestBatchedPanels:
    """A G7/K15 panel of a function with a batch evaluator is one batch call,
    with the float, or the error, of the point-by-point panel."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.one_of(st.sampled_from(ALPHAS),
                                                          st.floats(0.05, 1.0)),
           lo=st.floats(0.0, 3.0), width=st.floats(0.01, 2.0),
           mode=st.sampled_from(("transformed", "direct")),
           kind=st.sampled_from(("f", "product", "derivative", "montgomery", "kernel")))
    def test_batch_equals_point_panels(self, seed, alpha, lo, width, mode, kind):
        rng = random.Random(seed)
        tree = random_tree(rng, 3)
        if kind == "kernel" and rng.random() < 0.25:
            tree = ex.Add(_OVERFLOW, tree)  # c_0 inf: the kernel reads c_m only
        f = ConformableFn.from_expr(tree)
        g = ConformableFn.from_expr(random_tree(rng, 3))
        n = rng.randint(1, 3)
        m = rng.randint(1, calculus._JET_UNROLL_MAX)  # the kernel's order
        anchor = lo + rng.random() * width
        hi = lo + width
        cfg = QuadratureConfig(mode=mode, max_subdivisions=100)

        def run():
            if kind == "f":
                return frac_integral(f, alpha, (lo, hi), cfg)
            if kind == "product":
                return frac_integral(inequalities._product(f, g), alpha, (lo, hi), cfg)
            if kind == "derivative":
                return frac_integral(frac_deriv_fn(f, n), alpha, (lo, hi), cfg)
            if kind == "kernel":
                return taylor._kernel_integral(f, alpha, m - 1, Interval(lo, hi), anchor, cfg)
            return inequalities.montgomery_residual(f, alpha, Interval(lo, hi),
                                                    lo + 0.3 * width, cfg)

        with _point_panels():
            want = _bits_or_error(run)
        assert _bits_or_error(run) == want

    @staticmethod
    def _integrand(nan_at, raise_at):
        # on [0, 1] the first Kronrod pair is 0.0043 and 0.9957, after the centre
        def fn(x):
            if nan_at(x):
                return math.nan
            if raise_at(x):
                raise ZeroDivisionError(f"fault at {x!r}")
            return x * x
        return fn

    @pytest.mark.parametrize("raise_at", [lambda x: x > 0.99, lambda x: False],
                             ids=["fault-after-nan", "nan-only"])
    @pytest.mark.parametrize("batch_kind", ["loop", "no-raise"])
    def test_faults_as_point_by_point(self, raise_at, batch_kind):
        # a non-finite node comes first, then (or not) a node that raises
        fn = self._integrand(lambda x: x < 0.01, raise_at)
        if batch_kind == "loop":
            batch = lambda xs: [fn(x) for x in xs]
        else:  # a batch that returns where the point form raises
            batch = lambda xs: [math.nan if x < 0.01 else math.inf if raise_at(x) else x * x
                                for x in xs]
        with pytest.raises(Exception) as point:
            adaptive_integrate(fn, 0.0, 1.0, 1e-10, 1e-10, 50)
        with pytest.raises(Exception) as batched:
            adaptive_integrate(fn, 0.0, 1.0, 1e-10, 1e-10, 50, batch)
        assert type(batched.value) is type(point.value)
        assert str(batched.value) == str(point.value)
        assert type(point.value) is (ZeroDivisionError if raise_at(1.0) else QuadratureError)

    def test_one_batch_call_per_panel(self):
        points, batches = [], []
        fn = lambda x: points.append(x) or math.exp(-x) * math.cos(3.0 * x)
        batch = lambda xs: batches.append(len(xs)) or [math.exp(-x) * math.cos(3.0 * x)
                                                        for x in xs]
        want = adaptive_integrate(fn, 0.2, 4.0, 1e-12, 1e-12, 200)
        panels = len(points) // 15
        del points[:]
        assert adaptive_integrate(fn, 0.2, 4.0, 1e-12, 1e-12, 200, batch) == want
        assert points == [] and batches == [15] * panels

    # the orders whose kernel coefficient c_{n+1} is compiled
    @pytest.mark.parametrize("n", range(calculus._JET_UNROLL_MAX))
    @pytest.mark.parametrize("check", ["rem-steffensen", "mm-bounds", "rem-cebysev"])
    def test_one_batch_call_per_kernel_panel(self, monkeypatch, check, n):
        tm.cache_clear()
        f = ConformableFn.from_expr("exp(t)*(2+t)")
        panels, points, batches, compiled = [], [], [], []
        gk15 = _quad._gk15

        def counted_gk15(fn, a, b, batch=None):
            panels.append((a, b))
            counted = lambda xs: batches.append(len(xs)) or batch(xs)
            return gk15(lambda x: points.append(x) or fn(x), a, b,
                        None if batch is None else counted)

        def kernel_integral(*args):
            before = tm.cache_info().misses
            value = taylor._kernel_integral(*args)
            compiled.append(tm.cache_info().misses - before)
            return value

        monkeypatch.setattr(_quad, "_gk15", counted_gk15)
        monkeypatch.setattr(inequalities, "_kernel_integral", kernel_integral)
        report = _remainder_check(check, f, 0.75, n)
        # the kernel's c_{n+1} is the code the D^{n+1} f grid compiled
        assert compiled == [0] and tm.cache_info().misses > 0
        assert points == [] and len(panels) > 0 and batches == [15] * len(panels)
        monkeypatch.undo()
        with _point_panels():
            assert _remainder_check(check, f, 0.75, n) == report

    def test_product_integrals_fail_where_the_point_loop_fails(self):
        # on [0.5, 3] the panel's point rule meets g's domain error at its
        # second node, before f's overflow at its third, while the product's
        # batch samples f at every node first and raises the overflow; the
        # panel then evaluates point by point, so the integral raises g's
        # error, as the point form does
        product = inequalities._product(ConformableFn.from_expr("exp(245*t)"),
                                        ConformableFn.from_expr("ln(t-0.7)"))
        point = _bits_or_error(lambda: frac_integral(ConformableFn(product.value), 1.0,
                                                     (0.5, 3.0)))
        assert _bits_or_error(lambda: frac_integral(product, 1.0, (0.5, 3.0))) == point
        assert point[0] is EvalDomainError
        assert _bits_or_error(lambda: product.values([0.5, 3.0], 1.0)) != point

    def test_grids_still_sample_through_values_only(self):
        # quadrature takes the batch evaluator itself, not the overridable values()
        calls = []

        class Counting(ConformableFn):
            __slots__ = ()

            def values(self, ts, alpha=1.0):
                calls.append(len(ts))
                return super().values(ts, alpha)

        f = Counting.from_expr("exp(-t)*cos(t)")
        assert frac_integral(f, 0.5, (0.5, 2.0)) == frac_integral(
            ConformableFn.from_expr("exp(-t)*cos(t)"), 0.5, (0.5, 2.0))
        assert calls == []


class TestInstabilityWarning:
    def test_warned_on_rough_function(self):
        # |t - 1.2| has a kink: iterated differences near it are unreliable
        f = ConformableFn.from_callable(lambda t: abs(t - 1.2) ** 1.5)
        with pytest.warns(InstabilityWarning):
            frac_deriv_n(f, 1.0, 2, 1.2000001)
