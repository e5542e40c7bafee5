import math
import random

import pytest

from confrac import expr as ex, functions as fam
from confrac.calculus import (ConformableFn, Interval, QuadratureConfig, frac_deriv_fn,
                              frac_deriv_n, frac_integral)
from confrac.errors import ConfracError, EvalDomainError, HypothesisError, QuadratureError
from confrac.inequalities import (BoundsPair, cebysev, check_sandwich_lemma, gruss,
                                  gruss_montgomery, hermite_hadamard_1,
                                  hermite_hadamard_2, hermite_hadamard_3, jensen,
                                  montgomery_check, montgomery_residual, ostrowski,
                                  remainder_cebysev, remainder_mm_bounds,
                                  remainder_steffensen, steffensen, steffensen_ell,
                                  verify_hypothesis)
from confrac.taylor import _kernel_integral, expand, taylor_remainder

from conftest import quad_oracle, random_tree

SQ2 = math.sqrt(2.0)


def fn(text):
    return ConformableFn.from_expr(text)


class TestVerifyHypothesis:
    def test_negative_constant(self):
        ok, witness = verify_hypothesis(fn("-1"), 0.5, Interval(0.0, 1.0), "nonnegative")
        assert not ok and witness == 0.0

    def test_increasing_linear(self):
        ok, witness = verify_hypothesis(fn("t"), 1.0, Interval(0.0, 1.0), "increasing", 64)
        assert ok and witness is None

    def test_sin_not_decreasing(self):
        ok, witness = verify_hypothesis(fn("sin(t)"), 1.0, Interval(0.0, math.pi),
                                        "decreasing", 64)
        assert not ok and witness is not None and witness < math.pi / 2

    def test_constant_is_weakly_monotone_both_ways(self):
        for prop in ("increasing", "decreasing"):
            ok, _ = verify_hypothesis(fn("2"), 0.5, Interval(0.5, 2.0), prop)
            assert ok

    def test_range01(self):
        ok, _ = verify_hypothesis(fn("0.5+0.5*sin(t)"), 1.0, Interval(0.0, 6.0), "range01")
        assert ok
        ok, witness = verify_hypothesis(fn("1.2"), 1.0, Interval(0.0, 1.0), "range01")
        assert not ok

    def test_convex_on_raw_range(self):
        ok, _ = verify_hypothesis(fn("t^2"), 1.0, (-2.0, 2.0), "convex")
        assert ok
        ok, witness = verify_hypothesis(fn("sin(t)"), 1.0, (0.1, 3.0), "convex")
        assert not ok

    def test_bounded(self):
        ok, _ = verify_hypothesis(fn("sin(t)"), 1.0, Interval(0.0, 6.0), "bounded",
                                  bounds=BoundsPair(-1.0, 1.0))
        assert ok

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            verify_hypothesis(fn("t"), 1.0, Interval(0.0, 1.0), "increasing", 4)

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            verify_hypothesis(fn("t"), 1.0, Interval(0.0, 1.0), "wiggly")


def reference_verify(f, alpha, lo, hi, prop, grid_n, bounds=None):
    """Point-by-point grid check, as verify_hypothesis did before batching."""
    step = (hi - lo) / grid_n
    ts = [lo + i * step for i in range(grid_n + 1)]
    vals = [f.value(t, alpha) for t in ts]
    tol = 1e-12 * (1.0 + max(abs(v) for v in vals))
    if prop == "nonnegative":
        bad = [t for t, v in zip(ts, vals) if v < -tol]
    elif prop == "range01":
        bad = [t for t, v in zip(ts, vals) if v < -tol or v > 1.0 + tol]
    elif prop == "increasing":
        bad = [ts[i + 1] for i in range(grid_n) if vals[i + 1] < vals[i] - tol]
    elif prop == "decreasing":
        bad = [ts[i + 1] for i in range(grid_n) if vals[i + 1] > vals[i] + tol]
    elif prop == "convex":
        bad = [ts[i + 1] for i in range(grid_n - 1)
               if vals[i + 1] > 0.5 * (vals[i] + vals[i + 2]) + tol]
    else:
        bad = [t for t, v in zip(ts, vals) if v < bounds.m - tol or v > bounds.M + tol]
    return (False, bad[0]) if bad else (True, None)


class CountingFn(ConformableFn):
    """Counts the grids sampled through values()."""

    __slots__ = ("grids",)

    def values(self, ts, alpha=1.0):
        self.grids += 1
        return super().values(ts, alpha)


def counting(text):
    f = CountingFn.from_expr(text)
    f.grids = 0
    return f


class TestBatchedGrids:
    TEXTS = ("sin(3*t)", "exp(-t)*cos(2*t)", "t^alpha/alpha-0.7", "0.5+0.4*sin(t)",
             "ln(t+0.5)", "abs(t-1.2)")

    def test_witnesses_match_the_pointwise_reference(self):
        rng = random.Random(5)
        bounds = BoundsPair(-0.5, 0.8)
        props = ("nonnegative", "range01", "increasing", "decreasing", "convex",
                 "bounded")
        for _ in range(120):
            text = rng.choice(self.TEXTS)
            f = fn(text)
            if rng.random() < 0.3:
                f = frac_deriv_fn(f, 1)
            elif rng.random() < 0.2:
                g = f
                f = ConformableFn(lambda t, alpha=1.0, g=g: g.value(t, alpha))
            alpha = rng.choice((0.25, 0.5, 1.0))
            lo = rng.uniform(0.05, 2.0)
            hi = lo + rng.uniform(0.2, 2.0)
            prop = rng.choice(props)
            grid_n = rng.choice((16, 64, 256))
            got = verify_hypothesis(f, alpha, Interval(lo, hi), prop, grid_n, bounds)
            assert got == reference_verify(f, alpha, lo, hi, prop, grid_n, bounds)

    def test_cebysev_samples_each_function_once(self):
        f, g = counting("t"), counting("exp(-t)")
        cebysev(f, g, 0.5, Interval(0.5, 2.0))
        assert (f.grids, g.grids) == (1, 1)

    def test_steffensen_samples_f_once(self):
        f, g = counting("exp(-t)"), counting("0.5")
        r = steffensen(f, g, 0.5, Interval(0.0, 1.0))
        assert (f.grids, g.grids) == (1, 1)
        assert [h.verified for h in r.hypotheses] == [True, True, True]


class TestSteffensenEll:
    def test_paper_half(self):
        out = steffensen_ell(fn("0.5"), 0.5, Interval(0.0, 1.0))
        assert out.ell == pytest.approx(0.5, abs=1e-12)

    def test_full_and_empty(self):
        assert steffensen_ell(fn("1"), 0.5, Interval(1.0, 3.0)).ell == pytest.approx(2.0, rel=1e-12)
        assert steffensen_ell(fn("0"), 0.5, Interval(1.0, 3.0)).ell == 0.0

    def test_range_enforced(self):
        with pytest.raises(HypothesisError):
            steffensen_ell(fn("2"), 0.5, Interval(0.0, 1.0))

    def test_always_within_window(self):
        rng = random.Random(3)
        for _ in range(40):
            a = rng.uniform(0.0, 2.0)
            b = a + rng.uniform(0.2, 2.0)
            c = rng.uniform(0.0, 1.0)
            out = steffensen_ell(fn(f"{c!r}"), rng.choice((0.25, 0.5, 1.0)),
                                 Interval(a, b))
            assert 0.0 <= out.ell <= b - a + 1e-12


class TestSandwichLemma:
    def test_equality_at_g_one(self):
        r = check_sandwich_lemma(fn("1"), 0.5, Interval(1.0, 4.0))
        want = (2.0 - 1.0) / 0.5
        for side in (r.lower, r.actual, r.upper):
            assert side == pytest.approx(want, rel=1e-10)
        assert r.holds and r.hypotheses_ok

    def test_paper_values(self):
        r = check_sandwich_lemma(fn("0.5"), 0.5, Interval(0.0, 1.0))
        assert r.lower == pytest.approx(2.0 - SQ2, abs=1e-10)
        assert r.actual == pytest.approx(1.0, abs=1e-10)
        assert r.upper == pytest.approx(SQ2, abs=1e-10)
        assert r.holds

    def test_decaying_profile(self):
        a, b, alpha = 1.0, 4.0, 0.5
        ba, aa = b ** alpha, a ** alpha
        g = fn(f"((({ba!r})-t^alpha)/({ba - aa!r}))^2")
        r = check_sandwich_lemma(g, alpha, Interval(a, b))
        assert r.hypotheses_ok and r.holds
        want = quad_oracle(lambda t: ((ba - t ** alpha) / (ba - aa)) ** 2
                           * t ** (alpha - 1.0), a, b)
        assert r.actual == pytest.approx(want, rel=1e-9)


class TestSteffensen:
    def test_paper_counterexample(self):
        r = steffensen(fn("-1"), fn("0.5"), 0.5, Interval(0.0, 1.0))
        assert r.lower == pytest.approx(-2.0 + SQ2, abs=1e-10)
        assert r.actual == pytest.approx(-1.0, abs=1e-10)
        assert not r.holds
        assert r.slack_low < 0  # left inequality broken
        failed = [h.name for h in r.hypotheses if not h.verified]
        assert failed == ["f nonnegative"]

    def test_positive_constant(self):
        # all sides collapse to c*ell at alpha=1
        r = steffensen(fn("3"), fn("0.25"), 1.0, Interval(0.0, 2.0))
        assert r.hypotheses_ok
        assert r.lower == pytest.approx(1.5, rel=1e-10)
        assert r.actual == pytest.approx(1.5, rel=1e-10)
        assert r.upper == pytest.approx(1.5, rel=1e-10)
        assert r.holds

    def test_classical_instance(self):
        r = steffensen(fn("exp(-t)"), fn("t"), 1.0, Interval(0.0, 1.0))
        assert r.hypotheses_ok and r.holds
        ell = quad_oracle(lambda t: t, 0.0, 1.0)
        assert r.actual == pytest.approx(quad_oracle(lambda t: t * math.exp(-t), 0, 1), rel=1e-9)
        assert r.lower == pytest.approx(quad_oracle(lambda t: math.exp(-t), 1 - ell, 1), rel=1e-9)
        assert r.upper == pytest.approx(quad_oracle(lambda t: math.exp(-t), 0, ell), rel=1e-9)


class TestRemainderSteffensen:
    def test_constant_function_all_zero(self):
        r = remainder_steffensen(fam.constant(4.0), 0.5, 1, Interval(1.0, 2.0))
        for side in (r.lower, r.actual, r.upper):
            assert side == pytest.approx(0.0, abs=1e-12)
        assert r.holds

    def test_window_split_length(self):
        # ell = (b-a)/(n+2): with n=1 on [0,3] the probe points sit at 1 and 2
        f = fn("-(t^alpha/alpha)")  # D f = -1 (decreasing weakly), D^2 f = 0
        r = remainder_steffensen(f, 1.0, 1, Interval(0.0, 3.0))
        d1 = frac_deriv_fn(f, 1)
        assert r.lower == pytest.approx(d1.value(1.0, 1.0) - d1.value(0.0, 1.0), abs=1e-12)
        assert r.upper == pytest.approx(d1.value(3.0, 1.0) - d1.value(2.0, 1.0), abs=1e-12)

    def test_strict_decay_case(self):
        # f = -exp(-theta): D f = exp(-theta) decreasing, D^2 f = -exp(-theta) increasing
        r = remainder_steffensen(fn("-exp(-t^alpha/alpha)"), 0.5, 1, Interval(1.0, 2.0))
        assert r.hypotheses_ok and r.holds
        assert r.lower < r.actual < r.upper

    def test_n_zero_exp_decay(self):
        r = remainder_steffensen(fn("exp(-t^alpha/alpha)"), 0.5, 0, Interval(1.0, 2.0))
        assert r.hypotheses_ok and r.holds


class TestHermiteHadamard1:
    def test_constant_equality(self):
        r = hermite_hadamard_1(fam.constant(2.0), 0.5, Interval(1.0, 2.0))
        assert r.lower == pytest.approx(r.actual, abs=1e-12)
        assert r.upper == pytest.approx(r.actual, abs=1e-12)
        assert r.holds and r.hypotheses_ok

    def test_classical_frozen_values(self):
        r = hermite_hadamard_1(fn("exp(-t)"), 1.0, Interval(0.0, 1.0))
        assert r.lower == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert r.actual == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)
        assert r.upper == pytest.approx(1.0 + math.exp(-1.0) - math.exp(-0.5), abs=1e-12)
        assert r.holds and r.hypotheses_ok

    def test_fractional_decay(self):
        r = hermite_hadamard_1(fn("exp(-t^alpha/alpha)"), 0.5, Interval(1.0, 2.0))
        assert r.hypotheses_ok and r.holds


class TestRemainderMmBounds:
    def test_unit_derivative_closed_form(self):
        # f = E_1: D f = 1, ell = (b-a)/2, actual = q^2/2
        a, b, alpha = 1.0, 2.0, 0.5
        q = (b ** alpha - a ** alpha) / alpha
        r = remainder_mm_bounds(fam.E(1), alpha, 0, BoundsPair(0.0, 2.0), Interval(a, b))
        assert r.hypotheses_ok and r.holds
        assert r.actual == pytest.approx(q * q / 2.0, rel=1e-10)
        qb = (b ** alpha - (b - 0.5) ** alpha) / alpha
        qa = (b ** alpha - (a + 0.5) ** alpha) / alpha
        assert r.lower == pytest.approx(qb * qb, rel=1e-12)
        assert r.upper == pytest.approx(q * q - qa * qa, rel=1e-12)

    def test_constant_straddles_zero(self):
        r = remainder_mm_bounds(fam.constant(1.0), 0.5, 0, BoundsPair(-1.0, 1.0),
                                Interval(1.0, 2.0))
        assert r.actual == pytest.approx(0.0, abs=1e-12)
        assert r.lower <= 0.0 <= r.upper
        assert r.holds

    def test_classical_sine(self):
        r = remainder_mm_bounds(fn("sin(t)"), 1.0, 0, BoundsPair(-1.0, 1.0),
                                Interval(0.0, math.pi))
        assert r.hypotheses_ok and r.holds
        want = quad_oracle(lambda t: math.sin(t) - math.sin(0.0), 0.0, math.pi)
        assert r.actual == pytest.approx(want, rel=1e-9)

    def test_requires_strict_bounds(self):
        with pytest.raises(ValueError):
            remainder_mm_bounds(fam.E(1), 0.5, 0, BoundsPair(1.0, 1.0), Interval(1.0, 2.0))


class TestCebysev:
    def test_same_direction(self):
        r = cebysev(fn("t"), fn("t"), 1.0, Interval(0.0, 1.0))
        assert r.actual == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert r.lower == pytest.approx(0.25, rel=1e-10)
        assert r.upper is None and r.holds

    def test_constant_equality(self):
        r = cebysev(fam.constant(2.0), fn("t"), 1.0, Interval(0.0, 1.0))
        assert r.lower == pytest.approx(r.actual, rel=1e-10)
        assert r.holds

    def test_opposite_direction_reversed(self):
        r = cebysev(fn("t"), fn("1-t"), 1.0, Interval(0.0, 1.0))
        assert r.actual == pytest.approx(1.0 / 6.0, rel=1e-10)
        assert r.upper == pytest.approx(0.25, rel=1e-10)
        assert r.lower is None and r.holds

    def test_non_monotone_rejected(self):
        with pytest.raises(HypothesisError):
            cebysev(fn("sin(t)"), fn("t"), 1.0, Interval(0.0, math.pi))

    def test_fractional_instance(self):
        r = cebysev(fn("t^alpha"), fn("exp(t^alpha/alpha)"), 0.5, Interval(0.5, 2.0))
        assert r.holds


class TestRemainderCebysev:
    def test_equality_for_constant_top_derivative(self):
        # f = 3 E_{n+1}: D^{n+1} f = 3 constant, middle and edge vanish
        n = 1
        f = fn("3*(t^alpha/alpha)^2/2")
        r = remainder_cebysev(f, 0.5, n, Interval(1.0, 2.0))
        assert r.actual == pytest.approx(0.0, abs=1e-10)
        assert r.holds

    def test_increasing_chain(self):
        r = remainder_cebysev(fam.exp_frac(1.0), 0.5, 0, Interval(1.0, 2.0))
        assert r.holds
        assert r.lower <= r.actual <= 0.0 + 1e-12

    def test_decreasing_chain_reversed(self):
        # f = -exp(-theta): D f = exp(-theta), which decreases
        r = remainder_cebysev(fn("-exp(-t^alpha/alpha)"), 0.5, 0, Interval(1.0, 2.0))
        assert r.holds
        assert 0.0 - 1e-12 <= r.actual <= r.upper

    def test_non_monotone_rejected(self):
        with pytest.raises(HypothesisError):
            remainder_cebysev(fn("sin(t)"), 1.0, 0, Interval(0.0, 6.0))


class TestHermiteHadamard2:
    def test_theta_equality(self):
        # f = t^alpha/alpha: both sides are (a^alpha + b^alpha)/(2 alpha)
        a, b, alpha = 1.0, 4.0, 0.5
        r = hermite_hadamard_2(fn("t^alpha/alpha"), alpha, Interval(a, b))
        want = (a ** alpha + b ** alpha) / (2 * alpha)
        assert r.actual == pytest.approx(want, rel=1e-10)
        assert r.upper == pytest.approx(want, rel=1e-12)
        assert r.holds

    def test_classical_square(self):
        r = hermite_hadamard_2(fn("t^2"), 1.0, Interval(0.0, 1.0))
        assert r.actual == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert r.upper == pytest.approx(0.5, rel=1e-12)
        assert r.holds

    def test_decreasing_derivative_reversed(self):
        # D f = exp(-theta) decreasing: mean dominates the endpoint average
        r = hermite_hadamard_2(fn("-exp(-t^alpha/alpha)"), 0.5, Interval(1.0, 2.0))
        assert r.lower is not None and r.upper is None
        assert r.holds

    def test_constant_equality(self):
        r = hermite_hadamard_2(fn("3"), 0.5, Interval(1.0, 2.0))
        assert r.actual == pytest.approx(3.0, rel=1e-12)
        assert r.holds


class TestMontgomery:
    def test_kernel_piecewise_values_and_jump(self):
        from confrac.calculus import Alpha
        from confrac.inequalities import MontgomeryKernel
        a, b, alpha, t = 1.0, 4.0, 0.5, 2.0
        k = MontgomeryKernel(t=t, alpha=Alpha(alpha), window=Interval(a, b))
        s = 1.5
        assert k(s) == pytest.approx((s ** alpha - a ** alpha) / alpha, rel=1e-15)
        s = 3.0
        assert k(s) == pytest.approx((s ** alpha - b ** alpha) / alpha, rel=1e-15)
        assert k.jump == pytest.approx((a ** alpha - b ** alpha) / alpha, rel=1e-15)
        below = k(t - 1e-12)
        assert k(t) - below == pytest.approx(k.jump, abs=1e-9)
        with pytest.raises(ValueError):
            MontgomeryKernel(t=5.0, alpha=Alpha(alpha), window=Interval(a, b))

    def test_convex_outer_alias(self):
        ok, _ = verify_hypothesis(fn("t^2"), 1.0, (-1.0, 1.0), "convex-outer")
        assert ok

    def test_constant_zero(self):
        assert montgomery_residual(fam.constant(5.0), 0.5, Interval(1.0, 2.0), 1.5) \
            == pytest.approx(0.0, abs=1e-10)

    def test_theta_zero(self):
        assert montgomery_residual(fn("t^alpha/alpha"), 0.5, Interval(1.0, 4.0), 2.0) \
            == pytest.approx(0.0, abs=1e-10)

    def test_classical_sine(self):
        res = montgomery_residual(fn("sin(t)"), 1.0, Interval(0.0, 2.0), 1.0)
        assert abs(res) < 1e-8

    def test_outside_point_rejected(self):
        with pytest.raises(ValueError):
            montgomery_residual(fn("t"), 0.5, Interval(1.0, 2.0), 3.0)

    def test_check_report(self):
        r = montgomery_check(fn("sin(t)"), 1.0, Interval(0.0, 2.0), 1.0)
        assert r.holds and r.theorem == "montgomery"

    def test_family_within_ten_times_quadrature_tolerance(self):
        from confrac.calculus import QuadratureConfig
        cfg = QuadratureConfig()
        rng = random.Random(61)
        for name, f in fam.standard_family():
            for alpha in (0.25, 0.5, 1.0):
                a = rng.uniform(0.2, 2.0)
                b = a + rng.uniform(0.4, 2.0)
                t = rng.uniform(a, b)
                res = montgomery_residual(f, alpha, Interval(a, b), t, cfg)
                tol = 10.0 * (cfg.abs_tol + cfg.rel_tol * (1.0 + abs(f.value(t, alpha))))
                assert abs(res) < tol, (name, alpha, a, b, t, res)


class TestOstrowski:
    def test_sharpness(self):
        # f = t^alpha/alpha at t = b attains the bound exactly
        a, b, alpha = 1.0, 4.0, 0.5
        r = ostrowski(fn("t^alpha/alpha"), alpha, Interval(a, b), b, M=1.0)
        want = (b ** alpha - a ** alpha) / (2 * alpha)
        assert r.actual == pytest.approx(want, rel=1e-10)
        assert r.upper == pytest.approx(want, rel=1e-12)
        assert r.holds

    def test_constant(self):
        r = ostrowski(fam.constant(3.0), 0.5, Interval(1.0, 2.0), 1.5)
        assert r.actual == pytest.approx(0.0, abs=1e-9)
        assert r.upper == pytest.approx(0.0, abs=1e-12)
        assert r.holds

    def test_classical_sine(self):
        r = ostrowski(fn("sin(t)"), 1.0, Interval(0.0, math.pi), math.pi / 2, M=1.0)
        assert r.actual == pytest.approx(abs(1.0 - 2.0 / math.pi), abs=1e-10)
        assert r.upper == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert r.holds

    def test_estimated_bound_flagged(self):
        r = ostrowski(fn("sin(t)"), 1.0, Interval(0.0, math.pi), 1.0)
        assert any("estimated" in h.name for h in r.hypotheses)
        assert r.holds


class TestJensen:
    def test_linear_outer_equality(self):
        r = jensen(fam.constant(1.0), fn("t"), fn("2*t+1"), 1.0, Interval(0.0, 1.0))
        assert r.lower == pytest.approx(r.actual, rel=1e-10)
        assert r.holds

    def test_classical_square(self):
        r = jensen(fam.constant(1.0), fn("t"), fn("t^2"), 1.0, Interval(0.0, 1.0))
        assert r.lower == pytest.approx(0.25, rel=1e-10)
        assert r.actual == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert r.holds

    def test_fractional_weighted(self):
        alpha = 0.5
        r = jensen(fam.constant(1.0), fn("t"), fn("t^2"), alpha, Interval(0.0, 1.0))
        mass = quad_oracle(lambda t: t ** (alpha - 1.0), 1e-300, 1.0)
        mean = quad_oracle(lambda t: t * t ** (alpha - 1.0), 0.0, 1.0) / mass
        want_actual = quad_oracle(lambda t: t * t * t ** (alpha - 1.0), 0.0, 1.0) / mass
        assert r.lower == pytest.approx(mean ** 2, rel=1e-9)
        assert r.actual == pytest.approx(want_actual, rel=1e-9)
        assert r.holds

    def test_zero_weight_rejected(self):
        with pytest.raises(HypothesisError):
            jensen(fam.constant(0.0), fn("t"), fn("t^2"), 1.0, Interval(0.0, 1.0))

    def test_concave_outer_rejected(self):
        with pytest.raises(HypothesisError):
            jensen(fam.constant(1.0), fn("t"), fn("sin(t)"), 1.0, Interval(0.1, 3.0))


class TestGruss:
    def test_constant_zero_deviation(self):
        r = gruss(fam.constant(2.0), fn("sin(t)"), 1.0, Interval(0.0, 3.0),
                  BoundsPair(2.0, 2.0), BoundsPair(-1.0, 1.0))
        assert r.actual == pytest.approx(0.0, abs=1e-10)
        assert r.holds

    def test_classical_linear(self):
        r = gruss(fn("t"), fn("t"), 1.0, Interval(0.0, 1.0),
                  BoundsPair(0.0, 1.0), BoundsPair(0.0, 1.0))
        assert r.actual == pytest.approx(1.0 / 12.0, rel=1e-9)
        assert r.upper == pytest.approx(0.25, rel=1e-12)
        assert r.holds

    def test_classical_sine_frozen(self):
        r = gruss(fn("sin(t)"), fn("sin(t)"), 1.0, Interval(0.0, math.pi),
                  BoundsPair(0.0, 1.0), BoundsPair(0.0, 1.0))
        assert r.actual == pytest.approx(0.5 - 4.0 / math.pi ** 2, abs=1e-9)
        assert r.holds

    def test_symmetry(self):
        f, g = fn("sin(t)"), fn("exp(-t)")
        r1 = gruss(f, g, 0.5, Interval(0.5, 2.0), BoundsPair(0.0, 1.0), BoundsPair(0.0, 1.0))
        r2 = gruss(g, f, 0.5, Interval(0.5, 2.0), BoundsPair(0.0, 1.0), BoundsPair(0.0, 1.0))
        assert abs(r1.actual - r2.actual) < 1e-12

    def test_bound_violation_reported(self):
        r = gruss(fn("3*t"), fn("t"), 1.0, Interval(0.0, 1.0),
                  BoundsPair(0.0, 1.0), BoundsPair(0.0, 1.0))
        assert not r.hypotheses_ok


class TestGrussMontgomery:
    def test_theta_exact_cancellation(self):
        r = gruss_montgomery(fn("t^alpha/alpha"), 0.5, Interval(1.0, 2.0), 1.5,
                             BoundsPair(1.0, 1.0))
        assert r.actual == pytest.approx(0.0, abs=1e-10)
        assert r.upper == pytest.approx(0.0, abs=1e-12)
        assert r.holds

    def test_classical_sine(self):
        r = gruss_montgomery(fn("sin(t)"), 1.0, Interval(0.0, math.pi / 2),
                             math.pi / 4, BoundsPair(0.0, 1.0))
        assert r.upper == pytest.approx(math.pi / 8.0, rel=1e-12)
        assert r.holds and r.hypotheses_ok

    def test_eigenfunction_endpoint_bounds(self):
        f = fam.exp_frac(1.0)
        d1 = frac_deriv_fn(f, 1)
        win = Interval(1.0, 2.0)
        bounds = BoundsPair(d1.value(1.0, 0.5), d1.value(2.0, 0.5))
        r = gruss_montgomery(f, 0.5, win, 1.5, bounds)
        assert r.hypotheses_ok and r.holds


class TestHermiteHadamard3:
    def test_theta_zero(self):
        r = hermite_hadamard_3(fn("t^alpha/alpha"), 0.5, Interval(1.0, 2.0),
                               BoundsPair(1.0, 1.0))
        assert r.actual == pytest.approx(0.0, abs=1e-10)
        assert r.upper == pytest.approx(0.0, abs=1e-12)
        assert r.holds

    def test_classical_square(self):
        r = hermite_hadamard_3(fn("t^2"), 1.0, Interval(0.0, 1.0), BoundsPair(0.0, 2.0))
        assert r.actual == pytest.approx(1.0 / 6.0, rel=1e-9)
        assert r.upper == pytest.approx(0.5, rel=1e-12)
        assert r.holds

    def test_fractional_decay_endpoint_bounds(self):
        f = fam.exp_frac(-1.0)
        d1 = frac_deriv_fn(f, 1)
        bounds = BoundsPair(d1.value(1.0, 0.5), d1.value(2.0, 0.5))
        r = hermite_hadamard_3(f, 0.5, Interval(1.0, 2.0), bounds)
        assert r.hypotheses_ok and r.holds


class TestNoChainOnNumericPaths:
    # one holding or clean instance of every checker the CLI registers, each on
    # a window inside [0.1, 3]
    CHECKS = [
        ["steffensen", "--f", "exp(-t)", "--g", "0.5"],
        ["sandwich", "--g", "0.5+0.4*sin(t)"],
        ["rem-steffensen", "--f", "-exp(-t^alpha/alpha)", "--n", "1"],
        ["hh1", "--f", "exp(-t^alpha/alpha)"],
        ["mm-bounds", "--f", "exp(-t^alpha/alpha)", "--n", "1", "--m", "0", "--M", "1"],
        ["cebysev", "--f", "t", "--g", "t^2"],
        ["rem-cebysev", "--f", "exp(t^alpha/alpha)", "--n", "2"],
        ["hh2", "--f", "t^2"],
        ["montgomery", "--f", "sin(t)"],
        ["ostrowski", "--f", "t^alpha/alpha+exp(-t)"],
        ["jensen", "--w", "1", "--g", "t", "--F", "t^2"],
        ["gruss", "--f", "t", "--g", "exp(-t)", "--m", "0,0", "--M", "3,1"],
        ["gruss-montgomery", "--f", "sin(t)", "--m", "-2", "--M", "2"],
        ["hh3", "--f", "t^2", "--m", "0", "--M", "9"],
    ]

    def test_checkers_and_deriv_run_without_the_chain(self, monkeypatch):
        import io
        from confrac import cli

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            return cli.run(argv, out, err), out.getvalue(), err.getvalue()

        # at t > 0, and from t = 0 at an alpha whose 1/alpha is not whole,
        # where D^k f(0) is the series' value or the accelerated limit of
        # D^k f(s) as s -> 0+
        argvs = [["check", "--ineq"] + c + window for window in
                 (["--alpha", "0.5", "--a", "0.5", "--b", "2.5"],
                  ["--alpha", "0.6", "--a", "0", "--b", "2.5"]) for c in self.CHECKS]
        argvs += [["deriv", "--expr", "exp(-t)*cos(t)", "--alpha", "0.5",
                   "--order", "3", "--at", "1.2"],
                  ["deriv", "--expr", "sqrt(t)*sin(t)", "--alpha", "0.75",
                   "--order", "2", "--at", "0"],
                  ["deriv", "--expr", "exp(t)", "--alpha", "0.7", "--order", "1", "--at", "0"],
                  ["taylor", "--expr", "ln(1+t)", "--alpha", "0.7", "--center", "0",
                   "--degree", "1", "--at", "0.5"]]
        assert len(argvs) - 4 == 2 * len(cli._CHECKS) == 28
        want = [run(argv) for argv in argvs]

        monkeypatch.setattr(ConformableFn, "frac_expr", _no_chain)
        for argv, expected in zip(argvs, want):
            code, out, err = run(argv)
            assert (code, out, err) == expected, argv
            assert code == 0, (argv, err)

    def test_routes_at_zero_run_without_the_chain(self, monkeypatch):
        # at t = 0 D^n f is the series' value or the accelerated limit of
        # D^n f(s) as s -> 0+: the same outcome whether or not the chain can
        # be built
        rng = random.Random(21)
        cases = []
        for _ in range(400):
            tree = random_tree(rng)
            cases.append((tree, rng.choice((0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.9, 1.0)),
                          rng.randint(1, 4)))

        def outcomes():
            out = []
            for tree, alpha, n in cases:
                f = ConformableFn.from_expr(tree)
                out.append([repr(_outcome(route)) for route in (
                    lambda: frac_deriv_n(f, alpha, n, 0.0),
                    lambda: frac_deriv_fn(f, n).value(0.0, alpha),
                    lambda: expand(f, alpha, n, 0.0).coefficients)])
            return out

        want = outcomes()

        monkeypatch.setattr(ConformableFn, "frac_expr", _no_chain)
        assert outcomes() == want
        # values and errors both occur
        flat = [v for row in want for v in row]
        assert any(v.startswith("<class") for v in flat)
        assert sum(not v.startswith("<class") for v in flat) > 300

    def test_series_routes_at_positive_t_run_without_the_chain(self, monkeypatch):
        # at t > 0 every route to D^n f is the series pass: its value, bit
        # for bit, or EvalDomainError where the pass has no finite n! c_n
        monkeypatch.setattr(ConformableFn, "frac_expr", _no_chain)
        cfg = QuadratureConfig(max_subdivisions=20)
        rng = random.Random(16)
        for _ in range(600):
            f = ConformableFn.from_expr(random_tree(rng))
            alpha = rng.choice((0.5, 1.0))
            n = rng.randint(1, 3)
            t = rng.choice((0.5, 1.0, 1.5, 2.0, 3.0))
            case = (ex.to_text(f.expr), alpha, n, t)
            coeffs = _series_at(f, alpha, n, t)
            want = _times_factorials(coeffs)
            value = _outcome(f.value, t, alpha)
            undefined = not isinstance(value, float)    # f.value raised
            d = frac_deriv_fn(f, n)
            top = want[n] if want is not None else EvalDomainError
            for route in (lambda: frac_deriv_n(f, alpha, n, t), lambda: d.value(t, alpha)):
                got = _outcome(route)
                assert got == top, case
                assert not (undefined and isinstance(got, float)), case
            ts = [t, t + 0.25, t + 0.5]
            batch = [want[n] if want is not None else None for want in
                     (_times_factorials(_series_at(f, alpha, n, s)) for s in ts)]
            got = _outcome(d.values, ts, alpha)
            assert got == (EvalDomainError if None in batch else batch), case
            got = _outcome(lambda: expand(f, alpha, n, t).coefficients)
            if undefined or want is None or not all(map(math.isfinite, [value, *want])):
                assert got is EvalDomainError, case
            else:
                assert got == (value, *want[1:]), case
            # the small subdivision budget keeps the run short; where it does
            # not reach the tolerance, both integrals say so
            got = _outcome(taylor_remainder, f, alpha, n - 1, t, t + 0.25, cfg)
            assert got == _outcome(_series_remainder, f, alpha, n - 1, t, t + 0.25, cfg), case
            assert got in (EvalDomainError, QuadratureError) or isinstance(got, float), case
            # a function that already holds its compiled code of orders 1-4
            # takes every route to the same bits, or the same error; scaled
            # by inf, the tree makes that code give values that are not finite
            for tree in (f.expr, ex.Mul(ex.Mul(ex.Num(1e200), ex.Num(1e200)), f.expr)):
                held = ConformableFn.from_expr(tree)
                for k in range(1, 5):
                    held._jets(k)
                fresh = ConformableFn.from_expr(tree)
                assert (_route_bits(held, alpha, n, t, cfg)
                        == _route_bits(fresh, alpha, n, t, cfg)), case


def _no_chain(self, n):
    raise AssertionError("the symbolic chain was built")


def _outcome(fn, *args):
    """fn(*args), or the type of the ConfracError it raises."""
    try:
        return fn(*args)
    except ConfracError as exc:
        return type(exc)


def _route_bits(f, alpha, n, t, cfg):
    """The bits, or the error and its message, of each route to D^n f near
    t > 0, the routes that compile nothing first, so that on a function
    holding no code they run without it."""
    window = Interval(t, t + 0.5)
    d = frac_deriv_fn(f, n)
    routes = [lambda: frac_deriv_n(f, alpha, n, t),
              lambda: expand(f, alpha, n, t).coefficients,
              lambda: taylor_remainder(f, alpha, n - 1, t, t + 0.25, cfg),
              lambda: _kernel_integral(f, alpha, n - 1, window, window.b, cfg),
              lambda: d.value(t, alpha),
              lambda: d.values([t, t + 0.25, t + 0.5], alpha)]
    out = []
    for route in routes:
        try:
            got = route()
        except ConfracError as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append([v.hex() for v in got] if isinstance(got, (list, tuple)) else got.hex())
    return out


def _series_at(f, alpha, n, t):
    """c_0..c_n of the series pass at t > 0, or None where it raises."""
    try:
        return ex.taylor_series(f.expr, n, alpha, ex.t_power_at(t, alpha, n))
    except (ConfracError, ArithmeticError, ValueError):
        return None


def _times_factorials(coeffs):
    """k! c_k, or None where the series does not exist or c_n is not finite."""
    if coeffs is None or not math.isfinite(coeffs[-1]):
        return None
    return [c * math.factorial(k) for k, c in enumerate(coeffs)]


def _series_remainder(f, alpha, n, center, at, cfg):
    """R_n f(center, at) from an integrand sampling the series pass directly."""
    def integrand(tau, _alpha=alpha):
        c = _series_at(f, alpha, n + 1, tau)
        if c is None or not math.isfinite(c[-1]):
            raise EvalDomainError("no series")
        return (n + 1) * c[-1] * ((math.pow(at, alpha) - math.pow(tau, alpha)) / alpha) ** n

    return frac_integral(ConformableFn(integrand), alpha, (center, at), cfg)
