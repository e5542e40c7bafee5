import math

import pytest
from scipy.integrate import quad, solve_ivp

from confrac import functions as fam
from confrac import ivp
from confrac.calculus import Alpha, ConformableFn
from confrac.ivp import IvpSpec, LinearOperator, cauchy_function, solve_full, solve_voc
from confrac.taylor import taylor_poly


def op_free(order, alpha):
    return LinearOperator(order=order, alpha=Alpha(alpha))


class TestLinearOperator:
    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            LinearOperator(order=0, alpha=Alpha(0.5))

    def test_rejects_wrong_coefficient_count(self):
        with pytest.raises(ValueError):
            LinearOperator(order=2, alpha=Alpha(0.5),
                           coefficients=(fam.constant(1.0),))

    def test_ivp_spec_initial_count(self):
        with pytest.raises(ValueError):
            IvpSpec(op_free(2, 0.5), None, 0.0, (1.0,))


class TestCauchyFunction:
    def test_first_order_free(self):
        assert cauchy_function(op_free(1, 0.5), 1.0, 3.0) == 1.0

    def test_second_order_closed_form(self):
        assert cauchy_function(op_free(2, 0.5), 1.0, 4.0) == pytest.approx(2.0, rel=1e-14)

    def test_classical_decay(self):
        # y' + c y = 0 with y(s) = 1: kernel e^{-c (t - s)}
        c = 0.7
        op = LinearOperator(order=1, alpha=Alpha(1.0),
                            coefficients=(fam.constant(c),))
        for s, t in ((0.0, 2.0), (1.0, 0.5)):
            got = cauchy_function(op, s, t, steps=1024)
            assert got == pytest.approx(math.exp(-c * (t - s)), abs=1e-6)

    def test_numeric_matches_closed_form(self):
        for n in (1, 2, 3):
            for alpha in (0.5, 1.0):
                op = op_free(n, alpha)
                for s, t in ((0.5, 2.0), (1.0, 3.5)):
                    closed = cauchy_function(op, s, t)
                    forced = cauchy_function(op, s, t, method="rk4")
                    assert forced == pytest.approx(closed, abs=1e-8)

    def test_defining_initial_data_by_u_differences(self):
        # D^i y(., s) at t = s: 0 for i <= n-2 and 1 for i = n-1, probed by
        # finite differences in the transformed variable
        alpha = 0.5
        op = LinearOperator(
            order=2, alpha=Alpha(alpha),
            coefficients=(ConformableFn.from_expr("0.3"),
                          ConformableFn.from_expr("0.1*t")))
        s = 1.0
        us = s ** alpha / alpha
        h = 1e-4

        def y_of_u(u):
            t = (alpha * u) ** (1.0 / alpha)
            return cauchy_function(op, s, t, steps=256)

        assert y_of_u(us) == pytest.approx(0.0, abs=1e-12)
        d1 = (y_of_u(us + h) - y_of_u(us - h)) / (2 * h)
        assert d1 == pytest.approx(1.0, abs=1e-5)

    def test_window_starting_at_zero(self):
        # D y + c y = 0 from s = 0: y = exp(-c t^alpha/alpha) in the u variable
        c, alpha = 0.8, 0.5
        op = LinearOperator(order=1, alpha=Alpha(alpha),
                            coefficients=(fam.constant(c),))
        for t in (0.5, 1.0, 2.0):
            want = math.exp(-c * t ** alpha / alpha)
            assert cauchy_function(op, 0.0, t) == pytest.approx(want, abs=1e-7)

    def test_window_ending_at_zero(self):
        # stepping back to t = 0 lands within rounding of u = 0, possibly
        # below it, where t(u) = (alpha u)^(1/alpha) is not real
        c, alpha = 0.5, 0.7
        op = LinearOperator(order=1, alpha=Alpha(alpha),
                            coefficients=(fam.constant(c),))
        for s in (0.4, 0.5, 2.0):
            want = math.exp(c * s ** alpha / alpha)
            spec = IvpSpec(op, None, s, (1.0,))
            assert solve_full(spec, 0.0) == pytest.approx(want, rel=1e-9)

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            cauchy_function(op_free(1, 0.5), 0.0, 1.0, method="euler")

    def test_steps_minimum(self):
        with pytest.raises(ValueError):
            cauchy_function(LinearOperator(order=1, alpha=Alpha(1.0),
                                           coefficients=(fam.constant(1.0),)),
                            0.0, 1.0, steps=4)


class TestSolveVoc:
    def test_zero_forcing(self):
        spec = IvpSpec(op_free(2, 0.5), None, 1.0, (0.0, 0.0))
        assert solve_voc(spec, 3.0) == 0.0

    def test_second_order_unit_forcing(self):
        # D^2 y = 1 with zero data at s: y(t) = ((t^a - s^a)/a)^2 / 2
        for alpha in (0.25, 0.5, 1.0):
            spec = IvpSpec(op_free(2, alpha), fam.constant(1.0), 1.0, (0.0, 0.0))
            for t in (2.0, 4.0):
                want = ((t ** alpha - 1.0) / alpha) ** 2 / 2.0
                assert solve_voc(spec, t) == pytest.approx(want, abs=1e-8)

    def test_classical_sine_forcing(self):
        # y'' = sin t, zero data at 0: y = t - sin t
        spec = IvpSpec(op_free(2, 1.0), ConformableFn.from_expr("sin(t)"),
                       0.0, (0.0, 0.0))
        for t in (1.0, 2.0, 3.0):
            assert solve_voc(spec, t) == pytest.approx(t - math.sin(t), abs=1e-6)

    def test_rejects_nonzero_initial_values(self):
        spec = IvpSpec(op_free(1, 0.5), fam.constant(1.0), 0.0, (1.0,))
        with pytest.raises(ValueError):
            solve_voc(spec, 1.0)


class TestSolveFull:
    def test_homogeneous_reproduces_taylor_sum(self):
        # initial data taken from g: the free solution is g's expansion
        g = fam.exp_frac(1.0)
        alpha, s, n = 0.5, 1.0, 3
        from confrac.calculus import frac_deriv_n
        init = tuple(frac_deriv_n(g, alpha, k, s) for k in range(n + 1))
        spec = IvpSpec(op_free(n + 1, alpha), None, s, init)
        for t in (0.5, 2.0, 3.0):
            want = taylor_poly(g, alpha, n, s, t)
            assert solve_full(spec, t) == pytest.approx(want, rel=1e-12)

    def test_zero_data_matches_voc(self):
        spec = IvpSpec(op_free(2, 0.5), ConformableFn.from_expr("exp(-t)"),
                       1.0, (0.0, 0.0))
        assert solve_full(spec, 2.5) == pytest.approx(solve_voc(spec, 2.5), rel=1e-12)

    def test_classical_exponential_decay(self):
        op = LinearOperator(order=1, alpha=Alpha(1.0),
                            coefficients=(fam.constant(1.0),))
        spec = IvpSpec(op, None, 0.0, (1.0,))
        for t in (0.5, 1.0, 2.0):
            assert solve_full(spec, t) == pytest.approx(math.exp(-t), abs=1e-6)

    def test_equation_residual_on_grid(self):
        # substitute the solution back into the equation via u-variable
        # finite differences
        alpha = 0.5
        op = LinearOperator(
            order=2, alpha=Alpha(alpha),
            coefficients=(ConformableFn.from_expr("0.4"),
                          ConformableFn.from_expr("0.2*t")))
        forcing = ConformableFn.from_expr("exp(-t)")
        spec = IvpSpec(op, forcing, 1.0, (0.5, -0.2))
        h = 1e-3

        def y_at_u(u):
            t = (alpha * u) ** (1.0 / alpha)
            return solve_full(spec, t, steps=256)

        for t in (1.5, 2.0, 2.5):
            u = t ** alpha / alpha
            y0 = y_at_u(u)
            d1 = (y_at_u(u + h) - y_at_u(u - h)) / (2 * h)
            d2 = (y_at_u(u + h) - 2 * y0 + y_at_u(u - h)) / h ** 2
            residual = (d2 + op.coefficients[0].value(t, alpha) * d1
                        + op.coefficients[1].value(t, alpha) * y0
                        - forcing.value(t, alpha))
            assert abs(residual) < 1e-4


def op_02(alpha):
    return LinearOperator(
        order=2, alpha=Alpha(alpha),
        coefficients=(ConformableFn.from_expr("0.4"),
                      ConformableFn.from_expr("0.2*t")))


def counting(text):
    """ConformableFn of an expression that records every evaluation point."""
    inner = ConformableFn.from_expr(text)
    points = []

    def evaluator(t, alpha=1.0):
        points.append(t)
        return inner.value(t, alpha)

    return ConformableFn(evaluator), points


def reference_rk4(op, forcing, s, t, init, m):
    """Classical RK4 in u = t^alpha/alpha, every stage evaluating its own
    coefficients and forcing: the unshared loop, kept as the reference."""
    a, n = op.alpha.value, op.order
    us, ut = math.pow(s, a) / a, math.pow(t, a) / a
    h = (ut - us) / m

    def rhs(u, z):
        tv = math.pow(a * u, 1.0 / a) if a != 1.0 else u
        top = forcing.value(tv, a) if forcing is not None else 0.0
        for i, p in enumerate(op.coefficients, start=1):
            top -= p.value(tv, a) * z[n - i]
        return z[1:] + [top]

    z, u = list(init), us
    for _ in range(m):
        k1 = rhs(u, z)
        k2 = rhs(u + 0.5 * h, [z[j] + 0.5 * h * k1[j] for j in range(n)])
        k3 = rhs(u + 0.5 * h, [z[j] + 0.5 * h * k2[j] for j in range(n)])
        k4 = rhs(u + h, [z[j] + h * k3[j] for j in range(n)])
        z = [z[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
             for j in range(n)]
        u += h
    return z[0]


class TestOnePassSolve:
    @pytest.mark.parametrize("s, t", [(1.0, 1.6), (1.6, 1.0)])
    def test_matches_variation_of_constants(self, s, t):
        spec = IvpSpec(op_02(0.5), ConformableFn.from_expr("exp(-t)"), s, (0.0, 0.0))
        assert solve_full(spec, t) == pytest.approx(solve_voc(spec, t), abs=1e-12)

    def test_matches_scipy_on_forced_problem_from_zero(self):
        # order 2, p = (1, t), forcing sin(t), alpha 0.7, from 0 to 2: in u
        # the problem is y'' + y' + t(u) y = sin(t(u))
        alpha, init = 0.7, (0.3, -0.5)
        op = LinearOperator(order=2, alpha=Alpha(alpha),
                            coefficients=(ConformableFn.from_expr("1"),
                                          ConformableFn.from_expr("t")))
        spec = IvpSpec(op, ConformableFn.from_expr("sin(t)"), 0.0, init)

        def rhs_u(u, z):
            tt = (alpha * max(u, 0.0)) ** (1.0 / alpha)
            return [z[1], math.sin(tt) - z[1] - tt * z[0]]

        sol = solve_ivp(rhs_u, (0.0, 2.0 ** alpha / alpha), list(init),
                        method="DOP853", rtol=1e-12, atol=1e-13)
        assert sol.success
        assert solve_full(spec, 2.0) == pytest.approx(sol.y[0, -1], abs=1e-8)

    @pytest.mark.parametrize("forcing", [None, "exp(-t)"])
    def test_bit_identical_to_unshared_loop(self, forcing):
        op = op_02(0.5)
        f = ConformableFn.from_expr(forcing) if forcing else None
        for s, t, init in ((1.0, 2.5, (0.5, -0.2)), (0.0, 1.5, (1.0, 0.0)),
                           (2.0, 0.7, (0.0, 1.0))):
            got = solve_full(IvpSpec(op, f, s, init), t, steps=50)
            assert got == reference_rk4(op, f, s, t, init, 50)

    def test_one_rk4_pass_and_one_evaluation_per_node(self, monkeypatch):
        p1, p1_points = counting("0.4")
        p2, p2_points = counting("0.2*t")
        f, f_points = counting("exp(-t)")
        op = LinearOperator(order=2, alpha=Alpha(0.5), coefficients=(p1, p2))
        passes = []
        rk4 = ivp._rk4_solve

        def counted(*args, **kwargs):
            passes.append(args)
            return rk4(*args, **kwargs)

        monkeypatch.setattr(ivp, "_rk4_solve", counted)
        m = 40
        solve_full(IvpSpec(op, f, 1.0, (0.5, -0.2)), 2.5, steps=m)
        assert len(passes) == 1
        assert len(p1_points) == len(p2_points) == len(f_points) == 2 * m + 1
        # nodes are the step ends and midpoints: no point is evaluated twice
        assert len(set(f_points)) == 2 * m + 1

    @pytest.mark.parametrize("forcing", [None, "exp(-t)"])
    def test_linear_in_the_initial_data(self, forcing):
        op = op_02(0.5)
        f = ConformableFn.from_expr(forcing) if forcing else None
        s, t, (v1, v2) = 1.0, 2.5, (0.7, -1.3)

        def y(init, rhs):
            return solve_full(IvpSpec(op, rhs, s, init), t)

        want = y((0.0, 0.0), f) + v1 * y((1.0, 0.0), None) + v2 * y((0.0, 1.0), None)
        assert y((v1, v2), f) == pytest.approx(want, abs=1e-13)

    def test_forcing_singular_at_base_point(self):
        # ln(t) cannot be evaluated at t = 0, the first RK4 node, so the
        # solve falls back to variation of constants; D y + c y = ln t at
        # alpha = 1 has y = y0 e^(-c t) + int_0^t e^(-c (t - x)) ln x dx
        c, y0, t = 0.8, 0.5, 0.5
        op = LinearOperator(order=1, alpha=Alpha(1.0), coefficients=(fam.constant(c),))
        spec = IvpSpec(op, ConformableFn.from_expr("ln(t)"), 0.0, (y0,))
        tail, _ = quad(lambda x: math.exp(-c * (t - x)) * math.log(x), 0.0, t,
                       epsabs=1e-13, epsrel=1e-13)
        want = y0 * math.exp(-c * t) + tail
        assert solve_full(spec, t, steps=32) == pytest.approx(want, abs=1e-8)
