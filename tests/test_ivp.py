import math
import random
import re
import time
import tracemalloc

import mpmath
import pytest
from scipy.integrate import quad, solve_ivp

from confrac import expr as ex
from confrac import functions as fam
from confrac import ivp
from confrac.calculus import Alpha, ConformableFn, QuadratureConfig
from confrac.errors import EvalDomainError, SolverError
from confrac.ivp import IvpSpec, LinearOperator, cauchy_function, solve_full, solve_voc
from confrac.taylor import TaylorExpansion, taylor_poly

from conftest import ivp_expm_reference, ivp_reference, mp_function, random_tree


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

    def test_order_past_170_factorial(self):
        # D^180 y = 1 from 0, at alpha 1/2 and t = 1: y = 2^180/180!; the
        # tolerance is relative, since the value is about 7.6e-276
        spec = IvpSpec(op_free(180, 0.5), fam.constant(1.0), 0.0, (0.0,) * 180)
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-13)
        want = mpmath.mpf(2) ** 180 / mpmath.factorial(180)
        assert abs(solve_full(spec, 1.0, cfg=cfg) - want) < 1e-12 * want
        # without cfg the absolute tolerance follows the integral's size
        assert abs(solve_full(spec, 1.0) - want) < 1e-12 * want

    @pytest.mark.parametrize("order, rhs, t", [(1, "sin(t)", 2 * math.pi), (2, "cos(t)", 1.5)])
    def test_integral_that_cancels_to_zero(self, order, rhs, t):
        # D y = sin t from 0 to 2 pi, and D^2 y = cos t from 0, whose kernel
        # integral int_0^t (t - x) cos x dx = 1 - cos t; the size-following
        # tolerance ends on an exact 0 as on any other value
        spec = IvpSpec(op_free(order, 1.0), ConformableFn.from_expr(rhs), 0.0, (0.0,) * order)
        want = 1.0 - math.cos(t)
        assert abs(solve_voc(spec, t) - want) <= 1e-12

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

    def test_homogeneous_part_is_the_taylor_sum_bit_for_bit(self):
        # the coefficient-free free solution sums z^k/k! D^k y(s) term by
        # term, z = (t^a - s^a)/a, as TaylorExpansion.evaluate does
        rng = random.Random(21)
        for _ in range(300):
            order = rng.randint(1, 6)
            alpha = rng.choice((0.25, 0.5, 0.7, 1.0, rng.uniform(0.05, 1.0)))
            s = rng.choice((0.0, rng.uniform(0.0, 3.0)))
            t = rng.uniform(0.0, 5.0)
            init = tuple(rng.uniform(-5.0, 5.0) for _ in range(order))
            z = (math.pow(t, alpha) - math.pow(s, alpha)) / alpha
            want, zk = 0.0, 1.0
            for k, v in enumerate(init):
                if k > 0:
                    zk *= z / k
                want += v * zk
            got = solve_full(IvpSpec(op_free(order, alpha), None, s, init), t)
            expansion = TaylorExpansion(s, order - 1, Alpha(alpha), init).evaluate(t)
            assert got.hex() == want.hex() == expansion.hex(), (order, alpha, s, t)

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


def counting(source):
    """ConformableFn of an expression (text or tree) that records every
    evaluation point."""
    inner = ConformableFn.from_expr(source)
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


def stepwise_rk4(op, forcing, s, t, init, m):
    """The step-by-step form of the shared-node RK4 pass: each node evaluated
    once, when its step reaches it (the forcing, then p_1..p_n), u clamped at
    0, the state checked after every step.  Kept as the reference for the
    errors of the generated kernel and for windows that end at t = 0."""
    a, n = op.alpha.value, op.order
    us, ut = math.pow(s, a) / a, math.pow(t, a) / a
    h = (ut - us) / m

    def node(u):
        u = max(u, 0.0)
        tv = math.pow(a * u, 1.0 / a) if a != 1.0 else u
        return (forcing.value(tv, a) if forcing is not None else 0.0,
                [p.value(tv, a) for p in op.coefficients])

    def rhs(at, z):
        top, ps = at
        for i, p in enumerate(ps, start=1):
            top -= p * z[n - i]
        return z[1:] + [top]

    z, u, at_u = list(init), us, node(us)
    for _ in range(m):
        at_mid, at_end = node(u + 0.5 * h), node(u + h)
        k1 = rhs(at_u, z)
        k2 = rhs(at_mid, [z[j] + 0.5 * h * k1[j] for j in range(n)])
        k3 = rhs(at_mid, [z[j] + 0.5 * h * k2[j] for j in range(n)])
        k4 = rhs(at_end, [z[j] + h * k3[j] for j in range(n)])
        z = [z[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
             for j in range(n)]
        u += h
        at_u = at_end
        if not all(math.isfinite(v) for v in z):
            raise SolverError(f"non-finite state at u={u!r} while stepping")
    return z


def outcome(call, *args):
    """The value a call returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def step_failure(error):
    """Steps taken, steps rejected, the last step, its u and the target u
    from the message of a pass that gave up."""
    taken, rejected, step, u, ut = re.search(
        r"(\d+) steps taken, (\d+) rejected, the last of (\S+) at u=(\S+) on the way to "
        r"u=(\S+)$", str(error)).groups()
    return int(taken), int(rejected), float(step), float(u), float(ut)


def operator(alpha, *texts):
    return LinearOperator(order=len(texts), alpha=Alpha(alpha),
                          coefficients=tuple(ConformableFn.from_expr(p) for p in texts))


class TestKernelErrors:
    def test_state_overflow_before_a_later_fault(self):
        # y grows about 12-fold per step and overflows near u = 0.93;
        # ln(1.5 - t) fails from u = 1.5 on, later in the pass
        op = operator(1.0, "-800")
        f = ConformableFn.from_expr("ln(1.5-t)")
        want = outcome(stepwise_rk4, op, f, 0.0, 2.0, (1.0,), 600)
        assert want[0] == "SolverError"
        assert outcome(ivp._rk4_solve, op, 0.0, 2.0, [1.0], 600, f) == want
        assert outcome(solve_full, IvpSpec(op, f, 0.0, (1.0,)), 2.0, 600) == want

    def test_coefficient_fault_at_an_earlier_node_than_the_forcing(self):
        # p_2 fails from t = 0.6 and the forcing, evaluated first at each
        # node, overflows after 0.81
        op = operator(1.0, "0.4", "ln(0.6-t)")
        f = ConformableFn.from_expr("exp(1000*(t-0.1))")
        want = outcome(stepwise_rk4, op, f, 0.0, 1.0, [0.5, -0.2], 600)
        assert want == ("EvalDomainError", "math domain error")
        assert outcome(ivp._rk4_solve, op, 0.0, 1.0, [0.5, -0.2], 600, f) == want
        with pytest.raises(EvalDomainError, match="overflow"):
            f.value(0.82, 1.0)

    def test_fault_after_360_steps_takes_them_first(self):
        # node k sits at t = k/600; the first one past 1.2025 is k = 722, the
        # end of step 361, so the forcing sees nodes 0..722 and the 360 steps
        # before it are taken: from a state near the float limit they
        # overflow first
        op = op_02(1.0)
        f, points = counting("ln(1.2025-t)")
        want = outcome(stepwise_rk4, op, f, 0.0, 2.0, [0.5, -0.2], 600)
        assert want == ("EvalDomainError", "math domain error")
        want_points = points[:]
        points.clear()
        assert outcome(ivp._rk4_solve, op, 0.0, 2.0, [0.5, -0.2], 600, f) == want
        assert points == want_points and len(points) == 2 * 360 + 3
        assert points[-2] < 1.2025 < points[-1]
        huge = outcome(ivp._rk4_solve, op, 0.0, 2.0, [1e308, -1e308], 600, f)
        assert huge == outcome(stepwise_rk4, op, f, 0.0, 2.0, [1e308, -1e308], 600)
        assert huge[0] == "SolverError"

    def test_fault_at_the_first_node_takes_no_step(self):
        # the forcing, evaluated first at each node, fails at t = 0: the
        # coefficients are never evaluated and no node past the first is
        f, f_points = counting("ln(t)")
        p1, p1_points = counting("0.4")
        p2, p2_points = counting("0.2*t")
        op = LinearOperator(order=2, alpha=Alpha(0.5), coefficients=(p1, p2))
        want = outcome(stepwise_rk4, op, f, 0.0, 1.0, [0.0, 0.0], 64)
        assert want[0] == "EvalDomainError"
        f_points.clear()
        assert outcome(ivp._rk4_solve, op, 0.0, 1.0, [0.0, 0.0], 64, f) == want
        assert (f_points, p1_points, p2_points) == ([0.0], [], [])


class TestTableau:
    def test_dop853_order_conditions(self):
        rows = ivp._rows(ivp._DOP853)
        c = [0.0] + [float(node) for node, _, _ in rows[:-1]]
        for ci, (_, _, weights) in zip(c[1:], rows):
            assert sum(map(float, weights.split())) == pytest.approx(ci, abs=1e-14)
        # the last stage sits at the step's end, where the next step starts
        assert (c[-1], rows[-1][0]) == (1.0, "")
        b = [float(w) for w in rows[-1][2].split()]
        for k in range(ivp._DOP853_ORDER):
            assert sum(bi * ci ** k for bi, ci in zip(b, c)) == pytest.approx(
                1.0 / (k + 1), abs=1e-14)
        for (weights,) in ivp._rows(ivp._DOP853_ERR):  # E5, then E3
            assert abs(sum(map(float, weights.split()))) <= 1e-14

    @pytest.mark.parametrize("s, t", [(1.0, 2.5), (2.5, 1.0), (0.0, 3.0)])
    def test_nodes_never_sparser_than_the_fixed_route(self, s, t):
        # the fixed route's nodes, at MIN_STEPS steps, lie (t - s) / 32 apart
        f, points = counting("exp(-t)")
        solve_full(IvpSpec(op_02(1.0), f, s, (0.5, -0.2)), t)
        # the first attempt is the longest step that spacing allows
        rows = ivp._rows(ivp._DOP853)
        hmax = (t - s) * (max(ivp._gaps(ivp._rows(ivp._RK4))) / ivp.MIN_STEPS
                          / max(ivp._gaps(rows)))
        assert points[1] == s + float(rows[0][0]) * hmax
        nodes = sorted(set(points))
        assert (nodes[0], nodes[-1]) == (min(s, t), max(s, t))
        widest = max(b - a for a, b in zip(nodes, nodes[1:]))
        assert widest <= abs(t - s) / (2 * ivp.MIN_STEPS) * (1 + 1e-12)


class TestKernelBitIdentity:
    @pytest.mark.parametrize("order", [1, 3, 4])
    @pytest.mark.parametrize("forcing", [None, "exp(-t)"])
    def test_orders(self, order, forcing):
        op = operator(0.6, *("0.4", "0.2*t", "cos(t)", "0.1*t^2")[:order])
        f = ConformableFn.from_expr(forcing) if forcing else None
        init = tuple(0.5 - 0.3 * k for k in range(order))
        for s, t in ((1.0, 2.5), (0.0, 1.5), (2.0, 0.7)):
            got = solve_full(IvpSpec(op, f, s, init), t, steps=50)
            assert got == reference_rk4(op, f, s, t, init, 50)

    def test_callable_coefficient_without_batch_form(self):
        p = ConformableFn.from_callable(lambda t: 0.3 + 0.1 * math.sin(t))
        op = LinearOperator(order=2, alpha=Alpha(0.5),
                            coefficients=(p, ConformableFn.from_expr("0.2*t")))
        f = ConformableFn.from_expr("cos(t)")
        got = solve_full(IvpSpec(op, f, 0.5, (1.0, 0.0)), 2.0, steps=300)
        assert got == reference_rk4(op, f, 0.5, 2.0, (1.0, 0.0), 300)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_coefficient_free_kernel(self, order):
        op = op_free(order, 0.7)
        init = [0.0] * (order - 1) + [1.0]
        for s, t in ((0.5, 2.0), (2.0, 0.3)):
            got = cauchy_function(op, s, t, steps=300, method="rk4")
            assert got == reference_rk4(op, None, s, t, init, 300)

    def test_default_step_count_is_capped(self):
        # the default route attempts at most MAX_DEFAULT_STEPS adaptive steps:
        # y' + cos(400 t) y = 1 to t = 40000 needs more steps of the size its
        # accuracy allows than that, and fails within a second with the counts
        spec = IvpSpec(operator(1.0, "cos(400*t)"), fam.constant(1.0), 0.0, (0.0,))
        start = time.perf_counter()
        with pytest.raises(SolverError, match="step error above tolerance") as failed:
            solve_full(spec, 40000.0)
        assert time.perf_counter() - start < 1.0
        taken, rejected, _, _, _ = step_failure(failed.value)
        assert taken + rejected == ivp.MAX_DEFAULT_STEPS
        # 3,000 units of u, which the old fixed count (512 a unit, at most
        # 2^20) refused: a smooth solution takes few steps
        spec = IvpSpec(operator(1.0, "0.001"), fam.constant(1.0), 0.0, (0.5,))
        want = ivp_expm_reference([0.001], 1.0, 1.0, 0.0, 3000.0, [0.5])[0]
        assert abs(solve_full(spec, 3000.0) - want) <= 1e-10 * abs(want)

    def test_stiff_range_fails_fast(self):
        # alpha 1e-10 to t = 4 spans 1e10 units of u, too stiff for explicit
        # steps: the pass ends, with the counts, as soon as its steps are held
        # at the stability bound that leaves far more of the window than the
        # remaining attempts can cross
        spec = IvpSpec(operator(1e-10, "1", "t"), ConformableFn.from_expr("cos(t)"), 0.0,
                       (0.0, 0.0))
        start = time.perf_counter()
        with pytest.raises(SolverError, match="step error above tolerance") as failed:
            solve_full(spec, 4.0)
        assert time.perf_counter() - start < 0.25
        taken, rejected, step, u, ut = step_failure(failed.value)
        left = ivp.MAX_DEFAULT_STEPS - taken - rejected
        assert left > 0 and ut - u > left * step

    def test_stiffness_that_eases_is_crossed(self):
        # y' + 1000/(1+t) y = 1 is stiff near t = 0, but its steps grow with
        # 1 + t: 10^4 units of u take about 1,600 of them, where steps of the
        # first size held at the stability bound would need over a million
        spec = IvpSpec(operator(1.0, "1000/(1+t)"), fam.constant(1.0), 0.0, (1.0,))
        want = 10001.0 / 1001.0 + 1000.0 / 1001.0 * 10001.0 ** -1000
        assert solve_full(spec, 1e4) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("c, t", [(3e5, 1e4), (2e5, 1e8), (2e5, 1e12)])
    def test_stiffness_that_eases_faster_is_crossed(self, c, t):
        # y' + c/(1+t)^2 y = 1 from y(0) = 0: the steps held at the stability
        # bound grow as (1 + t)^2, faster than a projection linear in t
        # assumes, and up to 50,000 of them cross the stiff start; the step
        # floor is rounding at u, not a share of the window, so the stable
        # steps of about 3e-5 at u = 0 stand above it on a window of 1e12.
        # With x = 1 + t and z = c/x, y = x - c e^z E1(z) + e^(z-c) (c E1(c) - 1)
        spec = IvpSpec(operator(1.0, f"{c!r}/(1+t)^2"), fam.constant(1.0), 0.0, (0.0,))
        with mpmath.workdps(40):
            x, c_ = 1 + mpmath.mpf(t), mpmath.mpf(c)
            z = c_ / x
            want = float(x - c_ * mpmath.exp(z) * mpmath.e1(z)
                         + mpmath.exp(z - c_) * (c_ * mpmath.e1(c_) - 1))
        assert solve_full(spec, t) == pytest.approx(want, rel=1e-10)

    def test_step_size_floor(self):
        # 1/(t - 1.5) has a pole inside the window: the steps shrink toward it
        # until, after a rejection, the closest nodes of a step lie within
        # rounding of u; a rejection cuts a step by at most 5
        start = time.perf_counter()
        with pytest.raises(SolverError, match="step error above tolerance") as failed:
            solve_full(IvpSpec(operator(1.0, "1/(t-1.5)"), None, 1.0, (1.0,)), 2.0)
        assert time.perf_counter() - start < 1.0
        taken, rejected, step, u, _ = step_failure(failed.value)
        assert taken + rejected < ivp.MAX_DEFAULT_STEPS
        g = min(ivp._gaps(ivp._rows(ivp._DOP853)))
        assert step * g <= 1e-15 * u < 5 * step * g and abs(u - 1.5) < 1e-6

    @pytest.mark.parametrize("steps", [16, 17, 256, 601])
    def test_step_counts(self, steps):
        op = op_02(0.5)
        f = ConformableFn.from_expr("exp(-t)")
        for s, t in ((1.0, 2.5), (2.5, 1.0)):
            got = solve_full(IvpSpec(op, f, s, (0.5, -0.2)), t, steps=steps)
            assert got == reference_rk4(op, f, s, t, (0.5, -0.2), steps)

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0])
    def test_backward_solve_to_zero(self, alpha):
        # the last nodes may fall within rounding below u = 0, where both the
        # pass and the step-by-step reference evaluate at t = 0
        op = op_02(alpha)
        f, points = counting("cos(t)")
        for s, steps in ((0.4, 64), (2.0, 300), (1.3, 700)):
            points.clear()
            want = stepwise_rk4(op, f, s, 0.0, (0.5, -0.2), steps)[0]
            want_points = points[:]
            points.clear()
            got = solve_full(IvpSpec(op, f, s, (0.5, -0.2)), 0.0, steps=steps)
            assert got == want
            # the same nodes in the same order, the last ones at t = 0 exactly
            assert points == want_points
            assert stepwise_rk4(op, f, s, 0.1, (0.5, -0.2), steps)[0] == \
                reference_rk4(op, f, s, 0.1, (0.5, -0.2), steps)

    def test_one_evaluation_per_node_over_many_steps(self, monkeypatch):
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
        m = 600
        solve_full(IvpSpec(op, f, 1.0, (0.5, -0.2)), 2.5, steps=m)
        assert len(passes) == 1
        assert len(p1_points) == len(p2_points) == len(f_points) == 2 * m + 1
        assert len(set(f_points)) == len(set(p1_points)) == 2 * m + 1

    def test_t_free_trees_are_evaluated_once(self, monkeypatch):
        # a tree evaluated inline calls the math functions of expression
        # code itself: count exp's calls through a kernel compiled anew
        calls = []
        monkeypatch.setitem(ex._EVAL_GLOBALS, "exp",
                            lambda x: calls.append(x) or math.exp(x))
        ivp._kernel.cache_clear()
        try:
            op = LinearOperator(order=2, alpha=Alpha(0.5), coefficients=(
                ConformableFn.from_expr("0.4"), ConformableFn.from_expr("exp(0.2*alpha)")))
            m = 600
            for forcing, per_solve in (("exp(-alpha)", 2), ("exp(-t)", 1 + 2 * m + 1)):
                f = ConformableFn.from_expr(forcing)
                want = reference_rk4(op, f, 1.0, 2.5, (0.5, -0.2), m)
                calls.clear()
                got = solve_full(IvpSpec(op, f, 1.0, (0.5, -0.2)), 2.5, steps=m)
                assert (got, len(calls)) == (want, per_solve)
        finally:
            ivp._kernel.cache_clear()  # drop the kernels that hold the spy


def drawn_function(rng, alpha):
    """A forcing or coefficient for the differential test: a random tree,
    evaluated inline, behind a recording wrapper or as a plain callable, or
    a t-free tree that fails; returns it and its list of recorded points."""
    kind = rng.randrange(6)
    if kind == 0:
        broken = rng.choice(["1/(alpha-alpha)", "ln(alpha-2)", "exp(1e3/alpha)"])
        return ConformableFn.from_expr(broken), None
    tree = random_tree(rng, depth=3)
    if kind == 1:
        return counting(tree)
    if kind == 2:
        inner = ConformableFn.from_expr(tree)
        return ConformableFn.from_callable(lambda t: inner.value(t, alpha)), None
    if kind == 3:
        c = round(rng.uniform(0.1, 2.0), 3)
        return ConformableFn.from_callable(lambda t: math.log(c - t)), None
    return ConformableFn.from_expr(tree), None


def bits(result):
    """A solve's state as hex floats, or the type and message it raised."""
    return [float(v).hex() for v in result] if isinstance(result, list) else result


class TestDifferential:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_kernel_equals_the_stepwise_loop(self, order, alpha):
        rng = random.Random(1000 * order + int(10 * alpha))
        windows = [(0.5, 2.0), (2.0, 0.5), (0.0, 1.5), (1.5, 0.0), (1.0, 1.0 + 1e-9)]
        outcomes = set()
        for case in range(30):
            s, t = windows[case % len(windows)]
            drawn = [drawn_function(rng, alpha) for _ in range(order + 1)]
            forcing = drawn[0][0] if case % 3 else None
            op = LinearOperator(order=order, alpha=Alpha(alpha),
                                coefficients=tuple(fn for fn, _ in drawn[1:]))
            recorders = [points for _, points in drawn if points is not None]
            init = [rng.uniform(-1.0, 1.0) for _ in range(order)]
            m = rng.choice([16, 33])
            want = bits(outcome(stepwise_rk4, op, forcing, s, t, init, m))
            seen = [points[:] for points in recorders]
            for points in recorders:
                points.clear()
            got = bits(outcome(ivp._rk4_solve, op, s, t, init, m, forcing))
            assert got == want, (case, op, forcing)
            assert [points[:] for points in recorders] == seen
            outcomes.add(want[0] if isinstance(want, tuple) else "value")
        assert "value" in outcomes and "EvalDomainError" in outcomes


class TestCompileOnce:
    def test_one_compile_per_operator_shape(self, monkeypatch):
        compiles = []
        monkeypatch.setattr(ivp, "compile", lambda *a: compiles.append(a) or compile(*a),
                            raising=False)
        monkeypatch.setattr(ex, "compile", lambda *a: compiles.append(a) or compile(*a),
                            raising=False)

        def solve(p1, p2, forcing, t):
            op = LinearOperator(order=2, alpha=Alpha(0.5), coefficients=(
                ConformableFn.from_expr(p1), ConformableFn.from_expr(p2)))
            spec = IvpSpec(op, ConformableFn.from_expr(forcing), 1.0, (0.5, -0.2))
            return spec, solve_full(spec, t, steps=40)

        ivp._kernel.cache_clear()
        spec, got = solve("0.4", "0.2*t", "1.5*exp(-t)", 2.5)
        assert len(compiles) >= 1
        assert got == reference_rk4(spec.operator, spec.forcing, 1.0, 2.5, (0.5, -0.2), 40)
        compiles.clear()
        # the same shapes, other literals: no compiler call at all
        spec, got = solve("0.7", "0.3*t", "2.5*exp(-t)", 2.0)
        assert compiles == []
        assert got == reference_rk4(spec.operator, spec.forcing, 1.0, 2.0, (0.5, -0.2), 40)
        # one coefficient of a new shape: its tree and one kernel compile
        op = LinearOperator(order=2, alpha=Alpha(0.5), coefficients=(
            ConformableFn.from_expr("0.7"), ConformableFn.from_expr("0.3*t+sin(t)")))
        spec = IvpSpec(op, ConformableFn.from_expr("2.5*exp(-t)"), 1.0, (0.5, -0.2))
        compiles.clear()
        got = solve_full(spec, 2.0, steps=40)
        assert [a[1] for a in compiles] == ["<rk4>"]
        assert got == reference_rk4(op, spec.forcing, 1.0, 2.0, (0.5, -0.2), 40)
        assert ivp._kernel.cache_info().currsize == 2


class TestGeneratedStepper:
    def test_order_300(self):
        op = LinearOperator(order=300, alpha=Alpha(0.8), coefficients=tuple(
            ConformableFn.from_expr(f"{0.001 * (k % 5 + 1)!r}*t") for k in range(300)))
        f = ConformableFn.from_expr("cos(t)")
        init = (1.0, 0.5) + (0.0,) * 298
        got = solve_full(IvpSpec(op, f, 1.0, init), 1.5, steps=16)
        assert got == reference_rk4(op, f, 1.0, 1.5, init, 16)
        assert math.isfinite(got) and got != init[0]

    def test_cache_is_bounded(self):
        size = ivp._kernel.cache_info().maxsize
        assert size == ivp._STEPPER_CACHE_SIZE
        ivp._kernel.cache_clear()
        # one operator of a new shape per solve: orders 1..size + 5
        for n in range(1, size + 6):
            op = LinearOperator(order=n, alpha=Alpha(1.0),
                                coefficients=(ConformableFn.from_expr("0.5"),) * n)
            ivp._rk4_solve(op, 0.0, 1.0, [0.0] * n, 16)
        assert ivp._kernel.cache_info().currsize == size
        assert ivp._kernel.cache_info().misses == size + 5

    def test_memory_does_not_grow_with_steps(self):
        # the kernel holds one value per function and node of a step;
        # tracing costs about 10 us per step, so the operator is the cheapest
        # one there is
        op, f = op_free(1, 1.0), fam.constant(1.0)

        def peak(steps):
            tracemalloc.start()
            try:
                ivp._rk4_solve(op, 0.0, 1.0, [0.0], steps, f)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20_000)  # compiles the stepper
        assert peak(200_000) <= 1.5 * peak(20_000)


def branch_free(tree):
    """True where no sqrt, ln or abs takes t and no power of t is fractional
    or negative: the tree is analytic in u at u = 0 for alpha 1/2 and 1."""
    if isinstance(tree, ex.Call) and tree.func in ("sqrt", "ln", "abs") and tree.contains_t:
        return False
    if isinstance(tree, ex.Pow) and tree.base.contains_t and not (
            isinstance(tree.exponent, ex.Num) and float(tree.exponent.value).is_integer()
            and tree.exponent.value >= 0):
        return False
    return all(branch_free(child) for child in ex._children(tree))


def moderate_tree(rng, alpha, lo, hi, from_zero=False, constant=False):
    """A conftest.random_tree that mpmath evaluates on nine points of [lo, hi]
    without a fault and below 10 in size; free of t where ``constant``, and
    analytic at u = 0 where ``from_zero`` (the Taylor reference starts
    there)."""
    while True:
        tree = random_tree(rng, depth=3)
        if constant and tree.contains_t or from_zero and not branch_free(tree):
            continue
        fn = mp_function(tree)
        try:
            size = max(abs(fn(mpmath.mpf(lo + (hi - lo) * k / 8), mpmath.mpf(alpha)))
                       for k in range(9))
        except ValueError:
            continue
        if size < 10:
            return tree


def close_to(got, want):
    """Within 1e-10 relative of want.  The default route holds each
    component to the state's own size, so a solution that decays to 5e-20
    keeps its digits; the closest cases are values that cancel inside a
    larger state (0.003 in a state near 1, 6e-11 off at seed 2023)."""
    return abs(got - want) <= 1e-10 * abs(want)


class TestAgainstMpmath:
    """The default route against mpmath at 30 digits, to 1e-10 relative
    wherever it returns a value."""

    def test_random_operators_against_odefun(self):
        rng = random.Random(2022)
        for case in range(6):
            order = (case // 3 + case) % 3 + 1
            window = ("forward", "backward", "from 0")[case % 3]
            alpha = rng.choice((0.5, 1.0) if window == "from 0" else (0.3, 0.45, 0.6, 0.8, 1.0))
            a = round(rng.uniform(0.3, 1.5), 3)
            s, t = {"forward": (a, a + rng.uniform(0.3, 1.0)),
                    "backward": (a + rng.uniform(0.3, 1.0), a), "from 0": (0.0, a)}[window]
            trees = [moderate_tree(rng, alpha, min(s, t), max(s, t), window == "from 0")
                     for _ in range(order + 1)]
            init = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(order)]
            op = LinearOperator(order, Alpha(alpha), tuple(map(ConformableFn.from_expr, trees[1:])))
            got = outcome(solve_full, IvpSpec(op, ConformableFn.from_expr(trees[0]), s,
                                              tuple(init)), t)
            want = ivp_reference(trees[1:], trees[0], alpha, s, t, init)[0]
            assert isinstance(got, float), (case, got)
            assert close_to(got, want), (case, got, want)

    def test_constant_coefficients_against_expm(self):
        rng = random.Random(2023)
        for case in range(60):
            order = case % 3 + 1
            alpha = rng.uniform(0.3, 1.0)
            s = rng.choice((0.0, rng.uniform(0.0, 2.0)))
            t = rng.uniform(0.0, 4.0)
            trees = [moderate_tree(rng, alpha, 0.0, 1.0, constant=True)
                     for _ in range(order + 1)]
            forcing = trees[0] if case % 2 else None
            init = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(order)]
            values = [float(mp_function(tree)(0, mpmath.mpf(alpha))) for tree in trees]
            op = LinearOperator(order, Alpha(alpha), tuple(map(ConformableFn.from_expr, trees[1:])))
            f = ConformableFn.from_expr(forcing) if forcing is not None else None
            got = solve_full(IvpSpec(op, f, s, tuple(init)), t)
            want = ivp_expm_reference(values[1:], values[0] if forcing is not None else None,
                                      alpha, s, t, init)[0]
            assert close_to(got, want), (case, got, want)
