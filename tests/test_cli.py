import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import confrac
from confrac import cli, expr as ex

from confrac.cli import (CSV_HEADER, EXIT_HYPOTHESIS, EXIT_NUMERIC, EXIT_OK,
                         EXIT_USAGE, EXIT_VIOLATED, emit_report, run)
from confrac.calculus import Interval
from confrac.inequalities import check_sandwich_lemma, steffensen
from confrac.calculus import ConformableFn

from conftest import ivp_expm_reference, ivp_reference, random_tree


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestDeriv:
    def test_basic(self):
        code, out, _ = invoke(["deriv", "--expr", "t", "--alpha", "0.5", "--at", "4"])
        assert code == EXIT_OK
        assert out.strip() == "2"

    def test_order(self):
        code, out, _ = invoke(["deriv", "--expr", "exp(t^alpha/alpha)",
                               "--alpha", "0.5", "--at", "1", "--order", "3"])
        assert code == EXIT_OK
        assert float(out) == pytest.approx(math.exp(2.0), rel=1e-10)

    def test_alpha_out_of_range(self):
        code, _, err = invoke(["deriv", "--expr", "t", "--alpha", "1.5", "--at", "4"])
        assert code == EXIT_USAGE
        assert err.strip()

    def test_expression_syntax_error(self):
        code, _, err = invoke(["deriv", "--expr", "2 +", "--alpha", "0.5", "--at", "4"])
        assert code == EXIT_USAGE
        assert "offset 3" in err

    def test_deeply_nested_expression_is_a_usage_error(self):
        deep = "(" * 2000 + "t" + ")" * 2000
        code, out, err = invoke(["deriv", "--expr", deep, "--alpha", "0.5", "--at", "1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "nesting" in err and "offset 100" in err

    def test_limit_divergence_is_numeric_failure(self):
        code, _, err = invoke(["deriv", "--expr", "sqrt(t)", "--alpha", "1", "--at", "0"])
        assert code == EXIT_NUMERIC


    def test_non_finite_literal_is_a_usage_error(self):
        code, out, err = invoke(["deriv", "--expr", "1e999*t", "--alpha", "0.5",
                                 "--at", "1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "offset 0" in err and "internal error" not in err

    def test_python_m_runs_the_cli(self):
        src = str(Path(confrac.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "confrac", "deriv", "--expr", "t",
                               "--alpha", "0.5", "--at", "4"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, "2\n", "")


class TestDerivOrders:
    """deriv --order n takes D^n f from the Taylor-mode series at any order."""

    def test_order_16_matches_mpmath_quickly(self):
        # exp(t) at alpha 1/2 is exp(u^2/4), t = 1 is u = 2
        start = time.perf_counter()
        code, out, _ = invoke(["deriv", "--expr", "exp(t)", "--alpha", "0.5",
                               "--at", "1", "--order", "16"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        with mpmath.workdps(40):
            want = mpmath.diff(lambda u: mpmath.exp(u * u / 4), 2, 16)
        assert float(out) == pytest.approx(float(want), rel=1e-11)  # 12 digits printed

    @pytest.mark.parametrize("order", (100, 200))
    def test_very_high_orders_end_within_a_second(self, order):
        start = time.perf_counter()
        code, _, err = invoke(["deriv", "--expr", "exp(t)", "--alpha", "0.5",
                               "--at", "1", "--order", str(order)])
        assert time.perf_counter() - start < 1.0
        assert code in (EXIT_OK, EXIT_NUMERIC) and "internal error" not in err

    def test_limit_fallback_is_quick(self):
        # t = (0.7 u)^(1/0.7) has no series at u = 0: D^24 f(0) is the
        # accelerated limit of D^24 f(s) as s -> 0+, which diverges
        start = time.perf_counter()
        code, out, err = invoke(["deriv", "--expr", "exp(t)", "--alpha", "0.7",
                                 "--at", "0", "--order", "24"])
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_NUMERIC and out == ""
        assert "diverges" in err

    @pytest.mark.parametrize("text, alpha, order", [("sqrt(t)", 0.5, 4),
                                                    ("sqrt(t)", 0.25, 4),
                                                    ("1/(1+t)", 0.5, 3)])
    def test_exact_zero_at_the_origin(self, text, alpha, order):
        # sqrt(t) is u/2 or u^2/16 and 1/(1+t) is 1/(1+u^2/4) in u: the
        # series at u = 0 gives the exact 0 the limit only approached
        code, out, _ = invoke(["deriv", "--expr", text, "--alpha", str(alpha),
                               "--at", "0", "--order", str(order)])
        assert (code, out) == (EXIT_OK, "0\n")


class TestFuzz:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), command=st.sampled_from(("deriv", "taylor")),
           order=st.integers(0, 24), alpha=st.floats(0.0, 1.0, exclude_min=True),
           at=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
           center=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
           cut=st.one_of(st.none(), st.tuples(st.integers(0, 40), st.integers(1, 3))))
    def test_documented_exit_codes_quickly(self, seed, command, order, alpha, at,
                                           center, cut):
        text = ex.to_text(random_tree(random.Random(seed)))
        if cut is not None:  # a damaged text exercises the parser's errors
            text = text[:cut[0]] + text[cut[0] + cut[1]:]
        argv = [command, "--expr", text, "--alpha", repr(alpha), "--at", repr(at)]
        if command == "deriv":
            argv += ["--order", str(order)]
        else:
            argv += ["--degree", str(order), "--center", repr(center)]
        start = time.perf_counter()
        code, _, err = invoke(argv)
        assert time.perf_counter() - start < 5.0, argv
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC), argv
        assert "internal error" not in err, (argv, err)

    # below alpha = 0.05 the u range, which grows as 1/alpha, can make
    # every nested solve of the variation-of-constants fallback long
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 3),
           alpha=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
           start=st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
    def test_solve_documented_exit_codes_quickly(self, seed, order, alpha, start):
        rng = random.Random(seed)
        argv = ["solve", "--order", str(order), "--alpha", repr(alpha),
                "--from", repr(start), "--to", repr(rng.uniform(0.0, 4.0)),
                "--init", ",".join(repr(round(rng.uniform(-2.0, 2.0), 3))
                                   for _ in range(order)),
                "--rhs", ex.to_text(random_tree(rng))]
        if rng.random() < 0.7:
            argv += ["--coeffs", ";".join(ex.to_text(random_tree(rng)) for _ in range(order))]
        begin = time.perf_counter()
        code, _, err = invoke(argv)
        assert time.perf_counter() - begin < 5.0, argv
        assert code in (EXIT_OK, EXIT_NUMERIC), argv
        assert "internal error" not in err, (argv, err)

    # integrate, ell, and check or sweep for each of the 14 inequality ids:
    # 5 examples each, 80 in all
    @pytest.mark.parametrize("target", ("integrate", "ell") + tuple(sorted(cli._CHECKS)))
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sweep=st.booleans(),
           alpha=st.floats(0.0, 1.0, exclude_min=True),
           a=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           width=st.floats(0.01, 3.0))
    def test_window_commands_documented_exit_codes_quickly(self, target, seed, sweep,
                                                           alpha, a, width):
        rng = random.Random(f"{target}:{seed}")
        command, ineq = target, None
        if target in cli._CHECKS:
            command, ineq = ("sweep" if sweep else "check"), target

        texts = [ex.to_text(random_tree(rng)) for _ in range(1 if ineq is None else 4)]
        if rng.random() < 0.2:  # a damaged text exercises the parser's errors
            k = rng.randrange(len(texts))
            cut = rng.randrange(len(texts[k]))
            texts[k] = texts[k][:cut] + texts[k][cut + rng.randint(1, 3):]
        window = ["--a", repr(a), "--b", repr(a + width)]
        if command == "integrate":
            argv = ["integrate", "--expr", texts[0], "--alpha", repr(alpha)] + window
        elif command == "ell":
            argv = ["ell", "--g", texts[0], "--alpha", repr(alpha)] + window
        else:
            argv = [command, "--ineq", ineq] + window
            for flag, text in zip(("--f", "--g", "--w", "--F"), texts):
                argv += [flag, text]
            if command == "check":
                argv += ["--alpha", repr(alpha)]
            else:
                alphas = [alpha] + [1.0 - rng.random() for _ in range(rng.randint(0, 2))]
                argv += ["--alphas", ",".join(map(repr, alphas))]
            if rng.random() < 0.5:
                argv += ["--n", str(rng.randint(0, 4))]
            if rng.random() < 0.5:  # mostly m < M, one or two of each
                m = [round(rng.uniform(-2.0, 1.0), 3) for _ in range(2)]
                M = [round(v + rng.uniform(-0.5, 3.0), 3) for v in m]
                count = 1 + (rng.random() < 0.3)
                argv += ["--m", ",".join(map(repr, m[:count])),
                         "--M", ",".join(map(repr, M[:count]))]
            if rng.random() < 0.5:
                argv += ["--t", repr(rng.uniform(a, a + width))]
            argv += rng.choice(([], ["--json"], ["--csv"]))
        start = time.perf_counter()
        code, _, err = invoke(argv)
        assert time.perf_counter() - start < 5.0, argv
        assert code in (EXIT_OK, EXIT_VIOLATED, EXIT_HYPOTHESIS, EXIT_USAGE,
                        EXIT_NUMERIC), argv
        assert "internal error" not in err, (argv, err)


class TestIntegrate:
    def test_singular_weight(self):
        code, out, _ = invoke(["integrate", "--expr", "1", "--alpha", "0.5",
                               "--a", "0", "--b", "1"])
        assert code == EXIT_OK
        assert float(out) == pytest.approx(2.0, rel=1e-10)

    def test_window_validation(self):
        code, _, _ = invoke(["integrate", "--expr", "1", "--alpha", "0.5",
                             "--a", "2", "--b", "1"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["integrate", "--expr", "--", "--alpha", "0.5", "--a", "0", "--b", "1"],
        ["integrate", "--expr=--", "--alpha", "0.5", "--a", "0", "--b", "1"],
        ["integrate", "--expr", "t", "--alpha=--", "--a", "0", "--b", "1"],
        ["check", "--ineq=--", "--f", "t", "--alpha", "0.5", "--a", "0", "--b", "1"]])
    def test_double_dash_value_is_a_usage_error(self, argv):
        # argparse drops a "--" value and stores an empty list
        code, _, err = invoke(argv)
        assert code == EXIT_USAGE
        assert "expects a value, got '--'" in err

    def test_numeric_failure(self):
        code, _, err = invoke(["integrate", "--expr", "1/t", "--alpha", "1",
                               "--a", "0", "--b", "1"])
        assert code == EXIT_NUMERIC
        assert "numeric" in err


class TestTaylor:
    @pytest.mark.parametrize("extra", [[], ["--remainder"]])
    @pytest.mark.parametrize("degree", ["0", "1"])
    def test_an_infinite_value_is_a_numeric_failure(self, degree, extra):
        # the integral remainder needs D^(n+1) f alone; the polynomial needs f
        code, out, err = invoke(["taylor", "--expr", "1e308*10+t", "--alpha", "0.5",
                                 "--center", "1", "--degree", degree, "--at", "2"] + extra)
        assert (code, out) == (EXIT_NUMERIC, "")
        assert "derivatives at t=1.0 are not finite" in err

    def test_poly_value(self):
        code, out, _ = invoke(["taylor", "--expr", "exp(t)", "--alpha", "1",
                               "--center", "0", "--degree", "4", "--at", "1"])
        assert code == EXIT_OK
        assert float(out) == pytest.approx(65.0 / 24.0, rel=1e-10)

    def test_with_remainder(self):
        code, out, _ = invoke(["taylor", "--expr", "exp(t)", "--alpha", "1",
                               "--center", "0", "--degree", "4", "--at", "1",
                               "--remainder"])
        assert code == EXIT_OK
        lines = dict(line.split() for line in out.strip().splitlines())
        total = float(lines["poly"]) + float(lines["remainder"])
        assert total == pytest.approx(math.e, rel=1e-9)

    @pytest.mark.parametrize("extra", [["--degree", "200"],
                                       ["--degree", "150", "--remainder"]])
    def test_high_degree_ends_cleanly(self, extra):
        # D^k f may overflow a float at high k: the result is a value or a
        # numeric failure, never an internal error, and it comes quickly
        start = time.perf_counter()
        code, _, err = invoke(["taylor", "--expr", "exp(t)", "--alpha", "0.5",
                               "--center", "0.5", "--at", "1"] + extra)
        assert time.perf_counter() - start < 5.0
        assert code in (EXIT_OK, EXIT_NUMERIC)
        assert "internal error" not in err

    def test_degree_200_from_zero(self):
        # exp(t) at alpha 0.5 is exp(u^2/4): D^200 f(0) is about 5e156, which
        # fits a float although 200! does not; at t = 1, u = 2 and the
        # partial sum is sum_{j <= 100} 1/j! = e
        start = time.perf_counter()
        code, out, _ = invoke(["taylor", "--expr", "exp(t)", "--alpha", "0.5",
                               "--center", "0", "--degree", "200", "--at", "1"])
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_OK
        assert float(out) == pytest.approx(math.e, rel=1e-10)


class TestSolve:
    def test_classical_voc(self):
        code, out, _ = invoke(["solve", "--order", "2", "--rhs", "sin(t)",
                               "--alpha", "1", "--from", "0", "--to", "2"])
        assert code == EXIT_OK
        assert float(out) == pytest.approx(2.0 - math.sin(2.0), abs=1e-6)

    def test_decay_with_coeffs_and_init(self):
        code, out, _ = invoke(["solve", "--order", "1", "--coeffs", "1",
                               "--alpha", "1", "--from", "0", "--to", "1.5",
                               "--init", "1"])
        assert code == EXIT_OK
        assert float(out) == pytest.approx(math.exp(-1.5), abs=1e-6)

    def test_voc_fallback_for_forcing_singular_at_zero(self):
        code, out, _ = invoke(["solve", "--order", "2", "--coeffs", "1;t", "--rhs", "ln(t)",
                               "--alpha", "0.5", "--from", "0", "--to", "1"])
        assert code == EXIT_OK
        assert out.strip() == "-2.56384136012"

    def test_order_whose_kernel_power_overflows(self):
        # D^201 y = 1 from 0 at alpha 1: y(100) = 100^201/201! = 6.31e24,
        # whose kernel's 100^200 overflows a float
        code, out, _ = invoke(["solve", "--order", "201", "--rhs", "1", "--alpha", "1",
                               "--from", "0", "--to", "100"])
        assert code == EXIT_OK
        want = mpmath.mpf(100) ** 201 / mpmath.factorial(201)
        assert float(out) == pytest.approx(float(want), rel=1e-11)

    @pytest.mark.parametrize("alpha", ["5e-324", "1e-306"])
    def test_alpha_too_small_to_step(self, alpha):
        # at alpha 5e-324, u(1) = 1/alpha is beyond float range: a numeric
        # failure; at 1e-306 it is 1e306 units, which the zero solution of
        # zero data crosses in steps growing tenfold
        code, out, err = invoke(["solve", "--order", "1", "--coeffs", "1", "--alpha", alpha,
                                 "--from", "0", "--to", "1"])
        assert (code, out) == ((EXIT_NUMERIC, "") if alpha == "5e-324" else (EXIT_OK, "0\n"))
        assert "internal error" not in err

    @pytest.mark.parametrize("alpha", ["1e-4", "1e-10"])
    def test_default_step_count_is_capped(self, alpha):
        # u(4) is about 1e4 or 1e10 units, where y'' + y' = 1 holds while t is
        # below 1e-20; explicit steps cross it at about 3 units a step (it
        # is stiff): the first in about 3,000, the second not within the
        # attempt budget, which fails fast and says so
        start = time.perf_counter()
        code, out, err = invoke(["solve", "--order", "2", "--coeffs", "1;t", "--rhs", "cos(t)",
                                 "--alpha", alpha, "--from", "0", "--to", "4"])
        assert time.perf_counter() - start < 1.0
        assert "internal error" not in err
        if alpha == "1e-10":
            assert code == EXIT_NUMERIC
            assert re.search(r"step error above tolerance: \d+ steps taken, \d+ rejected", err)
            return
        # in mpmath from t = 1e-16, where y = u - 1 + e^-u and y' = 1 - e^-u
        # but for the t y term, below 1e-12, to t = 4
        a = mpmath.mpf(1e-4)
        u = mpmath.mpf(1e-16) ** a / a
        want = ivp_reference([ex.parse("1"), ex.T], ex.parse("cos(t)"), 1e-4, 1e-16, 4.0,
                             [u - 1 + mpmath.exp(-u), 1 - mpmath.exp(-u)])[0]
        assert code == EXIT_OK, err
        assert abs(float(out) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("stiffness, periods", [("160000", 1600), ("10000", 400)])
    def test_fast_oscillator(self, stiffness, periods):
        # D^2 y + c y = 0 at alpha 1: y = cos(sqrt(c) t); fixed steps of 1/512
        # printed 0.0497341444894 for cos(1600) = -0.598 and were 3.6e-3 off
        # cos(400); the default route answers to 1e-9 or fails
        start = time.perf_counter()
        code, out, err = invoke(["solve", "--order", "2", "--coeffs", f"0;{stiffness}",
                                 "--alpha", "1", "--from", "0", "--to", "4", "--init", "1,0"])
        assert time.perf_counter() - start < 2.0
        assert code in (EXIT_OK, EXIT_NUMERIC), err
        if code == EXIT_OK:
            want = ivp_expm_reference([0.0, float(stiffness)], None, 1.0, 0.0, 4.0, [1.0, 0.0])[0]
            assert abs(float(out) - want) <= 1e-9
            assert abs(want - math.cos(periods)) <= 1e-15

    @pytest.mark.parametrize("rhs, want", [
        ("exp(-1000*(t-0.5)^2)", math.sqrt(math.pi / 1000) * math.erf(math.sqrt(1000) / 2)),
        ("sin(282.743338823081*t)^2", 0.5 - math.sin(565.486677646162) / 1130.973355292324)])
    def test_forcing_below_1e_17_at_the_nodes_of_one_step(self, rhs, want):
        # D y = f from 0 to 1 is the integral of f; f is below 1e-17 at 0,
        # 0.2, 0.3, 0.8, 8/9 and 1, the nodes of one step across the window,
        # whose error estimate saw nothing and printed about 1e-18; nodes at
        # most 1/32 of the window apart see the bump and the oscillation
        code, out, err = invoke(["solve", "--order", "1", "--coeffs", "0", "--rhs", rhs,
                                 "--alpha", "1", "--from", "0", "--to", "1"])
        assert code == EXIT_OK, err
        assert abs(float(out) - want) <= 1e-10 * want

    def test_overflow_is_a_non_finite_state(self):
        # y' = 800 y + 1 overflows near t = 0.876: the step whose error
        # estimate is nan says so at once, rather than cutting the step down
        # to the floor and blaming the tolerance
        start = time.perf_counter()
        code, out, err = invoke(["solve", "--order", "1", "--coeffs", "-800", "--rhs", "1",
                                 "--alpha", "1", "--from", "0", "--to", "2", "--init", "1"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_NUMERIC, "")
        assert re.search(r"non-finite state at u=0\.87\d* while stepping", err), err

    def test_order_past_170_factorial(self):
        # the solution is 2^180/180!, about 7.6e-276; 179! does not fit a
        # float, the kernel ((t^a - s^a)/a)^179/179! does, and the quadrature's
        # tolerance follows the integral's size, so all printed digits hold
        code, out, err = invoke(["solve", "--order", "180", "--rhs", "1", "--alpha", "0.5",
                                 "--from", "0", "--to", "1"])
        assert code == EXIT_OK, err
        assert out == "7.62830053413e-276\n"
        assert mpmath.nstr(mpmath.mpf(2) ** 180 / mpmath.factorial(180), 12) == "7.62830053413e-276"

    def test_order_a_million_is_quick(self):
        # 2^999999/1000000! is far below the least subnormal: each kernel
        # value is a zero found from lgamma, with no 999999! built
        start = time.perf_counter()
        code, out, err = invoke(["solve", "--order", "1000000", "--rhs", "1", "--alpha", "1",
                                 "--from", "0", "--to", "2"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_OK, "0\n"), err

    def test_coeff_count_mismatch(self):
        code, _, _ = invoke(["solve", "--order", "2", "--coeffs", "1",
                             "--alpha", "1", "--from", "0", "--to", "1"])
        assert code == EXIT_USAGE

    def test_steps_floor(self):
        code, _, _ = invoke(["solve", "--order", "1", "--coeffs", "1", "--alpha",
                             "1", "--from", "0", "--to", "1", "--steps", "4"])
        assert code == EXIT_USAGE


class TestFactorialsPastFloatRange:
    # (n+1)! and (n+2)! past 170! do not fit a float; the bounds built on
    # them are values or numeric failures, never an internal error
    @pytest.mark.parametrize("argv", [
        ["--ineq", "rem-steffensen", "--f", "exp(-t)", "--n", "170"],
        ["--ineq", "rem-cebysev", "--f", "exp(t)", "--n", "169"],
        ["--ineq", "mm-bounds", "--f", "exp(-t)", "--n", "170", "--m", "-1", "--M", "1"],
    ], ids=["rem-steffensen", "rem-cebysev", "mm-bounds"])
    def test_remainder_bounds(self, argv):
        code, _, err = invoke(["check"] + argv + ["--alpha", "0.5", "--a", "1", "--b", "2"])
        assert code in (EXIT_OK, EXIT_VIOLATED, EXIT_HYPOTHESIS, EXIT_NUMERIC)
        assert "internal error" not in err


class TestInternalFaults:
    @pytest.mark.parametrize("terms", [300, 3000])
    @pytest.mark.parametrize("command", [
        ["deriv", "--alpha", "0.5", "--at", "1", "--expr"],
        ["solve", "--order", "1", "--alpha", "0.5", "--from", "0", "--to", "1",
         "--init", "1", "--coeffs"],
    ])
    def test_long_flat_chain_is_a_numeric_failure(self, command, terms):
        # t+t+...+t nests no deeper than one level but builds a tree as deep
        # as the chain: too deep for Python's compiler (300 terms) or the
        # recursive passes (3000 terms)
        code, out, err = invoke(command + ["+".join(["t"] * terms)])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "too deep" in err and "Traceback" not in err

    def test_unexpected_exception_exits_4(self, monkeypatch):
        from confrac import cli

        def broken(args, out, err):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "deriv", broken)
        code, _, err = invoke(["deriv", "--expr", "t", "--alpha", "0.5", "--at", "4"])
        assert code == EXIT_NUMERIC
        assert err.strip() == "confrac: internal error: RuntimeError: boom"

    def test_interrupt_passes_through(self, monkeypatch):
        from confrac import cli

        def interrupted(args, out, err):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "deriv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            invoke(["deriv", "--expr", "t", "--alpha", "0.5", "--at", "4"])


class TestEll:
    def test_paper_value(self):
        code, out, _ = invoke(["ell", "--g", "0.5", "--alpha", "0.5",
                               "--a", "0", "--b", "1"])
        assert code == EXIT_OK
        assert out.strip() == "0.5"

    def test_hypothesis_failure(self):
        code, _, err = invoke(["ell", "--g", "2", "--alpha", "0.5",
                               "--a", "0", "--b", "1"])
        assert code == EXIT_HYPOTHESIS
        assert "hypothesis" in err


class TestCheck:
    def test_counterexample_json(self):
        argv = ["check", "--ineq", "steffensen", "--f", "-1", "--g", "0.5",
                "--alpha", "0.5", "--a", "0", "--b", "1", "--json"]
        code, out, _ = invoke(argv)
        assert code == EXIT_HYPOTHESIS
        obj = json.loads(out)
        assert obj["holds"] is False
        assert obj["lower"] == pytest.approx(-2.0 + math.sqrt(2.0), abs=1e-10)
        assert obj["actual"] == pytest.approx(-1.0, abs=1e-10)
        assert obj["slack_low"] < 0
        failed = [h["name"] for h in obj["hypotheses"] if not h["verified"]]
        assert failed == ["f nonnegative"]
        assert list(obj.keys()) == sorted(obj.keys())
        assert set(obj.keys()) == {"theorem", "alpha", "a", "b", "hypotheses",
                                   "lower", "actual", "upper", "slack_low",
                                   "slack_high", "holds"}

    def test_holding_instance_exit_zero(self):
        code, out, _ = invoke(["check", "--ineq", "hh2", "--f", "t^2",
                               "--alpha", "1", "--a", "0", "--b", "1"])
        assert code == EXIT_OK
        assert out.startswith("theorem=hh2")
        assert "HOLDS" in out

    def test_violation_with_trusted_bound(self):
        # a supplied Ostrowski M below the true supremum breaks the bound:
        # honest exit 1 (hypotheses untouched)
        code, out, _ = invoke(["check", "--ineq", "ostrowski", "--f", "t^alpha/alpha",
                               "--alpha", "0.5", "--a", "1", "--b", "4", "--t", "4",
                               "--M", "0.5"])
        assert code == EXIT_VIOLATED
        assert "VIOLATED" in out

    def test_missing_flag(self):
        code, _, err = invoke(["check", "--ineq", "steffensen", "--f", "-1",
                               "--alpha", "0.5", "--a", "0", "--b", "1"])
        assert code == EXIT_USAGE
        assert "--g" in err

    def test_cebysev_hypothesis_error(self):
        code, _, err = invoke(["check", "--ineq", "cebysev", "--f", "sin(t)",
                               "--g", "t", "--alpha", "1", "--a", "0", "--b", "3.2"])
        assert code == EXIT_HYPOTHESIS

    def test_csv_format(self):
        code, out, _ = invoke(["check", "--ineq", "gruss", "--f", "t", "--g", "t",
                               "--alpha", "1", "--a", "0", "--b", "1",
                               "--m", "0,0", "--M", "1,1", "--csv"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2
        assert lines[1].startswith("gruss,1,0,1,")

    def test_jensen(self):
        code, out, _ = invoke(["check", "--ineq", "jensen", "--w", "1", "--g", "t",
                               "--F", "t^2", "--alpha", "1", "--a", "0", "--b", "1",
                               "--json"])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["lower"] == pytest.approx(0.25, rel=1e-9)
        assert obj["actual"] == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_montgomery_default_midpoint(self):
        code, out, _ = invoke(["check", "--ineq", "montgomery", "--f", "sin(t)",
                               "--alpha", "1", "--a", "0", "--b", "2"])
        assert code == EXIT_OK

    def test_expression_values_starting_with_minus(self):
        code, out, _ = invoke(["check", "--ineq", "rem-steffensen",
                               "--f", "-exp(-t^alpha/alpha)", "--n", "1",
                               "--alpha", "0.5", "--a", "1", "--b", "2"])
        assert code == EXIT_OK and "HOLDS" in out

    def test_negative_bound_pairs(self):
        code, out, _ = invoke(["check", "--ineq", "gruss", "--f", "sin(t)",
                               "--g", "cos(t)", "--m", "-1,-1", "--M", "1,1",
                               "--alpha", "1", "--a", "0", "--b", "3", "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["upper"] == 1.0

    def test_byte_identical_runs(self):
        argv = ["check", "--ineq", "steffensen", "--f", "exp(-t)", "--g", "t",
                "--alpha", "1", "--a", "0", "--b", "1", "--json"]
        assert invoke(argv) == invoke(argv)


class TestSweep:
    def test_csv_rows(self):
        code, out, _ = invoke(["sweep", "--ineq", "hh2", "--f", "t^2",
                               "--alphas", "0.25:0.75:0.25", "--a", "0.5", "--b", "2",
                               "--csv"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0] == ",".join(CSV_HEADER)

    def test_alpha_list(self):
        code, out, _ = invoke(["sweep", "--ineq", "hh2", "--f", "t^2",
                               "--alphas", "0.5,1.0", "--a", "0.5", "--b", "2"])
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 2

    def test_does_not_abort_on_hypothesis_failure(self):
        code, out, _ = invoke(["sweep", "--ineq", "steffensen", "--f", "-1",
                               "--g", "0.5", "--alphas", "0.2:1.0:0.2",
                               "--a", "0", "--b", "1", "--csv"])
        assert code == EXIT_HYPOTHESIS
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + 5 rows, none aborted
        assert all("f nonnegative=FAIL" in line for line in lines[1:])
        assert any("false" in line for line in lines[1:])

    def test_rejects_bad_grid(self):
        code, _, _ = invoke(["sweep", "--ineq", "hh2", "--f", "t^2",
                             "--alphas", "0:2:0.5", "--a", "0.5", "--b", "2"])
        assert code == EXIT_USAGE

    # D f of t^0.5 is 0.5 t^(0.5-alpha): its limit at t = 0 diverges for
    # alpha = 0.75 only, so that row fails and the other two hold
    MIXED = ["sweep", "--ineq", "hh2", "--f", "t^0.5", "--alphas", "0.25,0.75,0.5",
             "--a", "0", "--b", "1"]

    @pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]])
    def test_numeric_failure_is_a_flagged_row(self, fmt):
        code, out, err = invoke(self.MIXED + fmt)
        assert code == EXIT_NUMERIC
        # text rows show no cause, so text mode names it on stderr
        reason = "numeric failure: derivative limit at t=0 diverges"
        assert err == ("" if fmt else f"confrac: alpha=0.75: {reason}\n")
        good = invoke(["sweep", "--ineq", "hh2", "--f", "t^0.5", "--alphas", "0.25,0.5",
                       "--a", "0", "--b", "1"] + fmt)
        assert good[0] == EXIT_OK
        if fmt == ["--json"]:
            rows, want = json.loads(out), json.loads(good[1])
            assert [rows[0], rows[2]] == want
            assert rows[1]["hypotheses"][0]["name"].startswith("numeric failure")
            assert rows[1]["actual"] is None and rows[1]["holds"] is False
        else:
            lines, want = out.strip().splitlines(), good[1].strip().splitlines()
            failed = lines.pop(-2)
            assert lines == want
            assert "alpha=0.75" in failed or failed.startswith("hh2,0.75,")
            if fmt:
                assert "numeric failure: derivative limit at t=0 diverges=FAIL" in failed

    def test_numeric_failure_outranks_hypothesis_failure(self):
        code, out, _ = invoke(["sweep", "--ineq", "hh2", "--f", "t^(-0.5)",
                               "--alphas", "0.3,0.6,1.0", "--a", "0", "--b", "1", "--csv"])
        assert code == EXIT_NUMERIC
        assert len(out.strip().splitlines()) == 4  # header + 3 flagged rows

    def test_json_array(self):
        code, out, _ = invoke(["sweep", "--ineq", "hh2", "--f", "t^2",
                               "--alphas", "0.5,1.0", "--a", "0.5", "--b", "2",
                               "--json"])
        assert code == EXIT_OK
        arr = json.loads(out)
        assert [r["alpha"] for r in arr] == [0.5, 1.0]


class TestSweepBuildsEachFunctionOnce:
    ALPHAS = ("0.1", "0.5", "0.75", "1")
    FLAT_CHAIN = "+".join(["t"] * 300)  # parses, then is too deep to compile
    # (id, flags, a, b); every id, with rows that hold, are violated, fail a
    # hypothesis (a report or a HypothesisError) or fail numerically (in the
    # check, or in building the function)
    CASES = [
        ("steffensen", ["--f", "exp(-t)", "--g", "t/2"], "0", "1"),
        ("steffensen", ["--f", "-1", "--g", "0.5"], "0", "1"),
        ("sandwich", ["--g", "t/2"], "0", "1"),
        ("rem-steffensen", ["--f", "exp(-t)", "--n", "1"], "1", "2"),
        ("hh1", ["--f", "t^2"], "0.5", "2"),
        ("hh1", ["--f", FLAT_CHAIN], "0.5", "2"),
        ("mm-bounds", ["--f", "exp(-t)", "--n", "1", "--m", "-1", "--M", "1"], "1", "2"),
        ("cebysev", ["--f", "exp(t)", "--g", "t"], "0", "2"),
        ("rem-cebysev", ["--f", "exp(t)", "--n", "1"], "0.5", "1.5"),
        ("hh2", ["--f", "t^0.5"], "0", "1"),
        ("hh2", ["--f", "sin(t)"], "0.5", "2"),
        ("montgomery", ["--f", "sin(t)"], "0", "2"),
        ("ostrowski", ["--f", "exp(-t)", "--t", "0.5", "--M", "1"], "0", "1"),
        ("jensen", ["--w", "1", "--g", "t", "--F", "t^2"], "0", "1"),
        ("gruss", ["--f", "sin(t)", "--g", "cos(t)", "--m", "-1,-1", "--M", "1,1"], "0", "3"),
        ("gruss-montgomery", ["--f", "exp(-t)", "--m", "-1", "--M", "1"], "0.5", "1.5"),
        ("hh3", ["--f", "t^2", "--m", "0", "--M", "4"], "0.5", "2"),
    ]
    FORMATS = {"text": [], "json": ["--json"], "csv": ["--csv"]}

    def test_cases_cover_every_id(self):
        assert {case[0] for case in self.CASES} == set(cli._CHECKS)

    @staticmethod
    def expected_row(ineq, alpha, a, b, fmt, check):
        """The sweep row (text line, JSON object or CSV row) and stderr line
        that stand for `check` run at alpha."""
        code, out, err = check
        if out:
            if fmt == "json":
                return json.loads(out), None
            if fmt == "csv":
                return out.splitlines()[1], None
            status, sides = out.splitlines()[-1].split("  ", 1)
            unverified = "  (hypotheses not verified)"
            if sides.endswith(unverified):
                sides, status = sides[:-len(unverified)], status + unverified[1:]
            return f"alpha={alpha}  {sides}  {status}", None
        # the check raised: the sweep flags the row with the same message
        prefix, message = err.rstrip("\n").split(": ", 2)[1:]
        assert (code, prefix) in ((EXIT_HYPOTHESIS, "hypothesis failed"),
                                  (EXIT_NUMERIC, "numeric failure"), (EXIT_NUMERIC, "error"))
        reason = message if code == EXIT_HYPOTHESIS else f"numeric failure: {message}"
        if fmt == "json":
            row = {"theorem": ineq, "alpha": float(alpha), "a": float(a), "b": float(b),
                   "hypotheses": [{"name": reason, "verified": False, "witness": None}],
                   "lower": None, "actual": None, "upper": None, "slack_low": None,
                   "slack_high": None, "holds": False}
        elif fmt == "csv":
            row = ",".join([ineq, alpha, a, b, "", "nan", "", "", "", "false",
                            f"{reason}=FAIL@"])
        else:
            row = f"alpha={alpha}  nan  VIOLATED (hypotheses not verified)"
        return row, f"confrac: alpha={alpha}: {reason}"

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    @pytest.mark.parametrize("ineq, flags, a, b", CASES)
    def test_each_row_is_the_check_at_its_alpha(self, ineq, flags, a, b, fmt):
        common = ["--ineq", ineq, *flags, "--a", a, "--b", b, *self.FORMATS[fmt]]
        code, out, err = invoke(["sweep", *common, "--alphas", ",".join(self.ALPHAS)])
        checks = [invoke(["check", *common, "--alpha", alpha]) for alpha in self.ALPHAS]
        want = [self.expected_row(ineq, alpha, a, b, fmt, check)
                for alpha, check in zip(self.ALPHAS, checks)]
        if fmt == "json":
            rows = json.loads(out)
        else:
            rows = out.splitlines()[1 if fmt == "csv" else 0:]
        assert rows == [row for row, _ in want]
        flagged = "".join(f"{line}\n" for _, line in want if line is not None)
        assert err == ("" if fmt != "text" else flagged)
        codes = {check[0] for check in checks}
        for worst in (EXIT_NUMERIC, EXIT_HYPOTHESIS, EXIT_VIOLATED, EXIT_OK):
            if worst in codes:
                assert code == worst
                break

    @pytest.mark.parametrize("ineq, flags, a, b", CASES)
    def test_one_function_per_flag_per_sweep(self, monkeypatch, ineq, flags, a, b):
        built = []
        from_expr = ConformableFn.from_expr

        def counted(cls, source, name=None):
            built.append(source)
            return from_expr(source, name)

        monkeypatch.setattr(ConformableFn, "from_expr", classmethod(counted))
        invoke(["sweep", "--ineq", ineq, *flags, "--a", a, "--b", b,
                "--alphas", ",".join(self.ALPHAS)])
        texts = [flags[i + 1] for i in range(0, len(flags), 2)
                 if flags[i] in ("--f", "--g", "--w", "--F")]
        assert built == texts

    # the flags an id reads before its functions are built are still read first
    @pytest.mark.parametrize("flags, message", [
        (["--ineq", "gruss", "--f", "sin(t", "--g", "t", "--m", "x", "--M", "1"],
         "--m expects a number or comma pair, got 'x'"),
        (["--ineq", "gruss", "--f", "sin(t", "--g", "t"], "--ineq gruss requires --m, --M"),
        (["--ineq", "ostrowski", "--f", "sin(t", "--M", "1,2"],
         "ostrowski takes a single --M value"),
        (["--ineq", "hh3", "--f", "sin(t"],
         "--f 'sin(t': expected ')' (offset 5)"),
        (["--ineq", "mm-bounds", "--f", "exp(t)", "--n", "-1"], "--n must be >= 0, got -1"),
        (["--ineq", "jensen", "--w", "1", "--g", "t", "--F", "t^"],
         "--F 't^': unexpected end of input (offset 2)"),
    ])
    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_usage_errors_in_their_order(self, command, flags, message):
        grid = ["--alpha", "0.5"] if command == "check" else ["--alphas", "0.5,1"]
        code, out, err = invoke([command, *flags, "--a", "0.5", "--b", "2", *grid])
        assert (code, out, err) == (EXIT_USAGE, "", f"confrac: usage error: {message}\n")

    def test_a_function_that_fails_to_build_hides_later_usage_errors(self):
        # as when each alpha built its own functions: --n is never read
        flags = ["--ineq", "mm-bounds", "--f", self.FLAT_CHAIN, "--n", "-1",
                 "--a", "0.5", "--b", "2"]
        code, out, err = invoke(["sweep", *flags, "--alphas", "0.5,1", "--csv"])
        assert code == EXIT_NUMERIC and err == ""
        reason = "expression too deep to compile: too many nested parentheses"
        assert [row.split(",")[-1] for row in out.splitlines()[1:]] == [
            f"numeric failure: {reason}=FAIL@"] * 2
        assert invoke(["check", *flags, "--alpha", "0.5"]) == (
            EXIT_NUMERIC, "", f"confrac: error: {reason}\n")


class TestEmitReport:
    def setup_method(self):
        self.report = steffensen(ConformableFn.from_expr("exp(-t)"),
                                 ConformableFn.from_expr("t"),
                                 1.0, Interval(0.0, 1.0))

    def test_text_holds_line(self):
        text = emit_report(self.report, "text")
        assert "HOLDS" in text and " <= " in text

    def test_json_stable_digits(self):
        blob = emit_report(self.report, "json")
        obj = json.loads(blob)
        for key in ("lower", "actual", "upper"):
            assert len(repr(obj[key]).replace("-", "").replace(".", "").lstrip("0")) <= 12

    def test_csv_single(self):
        blob = emit_report(self.report, "csv")
        assert len(blob.splitlines()) == 2

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.report, "yaml")

    def test_absent_side_serialized_null(self):
        rep = check_sandwich_lemma(ConformableFn.from_expr("0.5"), 0.5,
                                   Interval(0.0, 1.0))
        obj = json.loads(emit_report(rep, "json"))
        assert obj["upper"] is not None
        from confrac.inequalities import hermite_hadamard_2
        rep2 = hermite_hadamard_2(ConformableFn.from_expr("t^2"), 1.0,
                                  Interval(0.0, 1.0))
        obj2 = json.loads(emit_report(rep2, "json"))
        assert obj2["lower"] is None and obj2["slack_low"] is None


# ---------------------------------------------------------------------------
# the command-line table against the argparse configuration it replaced

class _FloatMatcher:
    @staticmethod
    def match(text):
        try:
            float(text)
        except ValueError:
            return False
        return True


class _ReferenceParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's negative numbers, widened as the CLI widens them to
        # whatever float() reads
        self._negative_number_matcher = _FloatMatcher

    def error(self, message):
        raise cli._UsageError(message)


def _reference_parser():
    """The argparse configuration the CLI had before its own table: the
    reference of the differential test below."""
    parser = _ReferenceParser(prog="confrac",
                              description="conformable fractional calculus toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("deriv")
    p.add_argument("--expr", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--order", type=int, default=1)
    p = sub.add_parser("integrate")
    p.add_argument("--expr", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)
    p = sub.add_parser("taylor")
    p.add_argument("--expr", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--center", type=float, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--remainder", action="store_true")
    p = sub.add_parser("solve")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--coeffs", default=None)
    p.add_argument("--rhs", default=None)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--init", default=None)
    p.add_argument("--steps", type=int, default=None)
    p = sub.add_parser("ell")
    p.add_argument("--g", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    for name in ("check", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--ineq", required=True, choices=sorted(cli._CHECKS))
        p.add_argument("--f", default=None)
        p.add_argument("--g", default=None)
        p.add_argument("--w", default=None)
        p.add_argument("--F", default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--m", default=None)
        p.add_argument("--M", default=None)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--b", type=float, required=True)
        p.add_argument("--tol", type=float, default=None)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true")
        fmt.add_argument("--csv", action="store_true")
        if name == "check":
            p.add_argument("--alpha", type=float, required=True)
        else:
            p.add_argument("--alphas", required=True)
    return parser


_REFERENCE_VALUE_FLAGS = ("--expr", "--f", "--g", "--w", "--F", "--rhs", "--coeffs",
                          "--init", "--m", "--M", "--alphas")


def _reference_fuse(argv):
    """Each value flag fused with the next argument into --flag=value, so
    that argparse takes a value beginning with '-'; a '--' value is refused."""
    fused = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _REFERENCE_VALUE_FLAGS and i + 1 < len(argv):
            i += 1
            tok = f"{tok}={argv[i]}"
        if tok.startswith("--") and tok.endswith("=--"):
            raise cli._UsageError(f"{tok[:-3]} expects a value, got '--'")
        fused.append(tok)
        i += 1
    return fused


_REFERENCE = _reference_parser()


def _invoke_through(parse, argv):
    """invoke(argv) with cli._parse replaced by ``parse``; a help request
    that exits is returned as ("exit", code, stdout)."""
    saved = cli._parse
    cli._parse = parse
    try:
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            return invoke(argv)
    except SystemExit as exc:
        return ("exit", exc.code, printed.getvalue())
    finally:
        cli._parse = saved


def _reference_parse(table, argv):
    return _REFERENCE.parse_args(_reference_fuse(argv))


# a valid line per command, as (flag, value) groups; every command runs quickly
_VALID = {
    "deriv": [["--expr", "t"], ["--alpha", "0.5"], ["--at", "1"], ["--order", "2"]],
    "integrate": [["--expr", "-t"], ["--alpha", "0.5"], ["--a", "0"], ["--b", "1"],
                  ["--tol", "1e-8"]],
    "taylor": [["--expr", "exp(t)"], ["--alpha", "0.5"], ["--center", "0.5"],
               ["--degree", "2"], ["--at", "1"], ["--remainder"]],
    "solve": [["--order", "1"], ["--rhs", "1"], ["--alpha", "0.5"], ["--from", "0"],
              ["--to", "1"], ["--init", "-1"], ["--coeffs", "-1"], ["--steps", "64"]],
    "ell": [["--g", "0.5"], ["--alpha", "0.5"], ["--a", "0"], ["--b", "1"]],
    "check": [["--ineq", "hh2"], ["--f", "exp(-t)"], ["--alpha", "0.5"], ["--a", "0.5"],
              ["--b", "1"], ["--json"]],
    "sweep": [["--ineq", "hh2"], ["--f", "-exp(-t)"], ["--alphas", "0.5,1"],
              ["--a", "0.5"], ["--b", "1"], ["--csv"]],
}
_FLAGS = sorted({g[0] for groups in _VALID.values() for g in groups}
                | {"--ineq", "--g", "--w", "--F", "--n", "--m", "--M", "--t", "--json",
                   "--csv", "--alphas", "--alpha"})
_VALUES = ["0.5", "1", "2", "-1", "-0.5", "-.5", "-1e-3", "-x", "--", "x", "", "a b", "t",
           "-exp(-t)", "1,2", "0.25,0.75", "hh1", "gruss", "-3", "x=--", "a=b", "--alpha",
           "--expr", "-5\n", "1_0", " 2", "inf", "1.5", "-inf", "-2E+1", "-1.e2", "-1.",
           "-Infinity", "-nan", "-1_0", "nan"]
_JUNK = ["--", "-", "", "x", "--zz", "-x", "--=x", "--a", "--al", "--c", "--cs", "--js",
         "-5", "--e", "--ex=t", "a b", "--json=1", "--expr", "--json", "--csv", "-h", "-hh",
         "-hx", "--he=1"]


@st.composite
def _command_lines(draw):
    """A valid line with up to four edits, or a few junk arguments (and
    sometimes a command that does not exist) in front of it."""
    command = draw(st.sampled_from(sorted(_VALID)))
    groups = [list(g) for g in _VALID[command]]
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(("drop", "abbreviate", "equals", "value", "no-value",
                                     "duplicate", "junk", "flag", "format")))
        k = draw(st.integers(0, len(groups) - 1)) if groups else None
        if edit == "drop" and groups:
            del groups[k]
        elif edit == "abbreviate" and groups and len(groups[k][0]) > 3:
            groups[k][0] = groups[k][0][:draw(st.integers(2, len(groups[k][0]) - 1))]
        elif edit == "equals" and groups and len(groups[k]) == 2:
            groups[k] = ["=".join(groups[k])]
        elif edit == "value" and groups and len(groups[k]) == 2:
            groups[k][1] = draw(st.sampled_from(_VALUES))
        elif edit == "no-value" and groups and len(groups[k]) == 2:
            groups[k] = groups[k][:1]
        else:
            extra = {"duplicate": st.sampled_from(_VALID[command]).map(list),
                     "junk": st.sampled_from(_JUNK).map(lambda s: [s]),
                     "flag": st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES))
                     .map(list),
                     "format": st.sampled_from((["--json"], ["--csv"])),
                     }.get(edit, st.just(["--zz"]))
            groups.insert(draw(st.integers(0, len(groups))), draw(extra))
    if draw(st.integers(0, 9)) == 0:
        command = draw(st.sampled_from(("bogus", "", "--", "-", "de", "DERIV", command)))
    head = draw(st.lists(st.sampled_from(_JUNK + _VALUES), max_size=2)
                if draw(st.integers(0, 9)) == 0 else st.just([]))
    return head + [command] + [arg for g in groups for arg in g]


class TestCommandLineTable:
    """The parser reads the table in one pass and says what argparse said."""

    # the reference is the argparse of Python 3.10-3.12; 3.13 changed how
    # it reads '-hVALUE', so the two differ there by design
    @pytest.mark.skipif(sys.version_info >= (3, 13),
                        reason="the reference is argparse as of Python 3.10-3.12")
    @settings(max_examples=3000, deadline=None)
    @given(argv=_command_lines())
    def test_same_outcome_as_argparse(self, argv):
        expected = _invoke_through(_reference_parse, argv)
        got = invoke(argv)
        if expected[0] == "exit":   # help: tested on its own below
            assert expected[1] == 0
            assert got[0] == EXIT_OK and got[1].startswith("usage: confrac") and got[2] == ""
        else:
            assert got == expected

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["--expr", "t"], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'deriv', "
                    "'integrate', 'taylor', 'solve', 'ell', 'check', 'sweep')"),
        (["--", "deriv"], "argument command: invalid choice: '--' (choose from 'deriv', "
                          "'integrate', 'taylor', 'solve', 'ell', 'check', 'sweep')"),
        (["deriv", "--order", "2", "x", "--alpha", "1"],
         "the following arguments are required: --expr, --at"),
        (["deriv", "--alpha", "one", "--expr", "t", "--at", "1"],
         "argument --alpha: invalid float value: 'one'"),
        (["deriv", "--expr", "t", "--alpha", "1", "--at", "1", "--order", "2.0"],
         "argument --order: invalid int value: '2.0'"),
        (["check", "--ineq", "hh4", "--f", "t"],
         "argument --ineq: invalid choice: 'hh4' (choose from 'cebysev', 'gruss', "
         "'gruss-montgomery', 'hh1', 'hh2', 'hh3', 'jensen', 'mm-bounds', 'montgomery', "
         "'ostrowski', 'rem-cebysev', 'rem-steffensen', 'sandwich', 'steffensen')"),
        (["deriv", "--expr", "t", "--at", "--alpha", "1"],
         "argument --at: expected one argument"),
        (["deriv", "--expr", "t", "--alpha", "1", "--at", "-1e-3"],
         "--at must be >= 0, got -0.001"),
        (["deriv", "--expr", "t", "--alpha", "1", "--at", "-1."],
         "--at must be >= 0, got -1.0"),
        (["check", "--ineq", "montgomery", "--f", "sin(t)", "--alpha", "0.5", "--a", "0.5",
          "--b", "1", "--t", "-inf"], "--t -inf lies outside [0.5, 1.0]"),
        (["deriv", "--expr", "t", "--a", "1"],
         "ambiguous option: --a could match --alpha, --at"),
        (["deriv", "--alpha", "x", "--a", "1"],
         "ambiguous option: --a could match --alpha, --at"),
        (["taylor", "--rem=yes"], "argument --remainder: ignored explicit argument 'yes'"),
        (["deriv", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
        (["check", "--json", "--csv"], "argument --csv: not allowed with argument --json"),
        (["check", "--csv", "--js"], "argument --json: not allowed with argument --csv"),
        (["deriv", "--expr", "t", "--alpha", "1", "--at", "1", "x", "--", "--order"],
         "unrecognized arguments: x -- --order"),
        (["deriv", "--b", "1", "--expr", "t"],
         "the following arguments are required: --alpha, --at"),
        (["deriv", "--alpha", "x", "--expr", "--"], "--expr expects a value, got '--'"),
        (["deriv", "--expr", "t", "--alpha", "1", "--at", "-Infinity"],
         "--at must be >= 0, got -inf"),
        (["deriv", "--expr", "t", "--alpha", "1", "--at", "-1_0"],
         "--at must be >= 0, got -10.0"),
        (["deriv", "--expr", "t", "--alpha", "1", "--at", "-nan"],
         "--at must be finite, got nan"),
        (["deriv", "--expr", "t^2", "--alpha", "1", "--at", "nan"],
         "--at must be finite, got nan"),
        (["deriv", "--expr", "t^2", "--alpha", "1", "--at", "inf"],
         "--at must be finite, got inf"),
        (["taylor", "--expr", "exp(t)", "--alpha", "1", "--center", "1", "--degree", "2",
          "--at", "nan"], "--center and --at must be finite"),
        (["taylor", "--expr", "exp(t)", "--alpha", "1", "--center", "1", "--degree", "2",
          "--at", "inf"], "--center and --at must be finite"),
        (["taylor", "--expr", "exp(t)", "--alpha", "1", "--center", "nan", "--degree", "2",
          "--at", "1"], "--center and --at must be finite"),
    ])
    def test_usage_errors(self, argv, message):
        assert invoke(argv) == (EXIT_USAGE, "", f"confrac: usage error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["deriv", "--expr", "t", "--alpha", "0.5", "--at", "4"],
        ["deriv", "--exp", "t", "--alph", "0.5", "--at=4"],
        ["deriv", "--expr=t", "--alpha=0.5", "--at", "4", "--ord", "1"],
        ["deriv", "--at", "1", "--expr", "-t", "--alpha", "0.5", "--at", "4", "--expr", "t"],
    ])
    def test_abbreviations_equals_and_the_last_occurrence(self, argv):
        assert invoke(argv) == (EXIT_OK, "2\n", "")

    def test_the_table_is_built_once(self, monkeypatch):
        monkeypatch.setattr(cli, "_PARSER", None)
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
        for _ in range(3):
            invoke(["deriv", "--expr", "t", "--alpha", "0.5", "--at", "4"])
        assert built == [1]
        assert cli._parser() is cli._parser()


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he", "deriv"]])
    def test_top_level(self, argv, capsys):
        code, out, err = invoke(argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: confrac [-h] {deriv,integrate,taylor,solve,ell,check,"
                              "sweep} ...\n")
        for name, command in cli._parser().commands.items():
            assert f"  {name}" in out and command.help in out
        assert capsys.readouterr() == ("", "")    # nothing on sys.stdout or sys.stderr

    @pytest.mark.parametrize("argv", [["deriv", "-h"], ["deriv", "--help"],
                                      ["deriv", "--alpha", "1", "-hh", "--bogus"]])
    def test_after_a_subcommand(self, argv, capsys):
        code, out, err = invoke(argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: confrac deriv [-h] --expr EXPR --alpha ALPHA --at AT "
                              "[--order ORDER]\n")
        for flag in ("--expr", "--alpha", "--at", "--order"):
            assert f"  {flag} " in out
        assert "may begin with '-'" in out and "default 1" in out
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("command", sorted(_VALID))
    def test_every_flag_is_listed_within_79_columns(self, command):
        code, out, _ = invoke([command, "-h"])
        assert code == EXIT_OK
        assert max(len(line) for line in out.splitlines()) <= 79
        for flag in cli._parser().commands[command].flags:
            assert f"  {flag.option}" in out

    def test_errors_before_the_help_flag_come_first(self):
        assert invoke(["deriv", "--alpha", "x", "-h"])[0] == EXIT_USAGE
        assert invoke(["deriv", "-h", "--a"])[0] == EXIT_USAGE   # ambiguous
        assert invoke(["deriv", "-h", "--alpha", "x"])[0] == EXIT_OK


class TestStartUp:
    def test_no_argparse_or_gettext_and_python_m_still_runs(self):
        src = str(Path(confrac.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, confrac, confrac.cli; "
                 "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
        done = subprocess.run([sys.executable, "-m", "confrac", "deriv", "--expr", "sin(t)",
                               "--alpha", "0.5", "--at", "1"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert float(done.stdout) == pytest.approx(math.cos(1.0), rel=1e-11)

    @staticmethod
    def fresh(*args):
        """Run a fresh interpreter on this checkout's package."""
        src = str(Path(confrac.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=60)

    def test_no_dataclasses_inspect_or_inequality_checkers(self):
        probe = ("import sys, confrac, confrac.cli; print(sorted({'dataclasses', 'inspect', "
                 "'confrac.inequalities'} & set(sys.modules)))")
        done = self.fresh("-c", probe)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    def test_every_public_name_resolves_and_is_listed(self):
        probe = "\n".join([
            "import confrac",
            "lazy = [n for n in confrac.__all__ if n not in vars(confrac)]",
            "ns = {}",
            "exec('from confrac import *', ns)",
            "from confrac import inequalities",
            "print(sorted(lazy) == sorted(inequalities.__all__),",
            "      all(ns[n] is getattr(confrac, n) for n in confrac.__all__),",
            "      all(getattr(confrac, n) is getattr(inequalities, n) for n in lazy),",
            "      set(confrac.__all__) <= set(dir(confrac)),",
            "      any(n in vars(confrac) for n in lazy))",
        ])
        done = self.fresh("-c", probe)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True True True True False\n",
                                                               "")
        assert set(confrac.__all__) <= set(dir(confrac))
        with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
            confrac.nothing

    @pytest.mark.parametrize("argv", [
        ["check", "--ineq", "hh1", "--f", "exp(-t)", "--alpha", "0.5", "--a", "0.5",
         "--b", "2"],
        ["sweep", "--ineq", "hh2", "--f", "t^2", "--alphas", "0.25,0.5,1", "--a", "0.5",
         "--b", "2", "--json"],
    ])
    def test_checks_load_their_module_in_a_fresh_process(self, argv):
        code, out, err = invoke(argv)
        assert (code, err) == (EXIT_OK, "")
        done = self.fresh("-m", "confrac", *argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
