import io
import json
import math
import time

import pytest

from confrac.cli import (CSV_HEADER, EXIT_HYPOTHESIS, EXIT_NUMERIC, EXIT_OK,
                         EXIT_USAGE, EXIT_VIOLATED, emit_report, run)
from confrac.calculus import Interval
from confrac.inequalities import check_sandwich_lemma, steffensen
from confrac.calculus import ConformableFn


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

    def test_numeric_failure(self):
        code, _, err = invoke(["integrate", "--expr", "1/t", "--alpha", "1",
                               "--a", "0", "--b", "1"])
        assert code == EXIT_NUMERIC
        assert "numeric" in err


class TestTaylor:
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
        # k! overflows a float from k = 171 on: the result is a value or a
        # numeric failure, never an internal error, and it comes quickly
        start = time.perf_counter()
        code, _, err = invoke(["taylor", "--expr", "exp(t)", "--alpha", "0.5",
                               "--center", "0.5", "--at", "1"] + extra)
        assert time.perf_counter() - start < 5.0
        assert code in (EXIT_OK, EXIT_NUMERIC)
        assert "internal error" not in err


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

    def test_coeff_count_mismatch(self):
        code, _, _ = invoke(["solve", "--order", "2", "--coeffs", "1",
                             "--alpha", "1", "--from", "0", "--to", "1"])
        assert code == EXIT_USAGE

    def test_steps_floor(self):
        code, _, _ = invoke(["solve", "--order", "1", "--coeffs", "1", "--alpha",
                             "1", "--from", "0", "--to", "1", "--steps", "4"])
        assert code == EXIT_USAGE


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

        def broken(args, out):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "deriv", broken)
        code, _, err = invoke(["deriv", "--expr", "t", "--alpha", "0.5", "--at", "4"])
        assert code == EXIT_NUMERIC
        assert err.strip() == "confrac: internal error: RuntimeError: boom"

    def test_interrupt_passes_through(self, monkeypatch):
        from confrac import cli

        def interrupted(args, out):
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

    def test_json_array(self):
        code, out, _ = invoke(["sweep", "--ineq", "hh2", "--f", "t^2",
                               "--alphas", "0.5,1.0", "--a", "0.5", "--b", "2",
                               "--json"])
        assert code == EXIT_OK
        arr = json.loads(out)
        assert [r["alpha"] for r in arr] == [0.5, 1.0]


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
