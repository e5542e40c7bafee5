"""Benchmark worker: runs one workload against confrac in a fresh interpreter.

Started by run.py with ``src/`` on PYTHONPATH.  It draws rounds from the
seeded stream, times each operation with one client in a closed loop, and
prints one JSON document (latencies, outputs, peak RSS and, when traced, the
layer metrics) on stdout.  Input generation happens between operations and
is never inside a timed region.  Outputs are checked by the parent process.

    python3 perfbench/worker.py --workload battery --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import confrac  # noqa: E402
import confrac.cli  # noqa: E402,F401

import workloads  # noqa: E402
from calibrate import Calibration  # noqa: E402

# rounds per traced pass and per second of --seconds: trace mode runs an
# untraced and a traced pass over the same rounds, each about half of
# --seconds (and at least one round) when the benchmark was written.  The
# count depends on --seconds only, so layer counts repeat exactly for a seed
TRACE_ROUNDS_PER_SECOND = {"battery": 40.0, "taylor-deep": 0.1, "ivp": 0.25, "cli": 5.0}
# a timed run never stops before its second round, so a slow spell on the
# machine cannot halve the sample count of a workload with long rounds
MIN_ROUNDS = 2


def _fn(text):
    return confrac.ConformableFn.from_expr(text)


def _report(r):
    return [r.hypotheses_ok, r.holds, r.lower, r.actual, r.upper]


def _battery(op):
    c = confrac
    alpha, win = op["alpha"], c.Interval(op["a"], op["b"])
    ineq = op["ineq"]
    if ineq == "montgomery-residual":
        return c.montgomery_residual(_fn(op["f"]), alpha, win, op["t"])
    if ineq == "steffensen":
        return _report(c.steffensen(_fn(op["f"]), _fn(op["g"]), alpha, win))
    if ineq == "sandwich":
        return _report(c.check_sandwich_lemma(_fn(op["g"]), alpha, win))
    if ineq == "rem-steffensen":
        return _report(c.remainder_steffensen(_fn(op["f"]), alpha, op["n"], win))
    if ineq == "hh1":
        return _report(c.hermite_hadamard_1(_fn(op["f"]), alpha, win))
    if ineq == "mm-bounds":
        bounds = c.BoundsPair(op["m"], op["M"])
        return _report(c.remainder_mm_bounds(_fn(op["f"]), alpha, op["n"], bounds, win))
    if ineq == "cebysev":
        return _report(c.cebysev(_fn(op["f"]), _fn(op["g"]), alpha, win))
    if ineq == "rem-cebysev":
        return _report(c.remainder_cebysev(_fn(op["f"]), alpha, op["n"], win))
    if ineq == "hh2":
        return _report(c.hermite_hadamard_2(_fn(op["f"]), alpha, win))
    if ineq == "montgomery":
        return _report(c.montgomery_check(_fn(op["f"]), alpha, win, op["t"]))
    if ineq == "ostrowski":
        return _report(c.ostrowski(_fn(op["f"]), alpha, win, op["t"], M=op.get("M")))
    if ineq == "jensen":
        return _report(c.jensen(_fn(op["w"]), _fn(op["g"]), _fn(op["F"]), alpha, win))
    if ineq == "gruss":
        return _report(c.gruss(_fn(op["f"]), _fn(op["g"]), alpha, win,
                               c.BoundsPair(op["m"], op["M"]),
                               c.BoundsPair(op["m2"], op["M2"])))
    if ineq == "gruss-montgomery":
        return _report(c.gruss_montgomery(_fn(op["f"]), alpha, win, op["t"],
                                          c.BoundsPair(op["m"], op["M"])))
    if ineq == "hh3":
        return _report(c.hermite_hadamard_3(_fn(op["f"]), alpha, win,
                                            c.BoundsPair(op["m"], op["M"])))
    raise ValueError(f"unknown inequality {ineq!r}")


def _taylor(op):
    f = _fn(op["text"])
    expansion = confrac.expand(f, op["alpha"], op["n"], op["center"])
    poly = expansion.evaluate(op["at"])
    # the remainder of the degree n-1 truncation needs D^n f, which the
    # expansion built: the op's deepest derivative is exactly order n
    rem = confrac.taylor_remainder(f, op["alpha"], op["n"] - 1, op["center"], op["at"])
    return [list(expansion.coefficients), poly, rem]


def _ivp(op):
    c = confrac
    operator = c.LinearOperator(op["order"], c.Alpha(op["alpha"]),
                                tuple(_fn(p) for p in op["coeffs"]))
    forcing = _fn(op["rhs"]) if op["rhs"] else None
    spec = c.IvpSpec(operator, forcing, op["s"], tuple(op["init"]))
    return c.solve_full(spec, op["t"])


def _cli(op):
    out, err = io.StringIO(), io.StringIO()
    code = confrac.cli.run(op["argv"], out, err)
    return [code, out.getvalue(), err.getvalue()[:300]]


EXECUTE = {"battery": _battery, "taylor": _taylor, "ivp": _ivp, "cli": _cli}


def run_rounds(workload, seed, stop, tracer=None):
    """Run whole rounds until stop(rounds_done, busy_ns) is true.

    Untraced passes interleave the calibration loop between operations.
    """
    latencies, outputs = [], []
    busy = 0
    done = 0
    index = 0
    calibration = Calibration() if tracer is None else None
    for ops in workloads.rounds(workload, seed):
        for op in ops:
            execute = EXECUTE[op["kind"]]
            if tracer is not None:
                tracer.op = index
                tracer.enter("bench.op")
            start = perf_counter_ns()
            try:
                out = execute(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = {"error": type(exc).__name__, "message": str(exc)[:300]}
            elapsed = perf_counter_ns() - start
            if tracer is not None:
                tracer.exit()
            busy += elapsed
            latencies.append(elapsed)
            outputs.append(out)
            index += 1
            if calibration is not None:
                calibration.sample(force=index == 1)
        done += 1
        if stop(done, busy):
            break
    result = {"rounds": done, "busy_ns": busy, "latency_ns": latencies, "outputs": outputs}
    if calibration is not None:
        calibration.sample(force=True)
        result["calibration"] = {"scale": calibration.scale}
    return result


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if isinstance(x, list):
        return [_jsonable(v) for v in x]
    return x


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    result = {"confrac_file": confrac.__file__}
    if not args.trace:
        limit = args.seconds * 1e9
        result["timed"] = run_rounds(args.workload, args.seed,
                                     lambda done, busy: busy >= limit and done >= MIN_ROUNDS)
    else:
        from tracing import Tracer
        n_rounds = max(1, round(0.5 * args.seconds
                                * TRACE_ROUNDS_PER_SECOND[args.workload]))
        stop = lambda done, busy: done >= n_rounds
        result["timed"] = run_rounds(args.workload, args.seed, stop)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = run_rounds(args.workload, args.seed, stop, tracer)
        finally:
            tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        out_dir = HERE.parent / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for run in ("timed", "traced"):
        if run in result:
            result[run]["outputs"] = [_jsonable(o) for o in result[run]["outputs"]]
    json.dump(result, sys.stdout, separators=(",", ":"), allow_nan=False)


if __name__ == "__main__":
    main()
