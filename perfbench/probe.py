"""Set-up probe for the ``setup_s`` metric.

Run in a fresh interpreter with ``src/`` on PYTHONPATH; prints the seconds
taken to import confrac and confrac.cli and to finish the workload's first
operation, so lazy set-up that the first call triggers is included.

    python3 perfbench/probe.py battery
"""

import sys
import time

start = time.perf_counter()

import confrac  # noqa: E402
import confrac.cli  # noqa: E402

kind = sys.argv[1]
if kind == "battery":
    confrac.hermite_hadamard_1(confrac.ConformableFn.from_expr("exp(-t^alpha/alpha)+1.0"),
                               0.5, confrac.Interval(0.5, 2.0))
elif kind == "taylor-deep":
    f = confrac.ConformableFn.from_expr("exp(t)")
    confrac.expand(f, 0.5, 2, 0.5).evaluate(1.0)
    confrac.taylor_remainder(f, 0.5, 1, 0.5, 1.0)
elif kind == "ivp":
    op = confrac.LinearOperator(2, confrac.Alpha(0.5))
    confrac.solve_full(confrac.IvpSpec(op, confrac.ConformableFn.from_expr("1"), 0.5,
                                       (1.0, 0.0)), 1.5)
elif kind == "cli":
    import io
    confrac.cli.run(["deriv", "--expr", "sin(t)", "--alpha", "0.5", "--at", "1.0"],
                    io.StringIO(), io.StringIO())
else:
    raise SystemExit(f"unknown workload {kind!r}")

print(repr(time.perf_counter() - start))
