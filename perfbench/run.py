"""The confrac benchmark: one workload (or all four) end to end.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Each workload runs in its own fresh interpreter
(worker.py) with one client in a closed loop.  This parent process never
imports confrac: it measures set-up time with probe.py, checks every output
against the oracles in oracles.py, and prints a report whose last line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
rounds untraced and then traced, and reports the per-layer metrics and the
tracing overhead.  Exit code 2 means the checkout holds no package.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # oracle work stays on one thread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import Calibration  # noqa: E402

SETUP_RUNS = 9
WORKER_TIMEOUT_S = 150
# fixed per workload, chosen as the highest of p90/p99 that leaves at least
# ten samples beyond it in a 15 s run when the benchmark was written; kept
# fixed so that a faster program is not compared at a different percentile
TAIL_PERCENTILE = {"battery": 99, "taylor-deep": 90, "ivp": 90, "cli": 99}

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "fail_ratio": "ratio", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or ".self_ms." in name:
        return "ms"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_share"):
        return "ratio"
    for suffix, unit in (("evals_per_integral", "evals/integral"),
                         ("panels_per_integral", "panels/integral"),
                         ("rk4_solves_per_solve", "rk4/solve"),
                         ("coeff_evals_per_solve", "evals/solve"),
                         ("grid_samples_per_check", "samples/check"),
                         ("integrals_per_check", "integrals/check")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(workload: str) -> tuple[float, float]:
    """Median in-process set-up time over fresh interpreters, and its scale."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload]
    # the first start writes bytecode caches, which users pay once
    subprocess.run(cmd, env=child_env(), check=True, capture_output=True, timeout=60)
    calibration = Calibration()
    times = []
    for _ in range(SETUP_RUNS):
        calibration.sample(force=True)
        done = subprocess.run(cmd, env=child_env(), check=True, capture_output=True,
                              text=True, timeout=60)
        times.append(float(done.stdout.split()[-1]))
    calibration.sample(force=True)
    return statistics.median(times), calibration.scale


def run_worker(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker for {workload} exited with {done.returncode}")
    data = json.loads(done.stdout)
    src = (ROOT / "src").resolve()
    if src not in Path(data["confrac_file"]).resolve().parents:
        raise SystemExit(f"worker imported confrac from {data['confrac_file']}, not {src}")
    return data


def regenerate(workload, seed, n_rounds) -> list:
    ops = []
    for _, round_ops in zip(range(n_rounds), workloads.rounds(workload, seed)):
        ops.extend(round_ops)
    return ops


def check_outputs(ops, outputs) -> dict:
    import oracles
    tally = {"ok": 0, "error": 0, "wrong": 0}
    examples = []
    for op, out in zip(ops, outputs):
        status, detail = oracles.classify(op, out)
        tally[status] += 1
        if status != "ok" and len(examples) < 3:
            examples.append(f"{status}: {detail}")
    return {"tally": tally, "examples": examples}


def tail(latencies, p):
    """Nearest-rank p-th percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, seed, seconds) -> dict:
    setup_raw, setup_scale = measure_setup(workload)
    data = run_worker(workload, seed, seconds, 0)
    run = data["timed"]
    scale = run["calibration"]["scale"]
    ops = regenerate(workload, seed, run["rounds"])
    check = check_outputs(ops, run["outputs"])
    lat = run["latency_ns"]
    attempted = len(lat)
    failed = check["tally"]["error"] + check["tally"]["wrong"]
    completed = attempted - check["tally"]["error"]
    p = TAIL_PERCENTILE[workload]
    tail_ns, beyond = tail(lat, p)
    raw = {"setup_s": setup_raw,
           "ops_per_s": completed / (run["busy_ns"] / 1e9),
           "op_p50_ms": statistics.median(lat) / 1e6,
           "op_tail_ms": tail_ns / 1e6}
    # times at the calibration loop's reference speed (see calibrate.py)
    metrics = {
        "setup_s": raw["setup_s"] * setup_scale,
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_ms": raw["op_p50_ms"] * scale,
        "op_tail_ms": raw["op_tail_ms"] * scale,
        "fail_ratio": failed / attempted,
        "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
    }
    notes = {name: f"raw {value:.6g}" for name, value in raw.items()}
    notes["op_tail_ms"] += (f", p{p} of {attempted} samples, {beyond} beyond"
                            + ("" if beyond >= 10 else " (fewer than 10: unreliable)"))
    notes["setup_s"] += f", median of {SETUP_RUNS} fresh interpreters, scale {setup_scale:.3f}"
    notes["ops_per_s"] += (f", {completed} completed in {run['busy_ns'] / 1e9:.2f} s busy,"
                           f" scale {scale:.3f}")
    notes["fail_ratio"] = f"{failed}/{attempted}"
    return {"rounds": run["rounds"], "attempted": attempted, "failed": failed,
            "correct": check["tally"]["wrong"] == 0, "check": check,
            "metrics": metrics, "notes": notes,
            "properties": workloads.input_properties(ops)}


def traced(workload, seed, seconds) -> dict:
    data = run_worker(workload, seed, seconds, 1)
    plain, traced_run = data["timed"], data["traced"]
    ops = regenerate(workload, seed, plain["rounds"])
    check = check_outputs(ops, plain["outputs"])
    same = plain["outputs"] == traced_run["outputs"]
    n = len(plain["latency_ns"])
    extra_ns = traced_run["busy_ns"] - plain["busy_ns"]
    metrics = dict(data["layers"])
    metrics["trace.ops"] = n
    metrics["trace.overhead_pct"] = 100.0 * extra_ns / plain["busy_ns"]
    metrics["trace.overhead_op_ms"] = extra_ns / n / 1e6
    failed = 2 * (check["tally"]["error"] + check["tally"]["wrong"])
    notes = {"trace.overhead_pct": f"traced {traced_run['busy_ns'] / 1e9:.2f} s vs untraced "
                                   f"{plain['busy_ns'] / 1e9:.2f} s busy on the same "
                                   f"{plain['rounds']} rounds",
             "trace.ops": f"{data['spans']} spans written to .bench_out/"}
    if not same:
        notes["trace.ops"] += "; traced outputs DIFFER from untraced ones"
    return {"rounds": plain["rounds"], "attempted": 2 * n, "failed": failed,
            "correct": check["tally"]["wrong"] == 0 and same, "check": check,
            "metrics": metrics, "notes": notes,
            "properties": workloads.input_properties(ops)}


def print_report(workload, seed, trace, res) -> None:
    passes = "per pass, untraced then traced" if trace else "timed"
    print(f"== {workload}  seed {seed}  trace {trace}: {res['rounds']} rounds "
          f"({passes}), {res['attempted']} operations attempted, correct={res['correct']}")
    for name, value in res["metrics"].items():
        unit = UNITS.get(name) or layer_unit(name)
        note = res["notes"].get(name, "")
        print(f"  {name:44s} {value:14.6g} {unit:16s} {note}")
    tally = res["check"]["tally"]
    print(f"  oracle: {tally['ok']} ok, {tally['error']} raised, {tally['wrong']} wrong")
    for line in res["check"]["examples"]:
        print(f"    {line}")
    print(f"  input properties: {json.dumps(res['properties'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="confrac benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "confrac" / "__init__.py").is_file():
        print(f"confrac benchmark: no package at {ROOT / 'src' / 'confrac'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    measure = traced if args.trace else end_to_end
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds)
        print_report(name, args.seed, args.trace, results[name])

    def shown(res, name):
        unit = UNITS.get(name) or layer_unit(name)
        return {"value": res["metrics"][name], "unit": unit}

    if len(names) == 1:
        res = results[names[0]]
        metric_names = [m for m in res["metrics"] if m != "fail_ratio"]
        metrics = {m: shown(res, m) for m in metric_names}
    else:
        metrics = {f"{w}.{m}": shown(r, m) for w, r in results.items() for m in r["metrics"]}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
