"""Layer tracing for the benchmark, done entirely by wrapping.

``Tracer.install()`` replaces the module-level functions each confrac layer
calls through module globals (and ``ConformableFn.frac_expr``) with wrappers
that record spans; ``uninstall()`` puts the originals back.  Nothing under
``src/`` is edited.

A span is (name, start_ns, end_ns, parent span, operation id).  Compiled
expression evaluations are too many to record one by one: the wrapper around
each compiled callable only counts calls and time, charging both to the
innermost open span.  Garbage-collection pauses, taken from ``gc.callbacks``,
are charged the same way under the layer ``py``.  A span's self time is its
duration minus the time covered by its children, evaluations and
collections included.
"""

from __future__ import annotations

import functools
import gc
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name, outermost-only) for plain functions
FUNCTIONS = (
    ("confrac.expr", "parse", "expr.parse", False),
    ("confrac.expr", "diff_classical", "expr.diff", True),
    ("confrac.expr", "normalize_t_powers", "expr.normalize", True),
    ("confrac.expr", "substitute_alpha", "expr.substitute", True),
    ("confrac.expr", "evaluate_at", "expr.walk", False),
    ("confrac.calculus", "frac_integral", "calculus.integral", False),
    ("confrac.calculus", "frac_deriv_fn", "calculus.deriv_fn", False),
    ("confrac._quad", "_gk15", "quad.panel", False),
    ("confrac.taylor", "expand", "taylor.expand", False),
    ("confrac.taylor", "taylor_remainder", "taylor.remainder", False),
    ("confrac.ivp", "solve_full", "ivp.solve", False),
    ("confrac.ivp", "solve_voc", "ivp.voc", False),
    ("confrac.ivp", "cauchy_function", "ivp.kernel", False),
    ("confrac.ivp", "_rk4_solve", "ivp.rk4", False),
    ("confrac.inequalities", "verify_hypothesis", "inequalities.grid", False),
    ("confrac.cli", "run", "cli.run", False),
    ("confrac.cli", "_build_parser", "cli.parser", False),
)

CHECKERS = ("steffensen_ell", "check_sandwich_lemma", "steffensen",
            "remainder_steffensen", "hermite_hadamard_1", "remainder_mm_bounds",
            "cebysev", "remainder_cebysev", "hermite_hadamard_2",
            "montgomery_residual", "montgomery_check", "ostrowski", "jensen",
            "gruss", "gruss_montgomery", "hermite_hadamard_3")

REFERENCE_TEXT = "exp(t)"   # D^n exp(t) rows of the baseline table
REFERENCE_ORDERS = range(2, 13)


def _children(node):
    name = type(node).__name__
    if name in ("Num", "Sym"):
        return ()
    if name == "Neg":
        return (node.operand,)
    if name == "Pow":
        return (node.base, node.exponent)
    if name == "Call":
        return (node.arg,)
    return (node.left, node.right)


def tree_nodes(root) -> int:
    """Node count of an expression tree, shared subtrees counted each time."""
    sizes: dict = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in sizes:
            continue
        kids = _children(node)
        if expanded:
            sizes[key] = 1 + sum(sizes[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in sizes)
    return sizes[id(root)]


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index, op)
        self.stack: list = []          # open frames [name, start, child_ns, index]
        self.op = -1
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.depth = defaultdict(int)
        self.eval_ns = 0
        self.eval_calls = 0
        self.eval_by_parent = defaultdict(int)
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0
        self.tree_nodes_max = 0
        self.reference = defaultdict(list)   # order -> [(self_ns, nodes)]
        self._patches: list = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> None:
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append([name, perf_counter_ns(), 0, index])

    def exit(self) -> int:
        end = perf_counter_ns()
        name, start, child, index = self.stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[index] = (name, start, end, parent[3] if parent else -1, self.op)
        return duration - child

    def span(self, name: str, fn, outermost: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and tracer.depth[name]:
                return fn(*args, **kwargs)
            tracer.depth[name] += 1
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
                tracer.depth[name] -= 1
        return wrapper

    def counted(self, fn):
        """Wrap a compiled (t, alpha) callable: count calls, charge time."""
        tracer = self
        stack = self.stack
        by_parent = self.eval_by_parent

        def evaluator(t, alpha=1.0):
            gc_before = tracer.gc_ns
            start = perf_counter_ns()
            try:
                return fn(t, alpha)
            finally:
                spent = perf_counter_ns() - start - (tracer.gc_ns - gc_before)
                tracer.eval_ns += spent
                tracer.eval_calls += 1
                if stack:
                    top = stack[-1]
                    top[2] += spent
                    by_parent[top[0]] += 1
        return evaluator

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter_ns()
            return
        spent = perf_counter_ns() - self._gc_start
        self.gc_ns += spent
        self.gc_collections += 1
        if self.stack:
            self.stack[-1][2] += spent

    # -- installation -------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind every confrac module attribute that is `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "confrac" or mod_name.startswith("confrac.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from confrac import calculus, expr, inequalities
        from confrac.errors import QuadratureError

        for mod_name, attr, name, outermost in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._patch_everywhere(original, self.span(name, original, outermost))
        for attr in CHECKERS:
            self._patch_everywhere(getattr(inequalities, attr),
                                   self._checker(getattr(inequalities, attr)))

        tracer = self
        orig_compile = expr.compile_expr

        def compile_expr(e):
            tracer.enter("expr.compile")
            try:
                compiled = orig_compile(e)
            finally:
                tracer.exit()
            return tracer.counted(compiled)
        self._patch_everywhere(orig_compile, compile_expr)

        orig_deriv_n = calculus.frac_deriv_n
        deriv_span = self.span("calculus.deriv", orig_deriv_n)

        def frac_deriv_n(f, alpha, n, t):
            if t == 0.0 and n >= 1:
                tracer.counts["limit0.calls"] += 1
            return deriv_span(f, alpha, n, t)
        self._patch_everywhere(orig_deriv_n, frac_deriv_n)

        orig_limit = calculus._limit_at_zero
        limit_span = self.span("calculus.limit0", orig_limit)

        def _limit_at_zero(g):
            tracer.counts["limit0.accelerated"] += 1

            def sample(s):
                tracer.counts["limit0.samples"] += 1
                return g(s)
            return limit_span(sample)
        self._patch_everywhere(orig_limit, _limit_at_zero)

        orig_integrate = calculus.adaptive_integrate
        integrate_span = self.span("quad.integrate", orig_integrate)

        def adaptive_integrate(fn, a, b, *rest):
            tracer.counts["quad.integrals"] += 1
            if tracer.depth["inequalities"]:
                tracer.counts["inequalities.integrals"] += 1

            def integrand(x):
                tracer.counts["quad.evals"] += 1
                return fn(x)
            try:
                return integrate_span(integrand, a, b, *rest)
            except QuadratureError:
                tracer.counts["quad.errors"] += 1
                raise
        self._patch_everywhere(orig_integrate, adaptive_integrate)

        orig_frac_expr = calculus.ConformableFn.frac_expr

        def frac_expr(fself, n):
            chain = fself._frac_chain
            before = len(chain) if chain is not None else 0
            tracer.enter("calculus.frac_expr")
            try:
                return orig_frac_expr(fself, n)
            finally:
                self_ns = tracer.exit()
                if chain is not None and len(chain) > before:
                    tracer._new_trees(fself, chain, before, self_ns)
        self._patch_attr(calculus.ConformableFn, "frac_expr", frac_expr)

        # function objects built at import time were compiled unwrapped
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("confrac"):
                for value in list(vars(mod).values()):
                    if isinstance(value, calculus.ConformableFn) and value.expr is not None:
                        wrapped = self.counted(value._eval)
                        self._patch_attr(value, "_eval", wrapped)
                        self._patches.append((value._frac_compiled, 0, value._frac_compiled[0]))
                        value._frac_compiled[0] = wrapped
        gc.callbacks.append(self._on_gc)

    def _checker(self, fn):
        tracer = self
        spanned = self.span("inequalities.check", fn)

        @functools.wraps(fn)
        def checker(*args, **kwargs):
            if not tracer.depth["inequalities"]:
                tracer.counts["inequalities.checks"] += 1
            tracer.depth["inequalities"] += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                tracer.depth["inequalities"] -= 1
        return checker

    def _new_trees(self, fn_obj, chain, before, self_ns) -> None:
        # counted after the span closed, so the count is tracing overhead
        for order in range(before, len(chain)):
            nodes = tree_nodes(chain[order])
            self.tree_nodes_max = max(self.tree_nodes_max, nodes)
            if (fn_obj.name == REFERENCE_TEXT and len(chain) - before == 1
                    and order in REFERENCE_ORDERS):
                self.reference[order].append((self_ns, nodes))

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, list):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        ms = lambda ns: ns / 1e6
        sn, calls, counts = self.self_ns, self.calls, self.counts

        def layer_ms(prefix):
            return ms(sum(v for k, v in sn.items() if k.startswith(prefix + ".")))

        def ratio(num, den):
            return num / den if den else 0.0

        integrals = counts["quad.integrals"]
        solves = calls["ivp.solve"]
        checks = counts["inequalities.checks"]
        ineq_evals = sum(v for k, v in self.eval_by_parent.items()
                         if k.startswith("inequalities."))
        m = {
            "expr.eval.calls": self.eval_calls,
            "expr.eval.self_ms": ms(self.eval_ns),
            "expr.eval.us_per_call": ratio(self.eval_ns / 1e3, self.eval_calls),
            "expr.parse.calls": calls["expr.parse"],
            "expr.parse.self_ms": ms(sn["expr.parse"]),
            "expr.compile.calls": calls["expr.compile"],
            "expr.compile.self_ms": ms(sn["expr.compile"]),
            "expr.diff.calls": calls["expr.diff"],
            "expr.diff.self_ms": ms(sn["expr.diff"]),
            "expr.normalize.self_ms": ms(sn["expr.normalize"]),
            "expr.walk.self_ms": ms(sn["expr.walk"]),
            "expr.tree_nodes_max": self.tree_nodes_max,
            "expr.self_ms": layer_ms("expr") + ms(self.eval_ns),
            "calculus.frac_expr.calls": calls["calculus.frac_expr"],
            "calculus.frac_expr.self_ms": ms(sn["calculus.frac_expr"]),
            "calculus.integral.calls": calls["calculus.integral"],
            "calculus.integral.self_ms": ms(sn["calculus.integral"]),
            "calculus.limit0.calls": counts["limit0.calls"],
            "calculus.limit0.accel_share": ratio(counts["limit0.accelerated"],
                                                 counts["limit0.calls"]),
            "calculus.limit0.samples": counts["limit0.samples"],
            "calculus.self_ms": layer_ms("calculus"),
            "quad.integrals": integrals,
            "quad.evals_per_integral": ratio(counts["quad.evals"], integrals),
            "quad.panels_per_integral": ratio(calls["quad.panel"], integrals),
            "quad.self_ms": layer_ms("quad"),
            "quad.errors": counts["quad.errors"],
            "taylor.expand.self_ms": ms(sn["taylor.expand"]),
            "taylor.remainder.self_ms": ms(sn["taylor.remainder"]),
            "ivp.solves": solves,
            "ivp.rk4_solves_per_solve": ratio(calls["ivp.rk4"], solves),
            "ivp.coeff_evals_per_solve": ratio(self.eval_by_parent["ivp.rk4"], solves),
            "ivp.self_ms": layer_ms("ivp"),
            "inequalities.checks": checks,
            "inequalities.self_ms": layer_ms("inequalities"),
            "inequalities.grid_samples_per_check": ratio(ineq_evals, checks),
            "inequalities.integrals_per_check": ratio(counts["inequalities.integrals"], checks),
            "cli.runs": calls["cli.run"],
            "cli.self_ms": layer_ms("cli"),
            "cli.parser_build_ms": ratio(ms(sn["cli.parser"]), calls["cli.parser"]),
            "py.gc_ms": ms(self.gc_ns),
            "py.gc_collections": self.gc_collections,
            "bench.self_ms": layer_ms("bench"),
        }
        for order in REFERENCE_ORDERS:
            rows = sorted(self.reference.get(order, ()))
            mid = rows[len(rows) // 2] if rows else (0, 0)
            m[f"calculus.frac_expr.self_ms.exp_t.D{order}"] = ms(mid[0])
            m[f"expr.tree_nodes_max.exp_t.D{order}"] = mid[1]
        return m

    def write(self, path) -> None:
        names: dict = {}
        rows = []
        for name, start, end, parent, op in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent, op])
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
               "names": list(names), "spans": rows,
               "self_ns": dict(self.self_ns)}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
