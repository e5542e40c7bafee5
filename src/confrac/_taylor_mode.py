"""Compiled Taylor mode: the series pass of expr.taylor_series as Python code.

compile_jet emits, for one expression tree and one order n, the pass as
straight Python: every node of the walk becomes statements in walk order,
t-free subtrees become scalar statements, t^c (t itself, sqrt(t)) enters as
its binomial series at t > 0 in h = u - u0, u = t^alpha/alpha, every
coefficient is its own local, and each recurrence is written out term by
term in the order the expr._jet_* helpers sum it, so the values are the
pass's own.  Literals are lifted into parameters, as in expr._pysource, and
one compile() per shape source builds both functions.  The source grows
with n^2 per node, so calculus.frac_deriv_fn compiles only low orders
(calculus._JET_UNROLL_MAX) and runs the pass itself above them.

The package imports this module on first use: compiling its own source
takes about 7 ms where no bytecode is cached, which every start-up that
never samples a derivative function would pay.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional

from .expr import (ALPHA, FUNCTIONS, T, Call, Expr, Neg, Num, Pow, _EVAL_GLOBALS, _PY_FUNC,
                   _PY_OP, _Binary, _as_number, _depth_guarded, _jet_pow_const, _jet_pow_var)

_JET_CACHE_SIZE = 256


class Jets(NamedTuple):
    """Taylor mode of one tree at one order n, for t > 0.

    top(t, alpha) is the Taylor coefficient c_n of e(t(u)) at
    u0 = t^alpha/alpha, what taylor_series(e, n, alpha, t_power_at(t, alpha,
    n))[n] returns, and batch(ts, alpha, scale) is [scale * top(t, alpha)
    for t in ts].  Arithmetic faults raise EvalDomainError and a zero base
    under a non-integer power NoTaylorSeries, as in taylor_series; batch may
    raise before its first point, since it evaluates the t-free subtrees
    first."""

    top: Callable[[float, float], float]
    batch: Callable[..., list]


class _JetWriter:
    """The statements of one tree's Taylor-mode pass at one order."""

    def __init__(self, n: int):
        self.n = n
        self.consts: list = []
        self.names: dict = {}      # t-free node -> its local or parameter
        self.jets: dict = {}       # node with t -> its coefficient locals
        self.lines: list = []      # (t-free?, statement) in walk order
        self.count = 0

    def let(self, code: str, scalar: bool = False) -> str:
        name = f"v{self.count}"
        self.count += 1
        self.lines.append((scalar, f"{name} = {code}"))
        return name

    def unpack(self, code: str) -> list:
        names = [f"v{self.count + k}" for k in range(self.n + 1)]
        self.count += self.n + 1
        self.lines.append((False, f"{', '.join(names)}, = {code}"))
        return names

    def scalar(self, e: Expr) -> str:
        """The local holding a t-free subtree's value (evaluate()'s operations)."""
        name = self.names.get(e)
        if name is not None:
            return name
        if isinstance(e, Num):
            name = f"c{len(self.consts)}"
            self.consts.append(e.value)
        elif e is ALPHA:
            name = "alpha"
        elif isinstance(e, _Binary):
            name = self.let(f"{self.scalar(e.left)} {_PY_OP[type(e)]} {self.scalar(e.right)}", True)
        elif isinstance(e, Neg):
            name = self.let(f"-{self.scalar(e.operand)}", True)
        elif isinstance(e, Pow):
            name = self.let(f"pow({self.scalar(e.base)}, {self.scalar(e.exponent)})", True)
        elif isinstance(e, Call) and e.func in FUNCTIONS:
            name = self.let(f"{_PY_FUNC.get(e.func, e.func)}({self.scalar(e.arg)})", True)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        self.names[e] = name
        return name

    def walk(self, e: Expr):
        """A t-free node's local, or a node's jet, in taylor_series' order."""
        if not e.contains_t:
            return self.scalar(e)
        out = self.jets.get(e)
        if out is not None:
            return out
        if e is T:
            out = self.t_power("1.0")
        elif isinstance(e, Neg):
            out = [self.let(f"-{x}") for x in self.walk(e.operand)]
        elif isinstance(e, _Binary):
            left = self.walk(e.left)
            out = getattr(self, type(e).__name__.lower())(left, self.walk(e.right))
        elif isinstance(e, Pow) and not e.exponent.contains_t:
            c = self.scalar(e.exponent)
            if e.base is T:
                out = self.t_power(c)
            else:
                out = self.pow_const(self.walk(e.base), c, _as_number(e.exponent))
        elif isinstance(e, Pow):
            base = self.walk(e.base)
            out = self.via_helper("_jet_pow_var", base, self.walk(e.exponent))
        elif isinstance(e, Call) and e.func == "sqrt" and e.arg is T:
            out = self.t_power("0.5")
        elif isinstance(e, Call) and e.func in FUNCTIONS:
            out = getattr(self, "call_" + e.func)(self.walk(e.arg))
        else:
            raise TypeError(f"not an expression node: {e!r}")
        self.jets[e] = out
        return out

    def via_helper(self, helper: str, *args) -> list:
        """Unpack one call of a _jet_* helper into coefficient locals."""
        lists = (a if type(a) is str else f"[{', '.join(a)}]" for a in args)
        return self.unpack(f"{helper}({', '.join(lists)})")

    def t_power(self, c: str) -> list:
        r = self.let(f"{c} / alpha", True)
        out = [self.let("t" if c == "1.0" else f"pow(t, {c})")]
        for k in range(1, self.n + 1):
            # (r - (k - 1)) / (k u0), as _jet_tpow computes it
            step = f"{r} / u0" if k == 1 else f"{self.let(f'{r} - {k - 1}', True)} / w{k}"
            out.append(self.let(f"{out[-1]} * ({step})"))
        return out

    def pow_const(self, a, c: str, static: Optional[float]) -> list:
        """a^c: a small whole literal exponent by unrolled repeated squaring,
        any other through _jet_pow_const itself."""
        if static is not None and 0.0 <= static <= 64.0 and float(static).is_integer():
            k, out = int(static), None
            while k:
                if k & 1:
                    out = a if out is None else self.mul(out, a)
                k >>= 1
                if k:
                    a = self.mul(a, a)
            return ["1.0"] + ["0.0"] * self.n if out is None else out
        return self.via_helper("_jet_pow_const", a, c)

    def conv(self, a: list, b: list, k: int, lo: int = 1) -> str:
        """a_lo b_(k-lo) + ... + a_k b_0, summed in that order."""
        return " + ".join(f"{a[j]} * {b[k - j]}" for j in range(lo, k + 1))

    def weighted(self, a: list) -> list:
        """j a_j (index 0 unused), the derivative weights of the recurrences."""
        return [None] + a[1:2] + [self.let(f"{j} * {a[j]}") for j in range(2, self.n + 1)]

    # -- one node: its coefficients from its operands' ----------------------

    def add(self, a, b):
        if type(a) is str:
            return [self.let(f"{a} + {b[0]}")] + b[1:]
        if type(b) is str:
            return [self.let(f"{a[0]} + {b}")] + a[1:]
        return [self.let(f"{x} + {y}") for x, y in zip(a, b)]

    def sub(self, a, b):
        if type(b) is str:
            return [self.let(f"{a[0]} - {b}")] + a[1:]
        if type(a) is str:
            return [self.let(f"{a} - {b[0]}")] + [self.let(f"-{x}") for x in b[1:]]
        return [self.let(f"{x} - {y}") for x, y in zip(a, b)]

    def mul(self, a, b):
        if type(a) is str:
            return [self.let(f"{a} * {x}") for x in b]
        if type(b) is str:
            return [self.let(f"{x} * {b}") for x in a]
        return [self.let(self.conv(a, b, k, 0)) for k in range(self.n + 1)]

    def div(self, a, b):
        if type(b) is str:
            return [self.let(f"{x} / {b}") for x in a]
        if type(a) is str:
            a = [a] + ["0.0"] * self.n
        out = [self.let(f"{a[0]} / {b[0]}")]
        for k in range(1, self.n + 1):
            out.append(self.let(f"({a[k]} - ({self.conv(b, out, k)})) / {b[0]}"))
        return out

    def call_exp(self, a):
        ja = self.weighted(a)
        out = [self.let(f"exp({a[0]})")]
        for k in range(1, self.n + 1):
            out.append(self.let(self.over(self.conv(ja, out, k), k)))
        return out

    def sin_cos(self, a) -> tuple:
        ja = self.weighted(a)
        s, c = [self.let(f"sin({a[0]})")], [self.let(f"cos({a[0]})")]
        for k in range(1, self.n + 1):
            s_k = self.let(self.over(self.conv(ja, c, k), k))
            c.append(self.let(f"-{self.over(self.conv(ja, s, k), k)}"))
            s.append(s_k)
        return s, c

    def call_sin(self, a):
        return self.sin_cos(a)[0]

    def call_cos(self, a):
        return self.sin_cos(a)[1]

    def call_ln(self, a):
        out = [self.let(f"log({a[0]})")]
        jl = [None]
        for k in range(1, self.n + 1):
            if k == 1:
                out.append(self.let(f"{a[1]} / {a[0]}"))
            else:
                s = " + ".join(f"{jl[j]} * {a[k - j]}" for j in range(1, k))
                out.append(self.let(f"({a[k]} - ({s}) / {k}) / {a[0]}"))
            jl.append(out[k] if k == 1 else self.let(f"{k} * {out[k]}"))
        return out

    def call_sqrt(self, a):
        # as the symbolic d/dt sqrt(u) = u'/(2 sqrt(u)) does
        self.lines.append((False, f"if {a[0]} == 0.0: raise ZeroDivisionError"))
        out = [self.let(f"sqrt({a[0]})")]
        for k in range(1, self.n + 1):
            s = " + ".join(f"{out[j]} * {out[k - j]}" for j in range(1, k))
            num = f"({a[k]} - ({s}))" if s else a[k]
            out.append(self.let(f"{num} / (2.0 * {out[0]})"))
        return out

    def call_abs(self, a):
        # the sign u/|u|; at u = 0 a division by zero, as d/dt |u| = (u/|u|) u'
        sign = self.let(f"{a[0]} / abs({a[0]})")
        return [self.let(f"{sign} * {x}") for x in a]

    @staticmethod
    def over(code: str, k: int) -> str:
        return f"({code}) / {k}" if k > 1 else code

    # -- the functions --------------------------------------------------------

    def source(self, root: Expr) -> str:
        out = self.walk(root)
        n = self.n
        top = out[n] if root.contains_t else (out if n == 0 else "0.0")
        steps = ["u0 = pow(t, alpha) / alpha"] + [f"w{k} = {k} * u0" for k in range(2, n + 1)]
        point = steps + [line for _, line in self.lines]
        params = ", ".join(f"c{k}" for k in range(len(self.consts)))
        src = [f"def make({params}):", " def top(t, alpha):", "  try:"]
        src += [f"   {line}" for line in point]
        src.append(f"   return {top}")
        src.append("  except _FAULTS as exc:")
        src.append("   raise _domain_error(exc) from None")
        src.append(" def batch(ts, alpha, scale=1.0):")
        src.append("  try:")
        src += [f"   {line}" for scalar, line in self.lines if scalar]
        src.append("   out = []")
        src.append("   for t in ts:")
        src += [f"    {line}" for line in steps]
        src += [f"    {line}" for scalar, line in self.lines if not scalar]
        src.append(f"    out.append({top} * scale)")
        src.append("   return out")
        src.append("  except _FAULTS as exc:")
        src.append("   raise _domain_error(exc) from None")
        src.append(" return top, batch")
        return "\n".join(src)


_JET_GLOBALS = dict(_EVAL_GLOBALS, _jet_pow_const=_jet_pow_const, _jet_pow_var=_jet_pow_var,
                    ZeroDivisionError=ZeroDivisionError)


@functools.lru_cache(maxsize=_JET_CACHE_SIZE)
def _jet_factory(source: str) -> Callable:
    namespace: dict = {}
    exec(compile(source, "<jets>", "exec"), _JET_GLOBALS, namespace)
    return namespace["make"]


@_depth_guarded
def compile_jet(e: Expr, n: int) -> Jets:
    """The Taylor-mode functions of e at order n >= 0 (see Jets), compiled.

    A tree of a shape compiled before at this order (the same tree up to
    its literals) costs no call to Python's compiler.  Where a derivative
    the series encodes is undefined, the functions raise as taylor_series
    does, with arithmetic faults as EvalDomainError."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    writer = _JetWriter(n)
    source = writer.source(e)
    return Jets(*_jet_factory(source)(*writer.consts))
