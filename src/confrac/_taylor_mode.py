"""Compiled Taylor mode: the series pass of expr.taylor_series as Python code.

compile_jet emits, for one expression tree and one order n, the pass as
straight Python: every node of the walk becomes statements in walk order,
t-free subtrees become scalar statements, t^c (t itself, sqrt(t)) enters as
its binomial series at t > 0 in h = u - u0, u = t^alpha/alpha, every
coefficient is its own local, and each recurrence is written out term by
term in the order the expr._jet_* helpers sum it, from 0.0 as sum()
starts, so the values are the pass's own, to the sign of an exact zero
(the Taylor mode of Griewank & Walther, "Evaluating Derivatives", 2nd ed.,
ch. 13).  Statements whose results nothing reads, such as the
root's coefficients below n, are left out where they cannot raise, and
t^alpha reuses the pow(t, alpha) of u0.  The source grows with n^2 per
node, so only low orders are compiled; calculus.ConformableFn._jets
decides which.

Literals are parameters, named as in the shape that expr._compiled keeps
for the node, so the code depends on the shape, the order and the whole
literal exponents the writer unrolls (pow_const) only.  A bounded cache
keyed by those three holds one factory each: a hit walks no tree, writes
no source and calls no compiler.

The package imports this module on first use: compiling its own source
takes about 7 ms where no bytecode is cached, which every start-up that
never samples a derivative function would pay.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Optional

from .errors import ExprDepthError
from .expr import (ALPHA, FUNCTIONS, T, Call, CacheInfo, Expr, Neg, Num, Pow, _CACHE_LOCK,
                   _EVAL_GLOBALS, _PY_FUNC, _PY_OP, _SHAPE_CACHE_SIZE, _Binary, _as_number,
                   _compiled, _depth_guarded, _jet_pow_const, _jet_pow_var, _pysource,
                   _remember)

_JET_CACHE_SIZE = _SHAPE_CACHE_SIZE  # the bound of expr._remember
_POW_UNROLL_MAX = 64  # a whole literal exponent up to this is unrolled


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


def _unrolled(c: float) -> Optional[int]:
    """The power a literal exponent c is unrolled to, or None."""
    return int(c) if 0.0 <= c <= _POW_UNROLL_MAX and float(c).is_integer() else None


# a statement that may raise: a call, or a division by other than a
# positive literal (the recurrences divide by k >= 2 and by 1.0)
_MAY_RAISE = re.compile(r"/ (?![1-9])|\w\(")
_NAME = re.compile(r"[A-Za-z_]\w*")


class _JetWriter:
    """The statements of one tree's Taylor-mode pass at one order."""

    def __init__(self, n: int, literals: dict):
        self.n = n
        self.literals = literals   # literal node -> its parameter index
        self.names: dict = {}      # t-free node -> its local or parameter
        self.jets: dict = {}       # node with t -> its coefficient locals
        self.lines: list = []      # (t-free?, target or None, code) in walk order
        self.slots: list = []      # (parameter, negated?) of each literal exponent
        self.count = 0

    def let(self, code: str, scalar: bool = False) -> str:
        name = f"v{self.count}"
        self.count += 1
        self.lines.append((scalar, name, code))
        return name

    def unpack(self, code: str) -> list:
        names = [f"v{self.count + k}" for k in range(self.n + 1)]
        self.count += self.n + 1
        self.lines.append((False, f"{', '.join(names)},", code))
        return names

    def scalar(self, e: Expr) -> str:
        """The local holding a t-free subtree's value (evaluate()'s operations)."""
        name = self.names.get(e)
        if name is not None:
            return name
        if isinstance(e, Num):
            name = f"c{self.literals[e]}"
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
                out = self.pow_const(self.walk(e.base), c, self.literal_power(e.exponent))
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

    def literal_power(self, c: Expr) -> Optional[int]:
        """The power a literal exponent (Num or negated Num) is unrolled to,
        or None; the literal's slot goes into the cache key."""
        num = c.operand if isinstance(c, Neg) else c
        if not isinstance(num, Num):
            return None
        self.slots.append((self.literals[num], num is not c))
        return _unrolled(_as_number(c))

    def via_helper(self, helper: str, *args) -> list:
        """Unpack one call of a _jet_* helper into coefficient locals."""
        lists = (a if type(a) is str else f"[{', '.join(a)}]" for a in args)
        return self.unpack(f"{helper}({', '.join(lists)})")

    def t_power(self, c: str) -> list:
        r = self.let(f"{c} / alpha", True)
        # t and t^alpha are locals already; pow(t, alpha) is u0's numerator
        out = ["t" if c == "1.0" else "ta" if c == "alpha" else self.let(f"pow(t, {c})")]
        for k in range(1, self.n + 1):
            # (r - (k - 1)) / (k u0), as _jet_tpow computes it
            step = f"{r} / u0" if k == 1 else f"{self.let(f'{r} - {k - 1}', True)} / w{k}"
            out.append(self.let(f"{out[-1]} * ({step})"))
        return out

    def pow_const(self, a, c: str, k: Optional[int]) -> list:
        """a^c: a small whole literal exponent k by unrolled repeated
        squaring, any other through _jet_pow_const itself."""
        if k is not None:
            out = None
            while k:
                if k & 1:
                    out = a if out is None else self.mul(out, a)
                k >>= 1
                if k:
                    a = self.mul(a, a)
            return ["1.0"] + ["0.0"] * self.n if out is None else out
        return self.via_helper("_jet_pow_const", a, c)

    @staticmethod
    def total(terms) -> str:
        """The terms summed in order from 0.0, as sum() starts them, so an
        exact zero has the sign of the interpreted pass's."""
        return f"(0.0 + {' + '.join(terms)})"

    def conv(self, a: list, b: list, k: int, lo: int = 1) -> str:
        """a_lo b_(k-lo) + ... + a_k b_0, summed in that order."""
        return self.total(f"{a[j]} * {b[k - j]}" for j in range(lo, k + 1))

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
            out.append(self.let(f"({a[k]} - {self.conv(b, out, k)}) / {b[0]}"))
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
                s = self.total(f"{jl[j]} * {a[k - j]}" for j in range(1, k))
                out.append(self.let(f"({a[k]} - {s} / {k}) / {a[0]}"))
            jl.append(out[k] if k == 1 else self.let(f"{k} * {out[k]}"))
        return out

    def call_sqrt(self, a):
        # as the symbolic d/dt sqrt(u) = u'/(2 sqrt(u)) does
        self.lines.append((False, None, f"if {a[0]} == 0.0: raise ZeroDivisionError"))
        out = [self.let(f"sqrt({a[0]})")]
        for k in range(1, self.n + 1):
            s = self.total(f"{out[j]} * {out[k - j]}" for j in range(1, k))
            num = f"({a[k]} - {s})" if k > 1 else a[k]
            out.append(self.let(f"{num} / (2.0 * {out[0]})"))
        return out

    def call_abs(self, a):
        # the sign u/|u|; at u = 0 a division by zero, as d/dt |u| = (u/|u|) u'
        sign = self.let(f"{a[0]} / abs({a[0]})")
        return [self.let(f"{sign} * {x}") for x in a]

    @staticmethod
    def over(code: str, k: int) -> str:
        return f"{code} / {k}" if k > 1 else code

    # -- the functions --------------------------------------------------------

    def source(self, root: Expr, params: int) -> str:
        out = self.walk(root)
        n = self.n
        top = out[n] if root.contains_t else (out if n == 0 else "0.0")
        steps = [(False, "ta", "pow(t, alpha)"), (False, "u0", "ta / alpha")]
        steps += [(False, f"w{k}", f"{k} * u0") for k in range(2, n + 1)]
        lines = self.live(steps + self.lines, top)
        point = [f"{target} = {code}" if target else code for _, target, code in lines]
        loop = [line for (scalar, _, _), line in zip(lines, point) if not scalar]
        names = ", ".join(f"c{k}" for k in range(params))
        src = [f"def make({names}):", " def top(t, alpha):", "  try:"]
        src += [f"   {line}" for line in point]
        src.append(f"   return {top}")
        src.append("  except _FAULTS as exc:")
        src.append("   raise _domain_error(exc) from None")
        src.append(" def batch(ts, alpha, scale=1.0):")
        src.append("  try:")
        src += [f"   {line}" for (scalar, _, _), line in zip(lines, point) if scalar]
        src.append("   out = []")
        src.append("   for t in ts:")
        src += [f"    {line}" for line in loop]
        src.append(f"    out.append({top} * scale)")
        src.append("   return out")
        src.append("  except _FAULTS as exc:")
        src.append("   raise _domain_error(exc) from None")
        src.append(" return top, batch")
        return "\n".join(src)

    def live(self, lines: list, top: str) -> list:
        """lines without the statements whose results nothing reads and
        that cannot raise: no division, no call, and no t-free operand,
        which may be an int too large for a float.  What is left raises
        where the full pass raises, with the same error."""
        scalars = set(self.names.values()).union(
            target for scalar, target, _ in lines if scalar)
        needed = set(_NAME.findall(top))
        kept = []
        for line in reversed(lines):
            _, target, code = line
            reads = _NAME.findall(code)
            if (target is not None and needed.isdisjoint(_NAME.findall(target))
                    and not _MAY_RAISE.search(code) and scalars.isdisjoint(reads)):
                continue
            needed.update(reads)
            kept.append(line)
        kept.reverse()
        return kept


_JET_GLOBALS = dict(_EVAL_GLOBALS, _jet_pow_const=_jet_pow_const, _jet_pow_var=_jet_pow_var,
                    ZeroDivisionError=ZeroDivisionError)


def _make_factory(source: str) -> Callable:
    namespace: dict = {}
    exec(compile(source, "<jets>", "exec"), _JET_GLOBALS, namespace)
    return namespace["make"]


# Both bounded to _JET_CACHE_SIZE entries, the oldest dropped first.  The
# slots of a shape and order are the literal exponents its writer met.
_factories: dict = {}   # (shape, n, unrolled powers) -> the code's make()
_slots: dict = {}       # (shape, n) -> ((parameter, negated?), ...)
_counts = [0, 0]        # hits, misses


def _powers(consts: tuple, slots: tuple) -> tuple:
    return tuple(_unrolled(-consts[k] if negated else consts[k]) for k, negated in slots)


def cache_info() -> CacheInfo:
    """Hits and misses of compile_jet's factory cache; a miss is one call
    to Python's compiler."""
    return CacheInfo(_counts[0], _counts[1], _JET_CACHE_SIZE, len(_factories))


def cache_clear() -> None:
    with _CACHE_LOCK:
        _factories.clear()
        _slots.clear()
        _counts[:] = [0, 0]


@_depth_guarded
def compile_jet(e: Expr, n: int) -> Jets:
    """The Taylor-mode functions of e at order n >= 0 (see Jets), compiled.

    A tree of a shape compiled before at this order (the same tree up to
    its literals, with the same whole literal exponents up to 64) costs no
    tree walk and no call to Python's compiler.  Where a derivative the
    series encodes is undefined, the functions raise as taylor_series does,
    with arithmetic faults as EvalDomainError."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    try:
        shape, consts = _compiled(e)[2:]
    except ExprDepthError:  # too deep for one Python expression, not for statements
        shape = None
    if shape is not None:
        slots = _slots.get((shape, n))
        if slots is not None:
            make = _factories.get((shape, n, _powers(consts, slots)))
            if make is not None:
                _counts[0] += 1
                return Jets(*make(*consts))
    _counts[1] += 1
    _, values, literals = _pysource(e)
    writer = _JetWriter(n, {node: k for k, node in enumerate(literals)})
    make = _make_factory(writer.source(e, len(literals)))
    if shape is not None:
        slots = tuple(writer.slots)
        _remember(_slots, (shape, n), slots)
        _remember(_factories, (shape, n, _powers(consts, slots)), make)
    return Jets(*make(*values))
