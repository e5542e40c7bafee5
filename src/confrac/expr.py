"""Expression trees for univariate real functions of t.

A small closed DSL used to describe test functions exactly.  An expression
is a function of the variable ``t`` that may also reference the reserved
symbol ``alpha``, which is bound at evaluation time so one expression can
serve a whole sweep of fractional orders.  The module supports parsing,
canonical printing, IEEE-double evaluation (interpreted or compiled),
exact symbolic d/dt and truncated Taylor series ("jets") of an expression
in which t is itself a power series, interpreted or compiled per shape.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 't' | 'alpha' | 'pi' | 'e'
            | IDENT '(' expr ')' | '(' expr ')'
    IDENT  := sin | cos | exp | ln | sqrt | abs

``^`` is right-associative and binds tighter than unary minus: ``-t^2``
means ``-(t^2)`` and ``t^2^3`` means ``t^(2^3)``.  Nesting (parentheses,
call arguments, unary minus and ``^`` exponents, counted together) may go
MAX_NESTING = 100 levels deep; deeper input is a syntax error.  A long flat
chain such as ``t+t+...+t`` nests one level but builds a tree as deep as
the chain; a tree too deep for Python's compiler or for the recursive passes
raises ExprDepthError.

Nodes are hash-consed: equal subtrees are one shared object, so a
derivative tree is a DAG whose size is its number of distinct subtrees,
the per-node passes (d/dt, t-power normalization, alpha substitution,
evaluation, compilation) visit each distinct subtree once, and structural
equality is identity.

Canonical form: numeric literals are non-negative (a negative constant is
represented as a negation node, exactly as the parser produces it), so
``parse(to_text(e)) is e`` for every tree built through this module's
constructors that stays within the nesting limit and holds no ``-0.0``
literal (printed as ``0``).
"""

from __future__ import annotations

import functools
import math
import operator
import re
import threading
import weakref
from typing import Callable, NamedTuple, Optional, Sequence

from ._value import FrozenValue
from .errors import EvalDomainError, ExprDepthError, ExprSyntaxError

__all__ = [
    "Expr", "Num", "Sym", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "T", "ALPHA", "FUNCTIONS", "EvalEnv",
    "parse", "to_text", "evaluate", "evaluate_at", "diff_classical",
    "compile_expr", "compile_batch", "contains_t", "normalize_t_powers",
    "substitute_alpha", "taylor_series", "t_power_at", "NoTaylorSeries", "MAX_NESTING",
]


class Expr:
    """Base class of the expression nodes.

    Nodes are hash-consed: constructing a node whose class, literal and
    children match a live node returns that node.  Structural equality is
    therefore identity (``==`` and ``hash`` cost O(1)), and every tree is a
    DAG in which equal subtrees are one shared object.  Nodes are immutable;
    ``contains_t`` is computed at construction, and a node remembers its
    classical derivative, its t-power normal form and its compiled
    evaluators once computed.
    """

    __slots__ = ("contains_t", "_diff", "_norm", "_code", "__weakref__")
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"expression nodes are immutable (field {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"expression nodes are immutable (field {name!r})")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


# The intern table maps a node's key to a weak reference to the node.  Keys
# hold child id()s rather than the children: a memoised derivative contains
# its node (d/dt exp(u) = exp(u) u'), and a key holding the child objects
# would keep such cycles reachable from this module forever.  An id cannot
# be reused while its entry is live, because the node keeps its children.
_TABLE: dict = {}
# re-entrant: a garbage collection inside the locked region may run _forget
_TABLE_LOCK = threading.RLock()
_SET = object.__setattr__


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _forget(entry, _table=_TABLE, _lock=_TABLE_LOCK):
    with _lock:
        if _table.get(entry.key) is entry:
            del _table[entry.key]


def _node(cls, key: tuple, contains_t: bool, *fields) -> Expr:
    """The live node registered under key, or a new one with these fields.

    The first lookup needs no lock (a dict read is atomic); the miss path
    looks again under the lock, so two threads never register equal nodes.
    """
    entry = _TABLE.get(key)
    node = entry() if entry is not None else None
    if node is not None:
        return node
    with _TABLE_LOCK:
        entry = _TABLE.get(key)
        node = entry() if entry is not None else None
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                _SET(node, name, value)
            _SET(node, "contains_t", contains_t)
            _SET(node, "_diff", None)
            _SET(node, "_norm", None)
            _SET(node, "_code", None)
            entry = _Entry(node, _forget)
            entry.key = key
            _TABLE[key] = entry
    return node


class Num(Expr):
    __slots__ = _fields = ("value",)

    def __new__(cls, value: float):
        # the sign term keeps -0.0 and 0.0 apart; the type keeps 1 and 1.0
        return _node(cls, (cls, type(value), value, math.copysign(1.0, value)),
                     False, value)


class Sym(Expr):
    __slots__ = _fields = ("name",)  # "t" or "alpha"

    def __new__(cls, name: str):
        return _node(cls, (cls, name), name == "t", name)


class Neg(Expr):
    __slots__ = _fields = ("operand",)

    def __new__(cls, operand: Expr):
        return _node(cls, (cls, id(operand)), operand.contains_t, operand)


class _Binary(Expr):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: Expr, right: Expr):
        return _node(cls, (cls, id(left), id(right)),
                     left.contains_t or right.contains_t, left, right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Expr):
        return _node(cls, (cls, id(base), id(exponent)),
                     base.contains_t or exponent.contains_t, base, exponent)


class Call(Expr):
    __slots__ = _fields = ("func", "arg")

    def __new__(cls, func: str, arg: Expr):
        return _node(cls, (cls, func, id(arg)), arg.contains_t, func, arg)


T = Sym("t")
ALPHA = Sym("alpha")

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")

# the names that stand for a node; pi and e are kept alive here
_NAMED = {"t": T, "alpha": ALPHA, "pi": Num(math.pi), "e": Num(math.e)}


class EvalEnv(FrozenValue):
    """Point of evaluation: the variable t and the fractional order alpha."""

    __slots__ = __match_args__ = ("t", "alpha")

    def __init__(self, t: float, alpha: float = 1.0):
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "alpha", alpha)


# ---------------------------------------------------------------------------
# parsing

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN = (rf"(?P<num>{_NUMBER})"
          r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
          r"|(?P<op>[-+*/^()])")
# one token after optional whitespace; a token is the first alternative of
# _TOKEN that matches where it starts
_SCAN_RE = re.compile(rf"\s*(?:{_TOKEN})")
# the longest run of whitespace and tokens from a position, split as
# _SCAN_RE splits it: a lookahead is atomic, so (?=(X))\1 takes X's first
# match and never backtracks into it ((?>X) needs Python 3.11); the run ends
# at the first character that starts no token, or at the end of the text
_LEXICAL_RE = re.compile(rf"(?:(?=(\s|{_TOKEN}))\1)*")
# text where every character starts or continues a token or is whitespace
# (no ".", which starts a number only before a digit), so _LEXICAL_RE would
# run to its end
_PLAIN_RE = re.compile(r"[A-Za-z0-9_+\-*/^() \t\n\r\f\v]*")

MAX_NESTING = 100
_LITERAL = (Num, None)


class _Parser:
    """Recursive descent over tokens read one at a time, so a parse error
    stops reading where it is raised; a character that starts no token is
    still reported first, wherever it stands (check_lexical).  An operator
    token is told by its text alone: no other token is "+", "(" and so on."""

    def __init__(self, text: str):
        self.text = text
        self.next_match = _SCAN_RE.scanner(text).match  # matches back to back
        self.read = 0  # where the next token's scan starts
        self.depth = 0
        self.token = self.scan()

    def scan(self) -> tuple[str, str, int]:
        """The next (kind, text, offset) token, ("end", "", len(text)) last."""
        m = self.next_match()
        if m is None:
            self.check_lexical()  # only whitespace may be left
            return "end", "", len(self.text)
        kind = m.lastgroup
        self.read = m.end()
        return kind, m.group(kind), m.start(kind)

    def check_lexical(self) -> None:
        """Raise at the first character after those read that starts no token."""
        text = self.text
        if _PLAIN_RE.fullmatch(text, self.read):
            return
        bad = _LEXICAL_RE.match(text, self.read).end()
        if bad < len(text):
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad) from None

    def descend(self, off: int) -> None:
        """Enter one nesting level; the caller leaves it after parsing."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", off)
        self.depth += 1

    def made(self, node: Expr, op: tuple, arity: int) -> Expr:
        """Put op, which built node from the last arity subtrees, on the
        tape; a subtree without literals is one node to push."""
        tape = self.tape
        if tape[-1][0] is None and (arity == 1 or tape[-2][0] is None):
            tape[-arity:] = [(None, node)]
        else:
            tape.append(op)
        return node

    def advance(self):
        tok = self.token
        self.token = self.scan()
        return tok

    def fail(self, message):
        raise ExprSyntaxError(message, self.token[2])

    def parse(self) -> Expr:
        # the constructor calls made, for _replay: (None, node) pushes a node
        # without literals, (Num, None) the next literal, Neg and Call (with
        # the function's name) rebuild the top of the stack, a binary class
        # the top two
        self.tape = []
        self.constants = []  # the values of pi and e where they stand
        try:
            if self.token[0] == "end":
                self.fail("empty input")
            e = self.expr()
            kind, text, off = self.token
            if kind != "end":
                raise ExprSyntaxError(f"unexpected token {text!r}", off)
            return e
        except ExprSyntaxError:
            self.check_lexical()
            raise

    def expr(self) -> Expr:
        e = self.term()
        while self.token[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            cls = Add if op == "+" else Sub
            e = self.made(cls(e, rhs), (cls, None), 2)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.token[1] in ("*", "/"):
            op = self.advance()[1]
            rhs = self.unary()
            cls = Mul if op == "*" else Div
            e = self.made(cls(e, rhs), (cls, None), 2)
        return e

    def unary(self) -> Expr:
        if self.token[1] == "-":
            self.descend(self.advance()[2])
            operand = self.unary()
            self.depth -= 1
            return self.made(Neg(operand), (Neg, None), 1)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.token[1] == "^":
            self.descend(self.advance()[2])
            exponent = self.unary()
            self.depth -= 1
            return self.made(Pow(base, exponent), (Pow, None), 2)
        return base

    def atom(self) -> Expr:
        kind, text, off = self.token
        if kind == "num":
            self.advance()
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"literal {text!r} overflows a double", off)
            self.tape.append(_LITERAL)
            return Num(value)
        if kind == "name":
            self.advance()
            node = _NAMED.get(text)
            if node is not None:
                if type(node) is Num:
                    self.constants.append(node.value)
                self.tape.append((None, node))
                return node
            if self.token[1] != "(":
                raise ExprSyntaxError(f"unknown identifier {text!r}", off)
            if text not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function {text!r}", off)
            self.descend(self.advance()[2])
            arg = self.expr()
            if self.token[1] != ")":
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            return self.made(Call(text, arg), (Call, text), 1)
        if text == "(":
            self.descend(self.advance()[2])
            e = self.expr()
            if self.token[1] != ")":
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            return e
        if kind == "end":
            self.fail("unexpected end of input")
        self.fail(f"unexpected token {text!r}")


# Parses by the text's shape up to its numbers: the text with each run that
# _NUMBER matches replaced by "#".  No name holds a digit, so in a text the
# parser accepts those runs are its number tokens, and its shape has no
# digit, no "." and no "#" after a letter or a "#".  A text of that shape
# without a "#" of its own thus has the same tokens up to their numbers,
# and the parser would make the same constructor calls: parse replays the
# entry's tape with the text's literals instead.  Nodes are equal where
# their literal values are, so each pattern of equal values (constants
# included) has one _compiled shape, which the entry learns from _compiled
# (see _attach).  Bounded to _SHAPE_CACHE_SIZE entries, texts of at most
# _SHAPE_SOURCE_CAP characters.
_LITERAL_RE = re.compile(f"({_NUMBER})")
_parses: dict = {}   # shape -> (tape, constants, {pattern: (make, source, parameters)})
_parse_counts = [0, 0]  # hits, misses
_CACHE_LOCK = threading.Lock()


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


def _remember(cache: dict, key, value) -> None:
    """cache[key] = value, the oldest entry dropped first at _SHAPE_CACHE_SIZE."""
    with _CACHE_LOCK:
        if len(cache) >= _SHAPE_CACHE_SIZE:
            del cache[next(iter(cache))]
        cache[key] = value


def parse_cache_info() -> CacheInfo:
    """Hits and misses of parse's cache; a miss is one run of the parser."""
    return CacheInfo(_parse_counts[0], _parse_counts[1], _SHAPE_CACHE_SIZE, len(_parses))


def parse_cache_clear() -> None:
    with _CACHE_LOCK:
        _parses.clear()
        _parse_counts[:] = [0, 0]


def parse(text: str) -> Expr:
    """Parse expression text into a tree.  Raises ExprSyntaxError with offset.

    Nesting (parentheses, call arguments, unary minus, ``^`` exponents) is
    limited to MAX_NESTING levels, so deep input fails with a syntax error
    instead of exhausting the interpreter stack.  Tokens are read as the
    parse needs them, so an error stops the reading; a character that starts
    no token is reported before any parse error, as if the whole text had
    been tokenized first.

    A text of a shape parsed before (the same text up to its numbers) is
    not parsed again but rebuilt, and where its literals are equal where
    those of a text compiled before were, its tree gets its compiled code
    with it: compile_expr then calls no compiler and walks no tree.  Every
    text the parser rejects still goes to the parser.
    """
    if "#" in text or len(text) > _SHAPE_SOURCE_CAP:
        return _Parser(text).parse()
    parts = _LITERAL_RE.split(text)
    key = "#".join(parts[::2])
    values = list(map(float, parts[1::2]))
    entry = _parses.get(key)
    if entry is None or math.inf in values:
        _parse_counts[1] += 1
        parser = _Parser(text)
        root = parser.parse()
        entry = (parser.tape, parser.constants, {})
        _remember(_parses, key, entry)
    else:
        _parse_counts[0] += 1
        root = _replay(entry[0], values)
    if root._code is None:
        _attach(root, entry, values)
    return root


def _replay(tape: list, values: list) -> Expr:
    stack = []
    push = stack.append
    literals = iter(values)
    for fn, arg in tape:
        if fn is None:
            push(arg)
        elif fn is Num:
            push(Num(next(literals)))
        elif fn is Neg:
            stack[-1] = Neg(stack[-1])
        elif fn is Call:
            stack[-1] = Call(arg, stack[-1])
        else:
            right = stack.pop()
            stack[-1] = fn(stack[-1], right)
    return stack[0]


def _attach(root: Expr, entry: tuple, values: list) -> None:
    """Give root the compiled code of its pattern of equal values, or,
    where the entry has not learnt it, what _compiled needs to teach it."""
    _, constants, patterns = entry
    values = constants + values
    first: dict = {}
    pattern = tuple([first.setdefault(v, k) for k, v in enumerate(values)])
    known = patterns.get(pattern)
    if known is None:
        _SET(root, "_code", [patterns, pattern, values])
    else:
        make, source, parameters = known
        consts = tuple([values[k] for k in parameters])
        _SET(root, "_code", (*make(*consts), source, consts))


# ---------------------------------------------------------------------------
# depth guard

def _depth_guarded(fn):
    """Raise ExprDepthError instead of RecursionError when a recursive pass
    meets a tree deeper than the interpreter stack allows.  Applied to entry
    points whose recursion runs through a private function or closure, so
    it costs one frame per call rather than one per level."""
    @functools.wraps(fn)
    def guarded(*args):
        try:
            return fn(*args)
        except RecursionError:
            raise ExprDepthError(f"expression tree too deep for {fn.__name__}") from None
    return guarded


# ---------------------------------------------------------------------------
# printing

_PREC = {Add: 10, Sub: 10, Mul: 20, Div: 20, Neg: 30, Pow: 40}


def _prec(e: Expr) -> int:
    return _PREC.get(type(e), 50)


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _wrap(e: Expr, needs_parens: bool) -> str:
    s = _text(e)
    return f"({s})" if needs_parens else s


@_depth_guarded
def to_text(e: Expr) -> str:
    """Canonical text such that parse(to_text(e)) reproduces the tree."""
    return _text(e)


def _text(e: Expr) -> str:
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.operand, _prec(e.operand) < 30)
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        return _wrap(e.left, _prec(e.left) < 10) + op + _wrap(e.right, _prec(e.right) <= 10)
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        return _wrap(e.left, _prec(e.left) < 20) + op + _wrap(e.right, _prec(e.right) <= 20)
    if isinstance(e, Pow):
        return _wrap(e.base, _prec(e.base) <= 40) + "^" + _wrap(e.exponent, _prec(e.exponent) < 40)
    if isinstance(e, Call):
        return f"{e.func}({_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

def _pow_value(base: float, ex: float) -> float:
    try:
        return math.pow(base, ex)
    except ValueError:
        raise EvalDomainError(f"{base!r} ^ {ex!r} is not a real number") from None
    except OverflowError:
        raise EvalDomainError(f"{base!r} ^ {ex!r} overflows") from None


def _call_value(func: str, x: float) -> float:
    if func == "sin":
        return math.sin(x)
    if func == "cos":
        return math.cos(x)
    if func == "exp":
        try:
            return math.exp(x)
        except OverflowError:
            raise EvalDomainError(f"exp({x!r}) overflows") from None
    if func == "ln":
        if x <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {x!r}")
        return math.log(x)
    if func == "sqrt":
        if x < 0.0:
            raise EvalDomainError(f"sqrt of negative value {x!r}")
        return math.sqrt(x)
    if func == "abs":
        return abs(x)
    raise EvalDomainError(f"unknown function {func!r}")


@_depth_guarded
def evaluate(e: Expr, env: EvalEnv) -> float:
    """Tree-walking reference evaluator; a shared subtree is evaluated once."""
    t, alpha = env.t, env.alpha
    memo: dict = {}

    def walk(e: Expr) -> float:
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Sym):
            return t if e.name == "t" else alpha
        v = memo.get(e)
        if v is not None:
            return v
        if isinstance(e, Neg):
            v = -walk(e.operand)
        elif isinstance(e, Add):
            v = walk(e.left) + walk(e.right)
        elif isinstance(e, Sub):
            v = walk(e.left) - walk(e.right)
        elif isinstance(e, Mul):
            v = walk(e.left) * walk(e.right)
        elif isinstance(e, Div):
            denom = walk(e.right)
            if denom == 0.0:
                raise EvalDomainError("division by zero")
            v = walk(e.left) / denom
        elif isinstance(e, Pow):
            v = _pow_value(walk(e.base), walk(e.exponent))
        elif isinstance(e, Call):
            v = _call_value(e.func, walk(e.arg))
        else:
            raise TypeError(f"not an expression node: {e!r}")
        memo[e] = v
        return v

    try:
        return walk(e)
    finally:
        del walk  # a recursive closure is a cycle; unlink it to free the memo now


def evaluate_at(e: Expr, t: float, alpha: float = 1.0) -> float:
    return evaluate(e, EvalEnv(t, alpha))


# ---------------------------------------------------------------------------
# truncated Taylor series ("jets")
#
# A jet is the list of the Taylor coefficients 0..n of a function of one
# variable h at h = 0.  t-free subtrees stay plain floats, so a constant
# costs O(1) and scaling a jet O(n); a product of two jets costs O(n^2).
# The recurrences are those of Griewank & Walther, "Evaluating Derivatives",
# 2nd ed., ch. 13.

class NoTaylorSeries(ArithmeticError):
    """The function has no Taylor series at the point although it may have
    values and some derivatives there: a zero base raised to a non-integer
    power.  Away from t = 0 callers report it as EvalDomainError; at t = 0
    they fall back to the limit of the derivatives at t > 0."""


def _jet_of(x, size: int) -> list:
    return x if type(x) is list else [x] + [0.0] * (size - 1)


# The convolutions below pair a forward list with one kept newest-first and
# let map() stop at the shorter, so no slice is built per coefficient.

def _jet_add(a, b):
    if type(a) is not list:
        return [a + b[0]] + b[1:]
    if type(b) is not list:
        return [a[0] + b] + a[1:]
    return list(map(operator.add, a, b))


def _jet_sub(a, b):
    if type(b) is not list:
        return [a[0] - b] + a[1:]
    if type(a) is not list:
        return [a - b[0]] + [-x for x in b[1:]]
    return list(map(operator.sub, a, b))


def _jet_mul(a, b):
    if type(a) is not list:
        return [a * x for x in b]
    if type(b) is not list:
        return [x * b for x in a]
    out, rev = [], []
    for x in b:
        rev.insert(0, x)
        out.append(sum(map(operator.mul, a, rev)))
    return out


def _jet_div(a, b):
    if type(b) is not list:
        if b == 0.0:
            raise EvalDomainError("division by zero")
        return [x / b for x in a]
    b0 = b[0]
    if b0 == 0.0:
        raise EvalDomainError("division by zero")
    tail = b[1:]
    out, rev = [], []
    for x in _jet_of(a, len(b)):
        q = (x - sum(map(operator.mul, tail, rev))) / b0
        out.append(q)
        rev.insert(0, q)
    return out


def _jet_exp(a, first: float) -> list:
    """exp(a), with first = exp(a[0]) supplied by the caller."""
    ja = [j * x for j, x in enumerate(a)][1:]
    out, rev = [first], [first]
    for k in range(1, len(a)):
        e = sum(map(operator.mul, ja, rev)) / k
        out.append(e)
        rev.insert(0, e)
    return out


def _jet_ln(a) -> list:
    a0 = a[0]
    if a0 <= 0.0:
        raise EvalDomainError(f"ln of non-positive value {a0!r}")
    out = [math.log(a0)]
    jl, rev = [], []
    for k in range(1, len(a)):
        if k > 1:
            rev.insert(0, a[k - 1])
        out.append((a[k] - sum(map(operator.mul, jl, rev)) / k) / a0)
        jl.append(k * out[k])
    return out


def _jet_sin_cos(a) -> tuple:
    ja = [j * x for j, x in enumerate(a)][1:]
    s, c = [math.sin(a[0])], [math.cos(a[0])]
    rev_s, rev_c = s[:], c[:]
    for k in range(1, len(a)):
        sk = sum(map(operator.mul, ja, rev_c)) / k
        ck = -sum(map(operator.mul, ja, rev_s)) / k
        s.append(sk)
        c.append(ck)
        rev_s.insert(0, sk)
        rev_c.insert(0, ck)
    return s, c


def _jet_sqrt(a) -> list:
    a0 = a[0]
    if a0 < 0.0:
        raise EvalDomainError(f"sqrt of negative value {a0!r}")
    if a0 == 0.0:
        # as the symbolic d/dt sqrt(u) = u'/(2 sqrt(u)) does
        raise EvalDomainError("division by zero")
    r0 = math.sqrt(a0)
    out = [r0]
    fwd, rev = [], []
    for k in range(1, len(a)):
        r = (a[k] - sum(map(operator.mul, fwd, rev))) / (2.0 * r0)
        out.append(r)
        fwd.append(r)
        rev.insert(0, r)
    return out


def _jet_abs(a) -> list:
    if a[0] > 0.0:
        return a
    if a[0] < 0.0:
        return [-x for x in a]
    # as the symbolic d/dt |u| = (u/|u|) u' does
    raise EvalDomainError("division by zero")


def _jet_pow_const(a, c: float) -> list:
    """a^c for a t-free exponent c, with the semantics of math.pow at a[0]."""
    a0 = a[0]
    c = float(c)
    if c >= 0.0 and c.is_integer():
        # repeated squaring stays exact in structure when a[0] is (near) 0,
        # where the recurrence below would divide by it
        k = int(c)
        out = None
        while k:
            if k & 1:
                out = a if out is None else _jet_mul(out, a)
            k >>= 1
            if k:
                a = _jet_mul(a, a)
        return _jet_of(1.0, len(a)) if out is None else out
    if a0 == 0.0:
        if c.is_integer():
            raise EvalDomainError(f"{a0!r} ^ {c!r} is not a real number")
        raise NoTaylorSeries(f"0 ^ {c!r} has no Taylor series")
    first = _pow_value(a0, c)
    ja = [j * x for j, x in enumerate(a)][1:]
    tail = a[1:]
    out, rev = [first], [first]
    for k in range(1, len(a)):
        p = ((c + 1.0) * sum(map(operator.mul, ja, rev))
             - k * sum(map(operator.mul, tail, rev))) / (k * a0)
        out.append(p)
        rev.insert(0, p)
    return out


def _jet_pow_var(base, x: list) -> list:
    """base^x for a t-dependent exponent: exp(x ln base), whose constant term
    is the pow value itself."""
    b0 = base[0] if type(base) is list else base
    if b0 <= 0.0:
        raise EvalDomainError(f"derivative of {b0!r} ^ x needs ln({b0!r})")
    log_base = _jet_ln(base) if type(base) is list else math.log(base)
    return _jet_exp(_jet_mul(x, log_base), _pow_value(b0, x[0]))


def _jet_tpow(t: float, c: float, alpha: float, u0: float, size: int) -> list:
    """t^c at t > 0 as a series in h = u - u0, u = t^alpha/alpha, u0 = u(t):
    the binomial series t^c (1 + h/u0)^(c/alpha)."""
    r = c / alpha
    term = math.pow(t, c)
    out = [term]
    for k in range(1, size):
        term *= (r - (k - 1)) / (k * u0)
        out.append(term)
    return out


def t_power_at(t: float, alpha: float, n: int) -> Callable[[float], list]:
    """taylor_series' t_power at t > 0: c -> the coefficients 0..n of t^c in
    h = u - u0, u = t^alpha/alpha, u0 = u(t) (see _jet_tpow)."""
    u0 = math.pow(t, alpha) / alpha
    return lambda c: _jet_tpow(t, c, alpha, u0, n + 1)


@_depth_guarded
def taylor_series(e: Expr, n: int, alpha: float,
                  t_power: Callable[[float], list]) -> list:
    """Taylor coefficients 0..n of e in a variable h, given the series of t.

    t_power(c) returns the coefficients 0..n of t^c for a t-free exponent c
    (c = 1 gives t itself); t^c and sqrt(t) nodes take their series from it
    rather than from the power recurrence, which cancels where t is small.
    alpha is bound as in evaluate().  A shared subtree is expanded once.
    Raises EvalDomainError where a derivative the series encodes is
    undefined (division by zero, ln or sqrt at or below 0, abs at 0) or a
    value overflows, and NoTaylorSeries for a zero base with a non-integer
    power.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    env = EvalEnv(1.0, alpha)
    memo: dict = {}

    def walk(e: Expr):
        if not e.contains_t:
            if isinstance(e, Num):
                return e.value
            if e is ALPHA:
                return alpha
            return evaluate(e, env)
        out = memo.get(e)
        if out is not None:
            return out
        if e is T:
            out = t_power(1.0)
        elif isinstance(e, Neg):
            out = [-x for x in walk(e.operand)]
        elif isinstance(e, Add):
            out = _jet_add(walk(e.left), walk(e.right))
        elif isinstance(e, Sub):
            out = _jet_sub(walk(e.left), walk(e.right))
        elif isinstance(e, Mul):
            out = _jet_mul(walk(e.left), walk(e.right))
        elif isinstance(e, Div):
            out = _jet_div(walk(e.left), walk(e.right))
        elif isinstance(e, Pow):
            out = pow_series(e)
        elif isinstance(e, Call):
            out = call_series(e)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        memo[e] = out
        return out

    def pow_series(e: Pow) -> list:
        if not e.exponent.contains_t:
            c = walk(e.exponent)
            if e.base is T:
                return t_power(c)
            return _jet_pow_const(walk(e.base), c)
        base = walk(e.base)
        return _jet_pow_var(base, walk(e.exponent))

    def call_series(e: Call) -> list:
        if e.func == "sqrt" and e.arg is T:
            return t_power(0.5)
        a = walk(e.arg)
        if e.func in ("sin", "cos"):
            return _jet_sin_cos(a)[e.func == "cos"]
        if e.func == "exp":
            return _jet_exp(a, _call_value("exp", a[0]))
        if e.func == "ln":
            return _jet_ln(a)
        if e.func == "sqrt":
            return _jet_sqrt(a)
        if e.func == "abs":
            return _jet_abs(a)
        raise EvalDomainError(f"unknown function {e.func!r}")

    try:
        return _jet_of(walk(e), n + 1)
    finally:
        # the closures refer to each other; unlinking them lets the memo and
        # its lists go at once instead of waiting for the cycle collector
        del walk, pow_series, call_series


_ARITHMETIC_FAULTS = (ZeroDivisionError, ValueError, OverflowError)


def _domain_error(exc: Exception) -> EvalDomainError:
    if isinstance(exc, ZeroDivisionError):
        return EvalDomainError("division by zero")
    if isinstance(exc, OverflowError):
        return EvalDomainError(f"overflow: {exc}")
    return EvalDomainError(str(exc))


# Compiled fast path.  Semantics match evaluate(): math.pow is used so a
# negative base with fractional exponent raises instead of going complex.
_EVAL_GLOBALS = {"__builtins__": {}, "pow": math.pow, "sin": math.sin,
                 "cos": math.cos, "exp": math.exp, "log": math.log,
                 "sqrt": math.sqrt, "abs": abs, "float": float, "len": len,
                 "_FAULTS": _ARITHMETIC_FAULTS, "_domain_error": _domain_error}
_PY_FUNC = {"ln": "log"}
_PY_OP = {Add: "+", Sub: "-", Mul: "*", Div: "/"}

# Trees that differ only in their literals share one compiled factory.
# Measured on the benchmark workloads: under 120 distinct shapes in all, the
# largest source 0.4 kB, and about 10 kB held per cached source of 0.6 kB.
# The count bounds the cache's memory; the source cap keeps derivative
# levels of tens of kilobytes (D^10 exp(t) is 34 kB), which seldom recur,
# out of it, and compiles them once, without the inlined batch form.
_SHAPE_CACHE_SIZE = 256
_SHAPE_SOURCE_CAP = 1024


def _children(e: Expr) -> tuple:
    if isinstance(e, _Binary):
        return e.left, e.right
    if isinstance(e, Neg):
        return (e.operand,)
    if isinstance(e, Pow):
        return e.base, e.exponent
    if isinstance(e, Call):
        return (e.arg,)
    return ()


def _pysource(root: Expr) -> tuple[str, list, list]:
    """Python expression for root, the values of its literals, and the
    literal nodes themselves, in parameter order.

    Each distinct literal node becomes a parameter ``cK`` whose value is the
    node's own value object (so ``1`` and ``1.0`` stay apart), which makes
    the source depend on the tree's shape only.  Each shared subexpression
    is computed once: its first occurrence binds ``vK := ...`` and later
    ones read ``vK``.  Python evaluates operands left to right, so the
    binding always runs before the reads, and every floating-point
    operation is the one the tree spells out."""
    parents: dict = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node in parents:
            parents[node] += 1
        elif not isinstance(node, (Num, Sym)):
            parents[node] = 1
            stack.extend(_children(node))
    names: dict = {}
    literals: list = []

    def emit(e: Expr) -> str:
        name = names.get(e)
        if name is not None:
            return name
        if isinstance(e, Num):
            name = names[e] = f"c{len(literals)}"
            literals.append(e)
            return name
        if isinstance(e, Sym):
            return e.name
        if isinstance(e, _Binary):
            code = f"({emit(e.left)}{_PY_OP[type(e)]}{emit(e.right)})"
        elif isinstance(e, Neg):
            code = f"(-{emit(e.operand)})"
        elif isinstance(e, Pow):
            code = f"pow({emit(e.base)},{emit(e.exponent)})"
        elif isinstance(e, Call) and e.func in FUNCTIONS:
            code = f"{_PY_FUNC.get(e.func, e.func)}({emit(e.arg)})"
        else:
            raise TypeError(f"not an expression node: {e!r}")
        if parents[e] == 1:
            return code
        name = names[e] = f"v{len(names) - len(literals)}"
        return f"({name}:={code})"

    try:
        source = emit(root)
    finally:
        del emit  # a recursive closure is a cycle; unlink it to free the tree now
    return source, [node.value for node in literals], literals


def _prefixed(source: str, prefix: str) -> str:
    """A source of _pysource with prefix before each of its cK and vK
    names, so that the sources of several trees can share one scope."""
    return re.sub(r"\b([cv]\d+)\b", prefix + r"\1", source)


# a tree's point and batch evaluators, which map arithmetic faults themselves
_MAKE = """def make({params}):
 def point(t, alpha=1.0):
  try:
   return float({source})
  except _FAULTS as exc:
   raise _domain_error(exc) from None
 def values(ts, alpha=1.0):
  try:
   return {batch}
  except _FAULTS as exc:
   raise _domain_error(exc) from None
 return point, values"""


def _make_factory(shape: str) -> Callable:
    try:
        code = compile(shape, "<expr>", "exec")
    except SyntaxError as exc:
        raise ExprDepthError(f"expression too deep to compile: {exc.msg}") from None
    namespace: dict = {}
    exec(code, _EVAL_GLOBALS, namespace)
    return namespace["make"]


_shape_factory = functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)(_make_factory)


def _compiled(e: Expr) -> tuple:
    """The node's (evaluator, batch evaluator, shape, literal values), built
    once per node.  The shape is the literal-free source of _pysource, or
    None where it is over _SHAPE_SOURCE_CAP and so not cached; equal shapes
    are equal trees up to their literals, which compile_jet keys on.  A
    tree from parse that came without its code teaches parse's cache the
    shape of its pattern of equal literals (see _attach)."""
    code = e._code
    if type(code) is tuple:
        return code
    learn = code  # None, or [patterns, pattern, values] from _attach
    source, consts, _ = _pysource(e)
    params = ", ".join(f"c{k}" for k in range(len(consts)))
    cached = len(source) <= _SHAPE_SOURCE_CAP
    if not cached:
        batch = "[point(t, alpha) for t in ts]"
    elif e.contains_t:
        batch = f"[float({source}) for t in ts]"
    else:  # one value for every point, evaluated where there is one
        batch = f"[float({source})] * len(ts) if len(ts) else []"
    make = (_shape_factory if cached else _make_factory)(
        _MAKE.format(params=params, source=source, batch=batch))
    code = (*make(*consts), source if cached else None, tuple(consts))
    _SET(e, "_code", code)
    if learn is not None and cached:
        patterns, pattern, values = learn
        _remember(patterns, pattern, (make, source, tuple(map(values.index, consts))))
    return code


@_depth_guarded
def compile_expr(e: Expr) -> Callable[[float, float], float]:
    """Compile a tree to a fast (t, alpha) -> float callable.

    A tree of a shape compiled before (the same tree up to its literals)
    costs no call to Python's compiler, and the node keeps its callable.
    Arithmetic faults raise EvalDomainError.  Raises ExprDepthError when
    the tree nests deeper than Python's parser accepts (about 200 levels,
    e.g. a 200-term flat sum)."""
    return _compiled(e)[0]


@_depth_guarded
def compile_batch(e: Expr) -> Callable[[Sequence[float], float], list[float]]:
    """Compile a tree to a (ts, alpha) -> list of floats callable.

    Point for point it returns what compile_expr(e) returns, from the same
    compilation, and the first point that fails raises the same error."""
    return _compiled(e)[1]


# ---------------------------------------------------------------------------
# symbolic differentiation

def contains_t(e: Expr) -> bool:
    return e.contains_t


# Folding constructors.  They keep derivative trees small (0/1 identities,
# literal arithmetic, sign normalization) and only ever emit canonical form
# (non-negative Num literals).

def lit(v: float) -> Expr:
    if not math.isfinite(v):
        raise ValueError(f"non-finite literal {v!r}")
    if v < 0:
        return Neg(Num(-v))
    return Num(v)


_ZERO = Num(0.0)
_ONE = Num(1.0)


def _as_number(e: Expr) -> Optional[float]:
    """Literal value of a canonical numeric node (Num or negated Num)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg) and isinstance(e.operand, Num):
        return -e.operand.value
    return None


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 1.0


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    va, vb = _as_number(a), _as_number(b)
    if va is not None and vb is not None:
        return lit(va + vb)
    if isinstance(b, Neg):
        return _sub(a, b.operand)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return _neg(b)
    va, vb = _as_number(a), _as_number(b)
    if va is not None and vb is not None:
        return lit(va - vb)
    if isinstance(b, Neg):
        return _add(a, b.operand)
    return Sub(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return lit(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    va, vb = _as_number(a), _as_number(b)
    if va is not None and vb is not None:
        product = va * vb
        if math.isfinite(product):
            return lit(product)
    if isinstance(a, Neg) and isinstance(b, Neg):
        return _mul(a.operand, b.operand)
    if isinstance(a, Neg):
        return _neg(_mul(a.operand, b))
    if isinstance(b, Neg):
        return _neg(_mul(a, b.operand))
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return _ZERO
    if _is_one(b):
        return a
    if isinstance(a, Neg) and isinstance(b, Neg):
        return _div(a.operand, b.operand)
    if isinstance(a, Neg):
        return _neg(_div(a.operand, b))
    if isinstance(b, Neg):
        return _neg(_div(a, b.operand))
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        q = a.value / b.value
        if math.isfinite(q):
            return lit(q)
    return Div(a, b)


def _pow(base: Expr, ex: Expr) -> Expr:
    if _is_one(ex):
        return base
    if isinstance(ex, Num) and ex.value == 0.0:
        return _ONE
    if _is_one(base):
        return _ONE
    vb, ve = _as_number(base), _as_number(ex)
    if vb is not None and ve is not None:
        try:
            v = math.pow(vb, ve)
        except (ValueError, OverflowError):
            return Pow(base, ex)
        if math.isfinite(v):
            return lit(v)
    return Pow(base, ex)


@_depth_guarded
def normalize_t_powers(e: Expr) -> Expr:
    """Collect powers of t across products into a single power factor.

    t^c * g(t) * t^d becomes g(t) * t^(c+d) (t-free exponents only), and
    (t^c)^d becomes t^(c*d); both are identities on t > 0 and under the
    0^0 = 1 convention at t = 0.  Iterated conformable derivatives produce
    exactly such products, and collecting them keeps the formulas regular
    at t = 0 whenever the net exponent is non-negative.  The result is
    remembered on each node, so shared subtrees are normalized once.
    """
    return _normalize(e)


def _normalize(e: Expr) -> Expr:
    if isinstance(e, (Num, Sym)):
        return e
    out = e._norm
    if out is not None:
        return out
    if isinstance(e, Neg):
        out = _neg(_normalize(e.operand))
    elif isinstance(e, Add):
        out = _add(_normalize(e.left), _normalize(e.right))
    elif isinstance(e, Sub):
        out = _sub(_normalize(e.left), _normalize(e.right))
    elif isinstance(e, Call):
        out = Call(e.func, _normalize(e.arg))
    elif isinstance(e, Pow):
        base = _normalize(e.base)
        exponent = _normalize(e.exponent)
        if (isinstance(base, Pow) and base.base is T
                and not base.exponent.contains_t and not exponent.contains_t):
            out = _pow(T, _mul(base.exponent, exponent))
        else:
            out = _pow(base, exponent)
    elif isinstance(e, (Mul, Div)):
        numerator: list[Expr] = []
        denominator: list[Expr] = []
        negative = False
        stack: list[tuple[Expr, bool]] = [(e, False)]
        while stack:
            node, inverted = stack.pop()
            if isinstance(node, Mul):
                stack.append((node.left, inverted))
                stack.append((node.right, inverted))
            elif isinstance(node, Div):
                stack.append((node.left, inverted))
                stack.append((node.right, not inverted))
            elif isinstance(node, Neg):
                negative = not negative
                stack.append((node.operand, inverted))
            else:
                (denominator if inverted else numerator).append(
                    _normalize(node))
        t_exponent = None
        plain_num: list[Expr] = []
        plain_den: list[Expr] = []
        for factors, inverted in ((numerator, False), (denominator, True)):
            for factor in factors:
                if factor is T:
                    contrib = _ONE
                elif (isinstance(factor, Pow) and factor.base is T
                      and not factor.exponent.contains_t):
                    contrib = factor.exponent
                else:
                    (plain_den if inverted else plain_num).append(factor)
                    continue
                if inverted:
                    contrib = _neg(contrib)
                t_exponent = contrib if t_exponent is None else _add(t_exponent, contrib)
        result = None
        for factor in plain_num:
            result = factor if result is None else _mul(result, factor)
        if t_exponent is not None:
            t_power = _pow(T, t_exponent)
            result = t_power if result is None else _mul(result, t_power)
        if result is None:
            result = _ONE
        for factor in plain_den:
            result = _div(result, factor)
        out = _neg(result) if negative else result
    else:
        raise TypeError(f"not an expression node: {e!r}")
    _SET(e, "_norm", out)
    return out


@_depth_guarded
def substitute_alpha(e: Expr, a: float) -> Expr:
    """Replace the alpha symbol by a literal, folding constant subtrees.

    Folding eliminates t-independent zero coefficients together with the
    factors they multiply (a constant zero times any function is the zero
    function), which keeps specialized derivative formulas regular at t = 0
    whenever the underlying function is.
    """
    memo: dict = {}

    def sub(e: Expr) -> Expr:
        if isinstance(e, Num):
            return e
        if isinstance(e, Sym):
            return lit(a) if e.name == "alpha" else e
        out = memo.get(e)
        if out is not None:
            return out
        if isinstance(e, Neg):
            out = _neg(sub(e.operand))
        elif isinstance(e, Add):
            out = _add(sub(e.left), sub(e.right))
        elif isinstance(e, Sub):
            out = _sub(sub(e.left), sub(e.right))
        elif isinstance(e, Mul):
            out = _mul(sub(e.left), sub(e.right))
        elif isinstance(e, Div):
            out = _div(sub(e.left), sub(e.right))
        elif isinstance(e, Pow):
            out = _pow(sub(e.base), sub(e.exponent))
        elif isinstance(e, Call):
            out = Call(e.func, sub(e.arg))
        else:
            raise TypeError(f"not an expression node: {e!r}")
        memo[e] = out
        return out

    try:
        return sub(e)
    finally:
        del sub  # a recursive closure is a cycle; unlink it to free the memo now


@_depth_guarded
def diff_classical(e: Expr) -> Expr:
    """Exact symbolic d/dt.  The symbol ``alpha`` is treated as a constant.

    For ``abs`` the convention d|u|/dt = (u/|u|) u' is used, which leaves the
    derivative undefined (domain error at evaluation) where u = 0.  The
    result is remembered on each node, so shared subtrees are differentiated
    once.
    """
    return _d_dt(e)


def _d_dt(e: Expr) -> Expr:
    d = e._diff
    if d is not None:
        return d
    if isinstance(e, Num):
        d = _ZERO
    elif isinstance(e, Sym):
        d = _ONE if e.name == "t" else _ZERO
    elif isinstance(e, Neg):
        d = _neg(_d_dt(e.operand))
    elif isinstance(e, Add):
        d = _add(_d_dt(e.left), _d_dt(e.right))
    elif isinstance(e, Sub):
        d = _sub(_d_dt(e.left), _d_dt(e.right))
    elif isinstance(e, Mul):
        if not e.left.contains_t:
            d = _mul(e.left, _d_dt(e.right))
        elif not e.right.contains_t:
            d = _mul(_d_dt(e.left), e.right)
        else:
            d = _add(_mul(_d_dt(e.left), e.right),
                     _mul(e.left, _d_dt(e.right)))
    elif isinstance(e, Div):
        if not e.right.contains_t:
            d = _div(_d_dt(e.left), e.right)
        else:
            num = _sub(_mul(_d_dt(e.left), e.right),
                       _mul(e.left, _d_dt(e.right)))
            d = _div(num, _pow(e.right, Num(2.0)))
    elif isinstance(e, Pow):
        base, ex = e.base, e.exponent
        if not ex.contains_t:
            # d/dt b^c = c b^(c-1) b'
            d = _mul(_mul(ex, _pow(base, _sub(ex, _ONE))), _d_dt(base))
        elif not base.contains_t:
            # d/dt c^u = c^u ln(c) u'
            d = _mul(_mul(e, Call("ln", base)), _d_dt(ex))
        else:
            d = _mul(e, _add(_mul(_d_dt(ex), Call("ln", base)),
                             _div(_mul(ex, _d_dt(base)), base)))
    elif isinstance(e, Call) and e.func in FUNCTIONS:
        u = e.arg
        du = _d_dt(u)
        if e.func == "sin":
            d = _mul(Call("cos", u), du)
        elif e.func == "cos":
            d = _neg(_mul(Call("sin", u), du))
        elif e.func == "exp":
            d = _mul(e, du)
        elif e.func == "ln":
            d = _div(du, u)
        elif e.func == "sqrt":
            d = _div(du, _mul(Num(2.0), e))
        else:
            d = _mul(_div(u, e), du)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    _SET(e, "_diff", d)
    return d

