import copy
import gc
import importlib.util
import io
import itertools
import math
import pickle
import random
import re
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from confrac import _taylor_mode as tm, cli, expr as ex
from confrac.calculus import _JET_UNROLL_MAX, ConformableFn, frac_deriv_fn, frac_deriv_n
from confrac.errors import EvalDomainError, ExprDepthError, ExprSyntaxError

from conftest import central_fd, random_safe_tree, random_text, random_tree


class TestParse:
    def test_atomic_variable(self):
        assert ex.parse("t") == ex.T

    def test_precedence_pow_over_add(self):
        tree = ex.parse("sin(t) + t^2")
        assert tree == ex.Add(ex.Call("sin", ex.T), ex.Pow(ex.T, ex.Num(2.0)))

    def test_malformed_input_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse("2 +")
        assert err.value.offset == 3

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            ex.parse("   ")

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError, match="unknown function"):
            ex.parse("tan(t)")

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            ex.parse("x + 1")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse("1 + @")
        assert err.value.offset == 4

    def test_whitespace_insensitive(self):
        assert ex.parse(" t ^ 2 + 1 ") == ex.parse("t^2+1")

    def test_pow_right_associative(self):
        assert ex.parse("t^2^3") == ex.Pow(ex.T, ex.Pow(ex.Num(2.0), ex.Num(3.0)))

    def test_pow_binds_tighter_than_unary_minus(self):
        assert ex.parse("-t^2") == ex.Neg(ex.Pow(ex.T, ex.Num(2.0)))
        assert ex.parse("(-t)^2") == ex.Pow(ex.Neg(ex.T), ex.Num(2.0))

    def test_constants(self):
        assert ex.parse("pi") == ex.Num(math.pi)
        assert ex.parse("e") == ex.Num(math.e)

    def test_alpha_reserved(self):
        assert ex.parse("alpha") == ex.ALPHA

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            ex.parse("t t")

    # each repetition of the opener enters one nesting level
    NESTERS = [("(", ")"), ("sin(", ")"), ("-", ""), ("t^", "")]

    @pytest.mark.parametrize("opener, closer", NESTERS)
    def test_nesting_up_to_the_limit_parses(self, opener, closer):
        depth = ex.MAX_NESTING
        text = opener * depth + "t" + closer * depth
        assert ex.parse(ex.to_text(ex.parse(text))) is ex.parse(text)

    @pytest.mark.parametrize("opener, closer", NESTERS)
    def test_nesting_past_the_limit_is_a_syntax_error(self, opener, closer):
        depth = ex.MAX_NESTING + 1
        text = opener * depth + "t" + closer * depth
        with pytest.raises(ExprSyntaxError, match="nesting") as err:
            ex.parse(text)
        # offset of the operator that opens level MAX_NESTING + 1
        assert err.value.offset == len(opener) * depth - 1

    def test_deep_nesting_does_not_exhaust_the_stack(self):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse("(" * 2000 + "t" + ")" * 2000)
        assert err.value.offset == ex.MAX_NESTING

    @pytest.mark.parametrize("text, offset", [("1e999", 0), ("t+1e400", 2),
                                              ("0*1e999", 2)])
    def test_non_finite_literal_is_a_syntax_error(self, text, offset):
        with pytest.raises(ExprSyntaxError, match="overflows") as err:
            ex.parse(text)
        assert err.value.offset == offset

    def test_nesting_counts_all_kinds_together(self):
        # 50 levels of "-(" are 100 levels of nesting
        ok = "-(" * 50 + "t" + ")" * 50
        ex.parse(ok)
        with pytest.raises(ExprSyntaxError, match="nesting"):
            ex.parse("(" + ok + ")")


# the tokenizer of the parser that tokenized the whole text before parsing,
# kept as the reference for the tokens read on demand
_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        tokens.append((kind, m.group(), i))
        i = m.end()
    tokens.append(("end", "", n))
    return tokens


class _EagerParser(ex._Parser):
    """The grammar over the list of all tokens, made before parsing starts."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.token = self.tokens[0]

    def advance(self):
        tok = self.token
        self.pos += 1
        self.token = self.tokens[self.pos]
        return tok

    def check_lexical(self):
        pass  # _tokenize has checked the whole text


def _outcome(parse, text):
    """The tree (hash-consed, so equal trees are one object) or the error."""
    try:
        return parse(text)
    except ExprSyntaxError as exc:
        return str(exc), exc.offset


_PIECES = ["0", "1", "9", "42", ".", "..", "e", "E", "e+", "E-", "1e5", "2.5e-3", "1e309",
           "+", "-", "*", "/", "^", "(", ")", "((", " ", "\t", "\n", "\x1c", "\x1f",
           "　", "\xa0", " ", "t", "alpha", "pi", "sin", "exp(", "sqrt", "x",
           "_", "t1", "@", "#", ",", "٣", "\xe9", "\x00"]
_TEXTS = st.lists(st.sampled_from(_PIECES), max_size=30).map("".join)


class TestTokensOnDemand:
    @settings(max_examples=1500, deadline=None)
    @given(text=st.one_of(
        _TEXTS,
        # bad characters, parse errors and valid tails after a deep prefix
        st.tuples(st.integers(ex.MAX_NESTING - 2, ex.MAX_NESTING + 2), _TEXTS).map(
            lambda p: "(" * p[0] + p[1]),
        st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0 　", max_size=4)))
    def test_same_tree_or_error_as_the_whole_text_tokenized_first(self, text):
        assert _outcome(ex.parse, text) == _outcome(lambda s: _EagerParser(s).parse(), text)

    @pytest.mark.parametrize("text, message, offset", [
        ("1 2 @", "unexpected character '@'", 4),
        ("sin(t)) + #", "unexpected character '#'", 10),
        ("(" * 2000 + "t" + ")" * 1999 + "$", "unexpected character '$'", 4000),
        ("(" * 2000 + "t" + ")" * 2000, f"nesting deeper than {ex.MAX_NESTING} levels",
         ex.MAX_NESTING),
    ])
    def test_a_bad_character_is_reported_before_a_parse_error(self, text, message, offset):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse(text)
        assert str(err.value) == f"{message} (offset {offset})"

    @settings(max_examples=1500, deadline=None)
    @given(text=_TEXTS, data=st.data())
    def test_plain_text_needs_no_lexical_scan(self, text, data):
        # letters, digits, "_", operators and ASCII whitespace each start or
        # continue a token, so the scan would run to the end of the text
        pos = data.draw(st.integers(0, len(text)))
        if ex._PLAIN_RE.fullmatch(text, pos):
            assert ex._LEXICAL_RE.match(text, pos).end() == len(text)

    def test_deep_input_takes_no_lexical_scan(self, monkeypatch):
        monkeypatch.setattr(ex, "_LEXICAL_RE", None)
        with pytest.raises(ExprSyntaxError, match="nesting deeper than"):
            ex.parse("(" * 2000 + "t" + ")" * 2000)

    def test_deep_input_stops_reading_at_the_nesting_limit(self, monkeypatch):
        drawn = []
        scan = ex._Parser.scan

        def counted(parser):
            drawn.append(scan(parser))
            return drawn[-1]

        monkeypatch.setattr(ex._Parser, "scan", counted)
        out, err = io.StringIO(), io.StringIO()
        text = "(" * 2000 + "t" + ")" * 2000
        assert cli.run(["deriv", "--expr", text, "--alpha", "0.5", "--at", "1"],
                       out, err) == cli.EXIT_USAGE
        assert "nesting deeper than" in err.getvalue()
        # of 4,001 tokens: the parentheses up to the one past the limit, and
        # the one after it, read as that one was consumed
        assert len(drawn) == ex.MAX_NESTING + 2


def _parser_alone(text):
    return _outcome(lambda s: ex._Parser(s).parse(), text)


def _from_scratch(root):
    """_compiled(root) as a node that was never compiled computes it."""
    saved = root._code
    object.__setattr__(root, "_code", None)
    try:
        return ex._compiled(root)
    finally:
        object.__setattr__(root, "_code", saved)


def _runs(code):
    """What the point and batch evaluators of a _compiled tuple give."""
    ts = [0.0, 0.4, 1.7]
    out = []
    for alpha in (0.5, 1.0):
        for run in (lambda: [code[0](t, alpha) for t in ts], lambda: code[1](ts, alpha)):
            try:
                out.append(_bits(run()))
            except EvalDomainError as exc:
                out.append(str(exc))
    return out


def _workload_texts():
    """Every string an operation of the four benchmark workloads holds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = []
    for name, rounds in (("battery", 3), ("taylor-deep", 1), ("ivp", 1), ("cli", 2)):
        for ops in itertools.islice(workloads.rounds(name, 7), rounds):
            for op in ops:
                for value in op.values():
                    values = value if isinstance(value, (list, tuple)) else [value]
                    texts += [v for v in values if isinstance(v, str)]
    return texts


class TestParseCache:
    """parse replays a cached parse for a text of a shape seen before (the
    same text up to its numbers) and gives it the compiled code of its
    pattern of equal literals: the parser's tree, the parser's errors."""

    def check(self, text):
        got, want = _outcome(ex.parse, text), _parser_alone(text)
        if not isinstance(want, ex.Expr):
            assert got == want, text
            return False
        assert got is want, text
        attached = type(want._code) is tuple  # compiled code without a compile
        code = ex._compiled(want)
        assert code[2:] == _from_scratch(want)[2:], text
        assert _runs(code) == _runs(_from_scratch(want)), text
        return attached

    def test_same_trees_errors_and_code_as_the_parser_cold_and_warm(self):
        rng = random.Random(17)
        corpus = []
        for _ in range(800):  # four texts of each tree: its shape warm after the first
            tree = random_tree(rng)
            corpus += [random_text(rng, tree) for _ in range(4)]
        for seed in range(300):  # the CLI fuzz tests' damaged texts
            text = ex.to_text(random_tree(random.Random(seed)))
            cut = rng.randrange(len(text) + 1)
            corpus.append(text[:cut] + text[cut + rng.randint(1, 3):])
        corpus += _workload_texts()
        live = 0  # roots compiled before, which need no code attached
        for text in corpus:  # cold: every text a miss
            ex.parse_cache_clear()
            live += self.check(text)
        assert ex.parse_cache_info().hits == 0
        attached = sum(map(self.check, corpus))
        info = ex.parse_cache_info()
        assert info.hits > 1500 and attached - live > 800, (info, attached, live)
        assert info.currsize <= info.maxsize == ex._SHAPE_CACHE_SIZE

    @pytest.mark.parametrize("seen, text", [
        ("1+t", "#+t"), ("2*t+1", "1e999*t+1"), ("2*t+1", "2*t+1#"),
        ("-" * 100 + "2", "-" * 101 + "2"),
        ("(" * 100 + "1" + ")" * 100, "(" * 101 + "1" + ")" * 101),
        ("t+1", "t+1.5.3"), ("t+1", "t.5+1"), ("t+1", "t+1e"), ("t2", "t2"),
        ("sin(t)", "sin(t"), ("2*t", "2*t 3"), ("t+1", "t+٣"), ("t+1", "t+1\xe9"),
    ])
    def test_invalid_texts_get_the_parsers_error(self, seen, text):
        ex.parse_cache_clear()
        _outcome(ex.parse, seen)
        assert _outcome(ex.parse, text) == _parser_alone(text)

    def test_a_second_text_of_a_seen_shape_and_pattern_compiles_nothing(self, monkeypatch):
        ex.parse_cache_clear()
        ex._shape_factory.cache_clear()
        walks = []
        pysource = ex._pysource
        monkeypatch.setattr(ex, "_pysource", lambda e: walks.append(e) or pysource(e))
        compiles = []
        monkeypatch.setattr(ex, "compile", lambda *a: compiles.append(a) or compile(*a),
                            raising=False)
        first = ConformableFn.from_expr("0.25*exp(-0.5*t^alpha/alpha)+0.75")
        assert ex.parse_cache_info()[:2] == (0, 1) and len(walks) == 1
        del first
        factories = ex._shape_factory.cache_info()
        second = ConformableFn.from_expr("0.125*exp(-1.5*t^alpha/alpha)+2")
        assert ex.parse_cache_info()[:2] == (1, 1)
        assert (len(walks), ex._shape_factory.cache_info()) == (1, factories)
        for t in (0.3, 1.9):
            assert second.value(t, 0.5) == ex.evaluate_at(second.expr, t, 0.5)
        # equal literals share a node: another pattern, another shape
        third = ConformableFn.from_expr("0.5*exp(-0.5*t^alpha/alpha)+2")
        assert ex.parse_cache_info()[:2] == (2, 1) and len(walks) == 2
        assert ex._compiled(third.expr)[2] != ex._compiled(second.expr)[2]
        assert third.value(1.1, 0.5) == ex.evaluate_at(third.expr, 1.1, 0.5)
        assert len(compiles) == 2  # the first and the third text

    def test_bounded_and_safe_across_threads(self):
        rng = random.Random(29)
        texts = [random_text(rng) for _ in range(600)]
        want = [_parser_alone(text) for text in texts]
        workers = 4
        barrier = threading.Barrier(workers)
        got = [None] * workers

        def work(slot):
            barrier.wait(timeout=60)
            built = lambda text: ConformableFn.from_expr(text).expr  # compiles, learns
            got[slot] = [_outcome(built, text) for text in texts[slot::2] + texts]

        ex.parse_cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for slot in range(workers):
            expected = want[slot::2] + want
            assert len(got[slot]) == len(expected)
            for a, b in zip(got[slot], expected):
                assert a is b if isinstance(b, ex.Expr) else a == b
        assert len(ex._parses) <= ex._SHAPE_CACHE_SIZE


class TestDeepTrees:
    # a flat chain parses within the nesting limit but is as deep as it is long
    @staticmethod
    def chain(terms):
        return ex.parse("+".join(["t"] * terms))

    @pytest.mark.parametrize("terms", [300, 3000])
    def test_compile_raises_depth_error(self, terms):
        with pytest.raises(ExprDepthError):
            ex.compile_expr(self.chain(terms))

    @pytest.mark.parametrize("walk", [
        ex.to_text, ex.diff_classical, ex.normalize_t_powers,
        lambda e: ex.substitute_alpha(e, 0.5), lambda e: ex.evaluate_at(e, 1.0),
    ])
    def test_recursive_passes_raise_depth_error(self, walk):
        with pytest.raises(ExprDepthError):
            walk(self.chain(3000))

    def test_chain_within_limits_still_works(self):
        e = self.chain(150)
        assert ex.compile_expr(e)(2.0, 1.0) == 300.0
        assert ex.parse(ex.to_text(e)) is e


def _bits(values):
    return [v.hex() for v in values]


class TestCompileCache:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ts=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
           alpha=st.sampled_from((0.25, 0.5, 1.0)))
    def test_batch_matches_pointwise_bit_for_bit(self, seed, ts, alpha):
        f = ConformableFn.from_expr(random_tree(random.Random(seed)))
        try:
            want = [f.value(t, alpha) for t in ts]
        except EvalDomainError as exc:
            with pytest.raises(EvalDomainError) as err:
                f.values(ts, alpha)
            assert str(err.value) == str(exc)
            return
        assert _bits(f.values(ts, alpha)) == _bits(want)

    def test_one_compile_per_shape(self, monkeypatch):
        ex._shape_factory.cache_clear()
        calls = []

        def counting(*args):
            calls.append(args[0])
            return compile(*args)

        monkeypatch.setattr(ex, "compile", counting, raising=False)
        first = ex.parse("3.5*sin(2.25*t)+0.125*alpha")
        second = ex.parse("1.5*sin(4*t)+7*alpha")
        for tree in (first, second):
            assert ex.compile_expr(tree)(0.7, 0.5) == ex.evaluate_at(tree, 0.7, 0.5)
            assert ex.compile_batch(tree)([0.7], 0.5) == [ex.evaluate_at(tree, 0.7, 0.5)]
        assert len(calls) == 1

    def test_a_t_free_batch_evaluates_once(self, monkeypatch):
        calls = []
        monkeypatch.setitem(ex._EVAL_GLOBALS, "exp", lambda x: calls.append(x) or math.exp(x))
        ts = [0.5, 1.0, 2.0]
        for text, evaluations in (("exp(0.25*alpha)", 1), ("exp(0.25*t)", len(ts))):
            f = ConformableFn.from_expr(text)
            want = [f.value(t, 0.5) for t in ts]
            del calls[:]
            assert _bits(f.values(ts, 0.5)) == _bits(want)
            assert len(calls) == evaluations
            assert f.values([], 0.5) == [] and len(calls) == evaluations
        # evaluated only where there is a point, raising as the point form
        f = ConformableFn.from_expr("1/(alpha-alpha)")
        assert f.values([], 0.5) == []
        with pytest.raises(EvalDomainError, match="division by zero"):
            f.values(ts, 0.5)

    def test_int_and_float_literals_keep_their_types(self):
        # one shape; the int literals add exactly, the float ones round
        big = 2 ** 53
        as_int = ex.Sub(ex.Add(ex.Num(big), ex.Num(1)), ex.Num(big))
        as_float = ex.Sub(ex.Add(ex.Num(float(big)), ex.Num(1.0)), ex.Num(float(big)))
        assert [type(c) for c in ex._pysource(as_int)[1]] == [int, int]
        assert [type(c) for c in ex._pysource(as_float)[1]] == [float, float]
        assert ex._pysource(as_int)[0] == ex._pysource(as_float)[0]
        assert ex.compile_expr(as_int)(0.0) == 1.0
        assert ex.compile_expr(as_float)(0.0) == 0.0
        assert _bits(ex.compile_batch(as_int)([0.0], 1.0)) == _bits([1.0])
        assert _bits(ex.compile_batch(as_float)([0.0], 1.0)) == _bits([0.0])

    def test_cache_stays_within_its_caps(self):
        rng = random.Random(11)
        for _ in range(2000):
            ex.compile_expr(random_tree(rng, 6))
        info = ex._shape_factory.cache_info()
        assert info.misses > ex._SHAPE_CACHE_SIZE  # the count cap was exercised
        assert info.currsize <= ex._SHAPE_CACHE_SIZE
        # a level larger than the source cap compiles without the cache
        f = ConformableFn.from_expr("exp(t)")
        level = f.frac_expr(10)
        assert len(ex._pysource(level)[0]) > ex._SHAPE_SOURCE_CAP
        info = ex._shape_factory.cache_info()
        value = ex.compile_expr(level)(1.3, 0.5)
        assert ex.compile_batch(level)([1.3], 0.5) == [value]
        assert ex._shape_factory.cache_info() == info
        assert value == pytest.approx(frac_deriv_n(f, 0.5, 10, 1.3), rel=1e-12)


class TestInterning:
    def test_equal_trees_are_one_object(self):
        built = ex.Add(ex.Call("sin", ex.T), ex.Pow(ex.T, ex.Num(2.0)))
        assert ex.parse("sin(t) + t^2") is built
        assert ex.parse("sin(t)+t^2") is ex.parse(" sin( t )+t ^2")

    def test_roundtrip_returns_the_same_object(self):
        rng = random.Random(7)
        for _ in range(300):
            tree = random_tree(rng)
            assert ex.parse(ex.to_text(tree)) is tree
            d = ex.diff_classical(random_safe_tree(rng))
            assert ex.parse(ex.to_text(d)) is d

    def test_signed_zero_literals_stay_apart(self):
        assert ex.Num(-0.0) is not ex.Num(0.0)
        assert ex.Num(0.0) is ex.Num(0.0)
        assert math.copysign(1.0, ex.compile_expr(ex.Num(-0.0))(1.0)) == -1.0
        assert math.copysign(1.0, ex.compile_expr(ex.Num(0.0))(1.0)) == 1.0

    def test_contains_t_is_computed_at_construction(self):
        assert ex.parse("sin(alpha)*2+t").contains_t
        assert not ex.parse("sin(alpha)*2+pi").contains_t
        assert ex.contains_t(ex.T) and not ex.contains_t(ex.ALPHA)

    def test_nodes_are_immutable(self):
        node = ex.parse("t+1")
        with pytest.raises(AttributeError):
            node.left = ex.ALPHA
        with pytest.raises(AttributeError):
            del node.right

    def test_copies_and_pickles_are_the_same_object(self):
        tree = ex.parse("exp(-t)*cos(t^alpha/alpha)")
        assert copy.copy(tree) is tree
        assert copy.deepcopy(tree) is tree
        assert pickle.loads(pickle.dumps(tree)) is tree

    def test_threads_building_one_chain_get_the_same_objects(self):
        text = "exp(-t)*cos(t^alpha/alpha)/(1+t)"
        shared = ConformableFn.from_expr(text)
        workers = 4
        barrier = threading.Barrier(workers)
        chains = [None] * workers
        tops = [None] * workers

        def build(slot):
            own = ConformableFn.from_expr(text)
            barrier.wait(timeout=60)
            chains[slot] = [own.frac_expr(n) for n in range(5)]
            tops[slot] = shared.frac_expr(4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for chain in chains[1:]:
            assert all(a is b for a, b in zip(chain, chains[0]))
        assert all(top is chains[0][4] for top in tops)
        # no level was appended twice
        assert len(shared._frac_chain) == 5
        assert [shared.frac_expr(n) for n in range(5)] == chains[0]

    def test_dropped_functions_release_their_nodes(self):
        # a node's remembered derivative refers back to the node, so the
        # intern table must not keep such cycles reachable
        gc.collect()
        before = len(ex._TABLE)
        for k in range(500):
            f = ConformableFn.from_expr(f"exp({1.0 + k / 1024!r}*t)*sin(t)")
            f.frac_expr(3)
        del f
        gc.collect()
        assert len(ex._TABLE) - before < 250

    def test_compiling_a_new_shape_leaves_no_cycle_holding_the_tree(self):
        # with the cycle collector off, a dropped function's tree goes at
        # once: writing its source (_pysource) leaves no cycle behind
        gc.collect()
        gc.disable()
        try:
            roots = []
            for k in range(1, 101):  # 100 shapes, each with literals
                f = ConformableFn.from_expr(
                    "+".join(f"t^{j}" if j % 2 else f"sin(t*{j})" for j in range(k + 1)))
                roots.append(weakref.ref(f.expr))
            del f
            alive = sum(root() is not None for root in roots)
        finally:
            gc.enable()
        assert alive == 0


class TestPrint:
    def test_pow_compact(self):
        assert ex.parse(ex.to_text(ex.Pow(ex.T, ex.Num(2.0)))) == ex.Pow(ex.T, ex.Num(2.0))

    def test_neg(self):
        assert ex.parse(ex.to_text(ex.Neg(ex.T))) == ex.Neg(ex.T)

    def test_roundtrip_random_trees(self):
        rng = random.Random(42)
        for _ in range(1000):
            tree = random_tree(rng)
            assert ex.parse(ex.to_text(tree)) == tree

    def test_roundtrip_derivative_trees(self):
        # the folding constructors only ever emit canonical shapes
        rng = random.Random(43)
        for _ in range(300):
            d = ex.diff_classical(random_safe_tree(rng))
            assert ex.parse(ex.to_text(d)) == d

    @pytest.mark.parametrize("text", [
        "t^2", "-t^2", "(-t)^2", "t-(1-t)", "a" and "alpha", "1/2/3",
        "t^2^3", "sin(cos(t))", "-(t+1)", "2*-t", "t--1",
    ])
    def test_roundtrip_parsed(self, text):
        tree = ex.parse(text)
        assert ex.parse(ex.to_text(tree)) == tree


class TestEvaluate:
    def test_square(self):
        assert ex.evaluate_at(ex.parse("t^2"), 3.0) == 9.0

    def test_alpha_substitution(self):
        assert ex.evaluate_at(ex.parse("t^alpha/alpha"), 4.0, 0.5) == pytest.approx(4.0, abs=1e-14)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            ex.evaluate_at(ex.parse("1/t"), 0.0)

    def test_ln_domain(self):
        with pytest.raises(EvalDomainError):
            ex.evaluate_at(ex.parse("ln(t)"), 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            ex.evaluate_at(ex.parse("sqrt(t-2)"), 1.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalDomainError):
            ex.evaluate_at(ex.parse("(t-2)^0.5"), 1.0)

    def test_zero_pow_zero_is_one(self):
        assert ex.evaluate_at(ex.parse("t^0"), 0.0) == 1.0

    def test_env_validation(self):
        with pytest.raises(ValueError):
            ex.EvalEnv(1.0, alpha=0.0)
        with pytest.raises(ValueError):
            ex.EvalEnv(1.0, alpha=1.5)
        with pytest.raises(ValueError):
            ex.EvalEnv(math.inf)

    def test_compile_rejects_unknown_function_names(self):
        # the name is emitted into generated source, so only known ones pass
        with pytest.raises(TypeError):
            ex.compile_expr(ex.Call("().__class__", ex.T))

    def test_compiled_matches_tree_walk(self):
        rng = random.Random(99)
        checked = 0
        while checked < 300:
            tree = random_tree(rng)
            fn = ex.compile_expr(tree)
            t = rng.uniform(0.1, 3.0)
            alpha = rng.choice((0.25, 0.5, 1.0))
            try:
                want = ex.evaluate_at(tree, t, alpha)
            except EvalDomainError:
                with pytest.raises(EvalDomainError):
                    fn(t, alpha)
                checked += 1
                continue
            got = fn(t, alpha)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            checked += 1


class TestDiffClassical:
    def test_sin(self):
        assert ex.diff_classical(ex.parse("sin(t)")) == ex.Call("cos", ex.T)

    def test_product_rule_value(self):
        # d/dt (t e^t) at 1 is 2e; frozen from the closed form
        d = ex.diff_classical(ex.parse("t*exp(t)"))
        assert ex.evaluate_at(d, 1.0) == pytest.approx(2.0 * math.e, rel=1e-14)
        fd = central_fd(lambda s: ex.evaluate_at(ex.parse("t*exp(t)"), s), 1.0, 1e-6)
        assert ex.evaluate_at(d, 1.0) == pytest.approx(fd, rel=1e-8)

    def test_t_pow_alpha(self):
        d = ex.diff_classical(ex.parse("t^alpha"))
        # alpha t^(alpha-1) at t=2, alpha=0.5
        assert ex.evaluate_at(d, 2.0, 0.5) == pytest.approx(0.5 * 2.0 ** (-0.5), rel=1e-14)
        fd = central_fd(lambda s: ex.evaluate_at(ex.parse("t^alpha"), s, 0.5), 2.0, 1e-6)
        assert ex.evaluate_at(d, 2.0, 0.5) == pytest.approx(fd, rel=1e-8)

    def test_alpha_is_constant(self):
        assert ex.diff_classical(ex.ALPHA) == ex.Num(0.0)

    def test_abs_sign_convention(self):
        d = ex.diff_classical(ex.parse("abs(t-1)"))
        assert ex.evaluate_at(d, 2.0) == 1.0
        assert ex.evaluate_at(d, 0.5) == -1.0
        with pytest.raises(EvalDomainError):
            ex.evaluate_at(d, 1.0)

    def test_fd_agreement_random_family(self):
        rng = random.Random(2024)
        for _ in range(500):
            tree = random_safe_tree(rng)
            d = ex.diff_classical(tree)
            t = rng.uniform(0.5, 3.0)
            alpha = rng.choice((0.25, 0.5, 0.75, 1.0))
            h = 1e-5 * max(1.0, abs(t))
            fd = central_fd(lambda s: ex.evaluate_at(tree, s, alpha), t, h)
            sym = ex.evaluate_at(d, t, alpha)
            assert abs(sym - fd) / (1.0 + abs(fd)) < 1e-6

    def test_linearity(self):
        rng = random.Random(5)
        for _ in range(50):
            e1, e2 = random_safe_tree(rng), random_safe_tree(rng)
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            combo = ex.Add(ex.Mul(ex.lit(a), e1), ex.Mul(ex.lit(b), e2))
            dc = ex.diff_classical(combo)
            d1, d2 = ex.diff_classical(e1), ex.diff_classical(e2)
            t = rng.uniform(0.5, 3.0)
            lhs = ex.evaluate_at(dc, t, 0.5)
            rhs = a * ex.evaluate_at(d1, t, 0.5) + b * ex.evaluate_at(d2, t, 0.5)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestNormalization:
    def test_t_power_collection_preserves_values(self):
        rng = random.Random(31)
        for _ in range(200):
            tree = random_safe_tree(rng)
            norm = ex.normalize_t_powers(tree)
            t = rng.uniform(0.5, 3.0)
            assert ex.evaluate_at(norm, t, 0.5) == pytest.approx(
                ex.evaluate_at(tree, t, 0.5), rel=1e-11, abs=1e-11)

    def test_collects_powers(self):
        tree = ex.parse("t^(1-alpha)*exp(t)*t^(alpha-1)")
        norm = ex.normalize_t_powers(tree)
        # single net power of t: regular at 0
        assert ex.evaluate_at(norm, 0.0, 0.5) == 1.0

    def test_substitute_alpha_folds(self):
        tree = ex.parse("(1-alpha)*(1/t) + t^alpha")
        sub = ex.substitute_alpha(tree, 1.0)
        assert sub == ex.T

    def test_substitute_alpha_value(self):
        rng = random.Random(8)
        for _ in range(100):
            tree = random_safe_tree(rng)
            sub = ex.substitute_alpha(tree, 0.75)
            t = rng.uniform(0.5, 3.0)
            assert ex.evaluate_at(sub, t, 0.25) == pytest.approx(
                ex.evaluate_at(tree, t, 0.75), rel=1e-11, abs=1e-11)


def _jet_outcome(fn):
    """The coefficients, or the error type; a coefficient that is not finite
    counts as the EvalDomainError its callers raise for it."""
    try:
        coeffs = fn()
    except (EvalDomainError, ex.NoTaylorSeries) as exc:
        return type(exc)
    return coeffs if all(map(math.isfinite, coeffs)) else EvalDomainError


def _interpreted(tree, n, t, alpha):
    """taylor_series with the binomial seed of t^c at t > 0, arithmetic faults
    mapped as the compiled functions map them."""
    try:
        return ex.taylor_series(tree, n, alpha, ex.t_power_at(t, alpha, n))
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise ex._domain_error(exc) from None


class TestCompiledJets:
    @settings(max_examples=400, deadline=None)
    # the compiled orders; test_one_compile_per_shape_and_order checks that
    # frac_deriv_fn compiles nothing above them
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, _JET_UNROLL_MAX),
           t=st.floats(0.05, 4.0), alpha=st.floats(0.05, 1.0),
           ts=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=6))
    def test_equal_the_interpretive_pass(self, seed, n, t, alpha, ts):
        tree = random_tree(random.Random(seed))
        jets = tm.compile_jet(tree, n)
        # the statements left out are the ones nothing reads and that cannot
        # raise, so c_n, or the error, is the pass's own
        want = _jet_outcome(lambda: [_interpreted(tree, n, t, alpha)[n]])
        got = _jet_outcome(lambda: [jets.top(t, alpha)])
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
        else:
            # bit for bit: an exact zero has the interpreted pass's sign too
            assert _bits(got) == _bits(want)
        # the batch is the point loop, bit for bit, or fails where it fails
        try:
            loop = [jets.top(s, alpha) * 3.0 for s in ts]
        except (EvalDomainError, ex.NoTaylorSeries):
            with pytest.raises((EvalDomainError, ex.NoTaylorSeries)):
                jets.batch(ts, alpha, 3.0)
            return
        assert _bits(jets.batch(ts, alpha, 3.0)) == _bits(loop)

    @pytest.mark.parametrize("n", range(_JET_UNROLL_MAX + 1))
    def test_an_exact_zero_has_the_sign_of_the_pass(self, n):
        # the pass sums from sum()'s 0: -0.0 products add up to 0.0
        tree = ex.parse("exp(ln(8/8)*-(alpha*t))")
        got = tm.compile_jet(tree, n).top(2.0, 0.75)
        assert _bits([got]) == _bits([_interpreted(tree, n, 2.0, 0.75)[n]])
        assert _bits(tm.compile_jet(tree, n).batch([2.0], 0.75)) == _bits([got])

    @pytest.mark.parametrize("n", (1, _JET_UNROLL_MAX, _JET_UNROLL_MAX + 1, 16))
    def test_one_compile_per_shape_and_order(self, monkeypatch, n):
        tm.cache_clear()
        calls = []

        def counting(*args):
            calls.append(args[0])
            return compile(*args)

        monkeypatch.setattr(tm, "compile", counting, raising=False)
        first = ex.parse("3.5*sin(2.25*t)*exp(-t^alpha/alpha)/(1+t^2)")
        second = ex.parse("1.5*sin(4*t)*exp(-t^alpha/alpha)/(7+t^2)")
        for tree in (first, second):
            if n <= _JET_UNROLL_MAX:
                got = tm.compile_jet(tree, n).top(1.3, 0.5)
                assert got == _interpreted(tree, n, 1.3, 0.5)[n]
            f = ConformableFn.from_expr(tree)
            d = frac_deriv_fn(f, n)
            want = [frac_deriv_n(f, 0.5, n, s) for s in (1.3, 2.1)]
            assert _bits([d.value(1.3, 0.5)]) == _bits(want[:1])
            assert _bits(d.values([1.3, 2.1], 0.5)) == _bits(want)
        # unrolled up to the threshold, one compilation per shape; above it
        # frac_deriv_fn runs the pass itself, and its cost does not include
        # a compilation
        assert len(calls) == (1 if n <= _JET_UNROLL_MAX else 0)

    @pytest.mark.parametrize("text, n", [("(t-1)^0.5", 3), ("(t-1)^(-2)", 2),
                                         ("sqrt(t-1)", 1), ("abs(t-1)", 2),
                                         ("ln(t-1)", 1), ("1/(t-1)", 2)])
    def test_domain_errors_at_a_zero_argument(self, text, n):
        tree = ex.parse(text)
        want = _jet_outcome(lambda: _interpreted(tree, n, 1.0, 0.5))
        assert isinstance(want, type)
        assert _jet_outcome(lambda: [tm.compile_jet(tree, n).top(1.0, 0.5)]) is want


def _counting_compiler(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(tm, "compile", lambda *args: calls.append(args[0]) or compile(*args),
                        raising=False)
    return calls


class TestShapeKeyedJets:
    """compile_jet keys its factories on the node's shape, the order and the
    whole literal exponents it unrolls; a hit writes and compiles nothing."""

    FIRST = "2.5*exp(-0.3*t)*(1+t)^3 + sin(alpha*t)/(7+t^2)"
    SECOND = "0.5*exp(-1.7*t)*(4+t)^3 + sin(alpha*t)/(9+t^2)"   # same shape

    @pytest.mark.parametrize("n", range(1, _JET_UNROLL_MAX + 1))
    def test_same_shape_reuses_the_factory(self, monkeypatch, n):
        tm.cache_clear()
        calls = _counting_compiler(monkeypatch)
        first, second = ex.parse(self.FIRST), ex.parse(self.SECOND)
        assert ex._compiled(first)[2] == ex._compiled(second)[2]
        tm.compile_jet(first, n)
        assert (tm.cache_info().misses, len(calls)) == (1, 1)
        reused = tm.compile_jet(second, n)
        assert (tm.cache_info().hits, tm.cache_info().misses, len(calls)) == (1, 1, 1)
        # the values of a fresh compilation of the second tree
        tm.cache_clear()
        fresh = tm.compile_jet(second, n)
        assert len(calls) == 2
        ts = [0.3, 1.1, 2.7]
        for alpha in (0.35, 1.0):
            assert _bits([reused.top(t, alpha) for t in ts]) == \
                _bits([fresh.top(t, alpha) for t in ts])
            assert _bits(reused.batch(ts, alpha, 2.0)) == _bits(fresh.batch(ts, alpha, 2.0))

    def test_unrolled_exponents_never_share(self, monkeypatch):
        # (1+t)^k unrolls a whole k, so each exponent is its own code;
        # t^c takes c as a parameter of one binomial series, so t^2, t^3
        # and t^2.5 are one code, and each is still its own pass
        tm.cache_clear()
        calls = _counting_compiler(monkeypatch)
        for texts, compiles in ((("(1+t)^2", "(1+t)^3", "(1+t)^2.5"), 3),
                                (("t^2", "t^3", "t^2.5"), 1)):
            before = len(calls)
            for text in texts:
                tree = ex.parse(text)
                for t in (0.4, 1.7):
                    assert tm.compile_jet(tree, 3).top(t, 0.5) == \
                        _interpreted(tree, 3, t, 0.5)[3], text
            assert len(calls) - before == compiles

    def test_cache_is_bounded(self):
        tm.cache_clear()
        rng = random.Random(23)
        for _ in range(700):
            tm.compile_jet(random_tree(rng, 5), 1)
        info = tm.cache_info()
        assert info.misses > tm._JET_CACHE_SIZE  # the bound was exercised
        assert info.currsize <= info.maxsize == tm._JET_CACHE_SIZE
        assert len(tm._slots) <= tm._JET_CACHE_SIZE

    def test_a_tree_too_deep_to_compile_as_one_expression(self):
        # the evaluator's source nests too deep for Python; the jets' does not
        tree = ex.T
        for k in range(300):
            tree = ex.Add(tree, ex.Mul(ex.Num(float(k)), ex.T))
        with pytest.raises(ExprDepthError):
            ex.compile_expr(tree)
        got = tm.compile_jet(tree, 1).top(1.3, 0.5)
        assert got == _interpreted(tree, 1, 1.3, 0.5)[1]
