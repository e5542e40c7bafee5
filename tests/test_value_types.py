"""The value types behave as the frozen dataclasses they replace.

Each reference below is a ``@dataclass(frozen=True)`` with the fields,
defaults and validation of one value type, under the same name, so that
repr, equality, hashing, immutability, construction, error messages,
pickling, copying and ``__match_args__`` can be compared on sample values.
The samples pass the same argument objects to both sides.
"""

import copy
import itertools
import math
import pickle
from dataclasses import dataclass
from typing import Optional

import pytest

from confrac import calculus, expr, inequalities, ivp, taylor

# ---------------------------------------------------------------------------
# references


@dataclass(frozen=True)
class Alpha:
    value: float

    def __post_init__(self):
        if not (isinstance(self.value, (int, float)) and math.isfinite(self.value)):
            raise ValueError(f"alpha must be a finite number, got {self.value!r}")
        if not (0.0 < self.value <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.value}")


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not (0.0 <= self.a < self.b):
            raise ValueError(f"interval requires 0 <= a < b, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 1000
    mode: str = "transformed"

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.mode not in ("transformed", "direct"):
            raise ValueError(f"unknown quadrature mode {self.mode!r}")


@dataclass(frozen=True)
class EvalEnv:
    t: float
    alpha: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class BoundsPair:
    m: float
    M: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.M)):
            raise ValueError("bounds must be finite")
        if self.m > self.M:
            raise ValueError(f"bounds require m <= M, got m={self.m}, M={self.M}")


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    verified: bool
    witness: Optional[float] = None
    grid: int = inequalities.DEFAULT_GRID


@dataclass(frozen=True)
class SteffensenEll:
    ell: float
    alpha: object
    window: object


@dataclass(frozen=True)
class MontgomeryKernel:
    t: float
    alpha: object
    window: object

    def __post_init__(self):
        if not self.window.contains(self.t):
            raise ValueError(
                f"t={self.t} outside window [{self.window.a}, {self.window.b}]")


@dataclass(frozen=True)
class InequalityReport:
    theorem: str
    alpha: float
    window: object
    hypotheses: tuple
    lower: Optional[float]
    actual: float
    upper: Optional[float]
    slack_low: Optional[float]
    slack_high: Optional[float]
    holds: bool


@dataclass(frozen=True)
class LinearOperator:
    order: int
    alpha: object
    coefficients: tuple = ()

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"operator order must be >= 1, got {self.order}")
        if self.coefficients and len(self.coefficients) != self.order:
            raise ValueError(
                f"expected {self.order} coefficient functions, got {len(self.coefficients)}")


@dataclass(frozen=True)
class IvpSpec:
    operator: object
    forcing: object
    base_point: float
    initial_values: tuple

    def __post_init__(self):
        if self.base_point < 0.0:
            raise ValueError(f"base point must be >= 0, got {self.base_point}")
        if len(self.initial_values) != self.operator.order:
            raise ValueError(
                f"expected {self.operator.order} initial values, got {len(self.initial_values)}")


@dataclass(frozen=True)
class TaylorExpansion:
    center: float
    degree: int
    alpha: object
    coefficients: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if len(self.coefficients) != self.degree + 1:
            raise ValueError("expected degree + 1 coefficients")


@dataclass(frozen=True)
class EndpointIdentity:
    lhs: float
    rhs: float


# ---------------------------------------------------------------------------
# samples: (type, reference, valid positional arguments, invalid ones); the
# first valid sample of each type pickles, and two samples may be equal

A5, A75 = calculus.Alpha(0.5), calculus.Alpha(0.75)
W, W2 = calculus.Interval(0.5, 2.0), calculus.Interval(0.0, 1.0)
H_OK = inequalities.HypothesisCheck("convex", True)
H_FAIL = inequalities.HypothesisCheck("increasing", False, 0.75, 32)
OP1, OP2 = ivp.LinearOperator(1, A5), ivp.LinearOperator(2, A75, ())
P = calculus.ConformableFn.from_expr("exp(-t)")

CASES = [
    (calculus.Alpha, Alpha,
     [(0.5,), (1,), (1.0,), (1e-6,)],
     [(0.0,), (-0.5,), (1.5,), (math.nan,), (math.inf,), ("0.5",), (None,)]),
    (calculus.Interval, Interval,
     [(0.5, 2.0), (0, 1), (0.0, 1.0), (1.0, 3.5)],
     [(-1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)]),
    (calculus.QuadratureConfig, QuadratureConfig,
     [(), (1e-8,), (1e-8, 1e-6, 50, "direct"), (1e-10, 1e-10, 1000, "transformed")],
     [(0.0,), (1e-8, -1.0), (1e-8, 1e-8, 0), (1e-8, 1e-8, 10, "gauss")]),
    (expr.EvalEnv, EvalEnv,
     [(1.5,), (0.0, 0.5), (1.5, 1.0), (-2.0, 0.25)],
     [(math.inf,), (math.nan, 0.5), (1.0, 0.0), (1.0, 1.5)]),
    (inequalities.BoundsPair, BoundsPair,
     [(-1.0, 2.0), (0.0, 0.0), (-1, 2), (3.0, 4.5)],
     [(2.0, 1.0), (math.inf, 1.0), (0.0, math.nan)]),
    (inequalities.HypothesisCheck, HypothesisCheck,
     [("convex", True), ("increasing", False, 0.75, 32), ("convex", True, None, 256),
      ("bounded", False, None, 0)],
     []),
    (inequalities.SteffensenEll, SteffensenEll,
     [(0.25, A5, W), (0.25, calculus.Alpha(0.5), calculus.Interval(0.5, 2.0)),
      (0.3, A75, W2)],
     []),
    (inequalities.MontgomeryKernel, MontgomeryKernel,
     [(1.0, A5, W), (0.5, A5, W), (2.0, A75, W), (0.0, A5, W2)],
     [(0.25, A5, W), (3.0, A75, W)]),
    (inequalities.InequalityReport, InequalityReport,
     [("hh1", 0.5, W, (H_OK,), 1.0, 1.5, 2.0, 0.5, 0.5, True),
      ("gruss", 0.75, W2, (H_OK, H_FAIL), None, 0.25, 1.0, None, 0.75, True),
      ("hh1", 0.5, W, (inequalities.HypothesisCheck("convex", True),), 1.0, 1.5, 2.0,
       0.5, 0.5, True),
      ("ostrowski", 1.0, W, (), None, math.inf, None, None, None, False)],
     []),
    (ivp.LinearOperator, LinearOperator,
     [(2, A5), (2, A5, ()), (1, A75, (P,)), (2, A5, (P, P))],
     [(0, A5), (-1, A5), (2, A5, (P,))]),
    (ivp.IvpSpec, IvpSpec,
     [(OP2, None, 0.5, (1.0, 0.0)), (OP1, P, 0.0, (2.0,)), (OP2, P, 1.0, (1.0, 0.0)),
      (ivp.LinearOperator(2, A75), None, 0.5, (1.0, 0.0))],
     [(OP1, None, -0.5, (1.0,)), (OP2, None, 0.0, (1.0,)), (OP1, P, 0.0, ())]),
    (taylor.TaylorExpansion, TaylorExpansion,
     [(1.0, 1, A5, (2.0, 3.0)), (0.0, 0, A75, (1.5,)), (1.0, 1, A5, (2.0, 3.0)),
      (2.0, 2, A5, (1.0, -0.5, 0.25))],
     [(1.0, -1, A5, ()), (1.0, 2, A5, (1.0,)), (0.0, 0, A5, (1.0, 2.0))]),
    (taylor.EndpointIdentity, EndpointIdentity,
     [(1.0, 1.0), (0.5, -0.25), (1, 1.0), (math.nan, 0.0)],
     []),
]

IDS = [case[0].__name__ for case in CASES]


def _error(make):
    """The message of the ValueError that make() raises."""
    with pytest.raises(ValueError) as info:
        make()
    return str(info.value)


def test_every_value_type_is_compared():
    assert len(CASES) == 13
    assert all(real.__name__ == ref.__name__ for real, ref, *_ in CASES)


@pytest.mark.parametrize("real, ref, samples, invalid", CASES, ids=IDS)
class TestLikeTheDataclass:
    def test_fields_slots_and_match_args(self, real, ref, samples, invalid):
        assert real.__match_args__ == ref.__match_args__
        assert real.__slots__ == real.__match_args__
        obj = real(*samples[0])
        assert not hasattr(obj, "__dict__")
        match obj:
            case real(first):
                assert first is getattr(obj, real.__match_args__[0])

    def test_repr_and_hash(self, real, ref, samples, invalid):
        for args in samples:
            assert repr(real(*args)) == repr(ref(*args))
            assert hash(real(*args)) == hash(ref(*args))

    def test_equality(self, real, ref, samples, invalid):
        for x, y in itertools.product(samples, repeat=2):
            assert (real(*x) == real(*y)) is (ref(*x) == ref(*y))
            assert (real(*x) != real(*y)) is (ref(*x) != ref(*y))
        obj, want = real(*samples[0]), ref(*samples[0])
        for other in (samples[0], list(samples[0]), 0.5, None):
            assert (obj == other) is (want == other) is False
            assert (obj != other) is (want != other) is True
            assert obj.__eq__(other) is want.__eq__(other) is NotImplemented
        # the reference and the value type are two types with the same fields
        assert (obj == want) is (want == obj) is False
        assert (obj != want) is (want != obj) is True

    def test_assignment_and_deletion_raise_attribute_error(self, real, ref, samples,
                                                           invalid):
        obj, want = real(*samples[0]), ref(*samples[0])
        for name in (*ref.__match_args__, "other"):
            for act in (lambda o: setattr(o, name, 1.0), lambda o: delattr(o, name)):
                with pytest.raises(AttributeError) as got:
                    act(obj)
                with pytest.raises(AttributeError) as expected:
                    act(want)
                assert str(got.value) == str(expected.value)
                assert type(got.value) is AttributeError
        assert obj == real(*samples[0])

    def test_keyword_and_default_construction(self, real, ref, samples, invalid):
        names = ref.__match_args__
        for args in samples:
            kwargs = dict(zip(names, args))
            assert real(**kwargs) == real(*args)
            assert repr(real(**kwargs)) == repr(ref(**kwargs))
            for cut in range(len(args) + 1):
                try:
                    want = repr(ref(*args[:cut]))
                except TypeError:
                    with pytest.raises(TypeError):
                        real(*args[:cut])
                    continue
                assert repr(real(*args[:cut])) == want

    def test_the_same_value_error_messages(self, real, ref, samples, invalid):
        for args in invalid:
            assert _error(lambda: real(*args)) == _error(lambda: ref(*args))

    def test_pickle_and_copy_round_trips(self, real, ref, samples, invalid):
        obj = real(*samples[0])
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is real
            assert twin == obj
            assert repr(twin) == repr(obj)
            assert hash(twin) == hash(obj)


@pytest.mark.parametrize("real, other, ref, ref_other", [
    (calculus.Interval, inequalities.BoundsPair, Interval, BoundsPair),
    (inequalities.BoundsPair, taylor.EndpointIdentity, BoundsPair, EndpointIdentity),
    (expr.EvalEnv, taylor.EndpointIdentity, EvalEnv, EndpointIdentity),
])
def test_value_types_with_equal_fields_differ(real, other, ref, ref_other):
    args = (0.5, 1.0)
    assert (real(*args) == other(*args)) is (ref(*args) == ref_other(*args)) is False
    assert (real(*args) != other(*args)) is (ref(*args) != ref_other(*args)) is True


def test_a_report_pickles_with_its_nested_values():
    r = inequalities.hermite_hadamard_1(calculus.ConformableFn.from_expr("exp(t)"), 0.5, W)
    for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert twin == r
        assert twin.window == W and twin.hypotheses == r.hypotheses
        assert twin.hypotheses_ok == r.hypotheses_ok
