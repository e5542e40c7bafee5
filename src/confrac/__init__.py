"""Conformable fractional calculus toolkit.

Derivatives and weighted integrals of order alpha in (0, 1], exact
fractional Taylor expansions with integral remainders, linear fractional
initial value problems, and numerically verified fractional integral
inequalities (Steffensen, Cebysev, Hermite-Hadamard, Ostrowski, Montgomery,
Jensen, Gruss).

Importing the package loads every layer but the inequality checkers: the
names it re-exports from ``confrac.inequalities`` are resolved on first
access (a module ``__getattr__``), which imports that module then.  The
value types (Alpha, Interval, InequalityReport, ...) are immutable slotted
classes, not dataclasses.
"""

from .calculus import (Alpha, ConformableFn, Interval, QuadratureConfig,
                       frac_deriv, frac_deriv_fn, frac_deriv_n, frac_integral)
from .errors import (ConfracError, EvalDomainError, ExprDepthError, ExprSizeError,
                     ExprSyntaxError, HypothesisError, InstabilityWarning, LimitError,
                     QuadratureError, SmoothnessError, SolverError)
from .expr import EvalEnv, Expr, diff_classical, evaluate, evaluate_at, parse, to_text
from .ivp import IvpSpec, LinearOperator, cauchy_function, solve_full, solve_voc
from .taylor import (EndpointIdentity, TaylorExpansion, binomial_identity_residual,
                     cauchy_kernel, expand, remainder_endpoint_integral,
                     remainder_split_residual, taylor_poly, taylor_remainder)

__version__ = "0.1.0"

__all__ = [
    "Alpha", "BoundsPair", "ConformableFn", "ConfracError", "EndpointIdentity",
    "EvalDomainError", "EvalEnv", "Expr", "ExprDepthError", "ExprSizeError",
    "ExprSyntaxError",
    "HypothesisCheck",
    "HypothesisError", "InequalityReport", "InstabilityWarning", "Interval",
    "IvpSpec", "LimitError", "LinearOperator", "MontgomeryKernel",
    "QuadratureConfig",
    "QuadratureError", "SmoothnessError", "SolverError", "SteffensenEll",
    "TaylorExpansion", "binomial_identity_residual", "cauchy_function",
    "cauchy_kernel", "cebysev", "check_sandwich_lemma", "diff_classical",
    "evaluate", "evaluate_at", "expand", "frac_deriv", "frac_deriv_fn",
    "frac_deriv_n", "frac_integral", "gruss", "gruss_montgomery",
    "hermite_hadamard_1", "hermite_hadamard_2", "hermite_hadamard_3", "jensen",
    "montgomery_check", "montgomery_residual", "ostrowski", "parse",
    "remainder_cebysev", "remainder_endpoint_integral", "remainder_mm_bounds",
    "remainder_split_residual", "remainder_steffensen", "solve_full",
    "solve_voc", "steffensen", "steffensen_ell", "taylor_poly",
    "taylor_remainder", "to_text", "verify_hypothesis",
]

# every name of __all__ not bound above comes from confrac.inequalities: it
# is resolved on each access and never stored here, so a rebinding in that
# module shows through the package too
_PUBLIC = frozenset(__all__)


def __getattr__(name: str):
    if name in _PUBLIC:
        module = globals().get("inequalities")   # set here by its first import
        if module is None:
            from . import inequalities as module
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | _PUBLIC)
