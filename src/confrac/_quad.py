"""Adaptive quadrature: (G7, K15) Gauss-Kronrod pairs with global bisection.

The worst panel (largest |K15 - G7| discrepancy) is bisected until the summed
error estimate satisfies ``abs_tol + rel_tol * |value|``.  An abs_tol of None
stands for rel_tol times the sum of the panels' |values|, at most rel_tol:
an integral below 1 in size keeps its relative digits, and one that cancels
to 0 still converges.  For smooth
integrands |K15 - G7| is a strongly conservative bound on the K15 error.

Given a batch form of the integrand, a panel evaluates its 15 nodes in one
call and sums them in the order of the point-by-point rule, so the result
is the same float.  A batch that raises or returns a sample that is not
finite is discarded, and the panel is evaluated again point by point, which
raises exactly what the point rule raises.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional, Sequence

from .errors import QuadratureError

# the integrand at a list of points, [fn(x) for x in xs] where that succeeds
Batch = Callable[[Sequence[float]], Sequence[float]]

# QUADPACK dqk15 abscissae/weights on [-1, 1]; Gauss nodes sit at the odd
# indices of _XGK plus the centre.
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
_WG = (0.1294849661688697, 0.2797053914892767, 0.3818300505051189)
_WG_CENTER = 0.4179591836734694


def _gk15(fn: Callable[[float], float], a: float, b: float,
          batch: Optional[Batch] = None) -> tuple[float, float]:
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    nodes = [c]
    for xk in _XGK:
        x = h * xk
        nodes += (c - x, c + x)
    f = None
    if batch is not None:
        try:
            f = batch(nodes)
        except Exception:  # the point rule below raises what applies
            pass
        if f is not None and not all(map(math.isfinite, f)):
            f = None
    if f is None:
        f = _samples(fn, nodes)
    resk = _WGK_CENTER * f[0]
    resg = _WG_CENTER * f[0]
    for j in range(7):
        s = f[2 * j + 1] + f[2 * j + 2]
        resk += _WGK[j] * s
        if j % 2 == 1:
            resg += _WG[j // 2] * s
    return resk * h, abs((resk - resg) * h)


def _samples(fn: Callable[[float], float], nodes: list) -> list:
    """fn at the centre, then at each pair of nodes, checked as it goes."""
    c = nodes[0]
    out = [fn(c)]
    if not math.isfinite(out[0]):
        raise QuadratureError(f"non-finite integrand sample at {c!r}")
    for k in range(1, 15, 2):
        f1 = fn(nodes[k])
        f2 = fn(nodes[k + 1])
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise QuadratureError(f"non-finite integrand sample near {c!r}")
        out += (f1, f2)
    return out


def adaptive_integrate(fn: Callable[[float], float], a: float, b: float,
                       abs_tol: Optional[float], rel_tol: float,
                       max_subdivisions: int, batch: Optional[Batch] = None) -> float:
    """Integrate fn over [a, b] (either orientation) to the given tolerance,
    each panel in one call of batch where one is given."""
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0

    value, err = _gk15(fn, a, b, batch)
    total_value = value
    total_err = err
    heap = [(-err, 0, a, b, value)]
    counter = 1
    min_width = 1e-14 * (abs(a) + abs(b) + 1.0)
    size = abs(value)  # the sum of the panels' |values|, read where abs_tol is None
    atol = rel_tol * min(size, 1.0) if abs_tol is None else abs_tol

    for _ in range(max_subdivisions):
        if total_err <= atol + rel_tol * abs(total_value):
            return sign * total_value
        neg_err, _, lo, hi, old_value = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if hi - lo < min_width or mid <= lo or mid >= hi:
            raise QuadratureError(
                f"tolerance not reached: panel [{lo!r}, {hi!r}] cannot be split further")
        v1, e1 = _gk15(fn, lo, mid, batch)
        v2, e2 = _gk15(fn, mid, hi, batch)
        total_value += v1 + v2 - old_value
        total_err += e1 + e2 + neg_err  # neg_err == -(old error)
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2))
        counter += 2
        if abs_tol is None:
            size += abs(v1) + abs(v2) - abs(old_value)
            atol = rel_tol * min(size, 1.0)

    if total_err <= atol + rel_tol * abs(total_value):
        return sign * total_value
    raise QuadratureError(
        f"tolerance not reached after {max_subdivisions} subdivisions "
        f"(error estimate {total_err:.3e})")
