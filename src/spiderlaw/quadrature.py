"""Adaptive Gauss-Kronrod quadrature with substitutions for endpoint singularities.

The densities handled by this package blow up like z**(mu-1) or z**(-1/2) at
the ends of [0, 1].  Integration therefore runs in a transformed variable:

* ``z = sin(theta)**2`` on [0, 1], which cancels square-root singularities
  exactly and softens the power-law ones enough for adaptive refinement;
* ``y = t / (1 - t)`` on [0, inf), which maps the half line to [0, 1) and
  absorbs the y**-2 tail of the ratio-power density.

The remaining integrand is handled by a global adaptive G7/K15 scheme that
repeatedly bisects the panel with the largest error estimate.
"""
from __future__ import annotations

import heapq
import math

from .errors import ParameterDomainError

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1]:
# (node, Gauss weight, Kronrod weight); Gauss weight 0 marks Kronrod-only nodes.
_G7K15 = (
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
)


class QuadratureError(RuntimeError):
    """Adaptive refinement exhausted its panel budget before converging, or
    the integral it reached is not finite."""


def _gk_panel(f, a, b):
    """One G7/K15 evaluation on [a, b]; returns (kronrod, error_estimate).

    The raw |K15 - G7| difference is kept as the error estimate: it is
    conservative, and unlike the usual sharpened form it never understates
    the error on the tiny panels produced next to a power-law endpoint.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    gauss = 0.0
    kronrod = 0.0
    for node, wg, wk in _G7K15:
        fx = f(mid + half * node)
        gauss += wg * fx
        kronrod += wk * fx
    return kronrod * half, abs(kronrod - gauss) * half


def adaptive_quadrature(f, a, b, local_tol=1e-10, max_panels=16384):
    """Integrate ``f`` over [a, b], bisecting until every panel's error
    estimate drops below ``local_tol``; the final value is an exact
    compensated sum over panels."""
    if not (math.isfinite(a) and math.isfinite(b)) or b < a:
        raise ParameterDomainError(f"invalid interval [{a}, {b}]")
    if a == b:
        return 0.0
    value, err = _gk_panel(f, a, b)
    heap = [(-err, a, b, value)]
    panels = 1
    while -heap[0][0] > local_tol:
        if panels >= max_panels:
            raise QuadratureError(
                f"no convergence after {panels} panels (worst~{-heap[0][0]:.3e})"
            )
        _, pa, pb, _pv = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lv, le = _gk_panel(f, pa, pm)
        rv, re = _gk_panel(f, pm, pb)
        heapq.heappush(heap, (-le, pa, pm, lv))
        heapq.heappush(heap, (-re, pm, pb, rv))
        panels += 1
    total = math.fsum(item[3] for item in heap)
    if not math.isfinite(total):
        # an overflowing panel has a NaN error estimate, which stops refinement
        raise QuadratureError(f"non-finite integral {total} over [{a}, {b}]")
    return total


def integrate_unit_interval_pair(f, a, b, local_tol=1e-10, max_panels=16384):
    """Integrate ``f(z, 1 - z)`` over [a, b] inside [0, 1] via the
    z = sin(theta)^2 map.

    Both halves of [0, 1] are mapped separately so that each endpoint
    singularity lands at theta = 0, where floating-point spacing is
    unbounded below and bisection can dig arbitrarily deep.  (Mapping the
    upper endpoint to theta = pi/2 would stall at the ~2e-16 float spacing
    there, and a power-law density still carries visible mass that close to
    the end.)  The two integrand arguments are sin(theta)^2 and
    cos(theta)^2, an exact (z, 1 - z) pair: forming 1 - z in floating point
    would lose every significant digit once z is within 1e-16 of 1.
    """
    if not 0.0 <= a <= b <= 1.0:
        raise ParameterDomainError(f"interval [{a}, {b}] not inside [0, 1]")

    def g_lower(theta):
        s = math.sin(theta)
        c = math.cos(theta)
        z = s * s
        if z <= 0.0:
            return 0.0
        return f(z, c * c) * 2.0 * s * c

    def g_upper(theta):
        # integrates over u = 1 - z; the pair arrives swapped
        s = math.sin(theta)
        c = math.cos(theta)
        u = s * s
        if u <= 0.0:
            return 0.0
        return f(c * c, u) * 2.0 * s * c

    total = 0.0
    if a < 0.5:
        hi = min(b, 0.5)
        total += adaptive_quadrature(
            g_lower, math.asin(math.sqrt(a)), math.asin(math.sqrt(hi)),
            local_tol=local_tol, max_panels=max_panels)
    if b > 0.5:
        lo = max(a, 0.5)
        total += adaptive_quadrature(
            g_upper, math.asin(math.sqrt(1.0 - b)), math.asin(math.sqrt(1.0 - lo)),
            local_tol=local_tol, max_panels=max_panels)
    return total


def integrate_half_line(f, a, b=math.inf, local_tol=1e-10, max_panels=16384):
    """Integrate ``f`` over [a, b] inside [0, inf) via the y = t/(1-t) map."""
    if a < 0.0 or b < a:
        raise ParameterDomainError(f"interval [{a}, {b}] not inside [0, inf)")
    ta = a / (1.0 + a)
    tb = 1.0 if math.isinf(b) else b / (1.0 + b)

    def g(t):
        if t >= 1.0:
            return 0.0
        y = t / (1.0 - t)
        return f(y) / (1.0 - t) ** 2

    return adaptive_quadrature(g, ta, tb, local_tol=local_tol, max_panels=max_panels)
