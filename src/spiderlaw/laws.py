"""Closed-form densities, distribution functions and transforms.

Four parametric laws are covered:

* the arc-sine law on [0, 1];
* the law of the mu-th power of a ratio of two iid one-sided stable(mu)
  variables, supported on [0, inf);
* the law of S'/(S'+S) for the same pair, supported on [0, 1];
* the law of one occupation fraction of an n-ray spider, supported on [0, 1].

The distribution functions all reduce to arctangent expressions; each one is
cross-checked against quadrature of its density in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterDomainError, UsageError
from .gammafn import gamma
from .quadrature import integrate_half_line, integrate_unit_interval_pair


def _validate_mu(mu):
    mu = float(mu)
    if not 0.0 < mu < 1.0:
        raise ParameterDomainError(f"stable exponent must lie in (0, 1): {mu}")
    return mu


def _validate_rays(n):
    if int(n) != n or int(n) < 2:
        raise ParameterDomainError(f"ray count must be an integer >= 2: {n}")
    return int(n)


def _as_array(x, name, low, high, *, open_low=False, open_high=False):
    arr = np.asarray(x, dtype=float)
    too_low = (arr <= low) if open_low else (arr < low)
    too_high = (arr >= high) if open_high else (arr > high)
    if np.any(too_low | too_high | ~np.isfinite(arr)):
        lo = "(" if open_low else "["
        hi = ")" if open_high else "]"
        raise ParameterDomainError(f"{name} outside {lo}{low}, {high}{hi}")
    return arr


def _scalar_like(x, arr):
    return float(arr) if np.ndim(x) == 0 else arr


# ---------------------------------------------------------------------------
# arc-sine law
# ---------------------------------------------------------------------------

def arcsine_pdf(z):
    """1 / (pi sqrt(z (1 - z))) on the open interval (0, 1)."""
    arr = _as_array(z, "z", 0.0, 1.0, open_low=True, open_high=True)
    return _scalar_like(z, 1.0 / (np.pi * np.sqrt(arr * (1.0 - arr))))


def arcsine_cdf(z):
    """(2 / pi) arcsin(sqrt(z)) on [0, 1]."""
    arr = _as_array(z, "z", 0.0, 1.0)
    return _scalar_like(z, (2.0 / np.pi) * np.arcsin(np.sqrt(arr)))


# ---------------------------------------------------------------------------
# power of a stable ratio: Y = (S/S')**mu on [0, inf)
# ---------------------------------------------------------------------------

def ratio_power_pdf(y, mu):
    """sin(pi mu) / (pi mu) / (y^2 + 2 y cos(pi mu) + 1) for y >= 0."""
    mu = _validate_mu(mu)
    arr = _as_array(y, "y", 0.0, math.inf)
    c = math.cos(math.pi * mu)
    dens = math.sin(math.pi * mu) / (math.pi * mu) / (arr * arr + 2.0 * arr * c + 1.0)
    return _scalar_like(y, dens)


def ratio_power_cdf(y, mu):
    """Antiderivative of :func:`ratio_power_pdf`, normalised to hit 1 at infinity."""
    mu = _validate_mu(mu)
    arr = _as_array(y, "y", 0.0, math.inf)
    s = math.sin(math.pi * mu)
    c = math.cos(math.pi * mu)
    # arctan((y + cos) / sin) rises from arctan(cot(pi mu)) = pi/2 - pi mu to pi/2
    val = (np.arctan((arr + c) / s) - (0.5 * math.pi - math.pi * mu)) / (math.pi * mu)
    return _scalar_like(y, np.clip(val, 0.0, 1.0))


# ---------------------------------------------------------------------------
# stable ratio on the simplex: A = S'/(S'+S) on [0, 1]
# ---------------------------------------------------------------------------

def ratio_A_pdf(z, mu):
    """Density of A = S'/(S'+S); symmetric about 1/2, arc-sine at mu = 1/2.

    The bracket is formed from z**mu and (1-z)**mu separately, so swapping
    z and 1-z performs the identical float operations and the symmetry
    holds bit for bit.
    """
    mu = _validate_mu(mu)
    arr = _as_array(z, "z", 0.0, 1.0, open_low=True, open_high=True)
    a = (1.0 - arr) ** mu
    b = arr**mu
    bracket = a / b + b / a + 2.0 * math.cos(math.pi * mu)
    dens = math.sin(math.pi * mu) / math.pi / (arr * (1.0 - arr) * bracket)
    return _scalar_like(z, dens)


def ratio_A_cdf(z, mu):
    """P(A <= z) via the power-ratio law: 1 - F_Y(((1-z)/z)**mu)."""
    mu = _validate_mu(mu)
    arr = np.atleast_1d(_as_array(z, "z", 0.0, 1.0))
    out = np.empty_like(arr)
    out[arr == 0.0] = 0.0
    out[arr == 1.0] = 1.0
    inner = (arr > 0.0) & (arr < 1.0)
    if np.any(inner):
        y = ((1.0 - arr[inner]) / arr[inner]) ** mu
        out[inner] = 1.0 - ratio_power_cdf(y, mu)
    return _scalar_like(z, out.reshape(np.shape(z)))


# ---------------------------------------------------------------------------
# spider occupation marginal: one coordinate of the n-ray occupation vector
# ---------------------------------------------------------------------------

def spider_pdf(z, n):
    """(1/pi) / (sqrt(z(1-z)) [ (n-1) z + (1-z)/(n-1) ]) on (0, 1)."""
    n = _validate_rays(n)
    arr = _as_array(z, "z", 0.0, 1.0, open_low=True, open_high=True)
    bracket = (n - 1) * arr + (1.0 - arr) / (n - 1)
    dens = 1.0 / (np.pi * np.sqrt(arr * (1.0 - arr)) * bracket)
    return _scalar_like(z, dens)


def spider_cdf(z, n):
    """P(occupation fraction <= z) = 1 - (2/pi) arctan(sqrt((1-z)/z)/(n-1))."""
    n = _validate_rays(n)
    arr = np.atleast_1d(_as_array(z, "z", 0.0, 1.0))
    out = np.empty_like(arr)
    out[arr == 0.0] = 0.0
    out[arr == 1.0] = 1.0
    inner = (arr > 0.0) & (arr < 1.0)
    zi = arr[inner]
    out[inner] = 1.0 - (2.0 / np.pi) * np.arctan(np.sqrt((1.0 - zi) / zi) / (n - 1))
    return _scalar_like(z, out.reshape(np.shape(z)))


# ---------------------------------------------------------------------------
# transforms of the (unpowered) stable ratio X = S/S'
# ---------------------------------------------------------------------------

def stieltjes_transform(s, mu):
    """E[1 / (1 + s X)] = 1 / (1 + s**mu) for s >= 0."""
    mu = _validate_mu(mu)
    arr = _as_array(s, "s", 0.0, math.inf)
    return _scalar_like(s, 1.0 / (1.0 + arr**mu))


def mellin_transform(s, mu):
    """E[X**s] = sin(pi s) / (mu sin(pi s / mu)) for 0 < s < mu."""
    mu = _validate_mu(mu)
    arr = _as_array(s, "s", 0.0, mu, open_low=True, open_high=True)
    val = np.sin(np.pi * arr) / (mu * np.sin(np.pi * arr / mu))
    return _scalar_like(s, val)


def fractional_moment(s, mu):
    """E[S**(mu s)] = Gamma(1 - s) / Gamma(1 - mu s) for s < 1."""
    mu = _validate_mu(mu)
    s = float(s)
    if not s < 1.0:
        raise ParameterDomainError(f"moment order must satisfy s < 1: {s}")
    return gamma(1.0 - s) / gamma(1.0 - mu * s)


# ---------------------------------------------------------------------------
# split-argument densities for quadrature
#
# The quadrature substitution supplies (z, 1 - z) as an exact pair; these
# scalar forms never recompute 1 - z, which would round to 0 and drop real
# endpoint mass for the heavier-tailed parameter choices.
# ---------------------------------------------------------------------------

def _arcsine_pdf_pair(z, w):
    return 1.0 / (math.pi * math.sqrt(z * w))


def _ratio_A_pdf_pair(z, w, mu):
    a = w**mu
    b = z**mu
    bracket = a / b + b / a + 2.0 * math.cos(math.pi * mu)
    return math.sin(math.pi * mu) / math.pi / (z * w * bracket)


def _spider_pdf_pair(z, w, n):
    return 1.0 / (math.pi * math.sqrt(z * w) * ((n - 1) * z + w / (n - 1)))


# ---------------------------------------------------------------------------
# law descriptors and curves
# ---------------------------------------------------------------------------

class LawKind(str, Enum):
    ARC_SINE = "arcsine"
    STABLE_RATIO_POWER = "ratio_power"
    STABLE_RATIO_A = "ratio_a"
    SPIDER_OCCUPATION = "spider_occupation"


_NEEDS_MU = {LawKind.STABLE_RATIO_POWER, LawKind.STABLE_RATIO_A}
_NEEDS_N = {LawKind.SPIDER_OCCUPATION}


@dataclass(frozen=True)
class LawSpec:
    """A law identifier plus exactly the parameters its kind requires."""

    kind: LawKind
    mu: float | None = None
    n: int | None = None

    def __post_init__(self):
        kind = LawKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in _NEEDS_MU:
            if self.mu is None:
                raise ParameterDomainError(f"{kind.value} requires mu")
            object.__setattr__(self, "mu", _validate_mu(self.mu))
        elif self.mu is not None:
            raise ParameterDomainError(f"{kind.value} takes no mu parameter")
        if kind in _NEEDS_N:
            if self.n is None:
                raise ParameterDomainError(f"{kind.value} requires a ray count")
            object.__setattr__(self, "n", _validate_rays(self.n))
        elif self.n is not None:
            raise ParameterDomainError(f"{kind.value} takes no ray count")

    @property
    def support(self) -> tuple[float, float]:
        if self.kind is LawKind.STABLE_RATIO_POWER:
            return (0.0, math.inf)
        return (0.0, 1.0)

    def pdf(self, x):
        if self.kind is LawKind.ARC_SINE:
            return arcsine_pdf(x)
        if self.kind is LawKind.STABLE_RATIO_POWER:
            return ratio_power_pdf(x, self.mu)
        if self.kind is LawKind.STABLE_RATIO_A:
            return ratio_A_pdf(x, self.mu)
        return spider_pdf(x, self.n)

    def cdf(self, x):
        if self.kind is LawKind.ARC_SINE:
            return arcsine_cdf(x)
        if self.kind is LawKind.STABLE_RATIO_POWER:
            return ratio_power_cdf(x, self.mu)
        if self.kind is LawKind.STABLE_RATIO_A:
            return ratio_A_cdf(x, self.mu)
        return spider_cdf(x, self.n)

    def pdf_pair(self, z, w):
        """Density evaluated on an exact (z, 1 - z) pair; [0, 1] laws only."""
        if self.kind is LawKind.ARC_SINE:
            return _arcsine_pdf_pair(z, w)
        if self.kind is LawKind.STABLE_RATIO_A:
            return _ratio_A_pdf_pair(z, w, self.mu)
        if self.kind is LawKind.SPIDER_OCCUPATION:
            return _spider_pdf_pair(z, w, self.n)
        raise ParameterDomainError(f"{self.kind.value} is not supported on [0, 1]")

    def label(self) -> str:
        if self.kind in _NEEDS_MU:
            return f"{self.kind.value}_mu{self.mu:g}"
        if self.kind in _NEEDS_N:
            return f"{self.kind.value}_n{self.n}"
        return self.kind.value

    def as_dict(self) -> dict:
        out = {"kind": self.kind.value}
        if self.mu is not None:
            out["mu"] = self.mu
        if self.n is not None:
            out["n"] = self.n
        return out


def integrate_density(law: LawSpec, a: float, b: float, local_tol=1e-10) -> float:
    """Integral of the law's density over [a, b] within its support closure."""
    lo, hi = law.support
    if not (lo <= a <= b <= hi):
        raise ParameterDomainError(f"[{a}, {b}] outside support [{lo}, {hi}]")
    if math.isinf(hi):
        pdf = law.pdf
        return integrate_half_line(lambda y: pdf(y), a, b, local_tol=local_tol)
    return integrate_unit_interval_pair(law.pdf_pair, a, b, local_tol=local_tol)


def density_mean(law: LawSpec, local_tol=1e-10) -> float:
    """First moment of a law supported on [0, 1]."""
    if math.isinf(law.support[1]):
        raise ParameterDomainError("mean helper is for laws on [0, 1]")
    pair = law.pdf_pair
    return integrate_unit_interval_pair(lambda z, w: z * pair(z, w), 0.0, 1.0,
                                        local_tol=local_tol)


@dataclass
class DensityCurve:
    """Tabulated (z, pdf, cdf) for one law on [0, 1].

    The grid holds ``interior_points`` equispaced interior z-values plus both
    endpoints.  The density is only evaluated at interior points (the laws
    here diverge at the ends); the endpoint pdf rows are stored as 0.0.
    """

    law: LawSpec
    grid: np.ndarray
    pdf_values: np.ndarray
    cdf_values: np.ndarray

    def interior(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.grid[1:-1], self.pdf_values[1:-1], self.cdf_values[1:-1]

    def validate(self, fd_window=(0.05, 0.95)):
        if not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid is not strictly increasing")
        if np.any(self.pdf_values < 0):
            raise ValueError("negative density value")
        if np.any(np.diff(self.cdf_values) < -1e-14):
            raise ValueError("cdf is not monotone")
        if abs(self.cdf_values[0]) > 1e-8 or abs(self.cdf_values[-1] - 1.0) > 1e-8:
            raise ValueError("cdf endpoints differ from 0 and 1")
        # the centred cdf difference is the pdf's mean over two cells, which
        # Simpson's rule gives to O(h^4); the point pdf would differ by O(h^2)
        z, pdf, cdf = self.grid, self.pdf_values, self.cdf_values
        mid = slice(1, len(z) - 1)
        fd = (cdf[2:] - cdf[:-2]) / (z[2:] - z[:-2])
        simpson = (pdf[:-2] + 4.0 * pdf[mid] + pdf[2:]) / 6.0
        keep = (z[mid] >= fd_window[0]) & (z[mid] <= fd_window[1])
        tol = np.maximum(1e-4, 1e-3 * pdf[mid][keep])
        gap = np.abs(fd[keep] - simpson[keep])
        if np.any(gap > tol):
            raise UsageError(
                f"cdf/pdf mismatch up to {gap.max():.3e}: the grid does not "
                "resolve this density; use more interior points (--grid)")
        return self


def build_density_curve(law: LawSpec, interior_points: int = 999) -> DensityCurve:
    """Tabulate a [0, 1] law on the equispaced interior grid k/(m+1)."""
    if math.isinf(law.support[1]):
        raise ParameterDomainError("curves are tabulated for laws on [0, 1] only")
    if interior_points < 3:
        raise ParameterDomainError(f"need at least 3 interior points: {interior_points}")
    m = int(interior_points)
    grid = np.arange(0, m + 2, dtype=float) / (m + 1)
    pdf = np.zeros(m + 2)
    pdf[1:-1] = law.pdf(grid[1:-1])
    cdf = law.cdf(grid)
    return DensityCurve(law=law, grid=grid, pdf_values=pdf, cdf_values=np.asarray(cdf))
