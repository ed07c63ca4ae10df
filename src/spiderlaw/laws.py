"""Closed-form densities, distribution functions and transforms.

Three families of laws are covered:

* the arc-sine law on [0, 1], ``LawSpec.arcsine()``, whose own formulas
  are an independent check of Lamperti's at (1/2, 1/2);
* the law of the mu-th power of a ratio X = S/S' of two iid one-sided
  stable(mu) variables, supported on [0, inf);
* Lamperti's two-parameter law on [0, 1], the law of the time a skew Bessel
  process spends positive: A = p^(1/mu) S' / (p^(1/mu) S' + q^(1/mu) S) with
  q = 1 - p.  Its named points are the arc-sine law (1/2, 1/2), the ratio
  A = S'/(S'+S) at (mu, 1/2) and one occupation fraction of an n-ray spider
  at (1/2, 1/n).  A :class:`LawSpec` is one such point, and its methods are
  the only form of its pdf, cdf and sampler.

All of them are images of one law: L = mu log(S/S') = log(X**mu), which the
samplers draw, is symmetric and smooth with density

    g_mu(L) = sin(pi mu) / (pi mu) / (2 cosh L + 2 cos(pi mu)),

Y = X**mu = e^L and A = expit((log(p/q) - L) / mu).  The pdfs evaluate g_mu
from their powers; :func:`integrate_density` and :func:`density_mean`
integrate in L, where no law has an endpoint singularity, every tail decays
like e^-|L| and p only moves the interval.  Every distribution function is
one tail of L, P(L >= |x|) = arctan(2 s c t / (c^2 (1 + t) + s^2 (1 - t)))
/ (pi mu) with t = e^-|x| and (s, c) the sine and cosine of pi mu / 2, or
one minus it; the tests check it against mpmath over the whole domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, UsageError, integer, real
from .quadrature import integrate_half_line


_TINY_Y = 2.0 ** -600  # below it ratio_power_pdf is its y = 0 value to the last bit
_TINY = np.finfo(float).tiny


def _validate_mu(mu):
    return real(mu, "stable exponent", 0, 1)


def _validate_rays(n):
    return integer(n, "ray count", 2)


def _as_array(x, name, low, high, *, open_low=False, open_high=False):
    try:
        arr = np.atleast_1d(np.asarray(x))
    except (TypeError, ValueError):  # a ragged nesting, say
        arr = np.array([], dtype=object)
    if arr.dtype.kind not in "biuf":  # a string, None or another object
        raise ParameterDomainError(f"{name} must be real: {x!r}")
    arr = np.asarray(arr, dtype=float)
    too_low = (arr <= low) if open_low else (arr < low)
    too_high = (arr >= high) if open_high else (arr > high)
    if np.any(too_low | too_high | ~np.isfinite(arr)):
        lo = "(" if open_low else "["
        hi = ")" if open_high else "]"
        raise ParameterDomainError(f"{name} outside {lo}{low}, {high}{hi}")
    return arr


def _scalar_like(x, arr):
    return float(arr.reshape(())) if np.ndim(x) == 0 else arr


# ---------------------------------------------------------------------------
# the law of L = mu log(S/S'), which every other law here is an image of
# ---------------------------------------------------------------------------

def _trig(mu):
    """sin(pi mu) / (pi mu), sin(pi mu / 2) and cos(pi mu / 2), from 1 - mu
    when mu > 1/2, where sin(pi mu) and cos(pi mu / 2) are small and pi mu
    would carry its rounding error into them.  The first is 1 to the last
    bit at a subnormal mu, where pi mu and sin(pi mu) round alike."""
    if mu > 0.5:
        h = 0.5 * math.pi * (1.0 - mu)
        return math.sin(math.pi * (1.0 - mu)) / (math.pi * mu), math.cos(h), math.sin(h)
    h = 0.5 * math.pi * mu
    return math.sin(math.pi * mu) / (math.pi * mu), math.sin(h), math.cos(h)


def _log_ratio_density(d, t, mu):
    """g_mu at |L| = -log t from t = e^-|L| and d = 1 - t, given without
    cancellation.  Its bracket 2 cosh L + 2 cos(pi mu) is the sum of
    d^2 / t and 4 cos^2(pi mu / 2), so nothing cancels at the mode as
    mu -> 1 and nothing overflows in either tail."""
    k, _, cos = _trig(mu)
    return k * t / (d * d + 4.0 * cos * cos * t)


def _log_ratio_tail(d, t, mu):
    """P(L >= u) for u = -log t >= 0, from arrays t = e^-u and d = 1 - t: the
    arctangent of x = 2 s c t / (c^2 (1 + t) + s^2 d) over pi mu, which is
    1/2 - arctan(tan(pi mu / 2) tanh(u / 2)) / (pi mu) with its cancelling
    difference taken in closed form.  It is formed as x / (pi mu), which
    keeps its digits as mu or t vanishes, times arctan(x) / x, which is 1
    for every x below the smallest normal float, so x is floored there and
    0 / 0 never arises.  The work is done in d and t, and t is returned."""
    k, sin, cos = _trig(mu)
    den = t + 1.0
    den *= cos * cos
    d *= sin * sin
    den += d
    ratio = np.multiply(t, k, out=t)
    ratio /= den  # x / (pi mu)
    x = np.maximum(np.multiply(ratio, math.pi * mu, out=den), _TINY, out=den)
    atan = np.arctan(x, out=d)
    atan /= x
    ratio *= atan
    return ratio


def _power_ratio_density(a, b, mu):
    """g_mu at L = log(a / b) for arrays a, b > 0; a - b is exact where they
    are close, and swapping them repeats the same float operations."""
    hi = np.maximum(a, b)
    return _log_ratio_density((a - b) / hi, np.minimum(a, b) / hi, mu)


def _g_mu(x, mu):
    """g_mu at a float x."""
    return _log_ratio_density(-math.expm1(-abs(x)), math.exp(-abs(x)), mu)


def _expit(x):
    """1 / (1 + exp(-x)), without overflow for either sign of x."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log_ratio_at(z, mu, p):
    """The L at which Lamperti's A equals z: log(p/q) + mu log((1 - z) / z)."""
    with np.errstate(divide="ignore"):  # +-inf at z = 0 and 1
        return math.log(p / (1.0 - p)) + mu * (np.log1p(-z) - np.log(z))


def _integrate_log_ratio(f, mu, lo, hi, cuts=()):
    """Integral of f over [lo, hi] in L, cut at the mode 0, at each cut and
    at +-w 4^k below 1, w = 2 cos(pi mu / 2) being about the half-width of
    g_mu's mode, a spike as mu -> 1.  Each piece is a half-line integral
    anchored at a cut (a finite piece is halved), so every cut sits at t = 0,
    where bisection digs deepest; a step there narrower than the first
    nodes is missed by equal and opposite amounts on its two sides."""
    grading, w = [], 2.0 * _trig(mu)[2]
    while w < 1.0:
        grading, w = grading + [-w, w], 4.0 * w
    points = sorted({lo, hi, *(c for c in (0.0, *grading, *cuts) if lo < c < hi)})
    pieces = []
    for u, v in zip(points, points[1:]):
        for anchor, sign in ((u, 1.0), (v, -1.0)):
            if math.isfinite(anchor):  # half of a finite piece, or all of an infinite one
                pieces.append(integrate_half_line(lambda x: f(anchor + sign * x), 0.0,
                                                  0.5 * (v - u)))
    return math.fsum(pieces)


# ---------------------------------------------------------------------------
# power of a stable ratio: Y = (S/S')**mu on [0, inf)
# ---------------------------------------------------------------------------

def ratio_power_pdf(y, mu):
    """sin(pi mu) / (pi mu) / (y^2 + 2 y cos(pi mu) + 1) for y >= 0, formed as
    g_mu(log y) / y."""
    mu = _validate_mu(mu)
    arr = np.maximum(_as_array(y, "y", 0.0, math.inf), _TINY_Y)
    return _scalar_like(y, _power_ratio_density(arr, 1.0, mu) / arr)


def ratio_power_cdf(y, mu):
    """P(Y <= y) = P(L <= log y): the tail of L at t = min(y, 1/y), or one
    minus it above y = 1."""
    mu = _validate_mu(mu)
    arr = _as_array(y, "y", 0.0, math.inf)
    big = np.maximum(arr, 1.0)
    d = np.abs(arr - 1.0)
    d /= big
    t = np.minimum(arr, np.divide(1.0, big, out=big), out=big)
    tail = _log_ratio_tail(d, t, mu)
    return _scalar_like(y, np.subtract(1.0, tail, out=tail, where=arr > 1.0))


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
    """E[S**(mu s)] = Gamma(1 - s) / Gamma(1 - mu s) for finite s < 1.

    The ratio of stdlib gammas holds to 2e-13 relative until Gamma(1 - s)
    leaves the float range near s = -170.  Past that the lgamma difference
    is good to a few ulps of lgamma(1 - s), the order to which rounding
    1 - mu s alone already moves the value, and a moment beyond the float
    range is inf."""
    mu, s = _validate_mu(mu), real(s, "moment order s", -math.inf, 1)
    try:
        return math.gamma(1.0 - s) / math.gamma(1.0 - mu * s)
    except OverflowError:
        pass
    try:
        return math.exp(math.lgamma(1.0 - s) - math.lgamma(1.0 - mu * s))
    except OverflowError:  # the moment, or lgamma(1 - s) itself, leaves the range
        return math.inf


# ---------------------------------------------------------------------------
# law descriptors and curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LawSpec:
    """A validated point (mu, p) of Lamperti's family, with the name and the
    parameters its outputs show: :meth:`arcsine`, :meth:`ratio_a` and
    :meth:`spider` build the paper's laws, ``LawSpec(name, mu, p)`` any other.
    Its :meth:`pdf`, :meth:`cdf` and :meth:`sample` are the law's one handle."""

    kind: str
    mu: float = 0.5
    p: float = 0.5
    shown: tuple = ()  # (name, value) pairs of the label and the sidecar

    def __post_init__(self):
        object.__setattr__(self, "mu", _validate_mu(self.mu))
        object.__setattr__(self, "p", real(self.p, "Lamperti weight p", 0, 1))

    @classmethod
    def arcsine(cls) -> LawSpec:
        return _ArcSine("arcsine")

    @classmethod
    def ratio_a(cls, mu) -> LawSpec:
        """A = S'/(S'+S), the point (mu, 1/2)."""
        mu = _validate_mu(mu)
        return cls("ratio_a", mu, 0.5, (("mu", mu),))

    @classmethod
    def spider(cls, n) -> LawSpec:
        """One occupation fraction of an n-ray spider, the point (1/2, 1/n)."""
        n = _validate_rays(n)
        return cls("spider_occupation", 0.5, 1.0 / n, (("n", n),))

    def _log_ratio_pdf(self, x):
        """The density of L at a float x."""
        return _g_mu(x, self.mu)

    def pdf(self, z):
        """sin(pi mu) / (pi z (1-z)) / (r + 1/r + 2 cos(pi mu)) on (0, 1), where
        r = (p/q) ((1-z)/z)**mu, formed as mu g_mu(log r) / (z (1-z)) from the
        powers (p/q) (1-z)**mu and z**mu.  At p = 1/2 the odds are exactly 1.0,
        so swapping z and 1 - z repeats the same float operations."""
        mu, p = self.mu, self.p
        arr = _as_array(z, "z", 0.0, 1.0, open_low=True, open_high=True)
        w = 1.0 - arr
        with np.errstate(over="ignore"):  # the density exceeds the float range at subnormal z
            dens = mu * _power_ratio_density(p / (1.0 - p) * w**mu, arr**mu, mu) / (arr * w)
        return _scalar_like(z, dens)

    def cdf(self, z):
        """P(A <= z) = P(L >= x) at x = log(p/q) + mu log((1-z)/z): the tail of
        L at |x|, or one minus it for x < 0; z = 0 and 1 are x = +-inf."""
        x = _log_ratio_at(_as_array(z, "z", 0.0, 1.0), self.mu, self.p)
        minus_u = -np.abs(x)
        tail = _log_ratio_tail(-np.expm1(minus_u), np.exp(minus_u), self.mu)
        return _scalar_like(z, np.subtract(1.0, tail, out=tail, where=x < 0.0))

    def sample(self, rng, size, meta=None):
        """``size`` draws of A = p^(1/mu) S' / (p^(1/mu) S' + q^(1/mu) S), formed
        in log space as expit((log(p/q) - log(X**mu)) / mu), so both tails
        round alike; a draw that rounds to 0.0 or 1.0 is a correct float
        result and is kept."""
        from .samplers import _log_ratio  # samplers imports this module
        log_y = (1.0 - self.mu) * _log_ratio(self.mu, rng, size, meta)  # log(X**mu)
        with np.errstate(over="ignore"):
            return _expit((math.log(self.p / (1.0 - self.p)) - log_y) / self.mu)

    def label(self) -> str:
        """e.g. ``ratio_a_mu0.3``: a float in six significant digits."""
        return self.kind + "".join(f"_{name}{value:g}" if isinstance(value, float)
                                   else f"_{name}{value}" for name, value in self.shown)

    def as_dict(self) -> dict:
        return {"kind": self.kind, **dict(self.shown)}


class _ArcSine(LawSpec):
    """The point (1/2, 1/2) through the arc-sine law's own formulas, an
    independent check of the family's."""

    def _log_ratio_pdf(self, x):
        """The arc-sine law's own density in L, 2 sqrt(z w) / pi on the exact pair
        z = expit(-2L), w = expit(2L), so that its normalisation checks g_mu."""
        return 2.0 * math.sqrt(_expit(-2.0 * x) * _expit(2.0 * x)) / math.pi

    def pdf(self, z):
        """1 / (pi sqrt(z (1 - z))) on the open interval (0, 1)."""
        arr = _as_array(z, "z", 0.0, 1.0, open_low=True, open_high=True)
        return _scalar_like(z, 1.0 / (np.pi * np.sqrt(arr * (1.0 - arr))))

    def cdf(self, z):
        """(2 / pi) arcsin(sqrt(z)) on [0, 1]."""
        arr = _as_array(z, "z", 0.0, 1.0)
        return _scalar_like(z, (2.0 / np.pi) * np.arcsin(np.sqrt(arr)))

    def sample(self, rng, size, meta=None):
        """cos(U)^2 with U uniform on [0, 2 pi): a float in [0, 1] every time,
        so nothing is redrawn."""
        u = rng.generator.uniform(0.0, 2.0 * np.pi, integer(size, "sample size", 0))
        return np.cos(u) ** 2


def integrate_density(law: LawSpec, a: float, b: float) -> float:
    """Integral of the law's density over [a, b] inside [0, 1], taken over
    the matching interval of L."""
    try:
        inside = 0.0 <= a <= b <= 1.0
    except TypeError:  # None or a string
        inside = False
    if not inside:
        raise ParameterDomainError(f"[{a}, {b}] outside support [0, 1]")
    ends = [float(_log_ratio_at(x, law.mu, law.p)) for x in (b, a)]
    return _integrate_log_ratio(law._log_ratio_pdf, law.mu, *ends)


def density_mean(law: LawSpec) -> float:
    """First moment of the law: E[A] for A = expit((log(p/q) - L) / mu),
    cut at the step of the expit."""
    mu, f, shift = law.mu, law._log_ratio_pdf, math.log(law.p / (1.0 - law.p))
    return _integrate_log_ratio(lambda x: _expit((shift - x) / mu) * f(x), mu,
                                -math.inf, math.inf, (shift,))


_FD_WINDOW = (0.05, 0.95)  # the z range where validate compares cdf and pdf


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

    def validate(self):
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
        keep = (z[mid] >= _FD_WINDOW[0]) & (z[mid] <= _FD_WINDOW[1])
        tol = np.maximum(1e-4, 1e-3 * pdf[mid][keep])
        gap = np.abs(fd[keep] - simpson[keep])
        if np.any(gap > tol):
            raise UsageError(
                f"cdf/pdf mismatch up to {gap.max():.3e}: the grid does not "
                "resolve this density; use more interior points (--grid)")
        return self


def build_density_curve(law: LawSpec, interior_points: int = 999) -> DensityCurve:
    """Tabulate the law on the equispaced interior grid k/(m+1)."""
    m = integer(interior_points, "interior points", 3)
    grid = np.arange(0, m + 2, dtype=float) / (m + 1)
    pdf = np.zeros(m + 2)
    pdf[1:-1] = law.pdf(grid[1:-1])
    cdf = law.cdf(grid)
    return DensityCurve(law=law, grid=grid, pdf_values=pdf, cdf_values=np.asarray(cdf))
