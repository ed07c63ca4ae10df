"""Every CDF against mpmath, over the whole domain its validator accepts.

The reference is P(L <= x) = 1/2 + arctan(tan(pi mu/2) tanh(x/2)) / (pi mu)
for L = log(X**mu).  Each tail is evaluated directly: the smaller of
P(L <= x) and P(L >= x) is 1/2 - arctan(tan(pi mu/2) tanh(|x|/2)) / (pi mu),
taken with enough digits that 80 survive its cancellation, and the larger
is one minus it.  A lower tail, the value a CDF returns, must hold within
1e-13 relative wherever it is a normal float and within 1e-15 absolute
elsewhere; the upper tail, one minus the CDF, within 1e-15 absolute.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from spiderlaw import LawSpec, ratio_power_cdf

TINY = np.finfo(float).tiny
POINTS = 1000


def _tails(x, mu):
    """(P(L <= x), P(L >= x)) for an mpf x, each to 80 digits."""
    u = abs(x)
    with mp.workdps(100 + int(u / math.log(10))):
        mu = mp.mpf(mu)
        small = 0.5 - mp.atan(mp.tan(mp.pi * mu / 2) * mp.tanh(u / 2)) / (mp.pi * mu)
        big = 1 - small
    return (small, big) if x <= 0 else (big, small)


def _density(x, mu):
    """g_mu(x) = sin(pi mu) / (pi mu) / (2 cosh x + 2 cos(pi mu))."""
    with mp.workdps(100):
        mu = mp.mpf(mu)
        return mp.sin(mp.pi * mu) / (mp.pi * mu) / (2 * mp.cosh(x) + 2 * mp.cos(mp.pi * mu))


def _check(cdf, lower, upper, slack=0.0):
    """cdf against the lower tail and 1 - cdf against the upper tail."""
    lower_err = abs(mp.mpf(cdf) - lower)
    bound = 1e-13 * lower if lower >= TINY else 1e-15
    assert lower_err <= bound + slack, (cdf, lower, lower_err)
    upper_err = abs((1 - mp.mpf(cdf)) - upper)
    assert upper_err <= 1e-15 + slack, (cdf, upper, upper_err)


def _draw_mu(rng, size):
    """mu log-uniform down to 5e-324, and 1 - mu log-uniform down to 1e-9."""
    small = np.maximum(np.exp(rng.uniform(math.log(5e-324), math.log(0.5), size)), 5e-324)
    near_one = 1.0 - np.exp(rng.uniform(math.log(1e-9), math.log(0.5), size))
    return np.where(rng.random(size) < 0.5, small, near_one)


def _draw_unit(rng, size, floor):
    """Log-uniform over [5e-324, 1/2], mirrored to 1 - v half the time, so
    both ends are reached; a mirrored v stays above floor."""
    v = np.maximum(np.exp(rng.uniform(math.log(5e-324), math.log(0.5), size)), 5e-324)
    return np.where(rng.random(size) < 0.5, v, 1.0 - np.maximum(v, floor))


def test_ratio_power_cdf_matches_mpmath():
    rng = np.random.default_rng(101)
    mus = _draw_mu(rng, POINTS)
    ys = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), POINTS))
    for mu, y in zip(mus, ys):
        with mp.workdps(100):
            x = mp.log(mp.mpf(y))
        _check(ratio_power_cdf(y, mu), *_tails(x, mu))


def test_lamperti_cdf_matches_mpmath():
    # F(z) = P(L >= x) at x = log(p/q) + mu log((1-z)/z).  That x is rounded
    # before the tail sees it, so the bound also carries the change that 4
    # ulps of x make in F, g_mu(x) times 4 ulps, an ulp taken at the size of
    # x's largest term or 1, the size at which its logarithms are rounded.
    # As mu -> 1 the law is a step about cos(pi mu / 2) wide and that term
    # dominates.
    rng = np.random.default_rng(103)
    mus = _draw_mu(rng, POINTS)
    zs = _draw_unit(rng, POINTS, 0.0)
    ps = _draw_unit(rng, POINTS, 2.0 ** -53)
    for mu, z, p in zip(mus, zs, ps):
        if z in (0.0, 1.0):
            continue
        with mp.workdps(100):
            zm, pm = mp.mpf(z), mp.mpf(p)
            log_odds, log_z = mp.log(pm / (1 - pm)), mp.mpf(mu) * mp.log((1 - zm) / zm)
            x = log_odds + log_z
        scale = max(1.0, abs(float(log_odds)), abs(float(log_z)))
        slack = _density(x, mu) * 4.0 * math.ulp(scale)
        below, above = _tails(x, mu)  # P(A <= z) = P(L >= x)
        _check(LawSpec("lamperti", mu, p).cdf(z), above, below, slack)


def test_pinned_values():
    # symmetry gives 1/2 at y = 1 however narrow the law
    assert abs(ratio_power_cdf(1.0, 1.0 - 1e-8) - 0.5) <= math.ulp(0.5)
    # a lower tail far below the float epsilon keeps its digits
    assert math.isclose(ratio_power_cdf(1e-20, 0.3), 8.5839369133413974e-21, rel_tol=1e-15)
    assert math.isclose(LawSpec.spider(3).cdf(1e-20), 1.2732395447351628e-10, rel_tol=1e-14)
    # a small mu is not the mu -> 0 limit 3/4
    assert math.isclose(ratio_power_cdf(3.0, 5e-6), 0.75000000000385531, rel_tol=1e-15)


@pytest.mark.parametrize("mu", [5e-324, 1e-300, 0.5, 1.0 - 1e-9])
def test_endpoints_are_exact(mu):
    assert ratio_power_cdf(0.0, mu) == 0.0
    law = LawSpec("lamperti", mu, 0.3)
    assert law.cdf(0.0) == 0.0 and law.cdf(1.0) == 1.0
