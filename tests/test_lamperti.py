"""Properties of Lamperti's (mu, p) law over its whole parameter domain.

Hypothesis draws (mu, p) from the open unit square and n from [2, 32767],
deterministically (``derandomize=True``) and without an example database,
so every run checks the same points.  Quadrature runs in L = log(X**mu),
where p only shifts the map to A; its properties take mu up to 1 - 1e-8.
"""
import math

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from spiderlaw import (
    LawSpec,
    RngStream,
    density_mean,
    ks_one_sample,
    ks_two_sample,
)
from spiderlaw.laws import _g_mu, _integrate_log_ratio, _log_ratio_at

PROPERTY = settings(derandomize=True, database=None, deadline=None)
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
QUADRATURE_MU = st.floats(0.0, 1.0 - 1e-8, exclude_min=True)
RAYS = st.integers(2, 32767)
GRID = np.arange(1, 1000) / 1000.0


def _band(hits, expected, band=4.0):
    se = math.sqrt(max(expected * (1.0 - expected), 1e-300) / hits.size)
    return abs(hits.mean() - expected) <= band * se + 1.0 / hits.size


@PROPERTY
@given(mu=UNIT, p=UNIT, z=st.lists(UNIT, min_size=1, max_size=20))
def test_pdf_is_nonnegative(mu, p, z):
    for points in (np.asarray(z), GRID):
        dens = LawSpec("lamperti", mu, p).pdf(points)
        assert not np.isnan(dens).any()
        assert (dens >= 0.0).all()


@PROPERTY
@given(mu=UNIT, p=UNIT, z=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_cdf_is_monotone_from_zero_to_one(mu, p, z):
    points = np.sort(np.concatenate([[0.0, 1.0], z, GRID]))
    cdf = LawSpec("lamperti", mu, p).cdf(points)
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert ((cdf >= 0.0) & (cdf <= 1.0)).all()
    assert (np.diff(cdf) >= 0.0).all()


@PROPERTY
@given(z=UNIT, n=RAYS)
def test_spider_is_the_point_half_one_over_n(z, n):
    # LawSpec.spider(n) is this parameter map, and both agree with the
    # spider law's own closed forms
    law = LawSpec("lamperti", 0.5, 1.0 / n)
    pdf, cdf = law.pdf(z), law.cdf(z)
    assert pdf == LawSpec.spider(n).pdf(z) and cdf == LawSpec.spider(n).cdf(z)
    w = 1.0 - z
    direct = 1.0 / (math.pi * math.sqrt(z * w) * ((n - 1) * z + w / (n - 1)))
    assert math.isclose(pdf, direct, rel_tol=1e-14)
    # (2/pi) arctan((n-1) sqrt(z/(1-z))) has no cancellation near z = 0
    direct = (2.0 / math.pi) * math.atan((n - 1) * math.sqrt(z / w))
    assert math.isclose(cdf, direct, rel_tol=1e-14, abs_tol=2.3e-16)


@PROPERTY
@given(mu=QUADRATURE_MU, p=UNIT, z=UNIT)
def test_quadrature_normalises_the_pdf(mu, p, z):
    # in L the density is g_mu whatever p is, so the normalisation is one
    # integral; p enters through the mass below z, against the closed-form
    # CDF, and through Lamperti's mean E[A] = p
    g = lambda x: _g_mu(x, mu)
    total = _integrate_log_ratio(g, mu, -math.inf, math.inf)
    below = _integrate_log_ratio(g, mu, _log_ratio_at(z, mu, p), math.inf)
    mean = density_mean(LawSpec("lamperti", mu, p))
    note(f"integral {total!r}, mass below z {below!r}, mean {mean!r}")
    assert abs(total - 1.0) <= 1e-8
    assert abs(below - LawSpec("lamperti", mu, p).cdf(z)) <= 1e-8
    assert abs(mean - p) <= 1e-8


@pytest.mark.parametrize("mu, log_odds", [
    (1e-3, 3.0),  # the mean's expit step, narrower than the first panels
    (0.02, -10.0),
    (1.0 - 1e-14, -1.0),  # a mode narrower than the first panels
    (1.0 - 2.0 ** -53, 0.0),
])
def test_quadrature_resolves_narrow_features(mu, log_odds):
    p = 1.0 / (1.0 + math.exp(-log_odds))
    g = lambda x: _g_mu(x, mu)
    assert abs(_integrate_log_ratio(g, mu, -math.inf, math.inf) - 1.0) <= 1e-8
    assert abs(density_mean(LawSpec("lamperti", mu, p)) - p) <= 1e-8


@settings(PROPERTY, max_examples=12)
@given(mu=UNIT, p=UNIT)
def test_sampler_matches_the_closed_form(mu, p):
    # KS over the draws inside [2^-20, 1 - 2^-20], against the CDF
    # conditioned on that window; draws outside it may round to 0.0 or
    # 1.0, so the mass on either side is checked by a 4-sigma band.  KS
    # assumes a continuous law: where the law is narrower than a few float
    # spacings (mu within ulps of 1, all mass at A = p) the draws repeat
    # and only the bands apply
    law = LawSpec("lamperti", mu, p)
    a = law.sample(RngStream(23, 0), 20_000)
    lo, hi = 2.0 ** -20, 1.0 - 2.0 ** -20
    f_lo, f_hi = law.cdf(lo), law.cdf(hi)
    body = a[(a >= lo) & (a <= hi)]
    note(f"body {body.size} ({np.unique(body).size} distinct), F(lo) {f_lo!r}, "
         f"F(hi) {f_hi!r}")
    if body.size >= 100 and np.unique(body).size == body.size:
        report = ks_one_sample(
            body, lambda z: (law.cdf(z) - f_lo) / (f_hi - f_lo), seed=23)
        assert report.p_value >= 1e-3, report.p_value
    assert _band(a < lo, f_lo)
    assert _band(a > hi, 1.0 - f_hi)


@settings(PROPERTY, max_examples=6)
@given(n=RAYS)
def test_spider_point_matches_the_cauchy_sampler(n):
    # against the spider marginal's Cauchy form 1 / (1 + (n-1)^2 C^2)
    a = LawSpec.spider(n).sample(RngStream(29, 0), 20_000)
    c = RngStream(29, 1).generator.standard_cauchy(20_000)
    b = 1.0 / (1.0 + (n - 1) ** 2 * c * c)
    report = ks_two_sample(a, b, seed=29)
    assert report.p_value >= 1e-3, report.p_value
