import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate

from spiderlaw import (
    LawSpec,
    ParameterDomainError,
    build_density_curve,
    density_mean,
    fractional_moment,
    integrate_density,
    mellin_transform,
    ratio_power_cdf,
    ratio_power_pdf,
    stieltjes_transform,
)
from spiderlaw.laws import _g_mu, _integrate_log_ratio

GRID = np.arange(1, 1000) / 1000.0
ARCSINE = LawSpec.arcsine()


# ---------------------------------------------------------------------------
# arc-sine law
# ---------------------------------------------------------------------------

def test_arcsine_pdf_values():
    assert ARCSINE.pdf(0.5) == pytest.approx(2.0 / math.pi, abs=1e-15)
    # hand evaluation: 1/(pi sqrt(3)/4) = 4/(pi sqrt(3))
    assert ARCSINE.pdf(0.25) == pytest.approx(0.7351051938957228, abs=1e-12)


def test_arcsine_pdf_endpoint_domain():
    for z in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ParameterDomainError):
            ARCSINE.pdf(z)


def test_arcsine_cdf_values():
    assert ARCSINE.cdf(0.5) == pytest.approx(0.5, abs=1e-15)
    assert ARCSINE.cdf(1.0) == 1.0
    assert ARCSINE.cdf(0.0) == 0.0
    assert ARCSINE.cdf(0.25) == pytest.approx(1.0 / 3.0, abs=1e-14)


# ---------------------------------------------------------------------------
# ratio-power law
# ---------------------------------------------------------------------------

def test_ratio_power_pdf_values():
    assert ratio_power_pdf(1.0, 0.5) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert ratio_power_pdf(0.0, 0.5) == pytest.approx(2.0 / math.pi, abs=1e-15)
    with pytest.raises(ParameterDomainError):
        ratio_power_pdf(-0.5, 0.5)
    with pytest.raises(ParameterDomainError):
        ratio_power_pdf(1.0, 1.5)


@pytest.mark.parametrize("mu", [round(0.1 * k, 1) for k in range(1, 10)])
def test_ratio_power_pdf_normalises(mu):
    # in L = log Y the ratio-power density is g_mu
    g = lambda x: _g_mu(x, mu)
    assert _integrate_log_ratio(g, mu, -math.inf, math.inf) == pytest.approx(1.0, abs=1e-8)


def test_ratio_power_cdf_basics():
    assert ratio_power_cdf(0.0, 0.3) == 0.0
    assert ratio_power_cdf(1.0, 0.5) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("mu", [0.2, 0.5, 0.8])
def test_ratio_power_cdf_matches_quadrature(mu):
    g = lambda x: _g_mu(x, mu)
    for y in np.linspace(0.05, 8.0, 50):
        by_quad = _integrate_log_ratio(g, mu, -math.inf, math.log(y))
        assert ratio_power_cdf(y, mu) == pytest.approx(by_quad, abs=1e-8)


@pytest.mark.parametrize("mu", [5e-324, 1e-300, 1e-12, 1e-6, 2e-5, 1e-3])
def test_ratio_power_cdf_keeps_its_precision_as_mu_vanishes(mu):
    # F(1) = 1/2 at every mu, since X and 1/X share a law; the arctangent
    # difference in the closed form cancels as mu -> 0, where F(y) -> y/(1+y)
    assert ratio_power_cdf(1.0, mu) == pytest.approx(0.5, abs=1e-10)
    if mu <= 1e-6:
        # Lamperti's law tends to Bernoulli(p): P(A <= 1/2) -> 1 - p
        assert ratio_power_cdf(3.0, mu) == pytest.approx(0.75, abs=1e-10)
        assert LawSpec("lamperti", mu, 0.2).cdf(0.5) == pytest.approx(0.8, abs=1e-10)


# ---------------------------------------------------------------------------
# stable-ratio law on [0, 1]
# ---------------------------------------------------------------------------

def test_ratio_A_reduces_to_arcsine_at_half():
    gap = np.abs(LawSpec.ratio_a(0.5).pdf(GRID) - ARCSINE.pdf(GRID))
    assert gap.max() <= 1e-12


def test_ratio_A_symmetry_exact():
    # dyadic grid: 1 - z is exact, so z <-> 1-z swaps the two power terms
    # and equality holds bit for bit
    dyadic = np.arange(1, 1024) / 1024.0
    for mu in (0.2, 0.5, 0.85):
        law = LawSpec.ratio_a(mu)
        assert np.array_equal(law.pdf(dyadic), law.pdf(1.0 - dyadic))


@pytest.mark.parametrize("mu", [0.999, 0.99999, 1.0 - 1e-8])
def test_density_at_the_mode_keeps_its_precision_as_mu_nears_one(mu):
    # 1 + 2 cos(pi mu) + 1 cancels as mu -> 1; with d = 1 - mu the closed
    # forms at the mode are sin(pi d) / (pi sin^2(pi d / 2)) for ratio A at
    # 1/2 and sin(pi d) / (4 pi mu sin^2(pi d / 2)) for the ratio power at 1
    d = 1.0 - mu
    half = math.sin(0.5 * math.pi * d) ** 2
    assert LawSpec.ratio_a(mu).pdf(0.5) == pytest.approx(
        math.sin(math.pi * d) / (math.pi * half), rel=1e-13, abs=0.0)
    assert ratio_power_pdf(1.0, mu) == pytest.approx(
        math.sin(math.pi * d) / (4.0 * math.pi * mu * half), rel=1e-13, abs=0.0)


def test_ratio_A_normalises():
    law = LawSpec.ratio_a(0.25)
    assert integrate_density(law, 0.0, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_ratio_A_cdf_values():
    for mu in (0.2, 0.5, 0.8):
        law = LawSpec.ratio_a(mu)
        assert law.cdf(0.5) == pytest.approx(0.5, abs=1e-12)
        assert law.cdf(0.0) == 0.0
        assert law.cdf(1.0) == 1.0
    gap = np.abs(LawSpec.ratio_a(0.5).cdf(GRID) - ARCSINE.cdf(GRID))
    assert gap.max() <= 1e-10


@pytest.mark.parametrize("mu", [0.3, 0.6])
def test_ratio_A_cdf_derivative_matches_pdf(mu):
    h, law = 1e-6, LawSpec.ratio_a(mu)
    for z in np.linspace(0.05, 0.95, 19):
        fd = (law.cdf(z + h) - law.cdf(z - h)) / (2 * h)
        assert fd == pytest.approx(law.pdf(z), abs=1e-4)


def test_other_cdf_derivatives_match_pdfs():
    h, spider = 1e-6, LawSpec.spider(4)
    for y in np.linspace(0.2, 5.0, 13):
        fd = (ratio_power_cdf(y + h, 0.4) - ratio_power_cdf(y - h, 0.4)) / (2 * h)
        assert fd == pytest.approx(ratio_power_pdf(y, 0.4), abs=1e-4)
    for z in np.linspace(0.05, 0.95, 13):
        fd = (spider.cdf(z + h) - spider.cdf(z - h)) / (2 * h)
        assert fd == pytest.approx(spider.pdf(z), abs=1e-4)
        fd = (ARCSINE.cdf(z + h) - ARCSINE.cdf(z - h)) / (2 * h)
        assert fd == pytest.approx(ARCSINE.pdf(z), abs=1e-4)


# ---------------------------------------------------------------------------
# spider occupation marginal
# ---------------------------------------------------------------------------

def test_spider_pdf_reduces_to_arcsine_for_two_rays():
    gap = np.abs(LawSpec.spider(2).pdf(GRID) - ARCSINE.pdf(GRID))
    assert gap.max() <= 1e-12


def test_spider_pdf_value_three_rays():
    # hand evaluation: (1/pi) / ((1/2) (1 + 1/4)) = 8 / (5 pi)
    assert LawSpec.spider(3).pdf(0.5) == pytest.approx(0.5092958178940651, abs=1e-12)


def test_spider_pdf_not_symmetric_beyond_two_rays():
    law = LawSpec.spider(3)
    assert law.pdf(0.1) != pytest.approx(law.pdf(0.9), rel=1e-3)


@pytest.mark.parametrize("n", range(2, 11))
def test_spider_mean_is_one_over_n(n):
    law = LawSpec.spider(n)
    assert density_mean(law) == pytest.approx(1.0 / n, abs=1e-8)


def test_spider_cdf_reduces_and_matches_quadrature():
    assert LawSpec.spider(2).cdf(0.5) == pytest.approx(0.5, abs=1e-14)
    gap = np.abs(LawSpec.spider(2).cdf(GRID) - ARCSINE.cdf(GRID))
    assert gap.max() <= 1e-10
    for n in (3, 5):
        law = LawSpec.spider(n)
        for z in np.linspace(0.02, 0.98, 50):
            by_quad = integrate_density(law, 0.0, float(z))
            assert law.cdf(z) == pytest.approx(by_quad, abs=1e-8)


def test_spider_domain():
    with pytest.raises(ParameterDomainError):
        LawSpec.spider(1).pdf(0.5)
    with pytest.raises(ParameterDomainError):
        LawSpec.spider(2.5).cdf(0.5)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_stieltjes_values():
    assert stieltjes_transform(0.0, 0.3) == 1.0
    assert stieltjes_transform(1.0, 0.77) == pytest.approx(0.5, abs=1e-15)
    assert stieltjes_transform(4.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_mellin_values():
    assert mellin_transform(0.25, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert mellin_transform(1e-8, 0.5) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ParameterDomainError):
        mellin_transform(0.5, 0.5)
    with pytest.raises(ParameterDomainError):
        mellin_transform(0.0, 0.5)


def test_fractional_moment_values():
    assert fractional_moment(0.0, 0.4) == pytest.approx(1.0, abs=1e-14)
    # Gamma(1/2) / Gamma(3/4)
    assert fractional_moment(0.5, 0.5) == pytest.approx(1.4464090846320767, rel=1e-12)
    # Gamma(2) / Gamma(3/2) = 2 / sqrt(pi)
    assert fractional_moment(-1.0, 0.5) == pytest.approx(1.1283791670955126, rel=1e-12)
    # Gamma(151) / Gamma(76), finite although Gamma(151) alone is 5.7e262
    assert fractional_moment(-150.0, 0.5) == pytest.approx(2.3029350350664173e153, rel=2e-13)
    # Gamma(401) / Gamma(201) = 8.1e493, beyond the float range
    assert fractional_moment(-400.0, 0.5) == math.inf
    for s in (1.0, math.nan, -math.inf):
        with pytest.raises(ParameterDomainError):
            fractional_moment(s, 0.5)


def test_fractional_moment_matches_mpmath():
    # the stdlib gamma ratio holds to 2e-13 while Gamma(1 - s) is finite;
    # past s = -170 the lgamma difference holds to a few ulps of lgamma(1 - s),
    # where the moment is finite, and the rest is inf
    rng = np.random.default_rng(17)
    near = zip(rng.uniform(-170.0, 1.0, 300), 1.0 - rng.random(300))
    far_s = -np.exp(rng.uniform(math.log(171.0), math.log(1e6), 300))
    far_mu = 1.0 - rng.uniform(0.0, 800.0, 300) / (-far_s * np.log(-far_s))
    for s, mu in [*near, *zip(far_s, far_mu)]:
        with mpmath.workdps(40):
            exact = mpmath.gamma(1 - mpmath.mpf(s)) / mpmath.gamma(1 - mpmath.mpf(mu) * s)
        value = fractional_moment(s, mu)
        if exact > sys.float_info.max:
            assert value == math.inf
            continue
        bound = 2e-13 if s > -170.0 else 4.0 * sys.float_info.epsilon * math.lgamma(1.0 - s)
        assert abs(value - exact) <= bound * exact, (s, mu, value, exact)


@pytest.mark.parametrize("mu", [0.4, 0.6])
def test_transforms_match_quadrature_of_ratio_power(mu):
    # E[g(X)] = integral of the ratio-power density against g(y**(1/mu))
    pdf = lambda y: ratio_power_pdf(y, mu)
    for s in (0.5, 1.0, 2.0):
        val, _ = sp_integrate.quad(
            lambda y: pdf(y) / (1.0 + s * y ** (1.0 / mu)), 0.0, np.inf, limit=400)
        assert stieltjes_transform(s, mu) == pytest.approx(val, abs=1e-6)
    for s in (0.25 * mu, 0.5 * mu):
        val, _ = sp_integrate.quad(
            lambda y: pdf(y) * y ** (s / mu), 0.0, np.inf, limit=400)
        assert mellin_transform(s, mu) == pytest.approx(val, abs=1e-6)


# ---------------------------------------------------------------------------
# law specs, integration, curves
# ---------------------------------------------------------------------------

def test_lawspec_parameter_discipline():
    # every spec is a validated (mu, p) point; a law outside its domain is refused
    for make in (lambda: LawSpec.spider(1), lambda: LawSpec.spider(2.5),
                 lambda: LawSpec.ratio_a(1.5), lambda: LawSpec("ratio_a", mu=2.0)):
        with pytest.raises(ParameterDomainError):
            make()
    # the names and parameters the outputs show
    arc, ratio, spider = LawSpec.arcsine(), LawSpec.ratio_a(0.3), LawSpec.spider(5)
    assert (arc.mu, arc.p, ratio.mu, ratio.p, spider.mu, spider.p) == (
        0.5, 0.5, 0.3, 0.5, 0.5, 0.2)
    assert [law.label() for law in (arc, ratio, spider)] == [
        "arcsine", "ratio_a_mu0.3", "spider_occupation_n5"]
    assert [law.as_dict() for law in (arc, ratio, spider)] == [
        {"kind": "arcsine"}, {"kind": "ratio_a", "mu": 0.3},
        {"kind": "spider_occupation", "n": 5}]
    assert LawSpec.ratio_a(0.1234567).label() == "ratio_a_mu0.123457"
    assert LawSpec.spider(1234567).label() == "spider_occupation_n1234567"


def test_integrate_density_examples():
    arc = LawSpec.arcsine()
    assert integrate_density(arc, 0.0, 1.0) == pytest.approx(1.0, abs=1e-8)
    assert integrate_density(arc, 0.0, 0.25) == pytest.approx(1.0 / 3.0, abs=1e-8)
    spider3 = LawSpec.spider(3)
    assert integrate_density(spider3, 0.0, 1.0) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ParameterDomainError):
        integrate_density(arc, -0.5, 0.5)


def test_density_curve_roundtrip_invariants():
    for law in (LawSpec.arcsine(),
                LawSpec.ratio_a(0.3),
                LawSpec.spider(5)):
        curve = build_density_curve(law).validate()
        assert curve.grid[0] == 0.0 and curve.grid[-1] == 1.0
        assert len(curve.grid) == 1001
        z, pdf, _ = curve.interior()
        assert np.all(pdf > 0)
        assert z[0] == pytest.approx(0.001)


def test_density_curve_validation_catches_corruption():
    curve = build_density_curve(LawSpec.arcsine())
    curve.pdf_values = curve.pdf_values.copy()
    curve.pdf_values[500] *= 2.0
    with pytest.raises(ValueError):
        curve.validate()
