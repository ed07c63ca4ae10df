import math

import pytest
from scipy import integrate as sp_integrate

from spiderlaw import LawKind, LawSpec, ParameterDomainError, density_mean, integrate_density
from spiderlaw.quadrature import (
    QuadratureError,
    adaptive_quadrature,
    integrate_half_line,
    integrate_unit_interval_pair,
)


def test_polynomial_is_exact():
    assert adaptive_quadrature(lambda x: 3 * x * x, 0.0, 2.0) == pytest.approx(8.0, abs=1e-12)


def test_oscillatory_vs_scipy():
    f = lambda x: math.sin(40 * x) * math.exp(-x)
    ours = adaptive_quadrature(f, 0.0, 3.0, local_tol=1e-12)
    ref, _ = sp_integrate.quad(f, 0.0, 3.0, epsabs=1e-13, limit=200)
    assert ours == pytest.approx(ref, abs=1e-10)


def test_square_root_singularity_via_substitution():
    # 1 / (pi sqrt(z(1-z))) integrates to exactly 1
    f = lambda z, w: 1.0 / (math.pi * math.sqrt(z * (1.0 - z)))
    assert integrate_unit_interval_pair(f, 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert integrate_unit_interval_pair(f, 0.0, 0.25) == pytest.approx(
        1.0 / 3.0, abs=1e-10)


def test_strong_power_singularity():
    # z**-0.9 has an integrable singularity harsher than the square root
    f = lambda z, w: 0.1 * z ** (-0.9)
    assert integrate_unit_interval_pair(f, 0.0, 1.0, max_panels=16384) == pytest.approx(
        1.0, abs=1e-8)


def test_half_line_cauchy_tail():
    f = lambda y: 1.0 / (math.pi * (1.0 + y * y))
    assert integrate_half_line(f, 0.0) == pytest.approx(0.5, abs=1e-10)
    assert integrate_half_line(f, 1.0, 4.0) == pytest.approx(
        (math.atan(4) - math.atan(1)) / math.pi, abs=1e-10)


def test_domain_errors():
    with pytest.raises(ParameterDomainError):
        adaptive_quadrature(lambda x: x, 1.0, 0.0)
    with pytest.raises(ParameterDomainError):
        integrate_unit_interval_pair(lambda z, w: z, -0.1, 0.5)
    with pytest.raises(ParameterDomainError):
        integrate_half_line(lambda y: y, -1.0, 2.0)


def test_budget_exhaustion_raises():
    f = lambda z: z ** (-0.999)  # barely integrable; tiny budget must fail
    with pytest.raises(QuadratureError):
        adaptive_quadrature(f, 1e-300, 1.0, local_tol=1e-12, max_panels=8)


def test_non_finite_integral_raises():
    # an overflowing panel has a NaN error estimate, which used to stop
    # refinement and let inf through as the value
    with pytest.raises(QuadratureError, match="non-finite"):
        adaptive_quadrature(lambda x: math.inf if x < 0.5 else 1.0, 0.0, 1.0)
    with pytest.raises(QuadratureError, match="non-finite"):
        adaptive_quadrature(lambda x: 1.0 / x if x > 0.0 else 0.0, 0.0, 1e-310)
    law = LawSpec(LawKind.STABLE_RATIO_A, mu=0.02)  # the density overflows near 0
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_density(law, 0.0, 1.0)
    with pytest.raises(QuadratureError, match="non-finite"):
        density_mean(law)
