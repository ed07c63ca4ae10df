import math
import os

import numpy as np
import pytest
from scipy import special as sp_special

from spiderlaw import (
    ConvergencePoint,
    GofReport,
    NonFiniteSamplesError,
    RngStream,
    UsageError,
    arcsine_cdf,
    cauchy_square_convergence,
    composite_stream_id,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    mc_transform_check,
    sample_arcsine,
    summary_table,
    verify_occupation_identity,
    write_reports_jsonl,
)
from spiderlaw import rng, walk


def test_kolmogorov_sf_matches_scipy():
    for t in np.linspace(0.2, 3.0, 60):
        assert kolmogorov_sf(t) == pytest.approx(float(sp_special.kolmogorov(t)), abs=1e-10)
    assert kolmogorov_sf(0.0) == 1.0


def test_kolmogorov_sf_monotone():
    # monotone up to the 1e-12 series-truncation jitter
    grid = np.linspace(0.05, 4.0, 200)
    values = [kolmogorov_sf(t) for t in grid]
    assert all(a >= b - 5e-12 for a, b in zip(values, values[1:]))


def test_ks_one_sample_plugin_identity():
    # exact quantiles at (k - 1/2)/m leave a sup gap of exactly 0.5/m
    m = 400
    samples = [0.0] * m
    for k in range(1, m + 1):
        samples[k - 1] = math.sin(math.pi * (k - 0.5) / m / 2) ** 2  # arcsine quantiles
    report = ks_one_sample(samples, arcsine_cdf, seed=1)
    assert report.statistic == pytest.approx(0.5 / m, abs=1e-12)
    assert report.passed


def test_ks_one_sample_degenerate_input():
    report = ks_one_sample([0.25] * 1000, arcsine_cdf, seed=1)
    assert report.statistic >= 0.5
    assert report.p_value < 1e-12
    assert not report.passed


def test_ks_one_sample_needs_samples():
    with pytest.raises(UsageError):
        ks_one_sample([0.1] * 9, arcsine_cdf)


def test_ks_one_sample_self_consistency():
    draws = sample_arcsine(RngStream(7, 0), 100_000, method="cauchy")
    assert ks_one_sample(draws, arcsine_cdf, seed=7).passed


def test_ks_two_sample_basics():
    a = np.linspace(0.0, 1.0, 500)
    identical = ks_two_sample(a, a.copy(), seed=0)
    assert identical.statistic == 0.0
    b = sample_arcsine(RngStream(7, 1), 50_000)
    c = sample_arcsine(RngStream(7, 2), 50_000)
    report = ks_two_sample(b, c, seed=7)
    assert report.passed
    sym = ks_two_sample(c, b, seed=7)
    assert sym.statistic == report.statistic
    with pytest.raises(UsageError):
        ks_two_sample([], [1.0])


def test_ks_two_sample_separates_arcsine_from_uniform():
    arc = sample_arcsine(RngStream(7, 3), 10_000)
    uni = RngStream(7, 4).generator.random(10_000)
    report = ks_two_sample(arc, uni, seed=7)
    # the sup CDF gap between the two laws is ~0.105, far above noise
    assert report.p_value < 1e-6
    assert report.statistic > 0.08


def test_p_value_decreases_with_statistic():
    n = 10_000
    stats = (0.005, 0.01, 0.02, 0.05)
    ps = [kolmogorov_sf(math.sqrt(n) * d) for d in stats]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_mc_transform_check_calibration():
    draws = RngStream(11, 0).generator.standard_normal(200_000)
    passes = mc_transform_check(draws, 0.0, name="mean0", seed=11)
    assert passes.passed
    assert (passes.n1, passes.seed) == (200_000, 11)
    # a 0.05 shift is ~22 standard errors at this sample size
    fails = mc_transform_check(draws, 0.05, name="mean-shifted", seed=11)
    assert not fails.passed


def test_mc_transform_check_rejects_nonfinite():
    with np.errstate(divide="ignore"):
        values = 1.0 / np.zeros(100)
    with pytest.raises(NonFiniteSamplesError):
        mc_transform_check(values, 1.0)


def test_transform_suite_draw_budget(monkeypatch):
    # per mu one stable batch and one ratio batch (two stable batches):
    # 3 mu x 3 batches x 1e6 = 9e6 Kanter draws for 30 reports of 1e6 each,
    # counted at the kernel that every stable-based sampler draws through,
    # on one CPU, so that every draw is made in this process
    import spiderlaw.samplers as samplers
    import spiderlaw.suites as suites

    drawn = []
    real = samplers._kanter

    def counting(mu, rng, size, meta):
        drawn.append(size)
        return real(mu, rng, size, meta)

    monkeypatch.setattr(samplers, "_kanter", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    reports = suites.transform_suite(3)
    assert len(reports) == 30
    assert all(r.n1 == 1_000_000 and r.seed == 3 for r in reports)
    assert sum(drawn) == 9_000_000


def test_report_serialisation(tmp_path):
    report = GofReport("demo", 0.5, 0.25, 10, 0, 3, 0.01, "p_min")
    line = report.to_json_line()
    assert '"verdict": "pass"' in line
    path = tmp_path / "reports.jsonl"
    write_reports_jsonl([report], path)
    assert path.read_text().count("\n") == 1
    table = summary_table([report])
    assert "demo" in table and "pass" in table


def test_verify_occupation_identity_validation():
    with pytest.raises(UsageError):
        verify_occupation_identity(1)


def test_verify_occupation_identity_small_scale():
    # wiring check at loose threshold; the strict run lives in the acceptance suite
    reports = verify_occupation_identity(2, paths=2000, steps=2000, seed=13,
                                         threshold=0.10)
    assert len(reports) == 7  # six pairs plus one closed-form comparison
    names = [r.test_name for r in reports]
    assert all("occupation_identity" in name for name in names)
    failed = [r for r in reports if not r.passed]
    assert not failed, [(r.test_name, r.statistic) for r in failed]


def test_occupation_identity_walks_clear_of_the_exact_stream(monkeypatch):
    # walk paths and RngStream share one key namespace: the walks run on
    # runs 1-3, the exact sampler on composite_stream_id(0, 0)
    build = rng.philox_state
    walk_keys, stream_keys = set(), set()

    def recorder(keys):
        def record(seed, stream_id, block=0):
            keys.add((seed, stream_id))
            return build(seed, stream_id, block)
        return record

    monkeypatch.setattr(walk, "philox_state", recorder(walk_keys))
    monkeypatch.setattr(rng, "philox_state", recorder(stream_keys))
    verify_occupation_identity(3, paths=500, steps=1000, seed=13)
    assert (13, composite_stream_id(0, 0)) in stream_keys
    assert len(walk_keys) == 3 * 500
    assert not walk_keys & stream_keys


def test_verify_reports_reproducible_bitwise():
    a = verify_occupation_identity(3, paths=500, steps=1000, seed=13, threshold=0.2)
    b = verify_occupation_identity(3, paths=500, steps=1000, seed=13, threshold=0.2)
    assert [(r.test_name, r.statistic, r.p_value) for r in a] == \
        [(r.test_name, r.statistic, r.p_value) for r in b]
    assert len(a) == 13  # six pairs per probe (coord1, coord1+2) plus closed form


def test_cauchy_square_convergence_values():
    points = cauchy_square_convergence((2, 4, 8, 16, 32, 64))
    distances = [p.distance for p in points]
    # the largest gap sits at the support corner: (2/pi) arctan(1/n)
    for point in points:
        assert point.distance == pytest.approx(
            (2.0 / math.pi) * math.atan(1.0 / point.n), abs=1e-9)
    assert all(a > b for a, b in zip(distances, distances[1:]))
    assert distances[-1] < 0.02


def test_cauchy_square_convergence_grid_stable():
    coarse = cauchy_square_convergence((2, 8, 64), grid_size=1000)
    fine = cauchy_square_convergence((2, 8, 64), grid_size=10_000)
    for a, b in zip(coarse, fine):
        assert abs(a.distance - b.distance) < 1e-4


def test_cauchy_square_convergence_is_deterministic():
    a = cauchy_square_convergence((2, 16))
    b = cauchy_square_convergence((2, 16))
    assert a == b
    with pytest.raises(UsageError):
        cauchy_square_convergence((1,))


def test_convergence_point_domain():
    with pytest.raises(UsageError):
        ConvergencePoint(4, 1.5)
