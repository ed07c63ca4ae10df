import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import special as sp_special

from spiderlaw import (
    ConvergencePoint,
    GofReport,
    LawSpec,
    NonFiniteSamplesError,
    ParameterDomainError,
    RngStream,
    SpiderConfig,
    StoppingRule,
    UsageError,
    build_density_curve,
    cauchy_square_convergence,
    composite_stream_id,
    fractional_moment,
    integrate_density,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    mc_transform_check,
    sample_occupation_exact,
    sample_positive_stable,
    summary_table,
    verify_occupation_identity,
    write_reports_jsonl,
)
from spiderlaw import output, rng, suites, walk
from spiderlaw.gof import Moments


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
    report = ks_one_sample(samples, LawSpec.arcsine().cdf, seed=1)
    assert report.statistic == pytest.approx(0.5 / m, abs=1e-12)
    assert report.passed


def test_ks_one_sample_degenerate_input():
    report = ks_one_sample([0.25] * 1000, LawSpec.arcsine().cdf, seed=1)
    assert report.statistic >= 0.5
    assert report.p_value < 1e-12
    assert not report.passed


def test_ks_one_sample_needs_samples():
    with pytest.raises(UsageError):
        ks_one_sample([0.1] * 9, LawSpec.arcsine().cdf)


@pytest.mark.parametrize("order", ["shuffled", "sorted"])
def test_ks_one_sample_matches_the_whole_array_formula(order):
    # the CDF and D+- are taken 2**14 sorted values at a time; a sample
    # already in order is not copied.  Neither may move the statistic.
    draws = LawSpec.arcsine().sample(RngStream(19, 0), 50_000)
    if order == "sorted":
        draws.sort()
    x = np.sort(draws)
    n = x.size
    c = LawSpec.arcsine().cdf(x)
    whole = float(max((np.arange(1, n + 1) / n - c).max(), (c - np.arange(0, n) / n).max()))
    report = ks_one_sample(draws, LawSpec.arcsine().cdf, seed=19)
    assert report.statistic == whole
    assert report.p_value == kolmogorov_sf(math.sqrt(n) * whole)
    assert -(-n // output._CHUNK_ROWS) == 4


def test_ks_one_sample_self_consistency():
    c = RngStream(7, 0).generator.standard_cauchy(100_000)
    draws = 1.0 / (1.0 + c * c)  # arc-sine by its Cauchy form
    assert ks_one_sample(draws, LawSpec.arcsine().cdf, seed=7).passed


def test_ks_two_sample_basics():
    a = np.linspace(0.0, 1.0, 500)
    identical = ks_two_sample(a, a.copy(), seed=0)
    assert identical.statistic == 0.0
    b = LawSpec.arcsine().sample(RngStream(7, 1), 50_000)
    c = LawSpec.arcsine().sample(RngStream(7, 2), 50_000)
    report = ks_two_sample(b, c, seed=7)
    assert report.passed
    sym = ks_two_sample(c, b, seed=7)
    assert sym.statistic == report.statistic
    with pytest.raises(UsageError):
        ks_two_sample([], [1.0])


def test_ks_two_sample_separates_arcsine_from_uniform():
    arc = LawSpec.arcsine().sample(RngStream(7, 3), 10_000)
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
    passes = mc_transform_check(Moments.of(draws), 0.0, name="mean0", seed=11)
    assert passes.passed
    assert (passes.n1, passes.seed) == (200_000, 11)
    # a 0.05 shift is ~22 standard errors at this sample size
    fails = mc_transform_check(Moments.of(draws), 0.05, name="mean-shifted", seed=11)
    assert not fails.passed


def test_mc_transform_check_rejects_nonfinite():
    with np.errstate(divide="ignore"):
        values = 1.0 / np.zeros(100)
    with pytest.raises(NonFiniteSamplesError):
        mc_transform_check(Moments.of(values), 1.0)


def test_chunked_moments_match_the_whole_array():
    # a fixed array folded in chunks of 2**14, the last one partial, against
    # numpy's mean and standard error of the whole array
    values = np.exp(RngStream(23, 0).generator.standard_normal(100_000))
    step = output._CHUNK_ROWS
    state = Moments()
    for lo in range(0, values.size, step):
        state = state.merge(Moments.of(values[lo:lo + step]))
    assert state.count == values.size and state.bad == 0
    assert state.mean == pytest.approx(values.mean(), rel=1e-12)
    assert math.sqrt(state.m2 / (state.count - 1)) == pytest.approx(values.std(ddof=1),
                                                                      rel=1e-12)
    se = values.std(ddof=1) / math.sqrt(values.size)
    target = 1.6
    chunked = mc_transform_check(state, target)
    assert chunked.statistic == pytest.approx(abs(values.mean() - target) / se, rel=1e-12)
    assert chunked.n1 == values.size
    # one array is numpy's own mean and standard error, bit for bit
    whole = mc_transform_check(Moments.of(values), target)
    assert whole.statistic == abs(values.mean() - target) / se


def test_chunked_moments_count_every_nonfinite_value():
    step = output._CHUNK_ROWS
    values = np.ones(2 * step + 100)
    values[-7] = np.inf
    state = Moments()
    for lo in range(0, values.size, step):
        state = state.merge(Moments.of(values[lo:lo + step]))
    with pytest.raises(NonFiniteSamplesError) as err:
        mc_transform_check(state, 1.0)
    assert (err.value.count, err.value.total) == (1, values.size)


def test_transform_tasks_memory_is_bounded():
    # each task draws and reduces its batch one chunk of 2**14 draws at a
    # time; only the ratio task keeps an n-length array, X^mu for its KS test
    for task, index, bound in ((suites._stable_checks, 2, 4), (suites._ratio_checks, 3, 20)):
        tracemalloc.start()
        try:
            reports = task(1, 0.5, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.n1 == 1_000_000 for r in reports)
        assert peak < bound * 2 ** 20, (task.__name__, peak)


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
    with pytest.raises(ParameterDomainError):
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


def test_occupation_tasks_build_the_first_return_table(monkeypatch):
    # the tasks run in forked workers, which inherit a table built by the
    # process that makes them instead of each building its own
    monkeypatch.setattr(walk, "_return_tail", None)
    suites.occupation_tasks(1)
    assert walk._return_tail is not None


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
    with pytest.raises(ParameterDomainError):
        cauchy_square_convergence((1,))


def test_convergence_point_domain():
    with pytest.raises(UsageError):
        ConvergencePoint(4, 1.5)


# ---------------------------------------------------------------------------
# input checks: every integer and open-interval input, across the package
# ---------------------------------------------------------------------------

_INTEGER_INPUTS = {
    "SpiderConfig.n": lambda v: SpiderConfig(n=v, steps=1000),
    "SpiderConfig.steps": lambda v: SpiderConfig(n=2, steps=v),
    "SpiderConfig.paths": lambda v: SpiderConfig(n=2, steps=1000, paths=v),
    "SpiderConfig.seed": lambda v: SpiderConfig(n=2, steps=1000, seed=v),
    "StoppingRule.ray": lambda v: StoppingRule.inverse_occupation(0.5, ray=v),
    "LawSpec.spider": LawSpec.spider,
    "arcsine size": lambda v: LawSpec.arcsine().sample(RngStream(0), v),
    "stable size": lambda v: sample_positive_stable(0.5, RngStream(0), v),
    "occupation size": lambda v: sample_occupation_exact(3, RngStream(0), v),
    "RngStream.seed": RngStream,
    "RngStream.stream_id": lambda v: RngStream(0, v),
    "composite_stream_id.run_id": lambda v: composite_stream_id(v, 0),
    "composite_stream_id.index": lambda v: composite_stream_id(0, v),
    "build_density_curve": lambda v: build_density_curve(LawSpec.arcsine(), v),
    "convergence.n": lambda v: cauchy_square_convergence((v,)),
    "convergence.grid_size": lambda v: cauchy_square_convergence((2,), grid_size=v),
    "occupation_identity.n": verify_occupation_identity,
    "occupation_identity.steps": lambda v: verify_occupation_identity(2, 100, v),
    "occupation_identity.paths": lambda v: verify_occupation_identity(2, v, 1000),
    "occupation_identity.seed": lambda v: verify_occupation_identity(2, 100, 1000, v),
}
_REAL_INPUTS = {
    "LawSpec.ratio_a": LawSpec.ratio_a,
    "LawSpec.p": lambda v: LawSpec("x", 0.5, v),
    "sample_positive_stable.mu": lambda v: sample_positive_stable(v, RngStream(0), 1),
    "StoppingRule.level": StoppingRule.inverse_local_time,
    "fractional_moment.s": lambda v: fractional_moment(v, 0.5),
    "arcsine cdf": LawSpec.arcsine().cdf,
    "ratio_a pdf": LawSpec.ratio_a(0.5).pdf,
    "integrate_density.a": lambda v: integrate_density(LawSpec.arcsine(), v, 1),
}


@pytest.mark.parametrize(
    "site,value",
    [(site, v) for site in _INTEGER_INPUTS for v in (1.5, math.nan, math.inf, None)]
    + [(site, v) for site in _REAL_INPUTS for v in (math.nan, math.inf, None, "a", "0.5")])
def test_an_input_outside_its_domain_is_refused(site, value):
    # never truncated (1.5 as 1) and never a raw TypeError, ValueError or
    # OverflowError from int() or float()
    call = _INTEGER_INPUTS.get(site) or _REAL_INPUTS[site]
    with pytest.raises(ParameterDomainError):
        call(value)
