import json
import math
from dataclasses import replace

import numpy as np
import pytest

from spiderlaw import (
    CapBreachedError,
    ParameterDomainError,
    RngStream,
    SpiderConfig,
    SpiderPathSummary,
    StoppingRule,
    UsageError,
    arcsine_cdf,
    composite_stream_id,
    ks_one_sample,
    ks_two_sample,
    last_zero_fraction,
    local_time_proxy,
    occupation_fraction,
    simulate_batch,
    simulate_path,
    stop_at,
    stop_batch,
    verify_occupation_identity,
)
from spiderlaw.walk import (
    _first_return_lengths,
    run_walk_batch,
    write_batch_csv,
    write_run_manifest,
)


# ---------------------------------------------------------------------------
# configuration and summary types
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ParameterDomainError):
        SpiderConfig(n=0, steps=2000)
    with pytest.raises(ParameterDomainError):
        SpiderConfig(n=2, steps=500)  # statistical runs need >= 1000 steps
    SpiderConfig(n=2, steps=500, allow_small_steps=True)
    with pytest.raises(ParameterDomainError):
        SpiderConfig(n=2, steps=2000, paths=0)


def test_summary_invariants():
    with pytest.raises(ParameterDomainError):
        SpiderPathSummary(2, 10, (3, 6), 1, 4, 0)  # counts don't sum
    with pytest.raises(ParameterDomainError):
        SpiderPathSummary(2, 10, (3, 7), 0, 4, 0)  # no origin visit
    with pytest.raises(ParameterDomainError):
        SpiderPathSummary(2, 10, (3, 7), 1, 12, 0)  # last zero too late


def test_occupation_fraction_arithmetic():
    summary = SpiderPathSummary(2, 10, (3, 7), 2, 6, 1)
    assert occupation_fraction(summary).fractions == (0.3, 0.7)
    with pytest.raises(UsageError):
        occupation_fraction(SpiderPathSummary(1, 10, (10,), 2, 6, 0))


def test_last_zero_and_proxy_arithmetic():
    summary = SpiderPathSummary(2, 10_000, (4000, 6000), 100, 0, 1)
    assert last_zero_fraction(summary) == 0.0  # never returned after the start
    assert local_time_proxy(summary) == pytest.approx(1.0)
    late = SpiderPathSummary(2, 10_000, (4000, 6000), 180, 9_200, 1)
    assert 0.0 <= last_zero_fraction(late) <= 1.0
    assert local_time_proxy(late) > local_time_proxy(summary)


def test_stopping_rule_validation():
    with pytest.raises(ParameterDomainError):
        StoppingRule("sometime", 1.0)
    with pytest.raises(ParameterDomainError):
        StoppingRule.fixed_time(0.0)
    with pytest.raises(ParameterDomainError):
        StoppingRule("inverse_occupation", 0.5)  # ray index missing
    with pytest.raises(ParameterDomainError):
        StoppingRule.inverse_occupation(0.5, ray=3).validate_for(
            SpiderConfig(n=2, steps=2000))
    with pytest.raises(ParameterDomainError):
        # level so small the rule would fire before the first origin visit
        StoppingRule.inverse_local_time(1e-4).validate_for(
            SpiderConfig(n=2, steps=2000))


# ---------------------------------------------------------------------------
# determinism and engine identities
# ---------------------------------------------------------------------------

def test_batch_reproducible_and_size_independent():
    config = SpiderConfig(n=3, steps=1500, paths=300, seed=17, allow_small_steps=True)
    a = simulate_batch(config, run_id=2)
    b = simulate_batch(config, run_id=2)
    c = simulate_batch(replace(config, paths=40), run_id=2)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.counts[:40], c.counts)
    assert np.array_equal(a.zero_visits[:40], c.zero_visits)
    assert np.array_equal(a.last_zero_step[:40], c.last_zero_step)


def test_single_path_equals_batch_row():
    config = SpiderConfig(n=3, steps=1200, paths=40, seed=23, allow_small_steps=True)
    batch = simulate_batch(config, run_id=0)
    for p in (0, 7, 39):
        summary = simulate_path(config, RngStream(23, composite_stream_id(0, p)))
        assert summary.occupation_counts == tuple(batch.counts[p])
        assert summary.zero_visits == batch.zero_visits[p]
        assert summary.last_zero_step == batch.last_zero_step[p]
        assert summary.final_ray == batch.final_ray[p]


def test_conservation_every_path():
    for n in (1, 2, 5):
        config = SpiderConfig(n=n, steps=2048, paths=200, seed=3, allow_small_steps=True)
        batch = simulate_batch(config)
        assert (batch.counts.sum(axis=1) == 2048).all()
        assert (batch.zero_visits >= 1).all()
        assert (batch.last_zero_step <= 2048).all()


def test_fixed_time_stop_equals_plain_batch():
    config = SpiderConfig(n=2, steps=1024, paths=100, seed=5, allow_small_steps=True)
    walk = simulate_batch(config, run_id=9)
    stopped = stop_batch(config, StoppingRule.fixed_time(1.0), run_id=9)
    assert np.array_equal(walk.counts, stopped.counts)
    assert (stopped.stopped_step == 1024).all()
    assert stopped.discard_count == 0


def test_exact_landing_on_the_horizon():
    # the first excursion has length 2 with probability 1/2; when it ends
    # exactly at the horizon it is complete and the path ends at the origin
    config = SpiderConfig(n=3, steps=2, paths=4000, seed=73, allow_small_steps=True)
    batch = simulate_batch(config)
    landed = batch.zero_visits == 2
    assert (batch.last_zero_step[landed] == 2).all()
    assert (batch.last_zero_step[~landed] == 0).all()
    assert (batch.zero_visits[~landed] == 1).all()
    assert abs(landed.mean() - 0.5) <= 4.0 * math.sqrt(0.25 / 4000)
    assert (batch.counts.sum(axis=1) == 2).all()
    # a path of one step cannot return
    one = simulate_batch(replace(config, steps=1))
    assert (one.zero_visits == 1).all() and (one.last_zero_step == 0).all()
    assert (one.counts.sum(axis=1) == 1).all()


def test_first_return_lengths_on_unit_interval_edges():
    lengths = _first_return_lengths(np.array([1.0, 0.5, 2.0 ** -53]))
    assert lengths[0] == 2.0 and lengths[1] == 4.0  # length 2 iff u > P(T > 2) = 1/2
    assert np.isfinite(lengths[2]) and lengths[2] > 2.0 ** 21


def test_ray_relabelling_leaves_marginals_unchanged():
    # exchangeability probed across independent batches (coordinates of one
    # path are dependent, so each pool comes from its own run)
    config = SpiderConfig(n=3, steps=2000, paths=3000, seed=31, allow_small_steps=True)
    pools = [simulate_batch(config, run_id=r).fractions[:, r] for r in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            report = ks_two_sample(pools[i], pools[j], seed=31,
                                   name=f"exchangeable:{i}~{j}")
            assert report.passed, (report.test_name, report.p_value)


def test_two_ray_occupation_close_to_arcsine():
    config = SpiderConfig(n=2, steps=5000, paths=2000, seed=37)
    batch = simulate_batch(config)
    report = ks_one_sample(batch.fractions[:, 0], arcsine_cdf, seed=37,
                           threshold=0.05, rule="stat_max")
    assert report.passed, report.statistic


def test_three_ray_occupation_matches_closed_form():
    from spiderlaw import spider_cdf

    config = SpiderConfig(n=3, steps=20_000, paths=5000, seed=67)
    batch = simulate_batch(config)
    report = ks_one_sample(batch.fractions[:, 0], lambda z: spider_cdf(z, 3),
                           seed=67, threshold=0.02, rule="stat_max")
    assert report.passed, report.statistic


# ---------------------------------------------------------------------------
# stopping rules: pinning, discards, engine cross-validation
# ---------------------------------------------------------------------------

def test_inverse_occupation_pins_target_coordinate():
    config = SpiderConfig(n=3, steps=2000, paths=200, seed=41, allow_small_steps=True)
    level = 0.37
    batch = stop_batch(config, StoppingRule.inverse_occupation(level, ray=1), run_id=2)
    kept = batch.kept
    pinned = batch.counts[kept, 0]
    assert (pinned == math.floor(level * 2000) + 1).all()
    # the pinned fraction is level*steps/stopped_step up to 1/stopped_step
    assert (np.abs(pinned - level * 2000) <= 1.0).all()
    assert np.allclose(batch.fractions[:, 0] * batch.kept_stopped_steps, pinned)


def test_stopped_counts_sum_to_stopping_time():
    # the stopping time decomposes exactly into the per-ray occupations
    config = SpiderConfig(n=4, steps=1500, paths=150, seed=71, allow_small_steps=True)
    for run_id, rule in enumerate((StoppingRule.fixed_time(1.0),
                                   StoppingRule.inverse_occupation(0.5, ray=3),
                                   StoppingRule.inverse_local_time(1.0))):
        batch = stop_batch(config, rule, run_id=run_id)
        kept = batch.kept
        assert np.array_equal(batch.counts[kept].sum(axis=1),
                              batch.stopped_step[kept].astype(float))


def test_stop_at_matches_batch_rows():
    config = SpiderConfig(n=3, steps=1500, paths=30, seed=43, allow_small_steps=True)
    for rule, run_id in ((StoppingRule.inverse_local_time(1.0), 3),
                         (StoppingRule.inverse_occupation(0.5, ray=2), 4),
                         (StoppingRule.fixed_time(0.5), 5)):
        batch = stop_batch(config, rule, run_id=run_id)
        for p in (0, 13):
            if batch.discarded[p]:
                continue
            vec, step = stop_at(config, rule, RngStream(43, composite_stream_id(run_id, p)))
            assert step == batch.stopped_step[p]
            assert np.allclose(vec.as_array() * step, batch.counts[p], atol=1e-9)


def test_tiny_cap_discards_and_raises():
    config = SpiderConfig(n=2, steps=1000, paths=300, seed=47, allow_small_steps=True)
    rule = StoppingRule.inverse_local_time(1.0, cap_multiplier=1.0)
    batch = stop_batch(config, rule, run_id=6)
    assert batch.discard_count > 0
    assert batch.discarded.shape == (300,)
    discarded_path = int(np.flatnonzero(batch.discarded)[0])
    with pytest.raises(CapBreachedError):
        stop_at(config, rule, RngStream(47, composite_stream_id(6, discarded_path)))
    # the discard-budget guard trips whenever the observed fraction exceeds it
    with pytest.raises(UsageError):
        verify_occupation_identity(2, paths=300, steps=1000, seed=47,
                                   max_discard_fraction=-1.0)


def test_stop_rules_need_two_rays():
    config = SpiderConfig(n=1, steps=1000, paths=10, seed=1, allow_small_steps=True)
    with pytest.raises(UsageError):
        stop_batch(config, StoppingRule.fixed_time(1.0))


class _BufferedWalk:
    """Honest per-step reference walk, fed by buffered uniforms."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._buf = self._rng.random(1 << 14)
        self._i = 0

    def _u(self):
        if self._i >= self._buf.size:
            self._buf = self._rng.random(1 << 14)
            self._i = 0
        v = self._buf[self._i]
        self._i += 1
        return v

    def stop(self, n, steps, rule, level, ray_j, cap):
        """(first-ray fraction, last-zero fraction, zero visits), or None at the cap."""
        counts = [0] * n
        d = 0
        ray = -1
        zero_visits = 1
        last_zero = 0
        t = 0
        horizon = max(1, round(level * steps))
        occ_threshold = math.floor(level * steps) + 1
        lt_threshold = math.floor(level * math.sqrt(steps))
        while True:
            if t >= cap:
                return None
            if d == 0:
                ray = int(self._u() * n)
                d = 1
            else:
                d += 1 if self._u() < 0.5 else -1
            t += 1
            counts[ray] += 1
            if d == 0:
                zero_visits += 1
                last_zero = t
            if (
                (rule == "fixed" and t == horizon)
                or (rule == "lt" and zero_visits > lt_threshold)
                or (rule == "occ" and ray == ray_j and counts[ray_j] >= occ_threshold)
            ):
                return counts[0] / t, last_zero / t, zero_visits


@pytest.mark.parametrize("rule_kind", ["lt", "occ", "fixed"])
def test_excursion_engine_matches_stepwise_reference(rule_kind):
    # same cap on both sides, so truncation affects both marginals identically
    n, steps, paths, cap_mult = 3, 1000, 2500, 50.0
    config = SpiderConfig(n=n, steps=steps, paths=paths, seed=53,
                          allow_small_steps=True)
    if rule_kind == "lt":
        rule = StoppingRule.inverse_local_time(1.0, cap_multiplier=cap_mult)
    elif rule_kind == "occ":
        rule = StoppingRule.inverse_occupation(0.5, ray=2, cap_multiplier=cap_mult)
    else:
        rule = StoppingRule.fixed_time(1.0, cap_multiplier=cap_mult)
    batch = stop_batch(config, rule, run_id=1)
    kept = batch.kept
    ours = {"fraction": batch.fractions[:, 0]}
    if rule_kind == "fixed":
        ours["last_zero"] = batch.last_zero_step[kept] / batch.stopped_step[kept]
        ours["zero_visits"] = batch.zero_visits[kept]

    reference = _BufferedWalk(seed=54)
    cap = rule.cap_steps(config)
    ref = []
    for _ in range(paths):
        value = reference.stop(n, steps, rule_kind, rule.level,
                               1 if rule_kind == "occ" else None, cap)
        if value is not None:
            ref.append(value)
    ref = dict(zip(("fraction", "last_zero", "zero_visits"), np.asarray(ref).T))
    for key, values in ours.items():
        report = ks_two_sample(values, ref[key], seed=53,
                               name=f"excursion~stepwise[{rule_kind},{key}]")
        assert report.passed, (report.test_name, report.statistic, report.p_value)


def test_local_time_proxy_scales_like_a_constant():
    # proxy medians over |N(0,1)| median stay put as the lattice refines
    medians = {}
    for run, steps in enumerate((10_000, 40_000)):
        config = SpiderConfig(n=2, steps=steps, paths=3000, seed=59)
        batch = simulate_batch(config, run_id=run)
        proxy = batch.zero_visits / math.sqrt(steps)
        medians[steps] = np.median(proxy)
    normal_median = 0.6744897501960817
    r1 = medians[10_000] / normal_median
    r2 = medians[40_000] / normal_median
    assert abs(r1 - r2) / r1 <= 0.10


# ---------------------------------------------------------------------------
# batch output files
# ---------------------------------------------------------------------------

def test_batch_csv_and_manifest(tmp_path):
    config = SpiderConfig(n=3, steps=1200, paths=50, seed=61, allow_small_steps=True)
    csv_path = tmp_path / "walk.csv"
    manifest_path = tmp_path / "walk.run.json"
    batch = run_walk_batch(config, None, csv_path, manifest_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("path_id,frac_ray1,frac_ray2,frac_ray3,"
                        "zero_visits,last_zero_fraction,stopped_step,discarded")
    assert len(lines) == 51
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert sum(float(v) for v in first[1:4]) == pytest.approx(1.0, abs=1e-12)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["paths"] == 50 and manifest["rule"] is None
    assert manifest["discard_count"] == 0

    rule = StoppingRule.inverse_local_time(1.0, cap_multiplier=1.0)
    stopped = stop_batch(config, rule, run_id=6)
    stop_csv = tmp_path / "stopped.csv"
    write_batch_csv(stop_csv, stopped)
    write_run_manifest(tmp_path / "stopped.run.json", stopped, None)
    rows = stop_csv.read_text().splitlines()[1:]
    flagged = [r for r in rows if r.endswith(",true")]
    assert len(flagged) == stopped.discard_count
    info = json.loads((tmp_path / "stopped.run.json").read_text())
    assert info["rule"]["kind"] == "inverse_local_time"
    assert info["discard_count"] == stopped.discard_count
    assert info["wall_time_s"] is None
