import hashlib
import json
import math
import os
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy import stats as sp_stats

from spiderlaw import (
    LawSpec,
    ParameterDomainError,
    SpiderConfig,
    StoppingRule,
    UsageError,
    composite_stream_id,
    ks_one_sample,
    ks_two_sample,
    stop_batch,
    verify_occupation_identity,
)
from spiderlaw import walk
from spiderlaw.walk import (
    _RETURN_TABLE_K,
    _first_return_lengths,
    _return_tail_table,
    run_walk_batch,
)


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ParameterDomainError):
        SpiderConfig(n=0, steps=2000)
    SpiderConfig(n=2, steps=500)  # the 1000-step floor is the CLI's (test_cli)
    with pytest.raises(ParameterDomainError):
        SpiderConfig(n=2, steps=2000, paths=0)
    # step totals are float64, exact only below 2**53
    SpiderConfig(n=2, steps=2 ** 53 - 1)
    with pytest.raises(ParameterDomainError):
        SpiderConfig(n=2, steps=2 ** 53)
    # the seed is the first 64-bit word of every path's Philox key
    SpiderConfig(n=2, steps=2000, seed=2 ** 64 - 1)
    for seed in (-1, 2 ** 64, 0.5):
        with pytest.raises(ParameterDomainError):
            SpiderConfig(n=2, steps=2000, seed=seed)


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
    # past 2**53 the float64 step totals are no longer exact integers, so no
    # rule's nominal horizon may reach it
    huge = SpiderConfig(n=2, steps=2 ** 40)
    for make, level in ((StoppingRule.fixed_time, 2.0 ** 13),
                        (StoppingRule.inverse_occupation, 2.0 ** 12),
                        (StoppingRule.inverse_local_time, 2.0 ** 6.5)):
        make(level * (1 - 2 ** -20)).validate_for(huge)
        for too_far in (level, 1e6):  # level: a horizon of 2**53 steps
            with pytest.raises(ParameterDomainError, match="2\\*\\*53"):
                make(too_far).validate_for(huge)


def test_integer_valued_floats_are_kept_as_ints(tmp_path):
    # 3.0 passes as a ray count; config and rule store it as the int 3, so a
    # float config runs and writes exactly what the int config does
    ints = SpiderConfig(n=3, steps=1000, paths=10, seed=1)
    floats = SpiderConfig(n=3.0, steps=1000.0, paths=10.0, seed=1.0)
    rule = StoppingRule.inverse_occupation(0.5, ray=2.0)
    assert [type(v) for v in (*astuple(floats), rule.ray)] == [int] * 5
    outputs = []
    for name, config in (("ints", ints), ("floats", floats)):
        paths = (tmp_path / f"{name}.csv", tmp_path / f"{name}.run.json")
        batch = run_walk_batch(config, rule, *paths, record_wall_time=False)
        outputs.append([batch.counts, batch.stopped_step, batch.zero_visits,
                        batch.last_zero_step, batch.discarded]
                       + [path.read_bytes() for path in paths])
    for a, b in zip(*outputs):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_an_int_level_is_kept_as_the_float_it_equals(tmp_path):
    # inverse_local_time(1) and (1.0) are one rule, so they write one manifest
    config = SpiderConfig(n=3, steps=1000, paths=10, seed=1)
    written = []
    for name, level in (("int", 1), ("float", 1.0)):
        paths = (tmp_path / f"{name}.csv", tmp_path / f"{name}.run.json")
        run_walk_batch(config, StoppingRule.inverse_local_time(level), *paths,
                       record_wall_time=False)
        written.append([path.read_bytes() for path in paths])
    assert written[0] == written[1]
    assert b'"level": 1.0' in written[0][1]
    assert type(StoppingRule.inverse_local_time(1).level) is float


# ---------------------------------------------------------------------------
# determinism and engine identities
# ---------------------------------------------------------------------------

def test_batch_reproducible_and_size_independent():
    # path p runs on its own stream, so it is row p of a batch of any size
    config = SpiderConfig(n=3, steps=1500, paths=300, seed=17)
    for run in (lambda c: stop_batch(c, StoppingRule.fixed_time(), run_id=2),
                lambda c: stop_batch(c, StoppingRule.inverse_local_time(1.0), run_id=3),
                lambda c: stop_batch(c, StoppingRule.inverse_occupation(0.5, ray=2),
                                     run_id=4)):
        a, b, c = run(config), run(config), run(replace(config, paths=40))
        for column in ("counts", "stopped_step", "zero_visits", "last_zero_step",
                       "discarded"):
            assert np.array_equal(getattr(a, column), getattr(b, column))
            assert np.array_equal(getattr(a, column)[:40], getattr(c, column))


def _round_draws(config, run_id, p, r, k):
    """Round r of path p: Philox keyed (seed, composite_stream_id(run_id, p))
    at counter (0, 0, 0, r), which draws k ray uniforms, then k length
    uniforms, for a round of k excursions."""
    key = np.array([config.seed, composite_stream_id(run_id, p)], dtype=np.uint64)
    bit_generator = np.random.Philox(key=key, counter=[0, 0, 0, r])
    return np.random.Generator(bit_generator).random(2 * k)


def test_path_draws_follow_the_philox_key_layout():
    # an excursion returns at once iff its length uniform is below 1/2; at 2
    # steps a round is 2 excursions, the first picks the ray floor(n u[0])
    config = SpiderConfig(n=5, steps=2, paths=64, seed=2 ** 64 - 3)
    batch = stop_batch(config, StoppingRule.fixed_time(), run_id=7)
    for p in range(config.paths):
        u = _round_draws(config, 7, p, 0, 2)
        assert batch.counts[p, int(u[0] * 5)] == 2
        assert batch.zero_visits[p] == (2 if u[2] < 0.5 else 1)

    # pinning ray 2, a round is 3 excursions and the path stops in the first
    # one on ray 2; about half the paths miss ray 2 in round 0
    stopped = stop_batch(config, StoppingRule.inverse_occupation(0.5, ray=2), run_id=7)
    later_rounds = 0
    for p in range(config.paths):
        r, u = 0, _round_draws(config, 7, p, 0, 3)
        while 1 not in np.floor(u[:3] * 5):
            r += 1
            u = _round_draws(config, 7, p, r, 3)
        k = np.floor(u[:3] * 5).tolist().index(1)
        later_rounds += r > 0
        assert stopped.counts[p, 1] == 2
        assert stopped.zero_visits[p] == 1 + 3 * r + k + (u[3 + k] < 0.5)
    assert later_rounds > 0


# (n, steps, paths, rule, run id, lowered 2**53 bound or None) -> SHA-256 of
# counts, stopped_step, zero_visits, last_zero_step and discarded, so a
# faster round must keep every byte: each rule at n = 1, 3 and 8, a
# fixed-time walk whose lengths reach past the 2**17-step table, and
# lowered bounds that discard paths inside a round and between rounds
_ENGINE_BYTES = {
    (1, 2000, 300, "fixed_time", 3, None):
        "6c5da533eba5a17a8f55f6a3a8c6b33c4e3d5154467765216379e19158a67e0b",
    (3, 2000, 300, "fixed_time", 3, None):
        "31cdb853341d694ecff1f85a0de0c7635fc231a3eaaa2fa07846d2afeed96d85",
    (8, 2000, 300, "fixed_time", 3, None):
        "240273b693a3dc4af1f68d61eb0872f9503fc4a860e2892d35a008c3864eddad",
    (1, 2000, 300, "inverse_occupation", 3, None):
        "250795b46714f769bab18e55aa29d259b0360a722910ae0717e6236c5111b79b",
    (3, 2000, 300, "inverse_occupation", 3, None):
        "1c18ad812db84c199714302efc2f7520f009b0808e8be149a8044e6d8fe219a2",
    (8, 2000, 300, "inverse_occupation", 3, None):
        "2a71a5c50cc5310319a476c8083ec8641377593bd6e4dd583b5461d6e15ba943",
    (1, 2000, 300, "inverse_local_time", 3, None):
        "e70dc414477647fe33408f185073fb4f21d3b97114b1a4547160a6048dfa4681",
    (3, 2000, 300, "inverse_local_time", 3, None):
        "a9599dcbfa5d5e434787047b3debdd61851e8ff3ae30fee906ce12b5e2adef6d",
    (8, 2000, 300, "inverse_local_time", 3, None):
        "c7ea4f07a9c5d2ff656df0afd6515d80ea881137fbb544669ae5c0679f9cdc20",
    (3, 2 ** 22, 200, "fixed_time", 5, None):
        "317029d14693829eaace4821aec2d0175dd912f078324848242661da42928db5",
    (2, 1000, 300, "inverse_local_time", 6, 2000):
        "35b3de968bc472213ae04fc7aff20bfb7d82016493cae05f0c0b171a1dc3ff56",
    (3, 1000, 300, "inverse_occupation", 6, 4000):
        "8ec8befba125ce67f80a7158ae6c5cdb455682945cb796a13d265835f0183fde",
}


def _engine_digest(batch):
    digest = hashlib.sha256()
    for column in ("counts", "stopped_step", "zero_visits", "last_zero_step", "discarded"):
        values = getattr(batch, column)
        digest.update(f"{column}:{values.dtype.str}:{values.shape}".encode())
        digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", list(_ENGINE_BYTES), ids=str)
def test_the_engine_keeps_its_bytes(case, monkeypatch):
    n, steps, paths, kind, run_id, bound = case
    if bound is not None:
        monkeypatch.setattr(walk, "_EXACT_STEPS", bound)
    config = SpiderConfig(n=n, steps=steps, paths=paths, seed=11)
    rule = getattr(StoppingRule, kind)()
    batch = stop_batch(config, rule, run_id=run_id)
    if steps == 2 ** 22:  # some straddling excursion is inverted past the table
        assert (batch.stopped_step - batch.last_zero_step > 2 * _RETURN_TABLE_K).any()
    if bound is not None:
        assert 0 < batch.discard_count < paths
    if kind == "inverse_occupation" and n == 8:  # some path takes several rounds
        assert (batch.zero_visits > walk._block_size(config, rule)).any()
    assert _engine_digest(batch) == _ENGINE_BYTES[case]


def test_conservation_every_path():
    for n in (1, 2, 5):
        config = SpiderConfig(n=n, steps=2048, paths=200, seed=3)
        batch = stop_batch(config, StoppingRule.fixed_time())
        assert (batch.counts.sum(axis=1) == 2048).all()
        assert (batch.stopped_step == 2048).all() and batch.discard_count == 0
        assert (batch.zero_visits >= 1).all()
        assert (batch.last_zero_step <= 2048).all()


def test_exact_landing_on_the_horizon():
    # the first excursion has length 2 with probability 1/2; when it ends
    # exactly at the horizon it is complete and the path ends at the origin
    config = SpiderConfig(n=3, steps=2, paths=4000, seed=73)
    batch = stop_batch(config, StoppingRule.fixed_time())
    landed = batch.zero_visits == 2
    assert (batch.last_zero_step[landed] == 2).all()
    assert (batch.last_zero_step[~landed] == 0).all()
    assert (batch.zero_visits[~landed] == 1).all()
    assert abs(landed.mean() - 0.5) <= 4.0 * math.sqrt(0.25 / 4000)
    assert (batch.counts.sum(axis=1) == 2).all()
    # a path of one step cannot return
    one = stop_batch(replace(config, steps=1), StoppingRule.fixed_time())
    assert (one.zero_visits == 1).all() and (one.last_zero_step == 0).all()
    assert (one.counts.sum(axis=1) == 1).all()


def test_long_walk_memory_is_bounded(monkeypatch):
    # a round holds at most 2**16 excursions however long the path is, so
    # memory does not grow with sqrt(steps); the return table is built first
    _return_tail_table()
    tracemalloc.start()
    try:
        batch = stop_batch(SpiderConfig(n=3, steps=2 ** 44, seed=5),
                           StoppingRule.fixed_time())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.stopped_step[0] == 2 ** 44
    assert peak < 64 * 2 ** 20
    # and a group of short paths shares one such round: serial on one CPU,
    # a batch's peak is one group's round, not its path count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    config = SpiderConfig(n=8, steps=20_000, paths=3_000, seed=5)
    tracemalloc.start()
    try:
        batch = stop_batch(config, StoppingRule.inverse_occupation())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.counts.shape == (3_000, 8)
    assert peak < 12 * 2 ** 20


def test_first_return_lengths_on_unit_interval_edges():
    lengths = _first_return_lengths(np.array([1.0, 0.5, 2.0 ** -53]))
    assert lengths[0] == 2.0 and lengths[1] == 4.0  # length 2 iff u > P(T > 2) = 1/2
    assert np.isfinite(lengths[2]) and lengths[2] > 2.0 ** 21


def test_random_draws_past_the_table_invert_against_the_float_tail():
    # uniform u past the table: the least k with P(T > 2k) < u, where
    # P(T > 2k) = (k+1)_{-1/2} / sqrt(pi) in float resolves it (k < 2**44)
    from scipy.special import poch

    far_tail = _return_tail_table()[_RETURN_TABLE_K]  # P(T > 2**17)
    u = far_tail * (1.0 - np.random.default_rng(29).random(20_000))
    k = _first_return_lengths(u) / 2.0
    assert (k > _RETURN_TABLE_K).all()
    checked = k < 2.0 ** 44
    assert checked.sum() > 19_000
    k, u = k[checked], u[checked]
    tail_k, tail_before = (poch(k + 1.0, -0.5) / math.sqrt(math.pi),
                           poch(k, -0.5) / math.sqrt(math.pi))
    assert ((tail_k < u) & (u <= tail_before)).all()


def test_table_first_return_inversion_is_exact():
    # u at, and one float either side of, the table entry for k log-uniform
    # over (2, 2**16): the inversion must give the least k with
    # P(T > 2k) < u, with P(T > 2k) = C(2k, k) 4**-k as an exact fraction.
    # Tails of neighbouring k differ by a factor 1 + 1/(2k - 1), so only
    # k and k + 1 can be that least k.  The entry is the tail rounded down.
    from fractions import Fraction

    rng = np.random.default_rng(16)
    ks = np.unique(np.floor(2.0 ** rng.uniform(1, 16, 100)).astype(int))
    table = _return_tail_table()
    u = np.stack([np.nextafter(table[ks], 0.0), table[ks], np.nextafter(table[ks], 1.0)])
    got = _first_return_lengths(u.ravel()).reshape(u.shape) / 2.0
    wrong = []
    for k, g, x in zip(ks.tolist(), got.T, u.T):
        tail = Fraction(math.comb(2 * k, k), 4 ** k)
        least = [k if tail < Fraction(v) else k + 1 for v in x]
        rounded_down = Fraction(x[1]) <= tail < Fraction(x[2])
        if g.tolist() != least or not rounded_down:
            wrong.append((k, g.tolist(), least))
    assert not wrong, wrong[:5]


def test_far_tail_first_return_inversion_is_exact_to_2_52():
    # u at, and one float either side of, P(T > 2k) for k log-uniform over
    # (2**16, 2**52): where the tails of k - 1, k and k + 1 are closest to
    # u, the inversion must still give the least k with P(T > 2k) < u
    import mpmath as mp

    def tail(k):
        k = mp.mpf(k)
        return mp.exp(mp.loggamma(k + 0.5) - mp.loggamma(k + 1)) / mp.sqrt(mp.pi)

    rng = np.random.default_rng(52)
    with mp.workdps(60):
        ks = np.floor(2.0 ** rng.uniform(16, 52, 1500))
        u = np.array([float(tail(int(k))) for k in ks])
        u[0::3] = np.nextafter(u[0::3], 0.0)
        u[1::3] = np.nextafter(u[1::3], 1.0)
        got = _first_return_lengths(u) / 2.0
        assert (got > _RETURN_TABLE_K).all() and (got < 2.0 ** 52).all()
        wrong = [(k, g) for k, g, x in zip(ks, got, u)
                 if not tail(int(g)) < mp.mpf(x) <= tail(int(g) - 1)]
    assert not wrong


def test_ray_relabelling_leaves_marginals_unchanged():
    # exchangeability probed across independent batches (coordinates of one
    # path are dependent, so each pool comes from its own run)
    config = SpiderConfig(n=3, steps=2000, paths=3000, seed=31)
    pools = [stop_batch(config, StoppingRule.fixed_time(), run_id=r).fractions[:, r]
             for r in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            report = ks_two_sample(pools[i], pools[j], seed=31,
                                   name=f"exchangeable:{i}~{j}")
            assert report.passed, (report.test_name, report.p_value)


def test_two_ray_occupation_close_to_arcsine():
    config = SpiderConfig(n=2, steps=5000, paths=2000, seed=37)
    batch = stop_batch(config, StoppingRule.fixed_time())
    report = ks_one_sample(batch.fractions[:, 0], LawSpec.arcsine().cdf, seed=37,
                           threshold=0.05, rule="stat_max")
    assert report.passed, report.statistic


def test_three_ray_occupation_matches_closed_form():
    config = SpiderConfig(n=3, steps=20_000, paths=5000, seed=67)
    batch = stop_batch(config, StoppingRule.fixed_time())
    report = ks_one_sample(batch.fractions[:, 0], LawSpec.spider(3).cdf,
                           seed=67, threshold=0.02, rule="stat_max")
    assert report.passed, report.statistic


# ---------------------------------------------------------------------------
# stopping rules: pinning, discards, engine cross-validation
# ---------------------------------------------------------------------------

def test_inverse_occupation_pins_target_coordinate():
    config = SpiderConfig(n=3, steps=2000, paths=200, seed=41)
    level = 0.37
    batch = stop_batch(config, StoppingRule.inverse_occupation(level, ray=1), run_id=2)
    kept = batch.kept
    pinned = batch.counts[kept, 0]
    assert (pinned == math.floor(level * 2000) + 1).all()
    # the pinned fraction is level*steps/stopped_step up to 1/stopped_step
    assert (np.abs(pinned - level * 2000) <= 1.0).all()
    assert np.allclose(batch.fractions[:, 0] * batch.stopped_step[batch.kept], pinned)


def test_stopped_counts_sum_to_stopping_time():
    # the stopping time decomposes exactly into the per-ray occupations
    config = SpiderConfig(n=4, steps=1500, paths=150, seed=71)
    for run_id, rule in enumerate((StoppingRule.fixed_time(1.0),
                                   StoppingRule.inverse_occupation(0.5, ray=3),
                                   StoppingRule.inverse_local_time(1.0))):
        batch = stop_batch(config, rule, run_id=run_id)
        kept = batch.kept
        assert np.array_equal(batch.counts[kept].sum(axis=1),
                              batch.stopped_step[kept].astype(float))


def test_exactness_bound_discards_and_raises(monkeypatch):
    # with the float64 bound lowered to twice the local-time horizon, a
    # share of paths passes it: they are flagged and their fields zeroed
    monkeypatch.setattr(walk, "_EXACT_STEPS", 2000)
    config = SpiderConfig(n=2, steps=1000, paths=300, seed=47)
    batch = stop_batch(config, StoppingRule.inverse_local_time(1.0), run_id=6)
    assert 0.01 * 300 < batch.discard_count < 300
    assert batch.discarded.shape == (300,)
    gone = batch.discarded
    assert (batch.stopped_step[gone] == 0).all() and (batch.counts[gone] == 0).all()
    assert (batch.stopped_step[~gone] < 2000).all()
    # the identity check refuses to report past 1% discards
    with pytest.raises(UsageError, match="2\\*\\*53"):
        verify_occupation_identity(2, paths=300, steps=1000, seed=47)


def test_one_ray_is_exact_under_every_rule():
    # a round's length uniforms are its second block of draws, which the ray
    # count does not touch, and neither rule here sizes its block by n: so
    # one ray returns to the origin exactly when three rays do
    one = SpiderConfig(n=1, steps=1500, paths=300, seed=19)
    for rule in (StoppingRule.fixed_time(), StoppingRule.inverse_local_time(1.0)):
        a = stop_batch(one, rule, run_id=4)
        b = stop_batch(replace(one, n=3), rule, run_id=4)
        for column in ("stopped_step", "zero_visits", "last_zero_step"):
            assert np.array_equal(getattr(a, column), getattr(b, column))
    # pinning the only ray stops every path at the threshold itself
    rule = StoppingRule.inverse_occupation(0.5, ray=1)
    batch = stop_batch(one, rule, run_id=4)
    assert (batch.stopped_step == rule.threshold(one)).all()
    assert np.array_equal(batch.counts[:, 0], batch.stopped_step)
    # at 2 steps a round is 2 excursions, and the path is back at the origin
    # iff its first length uniform, draw 2 of round 0, is below 1/2
    two = replace(one, steps=2, paths=64)
    batch = stop_batch(two, StoppingRule.fixed_time(), run_id=4)
    back = [_round_draws(two, 4, p, 0, 2)[2] < 0.5 for p in range(two.paths)]
    assert np.array_equal(batch.zero_visits, np.where(back, 2, 1))


def _stepwise_reference(n, steps, rule, level, ray_j, horizon_steps, paths, seed):
    """Honest per-step reference walk, all paths at once, one uniform per step.

    At the origin a path takes the ray floor(n u); elsewhere it steps
    outwards when u < 1/2.  Returns (first-ray fraction, last-zero fraction,
    zero visits) of the paths that stop within ``horizon_steps`` steps; the
    others are dropped.
    """
    rng = np.random.default_rng(seed)
    counts = np.zeros((paths, n), dtype=np.int64)
    d = np.zeros(paths, dtype=np.int64)
    ray = np.zeros(paths, dtype=np.intp)
    zero_visits = np.ones(paths, dtype=np.int64)
    last_zero = np.zeros(paths, dtype=np.int64)
    horizon = max(1, round(level * steps))
    occ_threshold = math.floor(level * steps) + 1
    lt_threshold = math.floor(level * math.sqrt(steps))
    done = []
    for t in range(1, horizon_steps + 1):
        if not d.size:
            break
        u = rng.random(d.size)
        at_origin = d == 0
        ray = np.where(at_origin, (u * n).astype(np.intp), ray)
        d = np.where(at_origin, 1, d + np.where(u < 0.5, 1, -1))
        counts[np.arange(d.size), ray] += 1
        back = d == 0
        zero_visits += back
        last_zero[back] = t
        if rule == "fixed":
            stop = np.full(d.size, t == horizon)
        elif rule == "lt":
            stop = zero_visits > lt_threshold
        else:
            stop = (ray == ray_j) & (counts[:, ray_j] >= occ_threshold)
        if stop.any():
            done.append(np.stack([counts[stop, 0] / t, last_zero[stop] / t,
                                  zero_visits[stop]], axis=1))
            live = ~stop
            counts, d, ray = counts[live], d[live], ray[live]
            zero_visits, last_zero = zero_visits[live], last_zero[live]
    return np.concatenate(done)


@pytest.mark.parametrize("rule_kind", ["lt", "occ", "fixed"])
def test_excursion_engine_matches_stepwise_reference(rule_kind):
    # both sides conditioned on tau <= horizon, which the stepwise walk reaches
    n, steps, paths = 3, 1000, 2500
    config = SpiderConfig(n=n, steps=steps, paths=paths, seed=53)
    if rule_kind == "lt":
        rule = StoppingRule.inverse_local_time(1.0)
    elif rule_kind == "occ":
        rule = StoppingRule.inverse_occupation(0.5, ray=2)
    else:
        rule = StoppingRule.fixed_time(1.0)
    horizon = 50 * rule.nominal_steps(config)
    batch = stop_batch(config, rule, run_id=1)
    within = batch.kept & (batch.stopped_step <= horizon)
    ours = {"fraction": batch.counts[within, 0] / batch.stopped_step[within]}
    if rule_kind == "fixed":
        ours["last_zero"] = batch.last_zero_step[within] / batch.stopped_step[within]
        ours["zero_visits"] = batch.zero_visits[within]

    ref = _stepwise_reference(n, steps, rule_kind, rule.level,
                              1 if rule_kind == "occ" else None,
                              horizon, paths, seed=54)
    ref = dict(zip(("fraction", "last_zero", "zero_visits"), ref.T))
    for key, values in ours.items():
        report = ks_two_sample(values, ref[key], seed=53,
                               name=f"excursion~stepwise[{rule_kind},{key}]")
        assert report.passed, (report.test_name, report.statistic, report.p_value)


def _exact_two_ray_law(steps, kind, level, ray_j, horizon):
    """Exact law of the stopped two-ray walk, by enumerating every path.

    With two rays every step is a fair coin: at the origin it picks the ray,
    elsewhere it steps in or out.  All 2**horizon coin sequences are walked
    for ``horizon`` steps; a path's outcome is (ray-1 count, ray-2 count,
    zero visits, last zero) when the rule fires within the horizon, else
    None (tau > horizon).  Returns {outcome: probability}.
    """
    coins = np.arange(1 << horizon, dtype=np.int64)
    size = coins.size
    counts = np.zeros((size, 2), dtype=np.int64)
    d = np.zeros(size, dtype=np.int64)
    ray = np.zeros(size, dtype=np.int64)
    zero_visits = np.ones(size, dtype=np.int64)
    last_zero = np.zeros(size, dtype=np.int64)
    stopped = np.zeros(size, dtype=bool)
    outcome = np.zeros((size, 4), dtype=np.int64)
    for t in range(1, horizon + 1):
        coin = (coins >> (t - 1)) & 1
        at_origin = d == 0
        ray = np.where(at_origin, coin, ray)
        d = np.where(at_origin, 1, d + 1 - 2 * coin)
        counts[np.arange(size), ray] += 1
        back = d == 0
        zero_visits += back
        last_zero[back] = t
        if kind == "fixed_time":
            fire = np.full(size, t == max(1, round(level * steps)))
        elif kind == "inverse_occupation":
            fire = counts[:, ray_j - 1] > level * steps
        else:
            fire = zero_visits > level * math.sqrt(steps)
        new = fire & ~stopped
        outcome[new] = np.column_stack([counts, zero_visits, last_zero])[new]
        stopped |= new
    law = {}
    for row, done in zip(map(tuple, outcome.tolist()), stopped.tolist()):
        key = row if done else None
        law[key] = law.get(key, 0.0) + 1.0 / size
    return law


@pytest.mark.parametrize("steps", [6, 7])
@pytest.mark.parametrize("kind", ["fixed_time", "inverse_occupation", "inverse_local_time"])
def test_engine_matches_exact_two_ray_law(kind, steps):
    # chi-square of the joint law of (counts, zero_visits, last_zero), with
    # every path stopped past the enumeration horizon H in one cell, against
    # exact enumeration; the rarest cells are pooled until the pool expects
    # at least 5 paths
    paths, p_min = 100_000, 1e-3
    if kind == "fixed_time":
        rule, horizon = StoppingRule.fixed_time(1.0), 7
    elif kind == "inverse_occupation":
        rule, horizon = StoppingRule.inverse_occupation(0.5, ray=2), 18
    else:
        rule, horizon = StoppingRule.inverse_local_time(1.0), 18
    config = SpiderConfig(n=2, steps=steps, paths=paths, seed=83)
    law = _exact_two_ray_law(steps, kind, rule.level, rule.ray, horizon)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)

    batch = stop_batch(config, rule, run_id=steps)
    rows = np.column_stack([batch.counts.astype(np.int64), batch.zero_visits,
                            batch.last_zero_step])
    beyond = batch.discarded | (batch.stopped_step > horizon)
    observed = {}
    for row, far in zip(map(tuple, rows.tolist()), beyond.tolist()):
        key = None if far else row
        observed[key] = observed.get(key, 0) + 1
    assert set(observed) <= set(law), set(observed) - set(law)

    cells = sorted(law, key=law.get)
    expected = np.array([law[c] * paths for c in cells])
    counted = np.array([observed.get(c, 0) for c in cells], dtype=float)
    small = np.cumsum(expected) - expected < 5.0
    if small.any():
        expected = np.append(expected[~small], expected[small].sum())
        counted = np.append(counted[~small], counted[small].sum())
    stat = float(((counted - expected) ** 2 / expected).sum())
    p = float(sp_stats.chi2.sf(stat, expected.size - 1))
    assert p >= p_min, (kind, steps, stat, expected.size, p)


def test_local_time_proxy_scales_like_a_constant():
    # proxy medians over |N(0,1)| median stay put as the lattice refines
    medians = {}
    for run, steps in enumerate((10_000, 40_000)):
        config = SpiderConfig(n=2, steps=steps, paths=3000, seed=59)
        batch = stop_batch(config, StoppingRule.fixed_time(), run_id=run)
        proxy = batch.zero_visits / math.sqrt(steps)
        medians[steps] = np.median(proxy)
    normal_median = 0.6744897501960817
    r1 = medians[10_000] / normal_median
    r2 = medians[40_000] / normal_median
    assert abs(r1 - r2) / r1 <= 0.10


# ---------------------------------------------------------------------------
# batch output files
# ---------------------------------------------------------------------------

def test_batch_csv_and_manifest(monkeypatch, tmp_path):
    config = SpiderConfig(n=3, steps=1200, paths=50, seed=61)
    csv_path = tmp_path / "walk.csv"
    manifest_path = tmp_path / "walk.run.json"
    batch = run_walk_batch(config, StoppingRule.fixed_time(), csv_path, manifest_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("path_id,frac_ray1,frac_ray2,frac_ray3,"
                        "zero_visits,last_zero_fraction,stopped_step,discarded")
    assert len(lines) == 51
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert sum(float(v) for v in first[1:4]) == pytest.approx(1.0, abs=1e-12)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["paths"] == 50 and manifest["discard_count"] == 0
    assert manifest["rule"] == {"kind": "fixed_time", "level": 1.0, "ray": None}
    assert manifest["wall_time_s"] >= 0.0

    # a bound lowered to the local-time horizon discards a share of paths
    monkeypatch.setattr(walk, "_EXACT_STEPS", config.steps + 1)
    stop_csv = tmp_path / "stopped.csv"
    stopped = run_walk_batch(config, StoppingRule.inverse_local_time(1.0), stop_csv,
                             tmp_path / "stopped.run.json", run_id=6,
                             record_wall_time=False)
    assert stopped.discard_count > 0
    rows = stop_csv.read_text().splitlines()[1:]
    flagged = [r for r in rows if r.endswith(",true")]
    assert len(flagged) == stopped.discard_count
    info = json.loads((tmp_path / "stopped.run.json").read_text())
    assert info["rule"]["kind"] == "inverse_local_time"
    assert info["discard_count"] == stopped.discard_count
    assert info["wall_time_s"] is None
