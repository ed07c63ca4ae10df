import json
import math

import numpy as np
import pytest

from spiderlaw import (
    BatchMeta,
    LawSpec,
    ParameterDomainError,
    RngStream,
    ks_one_sample,
    ks_two_sample,
    ratio_power_cdf,
    sample_occupation_exact,
    sample_positive_stable,
    sample_ratio_X,
    sample_stable_half,
    save_sample_batch,
)
from spiderlaw.samplers import ChunkedSample, _clean, sample_ratio_power


def _mc_band(values, target, band=4.0):
    se = values.std(ddof=1) / math.sqrt(values.size)
    return abs(values.mean() - target) <= band * se


def _ratio_a(mu, rng, size, meta=None):
    return LawSpec.ratio_a(mu).sample(rng, size, meta)


# ---------------------------------------------------------------------------
# parameter and type validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [0.0, 1.0, -0.3, 2.0, math.nan])
def test_stable_params_domain(mu):
    # every stable sampler validates its exponent before drawing
    for sampler in (sample_positive_stable, sample_ratio_X, sample_ratio_power,
                    _ratio_a):
        with pytest.raises(ParameterDomainError):
            sampler(mu, RngStream(0), 1)


def test_determinism_bitwise():
    for draw in (
        lambda r: sample_positive_stable(0.4, r, 64),
        lambda r: sample_stable_half(r, 64),
        lambda r: sample_ratio_X(0.4, r, 64),
        lambda r: _ratio_a(0.4, r, 64),
        lambda r: LawSpec.spider(4).sample(r, 64),
        lambda r: LawSpec.arcsine().sample(r, 64),
    ):
        assert np.array_equal(draw(RngStream(99, 5)), draw(RngStream(99, 5)))


# ---------------------------------------------------------------------------
# one-sided stable
# ---------------------------------------------------------------------------

def test_positive_stable_laplace_transform():
    # MC mean of exp(-lam S) vs exp(-lam**mu), 4-sigma band
    for i, (mu, lam) in enumerate([(0.3, 1.0), (0.5, 0.5), (0.7, 2.0)]):
        s = sample_positive_stable(mu, RngStream(11, i), 400_000)
        assert _mc_band(np.exp(-lam * s), math.exp(-lam ** mu))


def test_positive_stable_matches_half_closed_form():
    s1 = sample_positive_stable(0.5, RngStream(21, 0), 100_000)
    s2 = sample_stable_half(RngStream(21, 1), 100_000)
    assert ks_two_sample(s1, s2, seed=21).passed


def test_positive_stable_strictly_positive_and_finite():
    s = sample_positive_stable(0.2, RngStream(3, 0), 50_000)
    assert np.isfinite(s).all() and (s > 0).all()


def test_stable_half_laplace_and_median():
    rng = RngStream(31, 0)
    s = sample_stable_half(rng, 1_000_000)
    assert _mc_band(np.exp(-s), math.exp(-1.0))
    # median of 1/(2 N^2) from the 0.75 normal quantile: 1/(2 * 0.6744897...**2)
    med = np.median(s[:100_000])
    assert abs(med - 1.0990546691588663) <= 0.035
    assert (s > 0).all()


# ---------------------------------------------------------------------------
# stable ratio and its relatives
# ---------------------------------------------------------------------------

def test_ratio_X_stieltjes_at_one():
    x = sample_ratio_X(0.5, RngStream(41, 0), 1_000_000)
    assert _mc_band(1.0 / (1.0 + x), 0.5)


def test_ratio_X_inverse_symmetry():
    x = sample_ratio_X(0.35, RngStream(41, 1), 100_000)
    y = sample_ratio_X(0.35, RngStream(41, 2), 100_000)
    assert ks_two_sample(x, 1.0 / y, seed=41).passed


def test_ratio_X_mellin_quarter_moment():
    x = sample_ratio_X(0.5, RngStream(41, 3), 1_000_000)
    assert _mc_band(x ** 0.25, math.sqrt(2.0))


def _c_mu(mu, rng, size):
    """Shifted Cauchy sin(pi mu) C - cos(pi mu), whose positive part is X**mu."""
    return np.sin(np.pi * mu) * rng.generator.standard_cauchy(size) - np.cos(np.pi * mu)


def test_c_mu_is_cauchy_at_half():
    c = _c_mu(0.5, RngStream(51, 0), 100_000)
    ref = RngStream(51, 1).generator.standard_cauchy(100_000)
    assert ks_two_sample(c, ref, seed=51).passed


def test_c_mu_conditioned_positive_matches_ratio_power():
    mu = 0.7
    c = _c_mu(mu, RngStream(51, 2), 400_000)
    positive = c[c > 0][:100_000]
    ref = sample_ratio_X(mu, RngStream(51, 3), 100_000) ** mu
    assert ks_two_sample(positive, ref, seed=51).passed


def test_c_mu_positive_probability():
    # from the Cauchy CDF: P(sin(pi mu) C > cos(pi mu)) = P(C > cot(pi mu)) = mu
    for i, mu in enumerate((0.2, 0.5, 0.8)):
        c = _c_mu(mu, RngStream(51, 10 + i), 1_000_000)
        assert _mc_band((c > 0).astype(float), mu)


def test_ratio_A_mean_and_support():
    a = _ratio_a(0.3, RngStream(61, 0), 1_000_000)
    assert _mc_band(a, 0.5)
    # draws within half an ulp of 1 round to 1.0, a correct float result
    assert ((a >= 0) & (a <= 1)).all()


def test_ratio_A_is_arcsine_at_half():
    # the two-ray spider marginal is the same point, drawn by the same kernel
    ratio, spider = LawSpec.ratio_a(0.5), LawSpec.spider(2)
    assert (ratio.mu, ratio.p) == (spider.mu, spider.p)
    a = _ratio_a(0.5, RngStream(61, 1), 100_000)
    assert ks_one_sample(a, LawSpec.arcsine().cdf, seed=61).passed


@pytest.mark.parametrize("mu", [0.05, 0.1])
def test_ratio_A_symmetric_at_small_mu(mu):
    # the law is symmetric about 1/2, in the bulk and in both tails
    meta = BatchMeta()
    a = _ratio_a(mu, RngStream(3, 0), 1_000_000, meta=meta)
    assert _mc_band((a > 0.5).astype(float), 0.5)
    tail = 2.0 ** -20
    assert _mc_band((a >= 1.0 - tail).astype(float) - (a <= tail), 0.0)
    assert meta.redraws == 0


@pytest.mark.parametrize("mu", [0.05, 0.1])
def test_ratio_A_matches_closed_form_at_small_mu(mu):
    # up to z0 every float cell carries negligible mass, so KS applies to the
    # draws below z0; above it many draws round to 1.0, so only the mass of
    # that top interval is checked
    law = LawSpec.ratio_a(mu)
    a = law.sample(RngStream(67, 1), 200_000)
    z0 = 1.0 - 2.0 ** -20
    f0 = law.cdf(z0)
    body = a[a <= z0]
    report = ks_one_sample(body, lambda z: law.cdf(z) / f0, seed=67)
    assert report.passed, report.p_value
    assert _mc_band((a > z0).astype(float), 1.0 - f0)


@pytest.mark.parametrize("seed", [1, 2])
def test_ratio_power_matches_closed_form_at_tiny_mu(seed):
    # at mu = 0.005 about 6% of the ratios X lie beyond the float range and
    # are kept as inf or 0.0; those atoms make a one-sample KS invalid, so KS
    # applies to the draws whose X is a normal float (X in [2^-1000, 2^1000]),
    # and the mass on either side of that window is checked by a 4-sigma band
    mu = 0.005
    meta = BatchMeta()
    y = sample_ratio_X(mu, RngStream(seed, 0), 1_000_000, meta=meta) ** mu
    lo, hi = 2.0 ** (-1000 * mu), 2.0 ** (1000 * mu)
    f_lo, f_hi = ratio_power_cdf(lo, mu), ratio_power_cdf(hi, mu)
    body = y[(y >= lo) & (y <= hi)]
    report = ks_one_sample(body, lambda v: (ratio_power_cdf(v, mu) - f_lo) / (f_hi - f_lo),
                           seed=seed)
    assert report.p_value >= 1e-3, report.p_value
    assert _mc_band((y < lo).astype(float), f_lo)
    assert _mc_band((y > hi).astype(float), 1.0 - f_hi)
    assert meta.redraws == 0


def test_lamperti_at_half_is_ratio_A_bitwise():
    for mu in (0.005, 0.3, 0.7):
        a = _ratio_a(mu, RngStream(17, 0), 10_000)
        b = LawSpec("lamperti", mu, 0.5).sample(RngStream(17, 0), 10_000)
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# occupation vector and its marginal, Lamperti's point (1/2, 1/n)
# ---------------------------------------------------------------------------

def test_occupation_exact_simplex():
    rows = sample_occupation_exact(5, RngStream(71, 0), 20_000)
    assert rows.shape == (20_000, 5)
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
    one = sample_occupation_exact(3, RngStream(71, 1), 1)
    assert one.shape == (1, 3) and abs(one.sum() - 1.0) <= 1e-12
    with pytest.raises(ParameterDomainError):
        sample_occupation_exact(1, RngStream(71, 2), 1)


def test_occupation_exact_two_rays_is_arcsine():
    rows = sample_occupation_exact(2, RngStream(71, 3), 100_000)
    assert ks_one_sample(rows[:, 0], LawSpec.arcsine().cdf, seed=71).passed


def test_occupation_exact_exchangeable():
    a = sample_occupation_exact(4, RngStream(71, 4), 50_000)
    b = sample_occupation_exact(4, RngStream(71, 5), 50_000)
    assert ks_two_sample(a[:, 0], b[:, 3], seed=71).passed


def test_cauchy_marginal_matches_occupation_coordinate():
    for i, n in enumerate((2, 4)):
        m = LawSpec.spider(n).sample(RngStream(81, 2 * i), 100_000)
        assert ((m > 0) & (m <= 1)).all()
        occ = sample_occupation_exact(n, RngStream(81, 2 * i + 1), 100_000)[:, 0]
        assert ks_two_sample(m, occ, seed=81).passed


# ---------------------------------------------------------------------------
# the arc-sine law's own draw against three classical representations
# ---------------------------------------------------------------------------

def _normal_ratio(rng, size):
    """N^2 / (N^2 + N'^2)."""
    a = rng.generator.standard_normal(size) ** 2
    b = rng.generator.standard_normal(size) ** 2
    return a / (a + b)


def _stable_ratio(rng, size):
    """T / (T + T') for iid stable(1/2) T, T'."""
    t1 = sample_stable_half(rng, size)
    t2 = sample_stable_half(rng, size)
    return t1 / (t1 + t2)


def _cauchy(rng, size):
    """1 / (1 + C^2)."""
    c = rng.generator.standard_cauchy(size)
    return 1.0 / (1.0 + c * c)


def test_arcsine_representations_pairwise_indistinguishable():
    draws = {"cosine": LawSpec.arcsine().sample, "normal_ratio": _normal_ratio,
             "stable_ratio": _stable_ratio, "cauchy": _cauchy}
    methods = tuple(draws)
    batches = {m: draws[m](RngStream(91, i), 100_000) for i, m in enumerate(methods)}
    for i, m1 in enumerate(methods):
        for m2 in methods[i + 1:]:
            report = ks_two_sample(batches[m1], batches[m2], seed=91,
                                   name=f"arcsine:{m1}~{m2}")
            assert report.passed, report.test_name


# ---------------------------------------------------------------------------
# redraw bookkeeping and batch output
# ---------------------------------------------------------------------------

def test_clean_redraws_degenerate_values():
    meta = BatchMeta()
    state = {"first": True}

    def draw(k):
        if state["first"]:
            state["first"] = False
            out = np.ones(k)
            out[0] = np.inf
            return out
        return np.ones(k)

    values = _clean(draw, np.isfinite, 8, meta)
    assert np.isfinite(values).all()
    assert meta.redraws == 1


def test_samplers_require_a_size():
    # there is no scalar mode: a size is a required positional argument
    assert _clean(lambda k: np.full(k, 2.5), np.isfinite, 1, None).tolist() == [2.5]
    with pytest.raises(TypeError):
        LawSpec.ratio_a(0.5).sample(RngStream(0))
    with pytest.raises(TypeError):
        sample_occupation_exact(3, RngStream(0))


def test_a_size_must_be_an_integer():
    assert _clean(lambda k: np.full(k, 2.5), np.isfinite, 5.0, None).size == 5
    with pytest.raises(ParameterDomainError, match="integer"):
        LawSpec.arcsine().sample(RngStream(0), 5.5)
    # the occupation sampler checks the row count before it multiplies by n
    assert sample_occupation_exact(3, RngStream(1), 5.0).shape == (5, 3)
    with pytest.raises(ParameterDomainError, match="integer: 5.5"):
        sample_occupation_exact(3, RngStream(1), 5.5)


def test_save_sample_batch_roundtrip(tmp_path):
    rows = sample_occupation_exact(3, RngStream(5, 0), 100)
    csv_path = tmp_path / "occ.csv"
    sample = ChunkedSample(lambda rng, size, meta: rows, 100, 5, width=3)
    sidecar = save_sample_batch(csv_path, sample, "occupation", {"n": 3})
    text = csv_path.read_text().splitlines()
    assert text[0] == "occupation_n3_ray1,occupation_n3_ray2,occupation_n3_ray3"
    assert len(text) == 101
    parsed = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    assert np.array_equal(parsed, rows)  # repr round-trips exactly
    info = json.loads((tmp_path / "occ.json").read_text())
    assert info["law"] == "occupation" and info["seed"] == 5  # the sample's own seed
    assert info["n_samples"] == 100
    assert info["redraw_count"] == 0 and info["stream_count"] == 1
    assert sidecar.endswith("occ.json")
