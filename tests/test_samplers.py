import json
import math

import numpy as np
import pytest

from spiderlaw import (
    BatchMeta,
    ParameterDomainError,
    RngStream,
    SimplexVector,
    StableParams,
    arcsine_cdf,
    ks_one_sample,
    ks_two_sample,
    ratio_A_cdf,
    sample_arcsine,
    sample_cauchy_spider_marginal,
    sample_occupation_exact,
    sample_positive_stable,
    sample_ratio_A,
    sample_ratio_X,
    sample_stable_half,
    save_sample_batch,
)
from spiderlaw.samplers import _clean


def _mc_band(values, target, band=4.0):
    se = values.std(ddof=1) / math.sqrt(values.size)
    return abs(values.mean() - target) <= band * se


# ---------------------------------------------------------------------------
# parameter and type validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [0.0, 1.0, -0.3, 2.0, math.nan])
def test_stable_params_domain(mu):
    with pytest.raises(ParameterDomainError):
        StableParams(mu)


def test_simplex_vector_invariants():
    SimplexVector((0.25, 0.75))
    with pytest.raises(ParameterDomainError):
        SimplexVector((1.0,))
    with pytest.raises(ParameterDomainError):
        SimplexVector((0.6, 0.6))
    with pytest.raises(ParameterDomainError):
        SimplexVector((-0.1, 1.1))


def test_determinism_bitwise():
    params = StableParams(0.4)
    for draw in (
        lambda r: sample_positive_stable(params, r, 64),
        lambda r: sample_stable_half(r, 64),
        lambda r: sample_ratio_X(params, r, 64),
        lambda r: sample_ratio_A(params, r, 64),
        lambda r: sample_cauchy_spider_marginal(4, r, 64),
        lambda r: sample_arcsine(r, 64, method="normal_ratio"),
    ):
        assert np.array_equal(draw(RngStream(99, 5)), draw(RngStream(99, 5)))


# ---------------------------------------------------------------------------
# one-sided stable
# ---------------------------------------------------------------------------

def test_positive_stable_laplace_transform():
    # MC mean of exp(-lam S) vs exp(-lam**mu), 4-sigma band
    for i, (mu, lam) in enumerate([(0.3, 1.0), (0.5, 0.5), (0.7, 2.0)]):
        s = sample_positive_stable(StableParams(mu), RngStream(11, i), 400_000)
        assert _mc_band(np.exp(-lam * s), math.exp(-lam ** mu))


def test_positive_stable_matches_half_closed_form():
    s1 = sample_positive_stable(StableParams(0.5), RngStream(21, 0), 100_000)
    s2 = sample_stable_half(RngStream(21, 1), 100_000)
    assert ks_two_sample(s1, s2, seed=21).passed


def test_positive_stable_strictly_positive_and_finite():
    s = sample_positive_stable(StableParams(0.2), RngStream(3, 0), 50_000)
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
    x = sample_ratio_X(StableParams(0.5), RngStream(41, 0), 1_000_000)
    assert _mc_band(1.0 / (1.0 + x), 0.5)


def test_ratio_X_inverse_symmetry():
    x = sample_ratio_X(StableParams(0.35), RngStream(41, 1), 100_000)
    y = sample_ratio_X(StableParams(0.35), RngStream(41, 2), 100_000)
    assert ks_two_sample(x, 1.0 / y, seed=41).passed


def test_ratio_X_mellin_quarter_moment():
    x = sample_ratio_X(StableParams(0.5), RngStream(41, 3), 1_000_000)
    assert _mc_band(x ** 0.25, math.sqrt(2.0))


def _c_mu(mu, rng, size):
    """Shifted Cauchy sin(pi mu) C - cos(pi mu), whose positive part is X**mu."""
    return np.sin(np.pi * mu) * rng.cauchy(size) - np.cos(np.pi * mu)


def test_c_mu_is_cauchy_at_half():
    c = _c_mu(0.5, RngStream(51, 0), 100_000)
    ref = RngStream(51, 1).cauchy(100_000)
    assert ks_two_sample(c, ref, seed=51).passed


def test_c_mu_conditioned_positive_matches_ratio_power():
    mu = 0.7
    c = _c_mu(mu, RngStream(51, 2), 400_000)
    positive = c[c > 0][:100_000]
    ref = sample_ratio_X(StableParams(mu), RngStream(51, 3), 100_000) ** mu
    assert ks_two_sample(positive, ref, seed=51).passed


def test_c_mu_positive_probability():
    # from the Cauchy CDF: P(sin(pi mu) C > cos(pi mu)) = P(C > cot(pi mu)) = mu
    for i, mu in enumerate((0.2, 0.5, 0.8)):
        c = _c_mu(mu, RngStream(51, 10 + i), 1_000_000)
        assert _mc_band((c > 0).astype(float), mu)


def test_ratio_A_mean_and_support():
    a = sample_ratio_A(StableParams(0.3), RngStream(61, 0), 1_000_000)
    assert _mc_band(a, 0.5)
    # draws within half an ulp of 1 round to 1.0, a correct float result
    assert ((a >= 0) & (a <= 1)).all()


def test_ratio_A_is_arcsine_at_half():
    a = sample_ratio_A(StableParams(0.5), RngStream(61, 1), 100_000)
    assert ks_one_sample(a, arcsine_cdf, seed=61).passed


@pytest.mark.parametrize("mu", [0.05, 0.1])
def test_ratio_A_symmetric_at_small_mu(mu):
    # the law is symmetric about 1/2, in the bulk and in both tails
    meta = BatchMeta()
    a = sample_ratio_A(StableParams(mu), RngStream(3, 0), 1_000_000, meta=meta)
    assert _mc_band((a > 0.5).astype(float), 0.5)
    tail = 2.0 ** -20
    assert _mc_band((a >= 1.0 - tail).astype(float) - (a <= tail), 0.0)
    assert meta.redraws == 0


@pytest.mark.parametrize("mu", [0.05, 0.1])
def test_ratio_A_matches_closed_form_at_small_mu(mu):
    # up to z0 every float cell carries negligible mass, so KS applies to the
    # draws below z0; above it many draws round to 1.0, so only the mass of
    # that top interval is checked
    a = sample_ratio_A(StableParams(mu), RngStream(67, 1), 200_000)
    z0 = 1.0 - 2.0 ** -20
    f0 = ratio_A_cdf(z0, mu)
    body = a[a <= z0]
    report = ks_one_sample(body, lambda z: ratio_A_cdf(z, mu) / f0, seed=67)
    assert report.passed, report.p_value
    assert _mc_band((a > z0).astype(float), 1.0 - f0)


# ---------------------------------------------------------------------------
# occupation vector and its Cauchy marginal
# ---------------------------------------------------------------------------

def test_occupation_exact_simplex():
    rows = sample_occupation_exact(5, RngStream(71, 0), 20_000)
    assert rows.shape == (20_000, 5)
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
    one = sample_occupation_exact(3, RngStream(71, 1))
    assert isinstance(one, SimplexVector)
    with pytest.raises(ParameterDomainError):
        sample_occupation_exact(1, RngStream(71, 2))


def test_occupation_exact_two_rays_is_arcsine():
    rows = sample_occupation_exact(2, RngStream(71, 3), 100_000)
    assert ks_one_sample(rows[:, 0], arcsine_cdf, seed=71).passed


def test_occupation_exact_exchangeable():
    a = sample_occupation_exact(4, RngStream(71, 4), 50_000)
    b = sample_occupation_exact(4, RngStream(71, 5), 50_000)
    assert ks_two_sample(a[:, 0], b[:, 3], seed=71).passed


def test_cauchy_marginal_matches_occupation_coordinate():
    for i, n in enumerate((2, 4)):
        m = sample_cauchy_spider_marginal(n, RngStream(81, 2 * i), 100_000)
        assert ((m > 0) & (m <= 1)).all()
        occ = sample_occupation_exact(n, RngStream(81, 2 * i + 1), 100_000)[:, 0]
        assert ks_two_sample(m, occ, seed=81).passed


def test_cauchy_marginal_two_rays_is_arcsine():
    m = sample_cauchy_spider_marginal(2, RngStream(81, 10), 100_000)
    assert ks_one_sample(m, arcsine_cdf, seed=81).passed


# ---------------------------------------------------------------------------
# the four arc-sine representations agree
# ---------------------------------------------------------------------------

def test_arcsine_representations_pairwise_indistinguishable():
    methods = ("cosine", "normal_ratio", "stable_ratio", "cauchy")
    batches = {
        m: sample_arcsine(RngStream(91, i), 100_000, method=m)
        for i, m in enumerate(methods)
    }
    for i, m1 in enumerate(methods):
        for m2 in methods[i + 1:]:
            report = ks_two_sample(batches[m1], batches[m2], seed=91,
                                   name=f"arcsine:{m1}~{m2}")
            assert report.passed, report.test_name


def test_arcsine_unknown_method():
    with pytest.raises(ParameterDomainError):
        sample_arcsine(RngStream(0), 10, method="polar")


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


def test_clean_scalar_mode():
    assert _clean(lambda k: np.full(k, 2.5), np.isfinite, None, None) == 2.5


def test_save_sample_batch_roundtrip(tmp_path):
    rows = sample_occupation_exact(3, RngStream(5, 0), 100)
    meta = BatchMeta()
    csv_path = tmp_path / "occ.csv"
    sidecar = save_sample_batch(csv_path, rows, "occupation", {"n": 3}, seed=5,
                                meta=meta)
    text = csv_path.read_text().splitlines()
    assert text[0] == "occupation_n3_ray1,occupation_n3_ray2,occupation_n3_ray3"
    assert len(text) == 101
    parsed = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    assert np.array_equal(parsed, rows)  # repr round-trips exactly
    info = json.loads((tmp_path / "occ.json").read_text())
    assert info["law"] == "occupation"
    assert info["n_samples"] == 100
    assert info["redraw_count"] == 0
    assert sidecar.endswith("occ.json")
