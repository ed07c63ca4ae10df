"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
statistical criteria use the pre-registered seed below; thresholds are fixed
here and never loosened at runtime.
"""
import time
import xml.etree.ElementTree as ET

import numpy as np

from spiderlaw import (
    LawSpec,
    RngStream,
    SpiderConfig,
    StoppingRule,
    cauchy_square_convergence,
    density_mean,
    integrate_density,
    ks_one_sample,
    sample_occupation_exact,
    stop_batch,
    verify_occupation_identity,
)
from spiderlaw.cli import main
from spiderlaw.suites import transform_suite

SEED = 20260808

GRID_999 = np.arange(1, 1000) / 1000.0


def _conclude(num, name, ok, detail):
    print(f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_reduction_identities():
    t0 = time.monotonic()
    gap_ratio = np.abs(LawSpec.ratio_a(0.5).pdf(GRID_999) - LawSpec.arcsine().pdf(GRID_999)).max()
    gap_spider = np.abs(LawSpec.spider(2).pdf(GRID_999) - LawSpec.arcsine().pdf(GRID_999)).max()
    elapsed = time.monotonic() - t0
    ok = gap_ratio <= 1e-12 and gap_spider <= 1e-12 and elapsed < 1.0
    _conclude(1, "reduction identities",
              ok, f"max gaps {gap_ratio:.2e}/{gap_spider:.2e}, {elapsed:.2f}s")


def test_criterion_02_normalization():
    t0 = time.monotonic()
    gaps = [abs(integrate_density(LawSpec.arcsine(), 0.0, 1.0) - 1.0)]
    for mu in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        law = LawSpec.ratio_a(mu)
        gaps.append(abs(integrate_density(law, 0.0, 1.0) - 1.0))
    for n in range(2, 11):
        law = LawSpec.spider(n)
        gaps.append(abs(integrate_density(law, 0.0, 1.0) - 1.0))
    elapsed = time.monotonic() - t0
    worst = max(gaps)
    ok = worst <= 1e-8 and elapsed < 10.0
    _conclude(2, "density normalization", ok,
              f"worst |integral - 1| = {worst:.2e} over {len(gaps)} laws, {elapsed:.1f}s")


def test_criterion_03_mean_identities():
    gaps = []
    for n in range(2, 11):
        law = LawSpec.spider(n)
        gaps.append(abs(density_mean(law) - 1.0 / n))
    for mu in (0.25, 0.5, 0.75):
        law = LawSpec.ratio_a(mu)
        gaps.append(abs(density_mean(law) - 0.5))
    worst = max(gaps)
    _conclude(3, "mean identities", worst <= 1e-8, f"worst gap {worst:.2e}")


def test_criterion_04_transform_suite():
    t0 = time.monotonic()
    reports = transform_suite(SEED)
    elapsed = time.monotonic() - t0
    failed = [r for r in reports if not r.passed]
    worst = max(r.statistic for r in reports)
    ok = not failed and elapsed < 60.0
    _conclude(4, "transform suite (4-sigma bands at 1e6 draws)", ok,
              f"{len(reports)} checks, worst z = {worst:.2f}, {elapsed:.1f}s"
              + (f"; failed: {[r.test_name for r in failed]}" if failed else ""))


def test_criterion_05_exact_sampler_matches_closed_form():
    t0 = time.monotonic()
    worst_p = 1.0
    for i, n in enumerate((2, 3, 5)):
        rows = sample_occupation_exact(n, RngStream(SEED, 1000 + i), 100_000)
        report = ks_one_sample(rows[:, 0], LawSpec.spider(n).cdf,
                               seed=SEED, threshold=0.01)
        worst_p = min(worst_p, report.p_value)
        assert report.passed, (n, report.p_value)
    elapsed = time.monotonic() - t0
    ok = worst_p >= 0.01 and elapsed < 30.0
    _conclude(5, "exact occupation sampler vs closed form", ok,
              f"min KS p-value {worst_p:.3f} over n in (2,3,5), {elapsed:.1f}s")


def test_criterion_06_stopping_rule_identity():
    t0 = time.monotonic()
    worst = 0.0
    details = []
    for n in (2, 3):
        reports = verify_occupation_identity(n, paths=10_000, steps=20_000,
                                             seed=SEED, threshold=0.03)
        for report in reports:
            worst = max(worst, report.statistic)
            assert report.passed, (report.test_name, report.statistic)
        details.append(f"n={n}: max KS {max(r.statistic for r in reports):.4f}")
    elapsed = time.monotonic() - t0
    ok = worst <= 0.03 and elapsed < 600.0
    _conclude(6, "stopping-rule identity (pairwise KS <= 0.03)", ok,
              "; ".join(details) + f", {elapsed:.0f}s")


def test_occupation_identity_five_rays():
    # same identity at n = 5; part of the pre-registered property set
    reports = verify_occupation_identity(5, paths=10_000, steps=20_000,
                                         seed=SEED, threshold=0.03)
    for report in reports:
        assert report.passed, (report.test_name, report.statistic)


def test_criterion_07_lattice_convergence():
    t0 = time.monotonic()
    stats = []
    for run, steps in enumerate((1_000, 10_000, 100_000)):
        config = SpiderConfig(n=3, steps=steps, paths=5000, seed=SEED)
        batch = stop_batch(config, StoppingRule.fixed_time(), run_id=run)
        report = ks_one_sample(batch.fractions[:, 0], LawSpec.spider(3).cdf, seed=SEED)
        stats.append(report.statistic)
    elapsed = time.monotonic() - t0
    nonincreasing = all(b <= a + 0.005 for a, b in zip(stats, stats[1:]))
    ok = nonincreasing and stats[-1] <= 0.02
    _conclude(7, "lattice refinement convergence", ok,
              "KS " + " -> ".join(f"{s:.4f}" for s in stats) + f", {elapsed:.0f}s")


def test_criterion_08_classical_arcsine_functionals():
    t0 = time.monotonic()
    config = SpiderConfig(n=2, steps=10_000, paths=5000, seed=SEED)
    batch = stop_batch(config, StoppingRule.fixed_time(), run_id=7)
    rep_zero = ks_one_sample(batch.last_zero_fraction, LawSpec.arcsine().cdf, seed=SEED,
                             threshold=0.02, rule="stat_max")
    rep_occ = ks_one_sample(batch.fractions[:, 0], LawSpec.arcsine().cdf, seed=SEED,
                            threshold=0.02, rule="stat_max")
    elapsed = time.monotonic() - t0
    ok = rep_zero.passed and rep_occ.passed
    _conclude(8, "last-zero and occupation vs arc-sine (n=2)", ok,
              f"KS last-zero {rep_zero.statistic:.4f}, occupation "
              f"{rep_occ.statistic:.4f}, {elapsed:.0f}s")


def test_criterion_09_cauchy_square_convergence():
    t0 = time.monotonic()
    points = cauchy_square_convergence((2, 4, 8, 16, 32, 64))
    distances = [p.distance for p in points]
    elapsed = time.monotonic() - t0
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    # grid-oracle values: the sup gap sits at the support corner n^2 and
    # equals (2/pi) arctan(1/n)
    frozen = [0.295167, 0.155958, 0.079167, 0.039737, 0.019888, 0.009946]
    matches = all(abs(d - f) < 1e-4 for d, f in zip(distances, frozen))
    ok = decreasing and distances[-1] < 0.02 and matches and elapsed < 5.0
    _conclude(9, "scaled marginal converges to squared Cauchy", ok,
              "distances " + ", ".join(f"{d:.4f}" for d in distances)
              + f", {elapsed:.2f}s")


def test_criterion_10_figure_reproduction(tmp_path):
    code1 = main(["figure-ratio", "--out", str(tmp_path / "fig_ratio"),
                  "--deterministic"])
    code2 = main(["figure-spider", "--out", str(tmp_path / "fig_spider"),
                  "--deterministic"])
    assert code1 == 0 and code2 == 0

    ratio_tree = ET.parse(tmp_path / "fig_ratio.svg")
    spider_tree = ET.parse(tmp_path / "fig_spider.svg")
    n_ratio = sum(1 for el in ratio_tree.getroot().iter() if el.tag.endswith("path"))
    n_spider = sum(1 for el in spider_tree.getroot().iter() if el.tag.endswith("path"))
    assert n_ratio == 5 and n_spider == 5

    # emitted curves re-satisfy the deterministic identities
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in (tmp_path / "fig_ratio_ratio_a_mu0.5.csv")
                     .read_text().splitlines()[2:-1]])
    reduction_gap = np.abs(rows[:, 1] - LawSpec.arcsine().pdf(rows[:, 0])).max()
    assert reduction_gap <= 1e-12
    for mu in (0.1, 0.25, 0.5, 0.75, 0.9):
        law = LawSpec.ratio_a(mu)
        assert abs(integrate_density(law, 0.0, 1.0) - 1.0) <= 1e-8
        assert abs(density_mean(law) - 0.5) <= 1e-8
    cdf_at_tenth = []
    for n in (2, 3, 4, 5, 8):
        law = LawSpec.spider(n)
        assert abs(integrate_density(law, 0.0, 1.0) - 1.0) <= 1e-8
        assert abs(density_mean(law) - 1.0 / n) <= 1e-8
        cdf_at_tenth.append(float(LawSpec.spider(n).cdf(0.1)))
    monotone = all(a < b for a, b in zip(cdf_at_tenth, cdf_at_tenth[1:]))
    ok = monotone and reduction_gap <= 1e-12
    _conclude(10, "figure outputs reproduce the density laws", ok,
              f"cdf(0.1) over n: " + ", ".join(f"{c:.3f}" for c in cdf_at_tenth))
