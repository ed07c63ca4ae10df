"""Statistical verification: KS tests, Monte-Carlo bands, convergence curves.

Every check produces a :class:`GofReport` whose verdict is a pure function of
the recorded statistic (or p-value) and the pre-registered threshold, and
which embeds the seed that generated its data, so any report can be
reproduced bit for bit.  P-values use the asymptotic Kolmogorov distribution,
with the alternating series truncated once terms drop below 1e-12; all tests
here run at sample sizes of 1e4 and up, where the asymptotics are sharp.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSamplesError, UsageError
from .laws import spider_cdf
from .rng import RngStream, composite_stream_id
from .samplers import sample_occupation_exact
from .walk import (
    DEFAULT_LOCAL_TIME_LEVEL,
    DEFAULT_OCCUPATION_LEVEL,
    SpiderConfig,
    StoppingRule,
    stop_batch,
)


def kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(t) = P(K > t)."""
    if t <= 0.05:
        return 1.0
    total = 0.0
    sign = 1.0
    for r in range(1, 1000):
        term = math.exp(-2.0 * r * r * t * t)
        total += sign * term
        if term < 1e-12:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


@dataclass(frozen=True)
class GofReport:
    """Outcome of one check; ``rule`` states how the verdict was decided."""

    test_name: str
    statistic: float
    p_value: float | None
    n1: int
    n2: int
    seed: int
    threshold: float
    rule: str  # "p_min": pass iff p_value >= threshold; "stat_max": statistic <= threshold

    @property
    def passed(self) -> bool:
        if self.rule == "p_min":
            return self.p_value is not None and self.p_value >= self.threshold
        if self.rule == "stat_max":
            return self.statistic <= self.threshold
        raise UsageError(f"unknown verdict rule: {self.rule!r}")

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_line(self) -> str:
        payload = {
            "test_name": self.test_name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n1": self.n1,
            "n2": self.n2,
            "seed": self.seed,
            "threshold": self.threshold,
            "rule": self.rule,
            "verdict": self.verdict,
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class ConvergencePoint:
    """Sup-norm CDF distance at one ray count."""

    n: int
    distance: float

    def __post_init__(self):
        if not 0.0 <= self.distance <= 1.0:
            raise UsageError(f"a CDF distance lies in [0, 1]: {self.distance}")


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov tests
# ---------------------------------------------------------------------------

def ks_one_sample(samples, cdf, *, name="ks1", seed=0, threshold=0.01,
                  rule="p_min") -> GofReport:
    """Two-sided one-sample KS test against a callable reference CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 10:
        raise UsageError(f"need at least 10 samples, got {n}")
    c = np.asarray(cdf(x), dtype=float)
    d_plus = (np.arange(1, n + 1) / n - c).max()
    d_minus = (c - np.arange(0, n) / n).max()
    stat = float(max(d_plus, d_minus))
    p = kolmogorov_sf(math.sqrt(n) * stat)
    return GofReport(name, stat, p, n, 0, seed, threshold, rule)


def ks_two_sample(a, b, *, name="ks2", seed=0, threshold=0.01,
                  rule="p_min") -> GofReport:
    """Two-sided two-sample KS test."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise UsageError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / n1
    cdf_b = np.searchsorted(b, pooled, side="right") / n2
    stat = float(np.abs(cdf_a - cdf_b).max())
    effective = math.sqrt(n1 * n2 / (n1 + n2))
    p = kolmogorov_sf(effective * stat)
    return GofReport(name, stat, p, n1, n2, seed, threshold, rule)


# ---------------------------------------------------------------------------
# Monte-Carlo transform checks
# ---------------------------------------------------------------------------

def mc_transform_check(sampler, functional, target, n_samples, rng: RngStream,
                       *, name="mc", band=4.0) -> GofReport:
    """Check |mean functional(draws) - target| <= band * standard error.

    ``sampler(rng, size)`` must return ``size`` draws.  The statistic stored
    is the standardised deviation, so the threshold is the band itself.
    """
    values = np.asarray(functional(sampler(rng, int(n_samples))), dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise NonFiniteSamplesError(bad, values.size)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    stat = abs(mean - target) / se if se > 0 else math.inf * abs(mean - target)
    if se == 0.0 and mean == target:
        stat = 0.0
    return GofReport(name, float(stat), None, int(n_samples), 0, rng.seed,
                     float(band), "stat_max")


# ---------------------------------------------------------------------------
# the occupation-law identity across stopping rules
# ---------------------------------------------------------------------------

_RUN_EXACT, _RUN_FIXED, _RUN_OCC, _RUN_LT = 0, 1, 2, 3


def verify_occupation_identity(n, paths=10_000, steps=20_000, seed=0, *,
                               occupation_level=None, local_time_level=None,
                               threshold=0.03, max_discard_fraction=0.01):
    """Compare occupation marginals across stopping rules.

    Runs the walk under the fixed-time, inverse-occupation (pinning ray 2)
    and inverse-local-time rules, draws the matching exact sampler batch, and
    returns all pairwise two-sample KS reports on the first-coordinate
    marginals, plus a one-sample report of the fixed-time marginal against
    the closed-form CDF.  For n >= 3 the vector law is probed further by the
    same pairwise tests on the sum of the first two coordinates (for n = 2
    that sum is identically 1).  The KS statistics are bounded by
    ``threshold``, a budget for lattice bias plus sampling noise at these
    sizes.
    """
    if int(n) != n or n < 2:
        raise UsageError(f"the occupation identity needs n >= 2 rays: {n}")
    n = int(n)
    config = SpiderConfig(n=n, steps=int(steps), paths=int(paths), seed=int(seed))
    occ_level = DEFAULT_OCCUPATION_LEVEL if occupation_level is None else occupation_level
    lt_level = DEFAULT_LOCAL_TIME_LEVEL if local_time_level is None else local_time_level

    exact_rng = RngStream(seed, composite_stream_id(_RUN_EXACT, 0))
    vectors = {"exact": sample_occupation_exact(n, exact_rng, size=config.paths)}
    rules = {
        "fixed_time": (StoppingRule.fixed_time(1.0), _RUN_FIXED),
        "inverse_occupation": (StoppingRule.inverse_occupation(occ_level, ray=2), _RUN_OCC),
        "inverse_local_time": (StoppingRule.inverse_local_time(lt_level), _RUN_LT),
    }
    for label, (rule, run_id) in rules.items():
        batch = stop_batch(config, rule, run_id=run_id)
        discard_fraction = batch.discard_count / config.paths
        if discard_fraction > max_discard_fraction:
            raise UsageError(
                f"{label} discarded {discard_fraction:.2%} of paths; "
                "raise the cap multiplier or lower the level"
            )
        vectors[label] = batch.fractions

    probes = [("coord1", lambda v: v[:, 0])]
    if n >= 3:
        probes.append(("coord1+2", lambda v: v[:, 0] + v[:, 1]))

    reports = []
    labels = list(vectors)
    for probe_name, probe in probes:
        pools = {label: probe(vectors[label]) for label in labels}
        for i, la in enumerate(labels):
            for lb in labels[i + 1:]:
                reports.append(
                    ks_two_sample(
                        pools[la], pools[lb],
                        name=f"occupation_identity[n={n},{probe_name}]:{la}~{lb}",
                        seed=seed, threshold=threshold, rule="stat_max",
                    )
                )
    reports.append(
        ks_one_sample(
            vectors["fixed_time"][:, 0], lambda z: spider_cdf(z, n),
            name=f"occupation_identity[n={n},coord1]:fixed_time~closed_form",
            seed=seed, threshold=threshold, rule="stat_max",
        )
    )
    return reports


# ---------------------------------------------------------------------------
# deterministic convergence of the scaled marginal to a squared Cauchy
# ---------------------------------------------------------------------------

def _scaled_marginal_cdf(x, n):
    """CDF of n^2 A1 where A1 = 1 / (1 + (n-1)^2 C^2), supported on (0, n^2]."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    out[x <= 0.0] = 0.0
    inner = (x > 0.0) & (x < n * n)
    xi = x[inner]
    out[inner] = (2.0 / np.pi) * np.arctan((n - 1) * np.sqrt(xi) / np.sqrt(n * n - xi))
    return out


def _cauchy_square_cdf(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = (2.0 / np.pi) * np.arctan(np.sqrt(x[pos]))
    return out


def cauchy_square_convergence(n_values, grid_size=1000):
    """Sup-norm distance between n^2 * (first occupation fraction) and C^2.

    Entirely deterministic: both CDFs are arctangent expressions, evaluated
    on a log-spaced grid over [1e-4, 1e6] augmented with the support corner
    n^2, where the gap (2/pi) arctan(1/n) is attained.
    """
    points = []
    base = np.logspace(-4.0, 6.0, int(grid_size))
    for n in n_values:
        if int(n) != n or n < 2:
            raise UsageError(f"ray counts must be integers >= 2: {n}")
        n = int(n)
        grid = np.sort(np.append(base, float(n * n)))
        gap = np.abs(_scaled_marginal_cdf(grid, n) - _cauchy_square_cdf(grid))
        points.append(ConvergencePoint(n=n, distance=float(gap.max())))
    return points


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def write_reports_jsonl(reports, path):
    with open(str(path), "w") as fh:
        for report in reports:
            fh.write(report.to_json_line())
            fh.write("\n")


def summary_table(reports) -> str:
    """Human-readable fixed-width table, one row per report."""
    width = max((len(r.test_name) for r in reports), default=10)
    lines = [f"{'check':<{width}}  {'statistic':>12}  {'p-value':>10}  "
             f"{'threshold':>10}  verdict"]
    for r in reports:
        p = "-" if r.p_value is None else f"{r.p_value:.4f}"
        lines.append(
            f"{r.test_name:<{width}}  {r.statistic:>12.6f}  {p:>10}  "
            f"{r.threshold:>10.4g}  {r.verdict}"
        )
    failed = sum(not r.passed for r in reports)
    lines.append(f"{len(reports)} checks, {failed} failed")
    return "\n".join(lines)
