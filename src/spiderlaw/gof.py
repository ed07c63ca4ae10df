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

from . import output
from .errors import NonFiniteSamplesError, UsageError, integer
from .laws import LawSpec, _validate_rays, ratio_power_cdf
from .rng import RngStream, composite_stream_id, occupation_run
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
    """Two-sided one-sample KS test against a callable elementwise reference CDF.

    A sample already in ascending order is used as it is, and any other is
    sorted into a copy.  The CDF and D+- are then taken over
    ``output._CHUNK_ROWS`` sorted values at a time, so the only n-length
    array is the sorted sample; the statistic is the same float as from the
    whole-array formula.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 10:
        raise UsageError(f"need at least 10 samples, got {n}")
    step = output._CHUNK_ROWS
    if not all((x[lo + 1:lo + step + 1] >= x[lo:min(lo + step, n - 1)]).all()
               for lo in range(0, n - 1, step)):
        x = np.sort(x)
    d_plus, d_minus = [], []
    for lo in range(0, n, step):
        c = np.asarray(cdf(x[lo:lo + step]), dtype=float)
        i = np.arange(lo, lo + c.size)
        d_plus.append(((i + 1) / n - c).max())
        d_minus.append((c - i / n).max())
    stat = float(max(np.max(d_plus), np.max(d_minus)))
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

_MC_BAND = 4.0  # standard errors


@dataclass(frozen=True)
class Moments:
    """Count, mean and centred sum of squares of a functional's values, and
    how many of them were not finite.

    ``a.merge(b)`` is the state of a's values followed by b's (Chan, Golub
    and LeVeque's pairwise update), so a sample folded chunk by chunk in a
    fixed order has one state, whichever process made each chunk.  The state
    of one array has numpy's own mean and centred sum of squares.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    bad: int = 0

    @classmethod
    def of(cls, values) -> "Moments":
        values = np.asarray(values, dtype=float)
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            return cls(values.size, math.nan, math.nan, bad)
        mean = values.mean()
        dev = values - mean
        return cls(values.size, float(mean), float(np.multiply(dev, dev, out=dev).sum()))

    def merge(self, other: "Moments") -> "Moments":
        # exact when either side is empty, so folds may start from Moments()
        count = self.count + other.count
        delta = other.mean - self.mean
        return Moments(count, self.mean + delta * (other.count / count),
                       self.m2 + other.m2 + delta * delta * (self.count * other.count / count),
                       self.bad + other.bad)


def mc_transform_check(state: Moments, target, *, name="mc", seed=0) -> GofReport:
    """Check |mean - target| <= 4 standard errors, for the :class:`Moments`
    of a functional of iid draws made at ``seed``, folded chunk by chunk (or
    ``Moments.of`` one array).  Any non-finite value raises
    :class:`NonFiniteSamplesError` with the total count.  The statistic
    stored is the standardised deviation, so the threshold is the band
    itself."""
    if state.bad:
        raise NonFiniteSamplesError(state.bad, state.count)
    mean = state.mean
    var = state.m2 / (state.count - 1) if state.count > 1 else math.nan
    se = math.sqrt(var) / math.sqrt(state.count)
    stat = abs(mean - target) / se if se > 0 else (0.0 if mean == target else math.inf)
    return GofReport(name, float(stat), None, state.count, 0, seed, _MC_BAND, "stat_max")


# ---------------------------------------------------------------------------
# the occupation-law identity across stopping rules
# ---------------------------------------------------------------------------

_MAX_DISCARD_FRACTION = 0.01


def verify_occupation_identity(n, paths=10_000, steps=20_000, seed=0, *,
                               threshold=0.03):
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
    n = _validate_rays(n)
    config = SpiderConfig(n=n, steps=steps, paths=paths, seed=seed)

    exact_rng = RngStream(config.seed, composite_stream_id(occupation_run(n, "exact"), 0))
    vectors = {"exact": sample_occupation_exact(n, exact_rng, size=config.paths)}
    rules = {
        "fixed_time": StoppingRule.fixed_time(1.0),
        "inverse_occupation": StoppingRule.inverse_occupation(DEFAULT_OCCUPATION_LEVEL, ray=2),
        "inverse_local_time": StoppingRule.inverse_local_time(DEFAULT_LOCAL_TIME_LEVEL),
    }
    for label, rule in rules.items():
        batch = stop_batch(config, rule, run_id=occupation_run(n, label))
        discard_fraction = batch.discard_count / config.paths
        if discard_fraction > _MAX_DISCARD_FRACTION:
            raise UsageError(
                f"{label} discarded {discard_fraction:.2%} of paths, whose step "
                "totals reached 2**53 where float64 stops counting exactly; "
                "lower the steps"
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
                        seed=config.seed, threshold=threshold, rule="stat_max",
                    )
                )
    reports.append(
        ks_one_sample(
            vectors["fixed_time"][:, 0], LawSpec.spider(n).cdf,
            name=f"occupation_identity[n={n},coord1]:fixed_time~closed_form",
            seed=config.seed, threshold=threshold, rule="stat_max",
        )
    )
    return reports


# ---------------------------------------------------------------------------
# deterministic convergence of the scaled marginal to a squared Cauchy
# ---------------------------------------------------------------------------

def cauchy_square_convergence(n_values, grid_size=1000):
    """Sup-norm distance between n^2 * (first occupation fraction) and C^2.

    Entirely deterministic: both CDFs are arctangent expressions, evaluated
    on a log-spaced grid over [1e-4, 1e6] augmented with the support corner
    n^2, where the gap (2/pi) arctan(1/n) is attained.
    """
    points = []
    base = np.logspace(-4.0, 6.0, integer(grid_size, "grid size", 1))
    for n in map(_validate_rays, n_values):
        grid = np.sort(np.append(base, float(n * n)))
        # P(n^2 A1 <= x) on (0, n^2], and P(C^2 <= x) = P(|C| <= sqrt(x)), the
        # ratio-power law at mu = 1/2
        scaled = LawSpec.spider(n).cdf(np.minimum(grid / (n * n), 1.0))
        gap = np.abs(scaled - ratio_power_cdf(np.sqrt(grid), 0.5))
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
