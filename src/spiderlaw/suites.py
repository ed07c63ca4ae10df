"""Pre-registered verification suites.

Each suite is a function of its seed alone and returns a list of
:class:`GofReport`.  Sample sizes, thresholds and parameter grids are the
constants below, not arguments: the statistical checks run at documented
sizes with seeds recorded in every report, so a failure is reproducible
rather than flaky.

The seeded suites are lists of tasks, each a pure function of the seed that
returns its own reports: one per (mu, batch) of transform draws and one per
ray count of the occupation identity.  ``parallel.ordered_map`` runs them on
the usable CPUs and the reports are joined in task order, so they are the
same bytes for any CPU count; ``run_suite("all")`` runs all of them as one
map, after the deterministic suites in the calling process.  Maps nested in
a task (the walk path groups of ``stop_batch``) run serially in its worker.

A transform batch is a ``samplers.ChunkedSample`` on its own run, drawn one
chunk at a time, and each band's functional is folded chunk by chunk into
``gof.Moments``; so the only 1e6-draw array a task holds is the X^mu sample
of its KS test.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import UsageError
from .gof import (
    GofReport,
    Moments,
    cauchy_square_convergence,
    ks_one_sample,
    mc_transform_check,
    verify_occupation_identity,
)
from .laws import (
    LawSpec,
    density_mean,
    fractional_moment,
    integrate_density,
    mellin_transform,
    ratio_power_cdf,
    stieltjes_transform,
)
from .parallel import ordered_map
from .rng import transform_run
from .samplers import ChunkedSample, sample_positive_stable, sample_ratio_X
from .walk import _return_tail_table

TRANSFORM_MUS = (0.3, 0.5, 0.7)
LAPLACE_LAMBDAS = (0.5, 1.0, 2.0)
STIELTJES_S = (0.5, 1.0, 2.0)
# a 4-sigma band needs a finite variance: Var(S^(mu s)) and Var(X^(mu s))
# are finite iff 2 s < 1, for moment orders and Mellin fractions alike
MOMENT_ORDERS = (0.25, 0.375)        # orders s of E[S^(mu s)]
MELLIN_FRACTIONS = (0.25,)           # s as a fraction of mu
TRANSFORM_SAMPLES = 1_000_000
RATIO_POWER_P_MIN = 6.3e-5           # the two-sided normal tail beyond 4 sigma

NORMALIZATION_MUS = tuple(round(0.1 * k, 1) for k in range(1, 10))
SPIDER_RAYS = tuple(range(2, 11))
_CDF_Z = 0.25
MEAN_MUS = (0.25, 0.5, 0.75)

CONVERGENCE_RAYS = (2, 4, 8, 16, 32, 64)
_CONVERGENCE_GRID = 1000
_CONVERGENCE_FINAL_BOUND = 0.02
OCCUPATION_RAYS = (2, 3)
_OCCUPATION_PATHS = 10_000
_OCCUPATION_STEPS = 20_000


def _deterministic_report(name, gap, tol) -> GofReport:
    return GofReport(name, float(gap), None, 0, 0, 0, float(tol), "stat_max")


def _reports(tasks):
    """Run zero-argument tasks that each return a list of reports as one
    ordered map over the usable CPUs; their lists joined in task order."""
    return [r for part in ordered_map(lambda i: tasks[i](), len(tasks)) for r in part]


# ---------------------------------------------------------------------------
# seeded Monte-Carlo transform checks
# ---------------------------------------------------------------------------

def _batch(seed, index, draw):
    """Task ``index``'s batch of ``TRANSFORM_SAMPLES`` draws of
    ``draw(rng, size, meta)``, chunk by chunk, on its ``transform_run``."""
    batch = ChunkedSample(draw, TRANSFORM_SAMPLES, seed, 1, transform_run(index))
    for c in range(batch.chunks):
        (values,), _ = batch.chunk(c)
        yield values


def _band_checks(seed, bands, chunks):
    """One ``mc_transform_check`` per band ``(name, target, functional)``, the
    functional folded over the chunks into :class:`Moments` in chunk order."""
    states = [Moments()] * len(bands)
    for values in chunks:
        states = [state.merge(Moments.of(functional(values)))
                  for state, (_, _, functional) in zip(states, bands)]
    return [mc_transform_check(state, target, name=name, seed=seed)
            for state, (name, target, _) in zip(states, bands)]


def _stable_checks(seed, mu, index):
    """Laplace and fractional-moment bands of one batch of stable draws S."""
    bands = [(f"laplace[mu={mu},lam={lam}]", math.exp(-lam ** mu),
              lambda s, lam=lam: np.exp(np.multiply(s, -lam)))
             for lam in LAPLACE_LAMBDAS]
    bands += [(f"moment[mu={mu},s={order}]", fractional_moment(order, mu),
               lambda s, order=order: np.power(s, mu * order))
              for order in MOMENT_ORDERS]
    chunks = _batch(seed, index, functools.partial(sample_positive_stable, mu))
    return _band_checks(seed, bands, chunks)


def _ratio_checks(seed, mu, index):
    """Stieltjes and Mellin bands of one batch of ratios X = S / S', and the
    KS test of X^mu against its closed-form CDF.  X^mu is the one array kept
    whole, since KS needs the whole sample; it is sorted in place."""
    y = np.empty(TRANSFORM_SAMPLES)

    def chunks():
        lo = 0
        for x in _batch(seed, index, functools.partial(sample_ratio_X, mu)):
            np.power(x, mu, out=y[lo:lo + x.size])
            lo += x.size
            yield x

    bands = [(f"stieltjes[mu={mu},s={t}]", stieltjes_transform(t, mu),
              lambda x, t=t: 1.0 / (1.0 + np.multiply(x, t)))
             for t in STIELTJES_S]
    bands += [(f"mellin[mu={mu},s={frac * mu:g}]", mellin_transform(frac * mu, mu),
               lambda x, frac=frac: np.power(x, frac * mu))
              for frac in MELLIN_FRACTIONS]
    reports = _band_checks(seed, bands, chunks())
    y.sort()
    reports.append(ks_one_sample(
        y, lambda v: ratio_power_cdf(v, mu), name=f"ratio_power_ks[mu={mu}]",
        seed=seed, threshold=RATIO_POWER_P_MIN,
    ))
    return reports


def transform_tasks(seed):
    """Laplace, Stieltjes, Mellin and fractional-moment bands at 4 sigma, and
    a KS test of X^mu, whose mean is infinite, against its closed-form CDF.

    Per mu, one task draws a batch of stable draws S for the Laplace and
    moment checks, and one a batch of ratios X = S / S' for the others.  A
    batch is drawn and reduced one chunk of ``output._CHUNK_ROWS`` draws at a
    time (see :func:`_batch`).  Reports within one task share their draws, so
    they are correlated.
    """
    tasks = []
    for k, mu in enumerate(TRANSFORM_MUS):
        tasks.append(functools.partial(_stable_checks, seed, mu, 2 * k))
        tasks.append(functools.partial(_ratio_checks, seed, mu, 2 * k + 1))
    return tasks


def transform_suite(seed):
    """The transform checks in :func:`transform_tasks` order."""
    return _reports(transform_tasks(seed))


# ---------------------------------------------------------------------------
# deterministic density checks
# ---------------------------------------------------------------------------

def density_suite():
    """Reduction identities, normalisation, spider CDFs and mean identities.

    In L = log(X**mu) the weight p only shifts the integration interval, so
    a normalisation over all of [0, 1] would integrate g_{1/2} for every
    spider whatever n is.  The spider checks integrate [0, 1/4] instead,
    against the closed-form ``LawSpec.spider(n).cdf``, which does depend on n.
    """
    reports = []
    grid = np.arange(1, 1000) / 1000.0

    arc = LawSpec.arcsine()
    gap = np.abs(LawSpec.ratio_a(0.5).pdf(grid) - arc.pdf(grid)).max()
    reports.append(_deterministic_report("reduction[ratio_a(mu=1/2)=arcsine]", gap, 1e-12))
    gap = np.abs(LawSpec.spider(2).pdf(grid) - arc.pdf(grid)).max()
    reports.append(_deterministic_report("reduction[spider(n=2)=arcsine]", gap, 1e-12))

    reports.append(_deterministic_report(
        "normalization[arcsine]", abs(integrate_density(arc, 0.0, 1.0) - 1.0), 1e-8))
    for mu in NORMALIZATION_MUS:
        law = LawSpec.ratio_a(mu)
        gap = abs(integrate_density(law, 0.0, 1.0) - 1.0)
        reports.append(_deterministic_report(f"normalization[ratio_a,mu={mu}]", gap, 1e-8))
    for n in SPIDER_RAYS:
        law = LawSpec.spider(n)
        gap = abs(integrate_density(law, 0.0, _CDF_Z) - law.cdf(_CDF_Z))
        reports.append(_deterministic_report(f"cdf[spider,n={n},z={_CDF_Z}]", gap, 1e-8))

    for n in SPIDER_RAYS:
        law = LawSpec.spider(n)
        gap = abs(density_mean(law) - 1.0 / n)
        reports.append(_deterministic_report(f"mean[spider,n={n}]=1/n", gap, 1e-8))
    for mu in MEAN_MUS:
        law = LawSpec.ratio_a(mu)
        gap = abs(density_mean(law) - 0.5)
        reports.append(_deterministic_report(f"mean[ratio_a,mu={mu}]=1/2", gap, 1e-8))
    return reports


# ---------------------------------------------------------------------------
# occupation identity and the deterministic convergence curve
# ---------------------------------------------------------------------------

def occupation_tasks(seed):
    """One task per ray count: the occupation identity across stopping rules."""
    # built here, in the process that forks the task workers, so that they
    # inherit the first-return table rather than each building its own
    _return_tail_table()
    return [functools.partial(verify_occupation_identity, n, paths=_OCCUPATION_PATHS,
                              steps=_OCCUPATION_STEPS, seed=seed)
            for n in OCCUPATION_RAYS]


def occupation_suite(seed):
    """The occupation identity at each ray count, in :func:`occupation_tasks` order."""
    return _reports(occupation_tasks(seed))


def convergence_suite():
    points = cauchy_square_convergence(CONVERGENCE_RAYS, grid_size=_CONVERGENCE_GRID)
    distances = [p.distance for p in points]
    worst_rise = max(
        (b - a for a, b in zip(distances, distances[1:])), default=-1.0)
    reports = [
        _deterministic_report("convergence[distances strictly decreasing]",
                              max(0.0, worst_rise), 0.0),
        _deterministic_report(f"convergence[distance at n={points[-1].n}]",
                              distances[-1], _CONVERGENCE_FINAL_BOUND),
    ]
    return reports, points


SUITE_NAMES = ("transforms", "densities", "occupation", "convergence", "all")


def run_suite(name, seed):
    """Run one named suite; returns its reports and the convergence points,
    which are empty unless the suite is ``convergence`` or ``all``."""
    if name == "transforms":
        return transform_suite(seed), []
    if name == "densities":
        return density_suite(), []
    if name == "occupation":
        return occupation_suite(seed), []
    if name == "convergence":
        return convergence_suite()
    if name == "all":
        reports = density_suite()
        conv, points = convergence_suite()
        reports += conv
        reports += _reports(transform_tasks(seed) + occupation_tasks(seed))
        return reports, points
    raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
