"""Lattice random walk on a spider of n rays.

The walk lives on n half-lines glued at the origin: at radial distance
d >= 1 it steps to d +/- 1 with probability 1/2 each, and from the origin it
steps to distance 1 on a ray chosen uniformly.  Each unit step is attributed
to the ray being walked (a step leaving the origin counts for the freshly
chosen ray), so occupation counts always sum exactly to the number of steps;
the origin itself carries no occupation.

One excursion engine serves plain walks and all three stopping rules.  A
path is the iid sequence of its excursions away from the origin, each a
(ray, first-return length) pair: the ray is uniform and the length follows
the first-return law P(T > 2k) = C(2k, k) 4**-k of the +/-1 walk (Feller,
vol. 1, ch. III).  Every rule is a running total crossing a threshold --
steps walked (fixed time), steps on the chosen ray (inverse occupation) or
origin returns (inverse local time) -- and the stopped path is: all complete
excursions before the crossing one, plus the part of the crossing excursion
walked up to the threshold.  An excursion that ends exactly at the threshold
is complete.  This is the same deterministic function of the excursion
sequence that a step-by-step walk computes, so the laws agree exactly; the
unit tests cross-check every rule against a stepwise reference.  The cost
grows with the number of excursions, about sqrt(steps), not with steps.

First-return lengths are inverted from a table of P(T > 2k) up to 2**17
steps, and past it from the asymptotic inverse, checked against the tail
P(T > 2k) in float where that decides and in 50-digit ``decimal`` where it
does not.  So every length past 2**17 and below 2**53 steps is exact.  The
table is a float product that drifts from the true tail by up to 165 ulps,
so a uniform between a table entry and the tail it stands for (probability
2.1e-12 in all) comes out one length off.

Paths draw in rounds of a number of excursions fixed by the configuration
and the rule.  Round r of path p draws from the package's one stream
scheme (:mod:`spiderlaw.rng`) at key ``(seed, composite_stream_id(run_id,
p))`` and block r: a round advances only the counter's lowest word, so
rounds never overlap.  One Philox serves a group of paths, re-keyed by
:func:`~spiderlaw.rng.philox_state` before each draw, so path p is row p of
a batch of any size, bit for bit, and groups can run in any process.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterDomainError, UsageError
from .output import sliced, write_csv, write_json
from .parallel import ordered_map
from .rng import composite_stream_id, philox_state

DEFAULT_OCCUPATION_LEVEL = 0.5
DEFAULT_LOCAL_TIME_LEVEL = 1.0

_MAX_RAYS = 32767  # rays are floor(n v); checked to stay below n for all v < 1
_ROUND_ELEMENTS = 1 << 16  # excursions drawn per round, by one path or a group
_EXACT_STEPS = 1 << 53  # step totals are float64, exact only below here


# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpiderConfig:
    """Walk geometry and Monte-Carlo budget.

    ``n = 1`` (a reflecting walk) is allowed for plain walks; stopping rules
    need two rays.
    """

    n: int
    steps: int
    paths: int = 1
    seed: int = 0

    def __post_init__(self):
        if int(self.n) != self.n or not 1 <= self.n <= _MAX_RAYS:
            raise ParameterDomainError(
                f"ray count must be an integer in [1, {_MAX_RAYS}]: {self.n}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ParameterDomainError(f"steps must be a positive integer: {self.steps}")
        if self.steps >= _EXACT_STEPS:
            raise ParameterDomainError(f"steps must be below 2**53: {self.steps}")
        if int(self.paths) != self.paths or self.paths < 1:
            raise ParameterDomainError(f"paths must be a positive integer: {self.paths}")
        if int(self.seed) != self.seed or not 0 <= self.seed < 1 << 64:
            raise ParameterDomainError(f"seed must be a 64-bit unsigned int: {self.seed}")


_RULE_KINDS = ("fixed_time", "inverse_occupation", "inverse_local_time")


@dataclass(frozen=True)
class StoppingRule:
    """When to freeze the occupation vector.

    ``fixed_time``          stop after ``level * steps`` steps
    ``inverse_occupation``  stop when the chosen ray's count exceeds
                            ``level * steps``
    ``inverse_local_time``  stop when the origin-visit count exceeds
                            ``level * sqrt(steps)``
    """

    kind: str
    level: float
    ray: int | None = None

    def __post_init__(self):
        if self.kind not in _RULE_KINDS:
            raise ParameterDomainError(f"unknown stopping rule: {self.kind!r}")
        if not (math.isfinite(self.level) and self.level > 0):
            raise ParameterDomainError(f"level must be strictly positive: {self.level}")
        if self.kind == "inverse_occupation":
            if self.ray is None or int(self.ray) != self.ray or self.ray < 1:
                raise ParameterDomainError(f"need a 1-based ray index, got {self.ray}")
        elif self.ray is not None:
            raise ParameterDomainError(f"{self.kind} takes no ray index")

    @classmethod
    def fixed_time(cls, level=1.0):
        return cls("fixed_time", level)

    @classmethod
    def inverse_occupation(cls, level=DEFAULT_OCCUPATION_LEVEL, ray=1):
        return cls("inverse_occupation", level, ray)

    @classmethod
    def inverse_local_time(cls, level=DEFAULT_LOCAL_TIME_LEVEL):
        return cls("inverse_local_time", level)

    def validate_for(self, config: SpiderConfig):
        if self.kind == "inverse_occupation" and self.ray > config.n:
            raise ParameterDomainError(
                f"ray {self.ray} out of range for an {config.n}-ray spider"
            )
        if self.kind == "inverse_local_time" and self.threshold(config) < 1:
            raise ParameterDomainError(
                "local-time level below one origin visit at this lattice scale"
            )
        if self.nominal_steps(config) >= _EXACT_STEPS:
            raise ParameterDomainError(
                f"nominal horizon {self.nominal_steps(config)} steps is not below "
                "2**53, where step totals are no longer exact"
            )

    def nominal_steps(self, config: SpiderConfig) -> int:
        if self.kind == "fixed_time":
            return max(1, round(self.level * config.steps))
        if self.kind == "inverse_occupation":
            return max(1, round(self.level * config.steps * config.n))
        return max(1, round(self.level * self.level * config.steps))

    def threshold(self, config: SpiderConfig) -> int:
        """The running total at which the rule fires: steps walked, steps on
        the chosen ray, or origin returns."""
        if self.kind == "fixed_time":
            return self.nominal_steps(config)
        if self.kind == "inverse_occupation":
            return math.floor(self.level * config.steps) + 1
        return math.floor(self.level * math.sqrt(config.steps))


_PLAIN_WALK = StoppingRule.fixed_time(1.0)


@dataclass
class StopBatch:
    """Column arrays for a batch of stopped paths; discarded rows are flagged.

    A path is discarded when its step total reaches 2**53, past which float64
    totals are no longer exact integers: at 20,000 steps, about one stopped
    by local time in a million.

    ``rule`` is None for a plain walk of ``config.steps`` steps.
    """

    config: SpiderConfig
    rule: StoppingRule | None
    run_id: int
    counts: np.ndarray
    stopped_step: np.ndarray
    zero_visits: np.ndarray
    last_zero_step: np.ndarray
    discarded: np.ndarray

    @property
    def kept(self) -> np.ndarray:
        return ~self.discarded

    @property
    def discard_count(self) -> int:
        return int(self.discarded.sum())

    @property
    def fractions(self) -> np.ndarray:
        """Occupation fractions of the kept paths, shape (kept, n)."""
        keep = self.kept
        return self.counts[keep] / self.stopped_step[keep, None]

    @property
    def last_zero_fraction(self) -> np.ndarray:
        """Last origin visit over the stopping time, for the kept paths."""
        keep = self.kept
        return self.last_zero_step[keep] / self.stopped_step[keep]


# ---------------------------------------------------------------------------
# exact first-return lengths
# ---------------------------------------------------------------------------

_RETURN_TABLE_K = 1 << 16
_return_tail: np.ndarray | None = None


def _return_tail_table() -> np.ndarray:
    """P(T > 2k) for k = 0..K, then a 0.0 sentinel at K + 1."""
    global _return_tail
    if _return_tail is None:
        k = np.arange(1, _RETURN_TABLE_K + 1, dtype=np.float64)
        tail = np.zeros(_RETURN_TABLE_K + 2)
        tail[0] = 1.0
        np.cumprod((2.0 * k - 1.0) / (2.0 * k), out=tail[1:-1])
        _return_tail = tail
    return _return_tail


# past the table the float tail is good to a few ulps; within this relative
# distance of u it cannot decide, and decimal does
_FAR_TAIL_MARGIN = 1e-13


def _decimal_tail_below(k: int, u: float) -> bool:
    """P(T > 2k) < u, for k past the table, to 50 digits.

    log P(T > 2k) = log Gamma(k + 1/2) - log Gamma(k + 1) - log(pi) / 2 is
    -log(pi k) / 2 - 1/(8k) + 1/(192k^3) - 1/(640k^5) + 17/(14336k^7)
    - 31/(18432k^9) + 691/(180224k^11) by the Stirling series, whose k^-j
    term is (-1)^j (2 - 2^-j) B_{j+1} / (j (j+1)) for odd j, with a
    remainder below 1e-57 for k >= 2**16.  Only near-tie draws get here, so
    ``decimal`` is imported here, not with the package.
    """
    from decimal import Decimal, localcontext

    pi = Decimal("3.14159265358979323846264338327950288419716939937510582097")
    with localcontext() as ctx:
        ctx.prec = 50
        k = Decimal(k)
        log_tail = ((pi * k).ln() / -2 - 1 / (8 * k) + 1 / (192 * k ** 3)
                    - 1 / (640 * k ** 5) + 17 / (14336 * k ** 7)
                    - 31 / (18432 * k ** 9) + 691 / (180224 * k ** 11))
        return log_tail < Decimal(u).ln()


def _tail_below(k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """P(T > 2k) < u for each k past the table, from the asymptotic tail
    (pi k)**-1/2 (1 - 1/(8k) + 1/(128k^2)), whose next term is below 2e-17
    relative there; where u lies too close to it, from the decimal tail."""
    tail = (1.0 - (1.0 - 1.0 / (16.0 * k)) / (8.0 * k)) / np.sqrt(np.pi * k)
    below = tail < u
    for i in np.flatnonzero(np.abs(tail - u) <= _FAR_TAIL_MARGIN * u):
        below[i] = _decimal_tail_below(int(k[i]), float(u[i]))
    return below


def _first_return_lengths(u: np.ndarray) -> np.ndarray:
    """Invert uniforms on (0, 1] into first-return times of the +/-1 walk.

    The length is 2k for the least k with P(T > 2k) < u.  The asymptotic
    inverse k = floor(1/(pi u^2) - 1/4) + 1 is within one of it in the
    table, so one step up and one step down against the table find it up to
    2**17 steps, exact but for a u within the table's float drift of a
    tail.  Past the table, where float rounding of 1/(pi u^2) can move it by
    more, it steps against :func:`_tail_below` until exact.
    A k of 2**52 or more stands: such an excursion alone reaches the 2**53
    bound on step totals.
    """
    tail = _return_tail_table()
    k = np.multiply(u, u)
    k *= np.pi
    np.divide(1.0, k, out=k)
    k += 0.75
    np.floor(k, out=k)
    idx = np.minimum(k, _RETURN_TABLE_K).astype(np.intp)
    idx += tail[idx] >= u
    idx -= tail[idx - 1] < u
    far = idx > _RETURN_TABLE_K  # u <= P(T > 2K): only the sentinel lies below
    lengths = np.where(far, k, idx)
    far = np.flatnonzero(far)
    far = far[k.take(far) < _EXACT_STEPS / 2]
    k, u = k.take(far), u.take(far)
    while (up := ~_tail_below(k, u)).any():
        k += up
    while (down := _tail_below(k - 1.0, u)).any():
        k -= down
    lengths.put(far, k)
    lengths *= 2.0
    return lengths


# ---------------------------------------------------------------------------
# the excursion engine
# ---------------------------------------------------------------------------

def _block_size(config: SpiderConfig, rule: StoppingRule) -> int:
    """Excursions each path draws per round, at most ``_ROUND_ELEMENTS``.

    The local-time rule needs exactly its threshold.  The other rules stop
    after about sqrt(2 t / pi) excursions for a horizon of t steps, with a
    half-normal spread, so sqrt(t) per round stops most paths in one round.
    ``_ROUND_ELEMENTS`` bounds a round's memory; a longer path takes more
    rounds.
    """
    if rule.kind == "inverse_local_time":
        block = rule.threshold(config)
    else:
        block = math.ceil(math.sqrt(rule.nominal_steps(config)))
    return min(block, _ROUND_ELEMENTS)


def _resolve(config: SpiderConfig, rule: StoppingRule, run_id: int, paths) -> dict:
    """Stop the paths with ids ``paths`` by ``rule``; returns column arrays.

    Per round, each live path makes one draw of 2 * block uniforms at its
    own key and the round's counter: the first block picks the rays
    (floor(n v)), the second gives the first-return lengths (inverted from
    1 - v, which lies in (0, 1]).
    """
    n, m = config.n, len(paths)
    streams = [composite_stream_id(run_id, p) for p in paths]
    gen = np.random.Generator(np.random.Philox(0))
    block = _block_size(config, rule)
    thresh = float(rule.threshold(config))
    limit = float(_EXACT_STEPS)

    counts = np.zeros((m, n))
    progress = np.zeros(m)  # the rule's running total
    complete = np.zeros(m, dtype=np.int64)  # excursions finished so far
    zero_visits = np.zeros(m, dtype=np.int64)
    last_zero = np.zeros(m)
    discarded = np.zeros(m, dtype=bool)
    alive = np.arange(m)
    slot = np.arange(block)

    r = 0  # the round, counter block of every key
    while alive.size:
        a = alive.size
        draws = np.empty((a, 2, block))
        for i, p in enumerate(alive):
            gen.bit_generator.state = philox_state(config.seed, streams[p], r)
            gen.random(out=draws[i])
        r += 1
        rays = np.floor(draws[:, 0] * n).astype(np.intp)
        lengths = _first_return_lengths(1.0 - draws[:, 1])

        if rule.kind == "fixed_time":
            gain = lengths
        elif rule.kind == "inverse_occupation":
            gain = np.where(rays == rule.ray - 1, lengths, 0.0)
        else:
            gain = np.ones_like(lengths)
        cum = progress[alive, None] + np.cumsum(gain, axis=1)
        crossed = cum >= thresh
        hit = crossed.any(axis=1)
        pos = np.where(hit, crossed.argmax(axis=1), block)

        # complete excursions before the crossing one (the whole round when
        # the rule has not fired), summed per (path, ray) in one pass
        rows = np.arange(a)
        flat = rays + (rows * n)[:, None]
        weights = np.where(slot < pos[:, None], lengths, 0.0)
        counts[alive] += np.bincount(flat.ravel(), weights.ravel(),
                                     minlength=a * n).reshape(a, n)

        # the crossing excursion is walked up to the threshold; one that
        # lands exactly on it (always so for local time) is complete
        h, ph = rows[hit], pos[hit]
        idx = alive[h]
        ray_h, len_h = rays[h, ph], lengths[h, ph]
        exact = cum[h, ph] == thresh
        before = np.where(ph > 0, cum[h, ph - 1], progress[idx])
        part = np.where(exact, len_h, thresh - before)
        counts[idx, ray_h] += part
        tau = counts[idx].sum(axis=1)
        zero_visits[idx] = 1 + complete[idx] + ph + exact
        last_zero[idx] = np.where(exact, tau, tau - part)
        discarded[idx] = tau >= limit  # a total this large may be rounded

        o = rows[~hit]
        idx = alive[o]
        progress[idx] = cum[o, -1]
        complete[idx] += block
        over = counts[idx].sum(axis=1) >= limit
        discarded[idx[over]] = True
        alive = idx[~over]

    keep = ~discarded
    counts[discarded] = 0.0
    return {
        "counts": counts,
        "stopped_step": np.where(keep, counts.sum(axis=1), 0.0).astype(np.int64),
        "zero_visits": np.where(keep, zero_visits, 0),
        "last_zero_step": np.where(keep, last_zero, 0.0).astype(np.int64),
        "discarded": discarded,
    }


def _resolve_batch(config: SpiderConfig, rule: StoppingRule, run_id: int) -> dict:
    """Stop ``config.paths`` paths on their own keys, a group at a time.

    Each group is one task of ``parallel.ordered_map`` on the process's
    usable CPUs; a path's draws depend only on its key, so the columns,
    concatenated in group order, do not depend on the CPU count.
    """
    group = _ROUND_ELEMENTS // _block_size(config, rule)
    _return_tail_table()  # built once here, not once per worker

    def resolve_group(k):
        lo = k * group
        return _resolve(config, rule, run_id, range(lo, min(lo + group, config.paths)))

    parts = list(ordered_map(resolve_group, -(-config.paths // group)))
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _check_stoppable(config: SpiderConfig, rule: StoppingRule):
    rule.validate_for(config)
    if config.n < 2:
        raise UsageError("stopping rules need at least 2 rays")


def simulate_batch(config: SpiderConfig, run_id: int = 0) -> StopBatch:
    """Simulate ``config.paths`` independent paths of ``config.steps`` steps.

    A plain walk is the fixed-time rule at level 1; the batch carries
    ``rule=None`` and never discards a path.
    """
    return StopBatch(config=config, rule=None, run_id=run_id,
                     **_resolve_batch(config, _PLAIN_WALK, run_id))


# ---------------------------------------------------------------------------
# stopping rules
# ---------------------------------------------------------------------------

def stop_batch(config: SpiderConfig, rule: StoppingRule, run_id: int = 0) -> StopBatch:
    """Stop every path of the batch by ``rule``; discards are flagged, not dropped."""
    _check_stoppable(config, rule)
    return StopBatch(config=config, rule=rule, run_id=run_id,
                     **_resolve_batch(config, rule, run_id))


# ---------------------------------------------------------------------------
# batch output
# ---------------------------------------------------------------------------

def write_batch_csv(csv_path, batch: StopBatch):
    """Per-path summary rows; discarded paths keep their flag and empty stats."""
    n, paths = batch.config.n, batch.config.paths
    header = (
        ["path_id"]
        + [f"frac_ray{j + 1}" for j in range(n)]
        + ["zero_visits", "last_zero_fraction", "stopped_step", "discarded"]
    )
    keep, disc = batch.kept, batch.discarded
    fracs = np.zeros((paths, n))
    fracs[keep] = batch.fractions
    lz = np.zeros(paths)
    lz[keep] = batch.last_zero_fraction
    stats = list(fracs.T) + [batch.zero_visits, lz, batch.stopped_step]
    write_csv(csv_path, header, paths, sliced(
        [np.arange(paths)]
        + [np.ma.masked_array(col, mask=disc) for col in stats]
        + [np.where(disc, "true", "false")]))


def write_run_manifest(path, batch: StopBatch, wall_time_s: float | None):
    """JSON manifest of one run; pass ``wall_time_s=None`` for byte-stable output."""
    config, rule = batch.config, batch.rule
    write_json(path, {
        "n": config.n,
        "steps": config.steps,
        "paths": config.paths,
        "seed": config.seed,
        "run_id": batch.run_id,
        "rule": None if rule is None else asdict(rule),
        "discard_count": batch.discard_count,
        "wall_time_s": wall_time_s,
    })


def run_walk_batch(config: SpiderConfig, rule: StoppingRule | None, csv_path,
                   manifest_path, run_id: int = 0, record_wall_time: bool = True):
    """Simulate, then emit the per-path CSV and the JSON run manifest."""
    t0 = time.monotonic()
    if rule is None:
        batch = simulate_batch(config, run_id=run_id)
    else:
        batch = stop_batch(config, rule, run_id=run_id)
    write_batch_csv(csv_path, batch)
    wall = time.monotonic() - t0 if record_wall_time else None
    write_run_manifest(manifest_path, batch, wall)
    return batch
