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

First-return lengths are inverted exactly from a table up to 2**21 steps,
so fixed-time laws are exact for horizons of up to 2**21 steps.  Longer
excursions use the far-tail asymptotic P(T > 2k) ~ (pi k)**-1/2 (1 - 1/(8k)),
whose inversion is accurate to well under one step.

Paths draw in rounds of a number of excursions fixed by the configuration
and the rule.  Round r of path p is Philox4x64-10 (Salmon et al., SC'11)
keyed by ``(seed, composite_stream_id(run_id, p))`` at counter ``(0, 0, 0,
r)``: a round advances only the lowest word, so rounds never overlap.  One
Philox serves a group of paths, re-keyed with an empty buffer before each
draw, so path p is row p of a batch of any size, bit for bit, and groups
can run in any process.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterDomainError, UsageError
from .output import write_csv, write_json
from .parallel import ordered_map
from .rng import composite_stream_id

DEFAULT_OCCUPATION_LEVEL = 0.5
DEFAULT_LOCAL_TIME_LEVEL = 1.0
DEFAULT_CAP_MULTIPLIER = 1.0e5

_MAX_RAYS = 32767  # rays are floor(n v); checked to stay below n for all v < 1
_ROUND_ELEMENTS = 1 << 18  # excursions drawn per round, by one path or a group
_EXACT_STEPS = 1 << 53  # step totals are float64, exact only up to here


# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpiderConfig:
    """Walk geometry and Monte-Carlo budget.

    ``n = 1`` (a reflecting walk) is allowed for plain walks; stopping rules
    need two rays.  Statistical runs enforce ``steps >= 1000`` unless
    ``allow_small_steps`` is set (unit tests use tiny walks).
    """

    n: int
    steps: int
    paths: int = 1
    seed: int = 0
    allow_small_steps: bool = False

    def __post_init__(self):
        if int(self.n) != self.n or not 1 <= self.n <= _MAX_RAYS:
            raise ParameterDomainError(
                f"ray count must be an integer in [1, {_MAX_RAYS}]: {self.n}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ParameterDomainError(f"steps must be a positive integer: {self.steps}")
        if self.steps >= _EXACT_STEPS:
            raise ParameterDomainError(f"steps must be below 2**53: {self.steps}")
        if self.steps < 1000 and not self.allow_small_steps:
            raise ParameterDomainError(
                f"steps = {self.steps} < 1000; set allow_small_steps for tiny walks"
            )
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

    ``cap_multiplier`` bounds the simulation: a path whose rule has not fired
    within ``cap_multiplier`` times the rule's nominal horizon is discarded
    (and counted).  The inverse rules have stable(1/2)-tailed stopping times,
    so the generous default keeps the discard fraction a few per mille.
    """

    kind: str
    level: float
    ray: int | None = None
    cap_multiplier: float = DEFAULT_CAP_MULTIPLIER

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
        if self.cap_multiplier < 1.0:
            raise ParameterDomainError("cap multiplier must be >= 1")

    @classmethod
    def fixed_time(cls, level=1.0, cap_multiplier=DEFAULT_CAP_MULTIPLIER):
        return cls("fixed_time", level, None, cap_multiplier)

    @classmethod
    def inverse_occupation(cls, level=DEFAULT_OCCUPATION_LEVEL, ray=1,
                           cap_multiplier=DEFAULT_CAP_MULTIPLIER):
        return cls("inverse_occupation", level, ray, cap_multiplier)

    @classmethod
    def inverse_local_time(cls, level=DEFAULT_LOCAL_TIME_LEVEL,
                           cap_multiplier=DEFAULT_CAP_MULTIPLIER):
        return cls("inverse_local_time", level, None, cap_multiplier)

    def validate_for(self, config: SpiderConfig):
        if self.kind == "inverse_occupation" and self.ray > config.n:
            raise ParameterDomainError(
                f"ray {self.ray} out of range for an {config.n}-ray spider"
            )
        if self.kind == "inverse_local_time" and self.threshold(config) < 1:
            raise ParameterDomainError(
                "local-time level below one origin visit at this lattice scale"
            )
        if self.kind != "fixed_time" and self.cap_steps(config) > _EXACT_STEPS:
            raise ParameterDomainError(
                f"step cap {self.cap_steps(config)} exceeds 2**53, where step "
                "totals are no longer exact; lower cap_multiplier"
            )

    def nominal_steps(self, config: SpiderConfig) -> int:
        if self.kind == "fixed_time":
            return max(1, round(self.level * config.steps))
        if self.kind == "inverse_occupation":
            return max(1, round(self.level * config.steps * config.n))
        return max(1, round(self.level * self.level * config.steps))

    def cap_steps(self, config: SpiderConfig) -> int:
        return int(math.ceil(self.cap_multiplier * self.nominal_steps(config)))

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
    def kept_stopped_steps(self) -> np.ndarray:
        return self.stopped_step[self.kept]

    @property
    def last_zero_fraction(self) -> np.ndarray:
        """Last origin visit over the stopping time, for the kept paths."""
        keep = self.kept
        return self.last_zero_step[keep] / self.stopped_step[keep]


# ---------------------------------------------------------------------------
# exact first-return lengths
# ---------------------------------------------------------------------------

_RETURN_TABLE_K = 1 << 20
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


def _first_return_lengths(u: np.ndarray) -> np.ndarray:
    """Invert uniforms on (0, 1] into first-return times of the +/-1 walk.

    The length is 2k for the least k with P(T > 2k) < u.  The asymptotic
    inverse k = floor(1/(pi u^2) - 1/4) + 1 is within one of it everywhere
    in the table, so one step up and one step down against the table make it
    exact there; past the table (lengths over 2**21) the asymptotic value
    stands.
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
    return 2.0 * np.where(far, k, idx)


# ---------------------------------------------------------------------------
# the excursion engine
# ---------------------------------------------------------------------------

def _block_size(config: SpiderConfig, rule: StoppingRule) -> int:
    """Excursions each path draws per round, at most ``_ROUND_ELEMENTS``.

    The local-time rule needs exactly its threshold.  The other rules stop
    after about sqrt(2 t / pi) excursions for a horizon of t steps, with a
    half-normal spread, so sqrt(t) per round stops most paths in one round.
    The cap bounds a round's memory; a longer path takes more rounds.
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
    key, counter = [config.seed, 0], [0, 0, 0, 0]  # counter word 3 is the round
    state = {"bit_generator": "Philox", "state": {"key": key, "counter": counter},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    block = _block_size(config, rule)
    thresh = float(rule.threshold(config))
    cap = float(rule.cap_steps(config))

    counts = np.zeros((m, n))
    progress = np.zeros(m)  # the rule's running total
    complete = np.zeros(m, dtype=np.int64)  # excursions finished so far
    zero_visits = np.zeros(m, dtype=np.int64)
    last_zero = np.zeros(m)
    discarded = np.zeros(m, dtype=bool)
    alive = np.arange(m)
    slot = np.arange(block)

    while alive.size:
        a = alive.size
        draws = np.empty((a, 2, block))
        for i, p in enumerate(alive):
            key[1] = streams[p]
            gen.bit_generator.state = state
            gen.random(out=draws[i])
        counter[3] += 1
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
        discarded[idx] = tau > cap

        o = rows[~hit]
        idx = alive[o]
        progress[idx] = cum[o, -1]
        complete[idx] += block
        over = counts[idx].sum(axis=1) > cap
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
    write_csv(csv_path, header,
              [np.arange(paths)]
              + [np.ma.masked_array(col, mask=disc) for col in stats]
              + [np.where(disc, "true", "false")])


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
