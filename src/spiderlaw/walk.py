"""Lattice random walk on a spider of n rays.

The walk lives on n half-lines glued at the origin: at radial distance
d >= 1 it steps to d +/- 1 with probability 1/2 each, and from the origin it
steps to distance 1 on a ray chosen uniformly.  Each unit step is attributed
to the ray being walked (a step leaving the origin counts for the freshly
chosen ray), so occupation counts always sum exactly to the number of steps;
the origin itself carries no occupation.

One excursion engine serves all three stopping rules, for any n >= 1; a
plain walk of ``steps`` steps is the fixed-time rule at level 1.  A path is
the iid sequence of its excursions away from the origin, each a
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
steps, each entry the tail rounded down, built exactly from integers, and
past it from the asymptotic inverse, checked against the tail P(T > 2k) in
float where that decides and in 50-digit ``decimal`` where it does not.
So every length below 2**53 steps is exact.  Both table checks read at the
first guess, the second through the table viewed one entry earlier (see
:func:`_first_return_lengths`).

Paths draw in rounds of a number of excursions fixed by the configuration
and the rule.  Round r of path p draws from the package's one stream
scheme (:mod:`spiderlaw.rng`) at key ``(seed, composite_stream_id(run_id,
p))`` and block r: a round advances only the counter's lowest word, so
rounds never overlap.  One Philox serves a group of paths, re-keyed by
:func:`~spiderlaw.rng.philox_state` before each draw, so path p is row p of
a batch of any size, bit for bit, and groups can run in any process.

Every round of a batch writes its draws, rays and lengths into the same
three buffers, so their pages are first touched once per process, not once
per round, and works in place where the values allow it (see
:func:`_resolve`).  Each kept value goes through the same float operations,
in the same order, as it would in fresh arrays.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterDomainError, integer, real
from .output import Blanked, sliced, write_csv, write_json
from .parallel import ordered_map
from .rng import WALK_RUN, composite_stream_id, philox_state

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
    """Walk geometry and Monte-Carlo budget; ``n = 1`` is a reflecting walk."""

    n: int
    steps: int
    paths: int = 1
    seed: int = 0

    def __post_init__(self):
        for name, label, low, high in (("n", "ray count", 1, _MAX_RAYS + 1),
                                       ("steps", "steps", 1, _EXACT_STEPS),
                                       ("paths", "paths", 1, None),
                                       ("seed", "seed", 0, 1 << 64)):
            # an integer-valued float passes; keep the int
            object.__setattr__(self, name, integer(getattr(self, name), label, low, high))


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
        # 1 and 1.0 are one rule
        object.__setattr__(self, "level", real(self.level, "level", 0, math.inf))
        if self.kind == "inverse_occupation":
            object.__setattr__(self, "ray", integer(self.ray, "ray index", 1))
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


@dataclass
class StopBatch:
    """Column arrays for a batch of stopped paths; discarded rows are flagged.
    The rule and run id stay with the caller, which ``run_walk_batch``
    writes into its run manifest.

    A path is discarded when its step total reaches 2**53, past which float64
    totals are no longer exact integers: at 20,000 steps, about one stopped
    by local time in a million.
    """

    config: SpiderConfig
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
_return_tail: np.ndarray | None = None  # inf, then the table


def _return_tail_table() -> np.ndarray:
    """RD(P(T > 2k)), the largest float at or below the tail, for k = 0..K,
    then a 0.0 sentinel at K + 1.  So an entry is below a float u exactly
    when its tail is.

    The integers L_0 = 2**128, L_k = floor(L_{k-1} (2k - 1) / (2k)) bound the
    tail as L_k <= 2**128 P(T > 2k) < L_k + k + 1, and the entry is the top
    53 bits of L_k, which L_k + k + 1 shares at every k up to K.

    The table starts one entry into ``_return_tail``, a buffer led by inf,
    so the buffer holds entry k - 1 at index k."""
    global _return_tail
    if _return_tail is None:
        tail, scaled = np.zeros(_RETURN_TABLE_K + 3), 1 << 128
        tail[:2] = math.inf, 1.0
        for k in range(1, _RETURN_TABLE_K + 1):
            scaled = scaled * (2 * k - 1) // (2 * k)
            shift = scaled.bit_length() - 53
            assert (scaled + k + 1) >> shift == scaled >> shift
            tail[k + 1] = math.ldexp(scaled >> shift, shift - 128)
        _return_tail = tail
    return _return_tail[1:]


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


def _first_return_lengths(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Invert uniforms on (0, 1] into first-return times of the +/-1 walk,
    into ``out`` when it is given, which may be ``u`` itself.

    The length is 2k for the least k with P(T > 2k) < u.  The asymptotic
    inverse k0 = floor(1/(pi u^2) - 1/4) + 1 is within one of it in the
    table, so k = k0 + [tail(k0) >= u] - [tail(k0 - 1) < u] finds it up to
    2**17 steps, exactly; the second check reads the buffer that holds
    tail(k0 - 1) at k0, so no k0 - 1 is formed.  This is the same k as
    stepping up first and checking down from there: when tail(k0) >= u,
    tail(k0 - 1) >= u too, and the down check fails either way.  Past the
    table, where float rounding of 1/(pi u^2) can move k0 by more, it steps
    against :func:`_tail_below` until exact.
    A k of 2**52 or more stands: such an excursion alone reaches the 2**53
    bound on step totals.
    """
    tail = _return_tail_table()
    k = np.multiply(u, u)
    k *= np.pi
    np.divide(1.0, k, out=k)
    k += 0.75
    np.floor(k, out=k)
    idx = np.empty(k.shape, np.intp)
    np.minimum(k, _RETURN_TABLE_K, out=idx, casting="unsafe")  # k0 >= 1
    edge = np.flatnonzero(idx == _RETURN_TABLE_K)  # only these can pass the table
    k = k.take(edge)
    up = tail.take(idx) >= u
    idx -= _return_tail.take(idx) < u  # the entry before k0
    idx += up
    far = idx.take(edge) > _RETURN_TABLE_K  # u <= P(T > 2K): only the sentinel lies below
    far, k = edge[far], k[far]
    near = k < _EXACT_STEPS / 2
    u = u.take(far[near])  # before ``out`` is written
    if out is None:
        out = np.empty(idx.shape)
    np.copyto(out, idx)
    if far.size:
        out.put(far, k)
        far, k = far[near], k[near]
        while (up := ~_tail_below(k, u)).any():
            k += up
        while (down := _tail_below(k - 1.0, u)).any():
            k -= down
        out.put(far, k)
    out *= 2.0
    return out


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


def _resolve(config: SpiderConfig, rule: StoppingRule, run_id: int, paths,
             buffers) -> dict:
    """Stop the paths with ids ``paths`` by ``rule``; returns column arrays.
    ``buffers`` holds a round's draws, rays and lengths (see
    :func:`_resolve_batch`).

    Per round, each live path makes one draw of 2 * block uniforms at its
    own key and the round's counter: the first block picks the rays
    (floor(n v), the truncation of n v >= 0), the second gives the
    first-return lengths (inverted from 1 - v, which lies in (0, 1]).

    In place within a round: the ray uniforms become n v in ``draws``, the
    lengths are inverted over the contiguous 1 - v, and the rule's progress
    is added into the cumsum (IEEE addition commutes; local time's total is
    the slot plus one, with no cumsum).  Once the crossing excursion's ray
    and length are read, the lengths from the crossing slot on are zeroed
    and each row's offset is added to its rays, so one ``bincount`` sums
    the complete excursions per (path, ray), each in slot order.
    """
    n, m = config.n, len(paths)
    seed = config.seed
    draws_buffer, rays_buffer, lengths_buffer = buffers
    streams = [composite_stream_id(run_id, p) for p in paths]
    gen = np.random.Generator(np.random.Philox(0))
    bit_generator, random = gen.bit_generator, gen.random
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
    steps_in_round = np.arange(1.0, block + 1.0)  # local time's running total

    r = 0  # the round, counter block of every key
    while alive.size:
        a = alive.size
        draws = draws_buffer[:2 * a * block].reshape(a, 2, block)
        for row, p in zip(draws, alive.tolist()):
            bit_generator.state = philox_state(seed, streams[p], r)
            random(out=row)
        r += 1
        v = draws[:, 0]
        v *= n
        rays = rays_buffer[:a * block].reshape(a, block)
        np.copyto(rays, v, casting="unsafe")  # truncation, floor for v >= 0
        lengths = lengths_buffer[:a * block].reshape(a, block)
        np.subtract(1.0, draws[:, 1], out=lengths)  # contiguous, for the gathers
        _first_return_lengths(lengths, out=lengths)

        if rule.kind == "fixed_time":
            cum = np.cumsum(lengths, axis=1)
            cum += progress[alive, None]
        elif rule.kind == "inverse_occupation":
            cum = np.multiply(lengths, rays == rule.ray - 1)  # 0.0 off the ray
            np.cumsum(cum, axis=1, out=cum)
            cum += progress[alive, None]
        else:
            cum = np.add(progress[alive, None], steps_in_round)
        crossed = cum >= thresh  # the crossing slot and those after it
        hit = crossed[:, -1]  # cum never falls, so a crossing shows in the last slot
        rows = np.arange(a)
        h, ph = rows[hit], crossed.argmax(axis=1)[hit]

        # the crossing excursion is walked up to the threshold; one that
        # lands exactly on it (always so for local time) is complete
        idx = alive[h]
        ray_h, len_h = rays[h, ph], lengths[h, ph]
        exact = cum[h, ph] == thresh
        before = np.where(ph > 0, cum[h, ph - 1], progress[idx])

        # complete excursions before the crossing one (the whole round when
        # the rule has not fired), summed per (path, ray) in one pass
        lengths[crossed] = 0.0
        rays += (rows * n)[:, None]
        counts[alive] += np.bincount(rays.ravel(), lengths.ravel(),
                                     minlength=a * n).reshape(a, n)

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
    # a round's draws, rays and lengths, reused by every round in each
    # process: a fresh array's pages fault on first touch, about 2 us each
    buffers = (np.empty(2 * _ROUND_ELEMENTS), np.empty(_ROUND_ELEMENTS, np.intp),
               np.empty(_ROUND_ELEMENTS))

    def resolve_group(k):
        lo = k * group
        return _resolve(config, rule, run_id, range(lo, min(lo + group, config.paths)),
                        buffers)

    parts = list(ordered_map(resolve_group, -(-config.paths // group)))
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


# ---------------------------------------------------------------------------
# stopping rules
# ---------------------------------------------------------------------------

def stop_batch(config: SpiderConfig, rule: StoppingRule, run_id: int = WALK_RUN) -> StopBatch:
    """Stop every path of the batch by ``rule``; discards are flagged, not dropped.

    A plain walk of ``config.steps`` steps is ``StoppingRule.fixed_time()``.
    """
    rule.validate_for(config)
    return StopBatch(config=config, **_resolve_batch(config, rule, run_id))


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
        + [Blanked(col, disc) for col in stats]
        + [np.where(disc, "true", "false")]))


def run_walk_batch(config: SpiderConfig, rule: StoppingRule, csv_path,
                   manifest_path, run_id: int = WALK_RUN, record_wall_time: bool = True):
    """Stop the batch by ``rule``, then write the per-path CSV and the JSON
    run manifest; ``record_wall_time=False`` writes a null ``wall_time_s``,
    for byte-stable output."""
    t0 = time.monotonic()
    batch = stop_batch(config, rule, run_id=run_id)
    write_batch_csv(csv_path, batch)
    write_json(manifest_path, {
        "n": config.n,
        "steps": config.steps,
        "paths": config.paths,
        "seed": config.seed,
        "run_id": run_id,
        "rule": asdict(rule),
        "discard_count": batch.discard_count,
        "wall_time_s": time.monotonic() - t0 if record_wall_time else None,
    })
    return batch
