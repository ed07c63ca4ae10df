"""Seedable, splittable random streams: one counter-keyed scheme.

Every draw in the package comes from Philox4x64-10 (Salmon et al., SC'11)
keyed by ``(seed, stream_id)``, and :func:`philox_state` is the one place
that builds that key.  Samplers and verification suites draw from
``RngStream.generator``, which starts at counter block 0; walk paths re-key
one shared generator per path and round, with the round as the block (see
:mod:`spiderlaw.walk`).  Identical keys reproduce identical sequences bit
for bit, and distinct keys yield statistically independent streams.  A seed,
stream id, run or path index that is not an integer in its range raises
:class:`~spiderlaw.errors.ParameterDomainError` (:func:`~spiderlaw.errors.integer`).

:func:`composite_stream_id` packs a run index (high 32 bits) and a path index
(low 32 bits) into one stream id; a walk path and an ``RngStream`` with the
same id draw the same numbers.  The run table below names every run each
command draws from, and keeps one rule: no two draws within one command
share a key.  So any two ``verify`` tasks draw independent streams, and only
the reports of one task share draws.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import integer

_U64 = 1 << 64
_U32 = 1 << 32

# the run table: every run a command draws from
WALK_RUN = 0    # sample --law spider-walk: path p on composite_stream_id(0, p)
SAMPLE_RUN = 8  # sample: chunk c on composite_stream_id(8, c)
OCCUPATION_ROLES = ("exact", "fixed_time", "inverse_occupation", "inverse_local_time")


def transform_run(task: int) -> int:
    """``verify``'s transform task k: chunk c on ``composite_stream_id(64 + k, c)``."""
    return 64 + task


def occupation_run(n: int, role: str) -> int:
    """``verify``'s occupation identity at n rays: role i on run 4(n - 2) + i, its
    exact sampler on path 0.  n = 4 reaches run 8, which only ``sample`` draws
    from; n >= 18 would reach the transform runs, so ``verify`` keeps to n < 18."""
    return 4 * (n - 2) + OCCUPATION_ROLES.index(role)


def philox_state(seed: int, stream_id: int, block: int = 0) -> dict:
    """numpy's Philox state at key ``(seed, stream_id)`` and counter
    ``(0, 0, 0, block)``, with an empty buffer: the next draw starts afresh."""
    return {"bit_generator": "Philox",
            "state": {"key": [seed, stream_id], "counter": [0, 0, 0, block]},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def composite_stream_id(run_id: int, index: int) -> int:
    """Pack a (run, path) pair into one 64-bit stream id."""
    return (integer(run_id, "run_id", 0, _U32) << 32) | integer(index, "index", 0, _U32)


@dataclass
class RngStream:
    """One pseudorandom stream, keyed by (seed, stream_id).

    The underlying generator is created lazily and then consumed statefully,
    so a stream behaves as a cursor: construct a fresh stream (same key) to
    replay a sequence from the start.
    """

    seed: int
    stream_id: int = 0
    _generator: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        self.seed = integer(self.seed, "seed", 0, _U64)
        self.stream_id = integer(self.stream_id, "stream_id", 0, _U64)

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = np.random.Generator(np.random.Philox(0))
            self._generator.bit_generator.state = philox_state(self.seed, self.stream_id)
        return self._generator
