"""Seedable, splittable random streams: one counter-keyed scheme.

Every draw in the package comes from Philox4x64-10 (Salmon et al., SC'11)
keyed by ``(seed, stream_id)``, and :func:`philox_state` is the one place
that builds that key.  Samplers and verification suites draw from
``RngStream.generator``, which starts at counter block 0; walk paths re-key
one shared generator per path and round, with the round as the block (see
:mod:`spiderlaw.walk`).  Identical keys reproduce identical sequences bit
for bit, and distinct keys yield statistically independent streams.

:func:`composite_stream_id` packs a run index (high 32 bits) and a path index
(low 32 bits) into one stream id.  Walk paths and ``RngStream`` share that
namespace, so a walk path and a stream with the same id draw the same
numbers; the runs in use are kept apart:

- runs 0-3, walks: ``verify``'s occupation identity walks on runs 1-3 and
  draws its exact sampler from ``composite_stream_id(0, 0)``; the benchmark
  walks on runs 0-3; ``sample --law spider-walk`` walks on run 0;
- run 8: the chunks of ``sample`` (see :mod:`spiderlaw.samplers`);
- runs 64 and up: ``verify``'s suite batches, run 64 plus the task index
  (see :mod:`spiderlaw.suites`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterDomainError

_U64 = 1 << 64
_U32 = 1 << 32


def philox_state(seed: int, stream_id: int, block: int = 0) -> dict:
    """numpy's Philox state at key ``(seed, stream_id)`` and counter
    ``(0, 0, 0, block)``, with an empty buffer: the next draw starts afresh."""
    return {"bit_generator": "Philox",
            "state": {"key": [seed, stream_id], "counter": [0, 0, 0, block]},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def composite_stream_id(run_id: int, index: int) -> int:
    """Pack a (run, path) pair into one 64-bit stream id."""
    if not 0 <= run_id < _U32:
        raise ParameterDomainError(f"run_id out of range: {run_id}")
    if not 0 <= index < _U32:
        raise ParameterDomainError(f"index out of range: {index}")
    return (run_id << 32) | index


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
        if not 0 <= int(self.seed) < _U64:
            raise ParameterDomainError(f"seed must be a 64-bit unsigned int: {self.seed}")
        if not 0 <= int(self.stream_id) < _U64:
            raise ParameterDomainError(
                f"stream_id must be a 64-bit unsigned int: {self.stream_id}"
            )
        self.seed = int(self.seed)
        self.stream_id = int(self.stream_id)

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = np.random.Generator(np.random.Philox(0))
            self._generator.bit_generator.state = philox_state(self.seed, self.stream_id)
        return self._generator
