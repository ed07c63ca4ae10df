"""Seedable, splittable random streams.

Samplers and verification suites draw from ``RngStream.generator``, a numpy
PCG64 generator keyed by ``(seed, stream_id)``: identical keys reproduce
identical sequences bit for bit, and distinct ``stream_id`` values yield
statistically independent streams.  Walk paths skip the wrapper and key
a Philox generator by the same pair (see :mod:`spiderlaw.walk`).

:func:`composite_stream_id` packs a run index (high 32 bits) and a path index
(low 32 bits) into one stream id, which keeps the runs of one verification apart.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterDomainError

_U64 = 1 << 64
_U32 = 1 << 32


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
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
            self._generator = np.random.Generator(np.random.PCG64(ss))
        return self._generator
