"""Seedable, splittable random streams.

Every random quantity in the package is drawn through an :class:`RngStream`,
a thin wrapper over numpy's PCG64 keyed by ``(seed, stream_id)``.  Identical
keys reproduce identical sequences bit for bit; distinct ``stream_id`` values
yield statistically independent streams, so parallel batches simply partition
work by stream id.

Batch runs that need many substreams derive them with :func:`composite_stream_id`:
the run index occupies the high 32 bits and the path index the low 32 bits,
which keeps the streams of different runs within one verification disjoint.
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

    # thin draw helpers; all consume the stream in a fixed documented order
    def uniform(self, size=None, low=0.0, high=1.0):
        return self.generator.uniform(low, high, size)

    def normal(self, size=None):
        return self.generator.standard_normal(size)

    def exponential(self, size=None):
        return self.generator.standard_exponential(size)

    def cauchy(self, size=None):
        return self.generator.standard_cauchy(size)
