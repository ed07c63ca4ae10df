import math

import numpy as np
import pytest

from spiderlaw import ParameterDomainError, RngStream, composite_stream_id


def test_same_key_same_sequence():
    a = RngStream(123, 7).uniform(1000)
    b = RngStream(123, 7).uniform(1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123, 0).uniform(1000)
    b = RngStream(123, 1).uniform(1000)
    assert not np.array_equal(a, b)


def test_stream_cross_correlation_small():
    n = 100_000
    a = RngStream(2024, 0).uniform(n)
    b = RngStream(2024, 1).uniform(n)
    corr = abs(np.corrcoef(a, b)[0, 1])
    assert corr <= 4.0 / math.sqrt(n), corr


def test_composite_stream_id_packs_run_and_path():
    sid = composite_stream_id(3, 17)
    assert sid >> 32 == 3
    assert sid & 0xFFFFFFFF == 17
    with pytest.raises(ParameterDomainError):
        composite_stream_id(-1, 0)
    with pytest.raises(ParameterDomainError):
        composite_stream_id(0, 1 << 32)


@pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -4), (1 << 64, 0), (0, 1 << 64)])
def test_key_domain(seed, stream):
    with pytest.raises(ParameterDomainError):
        RngStream(seed, stream)
