import math

import numpy as np
import pytest

from spiderlaw import ParameterDomainError, RngStream, composite_stream_id
from spiderlaw.rng import philox_state


def test_same_key_same_sequence():
    a = RngStream(123, 7).generator.random(1000)
    b = RngStream(123, 7).generator.random(1000)
    assert np.array_equal(a, b)
    # an integer-valued float key is the int key
    assert np.array_equal(RngStream(123.0, 7.0).generator.random(1000), a)


def test_distinct_streams_differ():
    a = RngStream(123, 0).generator.random(1000)
    b = RngStream(123, 1).generator.random(1000)
    assert not np.array_equal(a, b)


def test_stream_cross_correlation_small():
    n = 100_000
    a = RngStream(2024, 0).generator.random(n)
    b = RngStream(2024, 1).generator.random(n)
    corr = abs(np.corrcoef(a, b)[0, 1])
    assert corr <= 4.0 / math.sqrt(n), corr


def test_stream_is_philox_keyed_by_seed_and_stream_id():
    for seed, stream in [(0, 0), (123, 7), (2 ** 64 - 1, composite_stream_id(64, 3))]:
        key = np.array([seed, stream], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).random(9)
        assert np.array_equal(RngStream(seed, stream).generator.random(9), expected)


def test_philox_state_block_is_counter_word_3():
    # one generator re-keyed with a part-used buffer, as walk rounds do
    gen = np.random.Generator(np.random.Philox(0))
    for block in (0, 1, 5):
        gen.bit_generator.state = philox_state(3, 11, block)
        reference = np.random.Philox(key=[3, 11], counter=[0, 0, 0, block])
        assert np.array_equal(gen.random(9), np.random.Generator(reference).random(9))


def test_composite_stream_id_packs_run_and_path():
    sid = composite_stream_id(3, 17)
    assert sid >> 32 == 3
    assert sid & 0xFFFFFFFF == 17
    assert composite_stream_id(3.0, 17.0) == sid
    with pytest.raises(ParameterDomainError):
        composite_stream_id(-1, 0)
    with pytest.raises(ParameterDomainError):
        composite_stream_id(0, 1 << 32)


@pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -4), (1 << 64, 0), (0, 1 << 64)])
def test_key_domain(seed, stream):
    with pytest.raises(ParameterDomainError):
        RngStream(seed, stream)
