"""Every field the CSV byte path writes equals ``str`` of the value, bit for
bit: the float kernel against ``repr`` over raw bit patterns and a sweep of
the cases a shortest-digits algorithm gets wrong first, ints and strings
against ``str``."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiderlaw.fields import field_bytes

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def _written(values) -> list[bytes]:
    return [row[row != 0].tobytes() for row in field_bytes(values)]


def _expected(values) -> list[bytes]:
    return [repr(v).encode() if isinstance(v, float) else str(v).encode()
            for v in np.asarray(values).tolist()]


def _assert_written(values):
    written, expected = _written(values), _expected(values)
    wrong = [(w, e) for w, e in zip(written, expected) if w != e]
    assert not wrong, wrong[:5]
    assert len(written) == len(expected)


_SPECIAL = [int(np.array(x).view(np.uint64)) for x in (np.inf, -np.inf, np.nan, -0.0)]


@PROPERTY
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
@example(_SPECIAL + [0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF, 1])
def test_any_float64_bit_pattern_is_written_as_its_repr(patterns):
    # every pattern is a float64: normals, subnormals, both zeros, inf, nan
    _assert_written(np.array(patterns, np.uint64).view(np.float64))


def test_the_edge_floats_are_written_as_their_repr():
    powers = [np.ldexp(1.0, k) for k in range(-1074, 1024)]
    tens = []
    for e in range(-323, 309):
        ten = float(f"1e{e}")
        tens += [ten, np.nextafter(ten, 0.0), np.nextafter(ten, np.inf)]
    edges = [1e-4, 1e-5, 1e16, 1e17, 9999999999999998.0, 0.5, 0.0, np.inf, np.nan,
             2.0 ** -1022, np.finfo(float).max, np.finfo(float).eps]
    edges += [np.nextafter(x, y) for x in (1e-4, 1e16) for y in (0.0, np.inf)]
    edges += [float(2**53 + i) for i in range(-64, 65)]
    values = np.array(powers + tens + edges)
    subnormals = np.arange(1, 1 << 14, dtype=np.uint64).view(np.float64)  # below 2^-1060
    for batch in (values, -values, subnormals, -subnormals, np.arange(-3000.0, 3001.0)):
        _assert_written(batch)


def test_int_fields_are_their_digits():
    info = np.iinfo(np.int64)
    _assert_written(np.array([info.min, info.max, 0, -1, 1, 9, -10, 10**18, -(10**18)]
                             + list(range(-1000, 1001)), np.int64))
    _assert_written(np.array([5, 12, 700], np.int64))  # a block without a sign column


def test_string_fields_are_their_bytes():
    assert _written(np.array(["true", "false", "x"])) == [b"true", b"false", b"x"]
