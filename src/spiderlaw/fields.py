"""CSV rows of numpy columns as bytes, each field ``str`` of its ``.tolist()`` value.

:func:`csv_rows` lays equal-length columns out as ``csv.writer`` would, a
masked entry being an empty field.  Each block of about ``_BLOCK_CELLS``
fields becomes one NUL-padded ``uint8`` matrix, a row per table row with
the separators in place, and the matrix without its NULs is the block's
text.  :func:`field_bytes` gives a column's part of it: one NUL-padded row
per value.  A float field is ``repr`` of the value: its shortest round-trip
digits, in fixed notation when the decimal point falls -3 to 16 places from
the first digit (``0.0001``, ``1234.5``, and ``9999999999999998.0`` is the
last) and otherwise as ``d.ddde±XX`` (``1e-05``, ``1e+16``).  An int field
is its decimal digits, and a string field its ASCII bytes.

The shortest digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), run on ``uint64`` arrays as Java's
``DoubleToDecimal`` runs it on one value: for v = c 2^q, v and the bounds of
its rounding interval are scaled by a 126-bit approximation g of 10^-k, the
products are rounded to odd, and they pick the shortest decimal in the
interval, or the nearer of two (the even one on a tie).  One product of g
serves v and both bounds.  g, k and the shift of each binary exponent come
from one table built exactly from Python ints when this module is imported
(:func:`_tables`, about 16 ms), which ``output.write_csv`` does on the first
table it writes, not ``import spiderlaw``, and before its workers fork.
``±0.0`` takes the fixed layout; subnormals, ``inf`` and ``nan`` are rare
enough to take ``repr`` itself, one value at a time.

A field has fixed columns, NUL where a character is absent: the sign, the
integer places, the point, the fraction places and the exponent.  Each
value's digits reach its places through one window over a padded row of
digits, so no value is formatted alone.
"""
from __future__ import annotations

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_M52 = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_ONE = np.float64(1.0).view(_U)
_POW10 = np.array([10 ** j for j in range(1, 20)], _U)  # an int below 10^j has <= j digits
_ZERO, _DOT, _MINUS, _PLUS, _E = 48, 46, 45, 43, 101
_ASCII = np.array([int("30" * j or "0", 16) for j in range(9)], _U)  # "0" in the low j bytes
_BLOCK_CELLS = 12288  # fields formatted at once
_COMMA = np.frombuffer(b",", np.uint8)
_CRLF = np.frombuffer(b"\r\n", np.uint8)


def _tables():
    """Per binary exponent and spacing, Schubfach's k, shift h and g = g1 2^63 + g0.

    Row ``bq + 2048 * irregular`` serves a double with biased exponent bq;
    a power of two above 2^-1022 has irregular spacing (its lower neighbour
    is half as far as its upper).  10^-k = beta 2^r with
    2^125 <= beta < 2^126 and g = floor(beta) + 1; h (2 to 5) puts v,
    shifted left by h + 2, at 2^127 per unit of the decimal scale.  Rows no
    double uses (bq = 0 and 2047, which ``repr`` formats, and an irregular
    bq = 1) repeat bq = 1023, so every index is valid.
    """
    k, h, g1, g0 = (np.empty(4096, dtype) for dtype in (np.int64, _U, _U, _U))
    for ix in range(4096):
        bq, irregular = ix % 2048, ix >= 2048
        if bq in (0, 2047) or (bq == 1 and irregular):
            bq = 1023
        q = bq - 1075
        kk = (q * 661971961083 - (274743187321 if irregular else 0)) >> 41
        r = (-kk * 217706 >> 16) - 125  # floor(log2(10^-k)) - 125
        num = 10 ** max(-kk, 0) << max(-r, 0)
        g = num // (10 ** max(kk, 0) << max(r, 0)) + 1
        k[ix], h[ix] = kk, q + r + 127
        g1[ix], g0[ix] = g >> 63, g & ((1 << 63) - 1)
    return k, h, g1, g0


_TABLES = _tables()


# The arithmetic below updates its temporaries in place where it can: fewer
# fresh arrays keep a block's working set in cache.

def _mulhi(a, b0, b1):
    """The high 64 bits of the 128-bit products a * b, b given as its 32-bit halves."""
    a0, a1 = a & _M32, a >> _U(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = a0 * b0
    mid >>= _U(32)
    mid += p01 & _M32
    mid += p10 & _M32
    mid >>= _U(32)
    p01 >>= _U(32)
    p10 >>= _U(32)
    a1 *= b1
    a1 += p01
    a1 += p10
    a1 += mid
    return a1


def _add128(hi, lo, a, shift, sign):
    """(hi, lo) + sign * (a << shift), modulo 2^128, for 1 <= shift <= 63."""
    a_lo, a_hi = a << shift, a >> (_U(64) - shift)
    if sign > 0:
        lo2 = lo + a_lo
        a_hi += hi
        a_hi += lo2 < a_lo
        return a_hi, lo2
    carry = lo < a_lo
    np.subtract(hi, a_hi, out=a_hi)
    a_hi -= carry
    np.subtract(lo, a_lo, out=a_lo)
    return a_hi, a_lo


def _rop(y1, y0, x1):
    """Round to odd of (g1 2^63 + g0) cp / 2^127, from the words y1, y0 of
    g1 cp and the high word x1 of g0 cp, as Java's ``DoubleToDecimal.rop``."""
    z = y0 >> _U(1)
    z += x1
    v = z >> _U(63)
    v += y1
    z &= _M63
    z += _M63
    z >>= _U(63)
    v |= z
    return v


def _shortest(mag):
    """Shortest round-trip decimals of positive normal doubles given by their bits.

    Returns (f, p): f has exactly 17 digits, its trailing zeros included,
    and the value is 0.f * 10^p.
    """
    c = (mag & _M52) | _HIDDEN
    irregular = (c == _HIDDEN) & (mag > _HIDDEN)
    ix = (mag >> _U(52)).astype(np.intp)
    ix[irregular] += 2048
    k, h, g1, g0 = (table.take(ix) for table in _TABLES)
    # v at 4 units per ulp, shifted by h; the interval's bounds lie 2 units
    # above and 2 below (1 below a power of two), so their products with g
    # are v's product plus or minus g shifted
    cp = c << (h + _U(2))
    cp0, cp1 = cp & _M32, cp >> _U(32)
    y1, y0 = _mulhi(g1, cp0, cp1), g1 * cp
    x1, x0 = _mulhi(g0, cp0, cp1), g0 * cp
    vb = _rop(y1, y0, x1)
    above, below = h + _U(1), h + _U(1) - irregular
    vbr = _rop(*_add128(y1, y0, g1, above, 1), _add128(x1, x0, g0, above, 1)[0])
    vbl = _rop(*_add128(y1, y0, g1, below, -1), _add128(x1, x0, g0, below, -1)[0])
    odd = c & _U(1)
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    sp10 = (s // _U(10)) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    # both s and s + 1 in the interval: the nearer, the even one on a tie
    one_in = uin != win
    t_picked = (one_in & win) | (~one_in & (((vb & _U(3)) + (s & _U(1))) > _U(2)))
    f = np.where(upin != wpin, sp10 + wpin * _U(10), s + t_picked)
    short = f < _U(10 ** 16)
    return np.where(short, f * _U(10), f), k + 17 - short


def _swar8(x):
    """Each x < 10^8 as 8 digit bytes, most significant first (little-endian)."""
    hi = x // _U(10000)
    y = hi * _U(10000)
    np.subtract(x, y, out=y)
    y <<= _U(32)
    y |= hi
    for mul, shift, mask, base, width in ((5243, 19, 0x0000007F0000007F, 100, 16),
                                          (103, 10, 0x000F000F000F000F, 10, 8)):
        hi = y * _U(mul)
        hi >>= _U(shift)
        hi &= _U(mask)
        y -= hi * _U(base)
        y <<= _U(width)
        y |= hi
    return y


def _top_byte(w):
    """Index of the highest nonzero byte of each digit word (its top digit is
    below 16, so rounding to float64 cannot carry into the next byte)."""
    return (np.frexp(w.astype(np.float64))[1] - 1) >> 3


def _float_fields(values):
    bits = values.view(_U)
    rows = len(bits)
    mag = bits & _M63
    odd_ones = np.flatnonzero((mag >> _U(52)) - _U(1) >= _U(2046))  # 0, subnormal, inf, nan
    odd_bits = mag[odd_ones]
    mag[odd_ones] = _ONE  # 1.0 stands in; a zero then keeps its one digit as 0
    zero, fallback = odd_ones[odd_bits == 0], odd_ones[odd_bits != 0]
    f, p = _shortest(mag)
    sci = (p < -3) | (p > 16)
    wide = sci.copy()
    wide[fallback] = True
    pe = np.where(wide, 1, p)  # a d.ddd mantissa sits where 1 <= value < 10 would
    lo, top = int(pe.min()), int(pe.max())
    whole = max(1, top)

    # a row of words: pad, the 17 digits and NULs, pad; the window of a value
    # starts so that its digit pe falls on the last integer place
    pad = -(-(whole - lo) // 8)
    row = np.zeros((rows, pad + 3 + max(0, -(-(top - lo - 7) // 8))), _U)
    hi = f // _U(10 ** 9)
    f -= hi * _U(10 ** 9)
    low = f // _U(10)
    f -= low * _U(10)
    first, second = _swar8(hi), _swar8(low)  # digits 1-8 and 9-16, one byte each
    n = np.where(f != 0, 17, np.where(second != 0, 9 + _top_byte(second), 1 + _top_byte(first)))
    # ASCII for the n significant digits; trailing zeros stay NUL
    first |= _ASCII.take(np.minimum(n, 8))
    second |= _ASCII.take(np.clip(n - 8, 0, 8))
    f += (f != 0) * _U(_ZERO)
    first[zero] = _ZERO
    row[:, pad], row[:, pad + 1], row[:, pad + 2] = first, second, f
    frac = max(1, int((n - pe).max()))
    width = 8 * row.shape[1]
    starts = np.arange(0, rows * width, width) + (8 * pad - whole) + pe
    span = whole + frac  # each window is one void item, so the gather copies it whole
    windows = np.ndarray((rows * width - span + 1,), np.dtype((np.void, span)), row, strides=(1,))
    places = windows[starts].view(np.uint8).reshape(rows, span)
    # zeros the digits do not give: the units of a value below 1, the fraction's
    # leading zeros, the last integer places of a long integer, and x.0
    places[:, whole - 1] |= (pe <= 0) * np.uint8(_ZERO)
    for i in range(-lo):
        places[:, whole + i] |= (pe < -i) * np.uint8(_ZERO)
    if top > 1:
        j = np.arange(whole)[:, None]
        places[:, :whole] |= ((j >= whole - pe + n) * np.uint8(_ZERO)).T
    places[:, whole] |= ((n <= pe) & ~wide) * np.uint8(_ZERO)

    neg = (bits >> _U(63)).astype(bool)
    signed = bool(neg.any())
    cols = signed + whole + 1 + frac + 5 * bool(sci.any())
    out = np.zeros((rows, max(cols, 24 if len(fallback) else 0)), np.uint8)
    out[:, 0] = neg * np.uint8(_MINUS)
    out[:, signed:signed + whole] = places[:, :whole]
    out[:, signed + whole] = np.where(sci & (n == 1), 0, _DOT)
    out[:, signed + whole + 1:cols - 5 * bool(sci.any())] = places[:, whole:]
    at = np.flatnonzero(sci)
    if len(at):
        x = p[at] - 1
        ax = np.abs(x)
        hundreds = ax // 100
        out[at, cols - 5] = _E
        out[at, cols - 4] = np.where(x < 0, _MINUS, _PLUS)
        out[at, cols - 3] = np.where(hundreds > 0, hundreds + _ZERO, 0)
        out[at, cols - 2] = ax // 10 - hundreds * 10 + _ZERO
        out[at, cols - 1] = ax % 10 + _ZERO
    if len(fallback):
        out[fallback] = 0
        for i, v in zip(fallback.tolist(), values[fallback].tolist()):
            text = repr(v).encode()
            out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _int_fields(values):
    values = values.astype(np.int64)
    neg = values < 0
    mag = values.view(_U)
    mag = np.where(neg, _U(0) - mag, mag)  # 2^63 for the most negative
    rows = len(mag)
    words = np.empty((rows, 3), _U)  # 24 digits, leading zeros included
    mid = mag // _U(10 ** 8)
    words[:, 0] = _swar8(mid // _U(10 ** 8))
    words[:, 1] = _swar8(mid - (mid // _U(10 ** 8)) * _U(10 ** 8))
    words[:, 2] = _swar8(mag - mid * _U(10 ** 8))
    digits = np.searchsorted(_POW10, mag, side="right") + 1
    width = int(digits.max())
    places = words.view(np.uint8)[:, 24 - width:]
    places |= (np.arange(width) >= (width - digits)[:, None]) * np.uint8(_ZERO)
    if not neg.any():
        return places
    return np.concatenate([(neg * np.uint8(_MINUS))[:, None], places], axis=1)


def field_bytes(values) -> np.ndarray:
    """The fields of a nonempty 1-D float, signed int or string array, one
    NUL-padded ``uint8`` row per value; a row without its NULs is ``str`` of
    the value."""
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind == "f":
        return _float_fields(np.ascontiguousarray(values, np.float64))
    if kind == "i":
        return _int_fields(values)
    if kind in "US":
        encoded = values.astype(np.bytes_)
        return encoded.view(np.uint8).reshape(len(values), encoded.dtype.itemsize)
    raise TypeError(f"no CSV field for dtype {values.dtype}")


def csv_rows(columns) -> bytes:
    """Rows of equal-length columns as CSV bytes, a block of about
    ``_BLOCK_CELLS`` fields at a time, which keeps numpy's temporaries small."""
    step = max(1, _BLOCK_CELLS // len(columns))
    return b"".join(_block_rows([column[lo:lo + step] for column in columns])
                    for lo in range(0, len(columns[0]), step))


def _block_rows(columns) -> bytes:
    """Columns of one dtype are formatted as one array; each column's fields,
    NUL rows where it is masked, then go between the separators."""
    rows = len(columns[0])
    by_dtype = {}
    for j, column in enumerate(columns):
        by_dtype.setdefault(column.dtype, []).append(j)
    cells = [None] * len(columns)
    for group in by_dtype.values():
        group_cells = field_bytes(np.concatenate([np.ma.getdata(columns[j]) for j in group]))
        for i, j in enumerate(group):
            cells[j] = group_cells[i * rows:(i + 1) * rows]
            cells[j][np.ma.getmaskarray(columns[j])] = 0
    parts = []
    for column_cells in cells:
        parts += [column_cells, np.broadcast_to(_COMMA, (rows, 1))]
    parts[-1] = np.broadcast_to(_CRLF, (rows, 2))
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")
