"""The `%.17g` text of every float that `lendgame solve` and `dynamics`
write: 17 significant digits, enough to read back the same double, so that
outputs are byte-stable and diff meaningfully.

`float_text` formats a float array, n to a line, by array operations with
the same bytes as `%`; integer columns go through it as exact floats, which
read the same as `%d` below 2^53.  It formats _ENTRIES floats per call of
the engine, and `blocks` cuts a table into the blocks of rows that a writer
formats and writes one at a time, so that what a writer holds at once is
about one chunk's texts, whatever the table's length.
"""

from __future__ import annotations

import numpy as np


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


# `%.17g` by array operations, for every block of floats written.
#
# Digits.  For |x| in [1e-10, 1e15) let k = floor(log10 |x|) and p = 16 - k.
# The 17 significant digits are the integer nearest to n = |x| 10^p, in
# [1e16, 1e17), with a tie to even as `%` rounds it.  With |x| = M 2^e,
# M < 2^53 an integer, n = M 5^p 2^-s for s = -(e + p).  Here p lies in [1, 27]
# and s in [1, 60], so 5^p < 2^63 and M 5^p < 2^116: four products of 32-bit
# limbs give it exactly in uint64, and shifts and masks split it into n's
# integer part and the rest, M 5^p mod 2^s, which decides the rounding.  So
# the digits are exactly rounded, ties included, as in Ryu printf (Adams,
# OOPSLA 2019), with a table of 5^p alone.  log10 can put k one off near a
# power of ten; an integer part outside [1e16, 1e17) shows it, and the
# chunk's n is computed again with k corrected.  No digits round up to 1e17:
# n would lie within 5e-18 relative of 1e17, but the largest double below
# 10^j, for j from -9 to 15, lies at least 1.6e-17 relative below it.  `%`
# formats the rest: 0, subnormals, inf, nan and every other |x| outside
# [1e-10, 1e15).  (Above 1e15 x can be an integer, s <= 0, and from 1e17 n
# needs a division by 10^-p.)
#
# Text.  `%g` writes fixed notation for -4 <= k < 17, else d.ddde+XX, and
# strips trailing zeros; here k <= 14, so an exponent is negative.  Two
# windows of the digit string, padded with '0's on the left and taken at
# offsets that depend on k, make the two halves of a text row: the first
# ends at the digit of 10^0 and the second starts at it, where the point
# goes, so the integer digits lie left of a fixed column and the fraction
# right of it.  Windows are fancy-indexed views whose items overlap (see
# _bytes_view), so one gather moves every half by its own offset.
# A window of _OUT bytes from each text's first byte, masked to the text
# and its separator, then packs the texts end to end.
_ENTRIES = 2 ** 12   # floats per call of _format_chunk
_LOW = np.uint64(2 ** 32 - 1)
_POW5 = 5 ** np.arange(28, dtype=np.uint64)   # 5^p for p = 16 - k
_POW5_LOW, _POW5_HIGH = _POW5 & _LOW, _POW5 >> 32   # its 32-bit limbs
# |x| lies in [1e-10, 1e15) where its bits less those of 1e-10, wrapped
# around in uint64, are below _FAST_SPAN.
_FAST_LOW = np.float64(1e-10).view(np.uint64)
_FAST_SPAN = np.float64(1e15).view(np.uint64) - _FAST_LOW
_ONE = np.float64(1.0).view(np.uint64)
_G = np.arange(10_000, dtype=np.uint32)
# Each 4-digit group 0000..9999 as 4 ASCII bytes in a uint32, and its
# trailing zeros (4 for 0000).
_GROUP = (48 + _G // 1000 | (48 + _G // 100 % 10) << 8 | (48 + _G // 10 % 10) << 16
          | (48 + _G % 10) << 24).astype("<u4")
_GROUP_ZEROS = ((_G % 10 == 0).astype(np.uint8) + (_G % 100 == 0) + (_G % 1000 == 0)
                + (_G == 0))
del _G
# A half of a text row holds the point, 20 digits (k = -4) and a separator;
# a digit row starts with the '0's that a first window takes at k = -4.
_HALF = 22           # bytes per half of a text row
_LEFT = _HALF + 3    # '0's before the 17 digits of a digit row
_WIDTH = 2 * _HALF   # bytes per row of the digit and text buffers
_ROWS = np.arange(_ENTRIES) * _WIDTH   # the first byte of each row
_OUT = 25            # longest text, "-2.2250738585072014e-308", and a separator
# Item x of _PREFIX is x True and then False bools.
_PREFIX = np.tri(_OUT + 1, _OUT, -1, dtype=bool).view(f"V{_OUT}")[:, 0]


def _bytes_view(buf: np.ndarray, dtype: str, offset: int, stride: int) -> np.ndarray:
    """A 1-D view of buf's bytes: items of dtype at offset, offset + stride,
    and so on.  With stride 1 the items overlap: item i is the window of
    bytes that starts at offset + i."""
    size = np.dtype(dtype).itemsize
    return np.ndarray(((buf.nbytes - offset - size) // stride + 1,), dtype, buf, offset, (stride,))


def _decimal(values: np.ndarray):
    """(digits, k, fast): the 17 significant digits of |values| as integers
    in [1e16, 1e17), their decimal exponents, and where they hold, |values|
    in [1e-10, 1e15) (see above); digits and k are meaningless elsewhere."""
    bits = values.view(np.uint64) & (2 ** 63 - 1)   # of |values|
    fast = bits - _FAST_LOW < _FAST_SPAN
    if not fast.all():
        bits[~fast] = _ONE
    m = (bits & (2 ** 52 - 1)) | 2 ** 52
    ml, mh = m & _LOW, m >> 32
    k = np.floor(np.log10(bits.view(np.float64))).astype(np.int64)
    top = bits >> 52   # e + 1075
    while True:   # a second time where log10 put some k one off
        # s = -(e + p) = k + 1059 - top, in [1, 60], wrapped around in uint64
        s = (k.view(np.uint64) + 1059) - top
        p = 16 - k
        fl, fh = _POW5_LOW.take(p), _POW5_HIGH.take(p)
        # m f = hi 2^64 + lo, from m = mh 2^32 + ml and f = fh 2^32 + fl.
        low, mid = ml * fl, ml * fh + mh * fl
        carry = (low >> 32) + (mid & _LOW)
        lo = (carry << 32) | (low & _LOW)
        hi = mh * fh + (mid >> 32) + (carry >> 32)
        up = 64 - s
        n = (hi << up) | (lo >> s)   # the integer part
        if not (n - 10 ** 16 >= 9 * 10 ** 16).any():   # every n in [1e16, 1e17)
            break
        k += (n >= 10 ** 17).astype(np.int64) - (n < 10 ** 16)
    # n rounds up where the rest, lo mod 2^s, is above half, or half and n
    # odd: shifted to the top bits, with n's parity in the lowest, above 2^63.
    return n + (((lo << up) | (n & 1)) > 2 ** 63), k, fast


def _digit_rows(digits: np.ndarray):
    """(rows, sig): row i holds _LEFT '0's and then the 17 digits of
    digits[i]; sig[i] counts them without trailing zeros.  An extra row pads
    the windows that run past the last one."""
    count = digits.size
    rows = np.full((count + 1, _WIDTH), ord("0"), np.uint8)
    # A lead digit and four 4-digit groups: one uint64 division splits the
    # digits into two halves below 10^9, and the rest is uint32 arithmetic.
    high = digits // 10 ** 8
    low = (digits - high * 10 ** 8).astype(np.uint32)
    high = high.astype(np.uint32)
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    groups = []
    for half in (low, high):
        head = half // 10 ** 4
        groups += [half - head * 10 ** 4, head]
    for at in range(4):
        _bytes_view(rows, "<u4", _LEFT + 13 - 4 * at, _WIDTH)[:count] = _GROUP.take(groups[at])
    rows[:count, _LEFT] = 48 + lead
    # Trailing zeros, group by group from the last while a group is 0000;
    # the lead digit of 17 digits is not 0.
    sig = 17 - _GROUP_ZEROS.take(groups[0])
    trailing = np.flatnonzero(groups[0] == 0)
    for group in groups[1:]:
        if not trailing.size:
            break
        group = group[trailing]
        sig[trailing] -= _GROUP_ZEROS.take(group)
        trailing = trailing[group == 0]
    return rows, sig


def _format_chunk(values: np.ndarray, seps: np.ndarray) -> bytes:
    """The `%.17g` texts of values, each followed by its separator."""
    count = values.size
    digits, k, fast = _decimal(values)
    rows, sig = _digit_rows(digits)
    del digits
    # Fixed notation puts the point at column _HALF of a text row, over the
    # second window's copy of the digit of 10^0, and the digit of 10^j at
    # column _HALF - 1 - j, or _HALF - j for j < 0.  Exponent notation takes
    # the layout of k = 0.
    expo = k < -4
    kf = np.where(expo, 0, k)
    base = _ROWS[:count]
    at = np.zeros((count + 1, 2), np.intp)   # a last row pads the last window
    at[:count, 0] = base + kf + (_LEFT + 1 - _HALF)
    np.add(at[:count, 0], _HALF - 1, out=at[:count, 1])
    text = _bytes_view(rows, f"V{_HALF}", 0, 1)[at].view(np.uint8)
    del rows, at
    text[:, _HALF] = ord(".")
    start = _HALF - 1 - np.maximum(kf, 0)
    frac = sig - kf   # one more than the digits after the point
    end = np.where(frac >= 2, _HALF + frac, _HALF)   # no bare point
    flat = text.reshape(-1)
    neg = np.flatnonzero(np.signbit(values) & fast)
    if neg.size:
        start[neg] -= 1
        flat[base[neg] + start[neg]] = ord("-")
    e = np.flatnonzero(expo & fast)
    if e.size:
        pos, ke = base[e] + end[e], -k[e]   # e-05 to e-10
        flat[pos] = ord("e")
        flat[pos + 1] = ord("-")
        flat[pos + 2] = 48 + ke // 10
        flat[pos + 3] = 48 + ke % 10
        end[e] += 4
    slow = np.flatnonzero(~fast)
    if slow.size:   # `%` texts, from the start of their rows
        texts = [b"%.17g" % v for v in values[slow].tolist()]
        texts_bytes = np.array(texts, f"S{_OUT - 1}").view(np.uint8)
        text[slow, :_OUT - 1] = texts_bytes.reshape(slow.size, _OUT - 1)
        start[slow] = 0
        end[slow] = [len(t) for t in texts]
    flat[base + end] = seps
    # Each text and its separator, from its first byte on.
    out = _bytes_view(text, f"V{_OUT}", 0, 1)[base + start]
    return out.view(np.uint8)[_PREFIX[end - start + 1].view(bool)].tobytes()


def float_text(values: np.ndarray, n: int, sep: str = " ") -> bytes:
    """The `%.17g` texts of a 1-D float array, n to a line: each followed
    by sep, or by a newline if it ends a line.  Formatted _ENTRIES floats
    at a time."""
    parts = []
    for k in range(0, values.size, _ENTRIES):
        chunk = values[k:k + _ENTRIES]
        seps = np.full(chunk.size, ord(sep), np.uint8)
        seps[(n - 1 - k) % n::n] = ord("\n")   # after values k + j with (k + j + 1) % n == 0
        parts.append(_format_chunk(chunk, seps))
    return b"".join(parts)


def blocks(count: int, width: int):
    """Slices that cut `count` rows of `width` floats into blocks of
    max(1, _ENTRIES // width) rows, the last one possibly short: the rows
    that a writer formats with one call of float_text, one chunk of the
    engine or less unless a single row is longer."""
    rows = max(1, _ENTRIES // width)
    for k in range(0, count, rows):
        yield slice(k, min(k + rows, count))
