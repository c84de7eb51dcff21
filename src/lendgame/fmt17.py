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
# strips trailing zeros; here k <= 14, so an exponent is negative.  A
# window of the digit string, padded with '0's on the left and taken at an
# offset that depends on k, puts the integer digits left of a fixed column
# and the fraction right of it; a second window starts at the sign or the
# first digit.  Windows are fancy-indexed views whose items overlap (see
# _bytes_view), so each moves every row by its own offset in one copy.
_ENTRIES = 2 ** 12   # floats per call of _format_chunk
_POW5 = 5 ** np.arange(28, dtype=np.uint64)   # 5^p for p = 16 - k
_LOW = np.uint64(2 ** 32 - 1)
_G = np.arange(10_000, dtype=np.uint32)
# Each 4-digit group 0000..9999 as 4 ASCII bytes in a uint32, and its
# trailing zeros (4 for 0000).
_GROUP = (48 + _G // 1000 | (48 + _G // 100 % 10) << 8 | (48 + _G // 10 % 10) << 16
          | (48 + _G % 10) << 24).astype("<u4")
_GROUP_ZEROS = ((_G % 10 == 0).astype(np.uint8) + (_G % 100 == 0) + (_G % 1000 == 0)
                + (_G == 0))
del _G
_WIDTH = 40          # bytes per row of the digit and text buffers
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
    x = np.abs(values)
    fast = (x >= 1e-10) & (x < 1e15)
    x[~fast] = 1.0
    bits = x.view(np.uint64)
    m = (bits & (2 ** 52 - 1)) | 2 ** 52
    ml, mh = m & _LOW, m >> 32
    e = (bits >> 52).astype(np.intp) - 1075
    k = np.floor(np.log10(x)).astype(np.intp)
    while True:   # a second time where log10 put some k one off
        p = 16 - k
        s = (-(e + p)).astype(np.uint64)
        f = _POW5[p]
        # m f = hi 2^64 + lo, from m = mh 2^32 + ml and f = fh 2^32 + fl.
        fl, fh = f & _LOW, f >> 32
        low, mid = ml * fl, ml * fh + mh * fl
        carry = (low >> 32) + (mid & _LOW)
        lo = (carry << 32) | (low & _LOW)
        hi = mh * fh + (mid >> 32) + (carry >> 32)
        n = (hi << (64 - s)) | (lo >> s)   # the integer part
        shift = (n >= 10 ** 17).astype(np.intp) - (n < 10 ** 16)
        if not shift.any():
            break
        k += shift
    # n rounds up where the rest, lo mod 2^s, is above half, or half and n odd.
    half = np.uint64(1) << (s - 1)
    return n + ((lo & (2 * half - 1)) + (n & 1) > half), k, fast


def _digit_rows(digits: np.ndarray):
    """(rows, sig): row i holds 20 '0's and then the 17 digits of digits[i];
    sig[i] counts them without trailing zeros.  An extra row pads the
    windows that run past the last one."""
    count = digits.size
    rows = np.full((count + 1, _WIDTH), ord("0"), np.uint8)
    # A lead digit and four 4-digit groups: one uint64 division splits the
    # digits into two halves below 10^9, and the rest is uint32 arithmetic.
    # The lead digit d is written as the group 000d, whose '0's fall on the
    # padding.
    high = digits // 10 ** 8
    low = (digits - high * 10 ** 8).astype(np.uint32)
    high = high.astype(np.uint32)
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    groups = []
    for half in (low, high):
        head = half // 10 ** 4
        groups += [half - head * 10 ** 4, head]
    for at, group in zip((33, 29, 25, 21, 17), groups + [lead]):
        _bytes_view(rows, "<u4", at, _WIDTH)[:count] = _GROUP[group]
    # Trailing zeros, group by group from the last while a group is 0000;
    # the lead digit of 17 digits is not 0.
    sig = 17 - _GROUP_ZEROS[groups[0]]
    trailing = np.flatnonzero(groups[0] == 0)
    for group in groups[1:]:
        if not trailing.size:
            break
        group = group[trailing]
        sig[trailing] -= _GROUP_ZEROS[group]
        trailing = trailing[group == 0]
    return rows, sig


def _format_chunk(values: np.ndarray, seps: np.ndarray) -> bytes:
    """The `%.17g` texts of values, each followed by its separator."""
    count = values.size
    digits, k, fast = _decimal(values)
    rows, sig = _digit_rows(digits)
    # Fixed notation puts the point at column 18 of a text row and the
    # digit of 10^j at column 17 - j, or 18 - j for j < 0; column 0 leaves
    # room for the sign of a 17-digit integer.  Exponent notation takes the
    # layout of k = 0.
    expo = k < -4
    kf = np.where(expo, 0, k)
    at = np.arange(count) * _WIDTH + kf + 4
    text = np.empty((count + 1, _WIDTH), np.uint8)
    _bytes_view(text, "V17", 1, _WIDTH)[:count] = _bytes_view(rows, "V17", 0, 1)[at]
    _bytes_view(text, "V20", 19, _WIDTH)[:count] = _bytes_view(rows, "V20", 17, 1)[at]
    del rows
    text[:, 18] = ord(".")
    start = 17 - np.maximum(kf, 0)
    end = np.where(sig - kf >= 2, 18 + sig - kf, 18)   # no bare point
    base = np.arange(count) * _WIDTH
    flat = text.reshape(-1)
    neg = np.flatnonzero(np.signbit(values) & fast)
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
    # Each text and its separator, from the sign or first digit on.
    out = _bytes_view(text, f"V{_OUT}", 0, 1)[base + start]
    del text
    length = end - start
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [b"%.17g" % v for v in values[slow].tolist()]
        out[slow] = np.array(texts, f"S{_OUT}").view(f"V{_OUT}")
        length[slow] = [len(t) for t in texts]
    out8 = out.view(np.uint8)
    out8[np.arange(count) * _OUT + length] = seps
    return out8[_PREFIX[length + 1].view(bool)].tobytes()


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
