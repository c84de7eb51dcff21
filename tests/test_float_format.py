"""The vectorised `%.17g` of fmt17.float_text against `%` itself,
on the values where its exact-rounding argument is tight or does not
apply: exact ties, powers of ten, the edges of the array path's range
[1e-10, 1e15), and the values outside it, which `%` formats."""

import tracemalloc
import warnings

import numpy as np
import pytest

from lendgame import cli, fmt17


def float_texts(values):
    """The texts of fmt17.float_text, one per line."""
    return fmt17.float_text(values, 1).split(b"\n")[:-1]


@pytest.fixture(params=["native"])
def formatter():
    """float_texts on the platform that runs the tests (id `native`); the
    digits are integer arithmetic, the same on every platform."""
    return float_texts


def assert_formats_like_percent(formatter, values, want=None):
    values = np.asarray(values, dtype=np.float64)
    got = formatter(values)
    if want is None:
        want = [b"%.17g" % v for v in values.tolist()]
    if got != want:
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        pytest.fail(f"{len(got)} texts for {len(want)} values; first differences "
                    f"(value, got, want): {[(values[i], got[i], want[i]) for i in bad[:5]]}")


def with_neighbours(values, ulps=3):
    """values, the floats up to `ulps` steps either side, and their negatives."""
    bits = np.abs(np.asarray(values, dtype=np.float64)).view(np.int64)
    near = (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel()
    near = near[near >= 0].view(np.float64)
    near = near[np.isfinite(near)]
    return np.concatenate([near, -near])


@pytest.fixture(scope="module")
def random_bit_patterns():
    """A million finite floats from random 64-bit patterns, and their texts."""
    rng = np.random.default_rng(20261017)
    values = rng.integers(0, 2**64, 1_001_000, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)][:1_000_000]
    assert values.size == 1_000_000
    return values, [b"%.17g" % v for v in values.tolist()]


def test_random_bit_patterns(formatter, random_bit_patterns):
    assert_formats_like_percent(formatter, *random_bit_patterns)


def test_report_magnitudes(formatter):
    # The array path's range, [1e-10, 1e15), the decade below it and the
    # ten above it, which `%` formats.
    rng = np.random.default_rng(3)
    values = rng.uniform(1.0, 10.0, 300_000) * 10.0 ** rng.integers(-11, 26, 300_000)
    assert_formats_like_percent(formatter, values * rng.choice([-1.0, 1.0], values.size))


def test_powers_of_ten_and_neighbours(formatter):
    # Where log10 puts k one off, from 1e-323 to 1e308.
    assert_formats_like_percent(formatter, with_neighbours([float(f"1e{j}") for j in range(-323, 309)]))


def test_exact_ties(formatter):
    # For I in [1e13, 9e13), I + j/16 with j odd has 18 significant digits
    # ending in 5: its 17 digits are a tie, which the array path rounds to
    # even.  I + 0.25 and I + 0.75 for I in [1e15, 9e15) are ties above
    # that path's range, which `%` formats; above 2^51 a quarter is below
    # the float's spacing, and the sums round.
    rng = np.random.default_rng(5)
    whole = rng.integers(10**15, 9 * 10**15, 100_000).astype(np.float64)
    values = np.concatenate([whole + 0.25, whole + 0.75])
    assert (values % 1.0 != 0.0).sum() > 20_000
    whole = rng.integers(10**13, 9 * 10**13, 100_000)
    sixteenths = whole + rng.integers(0, 8, 100_000) / 8 + 1 / 16
    values = np.concatenate([values, sixteenths])
    assert_formats_like_percent(formatter, np.concatenate([values, -values]))


def test_every_value_in_range_takes_the_array_path():
    # The array path's digits are exact, ties included, so every finite
    # |x| in [1e-10, 1e15) takes it, with the digits and exponent of
    # `%.16e`.  t 2^-a for odd t is t 5^a 10^-a: a tie where t 5^a has 18
    # digits, in each decade from 1e-8 to 1e14.  I + 1/4, 1/2 and 3/4 are
    # exact below 2^50.  M 2^e whose n lies within 2^-8 of a half-integer
    # is a value that n computed with one rounding, as in a 64-bit long
    # double, could put on that half-integer.
    rng = np.random.default_rng(29)
    ties = []
    for a in range(3, 26):
        t = rng.integers(-(-10**17 // 5**a), 10**18 // 5**a, 2_000) | 1
        ties.append(t * 2.0 ** -a)
    whole = rng.integers(1, 10**15 - 1, 20_000).astype(np.float64)
    quarters = [whole + 0.25, whole + 0.5, whole + 0.75]
    near = rng.integers(2**52, 2**53, 300_000) * 2.0 ** rng.integers(-86, -3, 300_000)
    near = near[(near >= 1e-10) & (near < 1e15)]
    halves = []
    for x, text in zip(near.tolist(), ["%.16e" % x for x in near.tolist()]):
        num, den = x.as_integer_ratio()
        scaled = num * 10 ** (16 - int(text[19:]))   # n = scaled / den, den = 2^s
        if abs(2 * (scaled % den) - den) * 2**7 < den:
            halves.append(x)
    assert len(halves) > 1_000
    values = np.concatenate(ties + quarters + [halves])
    assert ((values >= 1e-10) & (values < 1e15)).all()
    digits, k, fast = fmt17._decimal(values)
    assert fast.all()
    texts = ["%.16e" % v for v in values.tolist()]
    assert k.tolist() == [int(t[19:]) for t in texts]
    assert digits.tolist() == [int(t[0] + t[2:18]) for t in texts]


def test_values_that_round_up_to_a_power_of_ten(formatter):
    # These doubles lie below 10^j, yet their 17 digits round up to 1e17.
    values = [1e-305, 1e-243, 1e-176, 1e-79, 1e-14, 1e98, 1e129, 1e153, 1e220]
    assert all(("%.17g" % v).startswith("1e") for v in values)
    assert_formats_like_percent(formatter, values)
    # The largest doubles below each power of ten from 1e-10 to 1e25: in
    # the array path's range, [1e-10, 1e15), and above it.
    below = np.nextafter(np.array([float(f"1e{j}") for j in range(-10, 26)]), 0.0)
    assert_formats_like_percent(formatter, with_neighbours(below, ulps=1))


def test_zeros_subnormals_and_non_finite(formatter):
    tiny = np.finfo(np.float64).smallest_subnormal
    values = [0.0, -0.0, tiny, -tiny, 2 * tiny, 1e-320, np.finfo(np.float64).smallest_normal,
              np.nextafter(np.finfo(np.float64).smallest_normal, 0.0), np.finfo(np.float64).max,
              np.inf, -np.inf, np.nan, 1e-10, np.nextafter(1e-10, 0.0), 1e15,
              np.nextafter(1e15, 0.0), 1e25, np.nextafter(1e25, 0.0)]
    assert_formats_like_percent(formatter, values)
    assert formatter(np.zeros(0)) == []


def chunk_cases():
    rng = np.random.default_rng(34)
    # The array path's range, [1e-10, 1e15), with either sign, texts of 1
    # to 24 bytes (integers, short fractions, exponents e-05 to e-10).
    wide = rng.uniform(1.0, 10.0, fmt17._ENTRIES) * 10.0 ** rng.integers(-10, 15, fmt17._ENTRIES)
    wide[::3] = rng.integers(1, 1000, wide[::3].size) / 8
    wide[1::5] = rng.integers(1, 100, wide[1::5].size)
    wide *= rng.choice([-1.0, 1.0], wide.size)
    # Products as in a report row: texts of 17 digits, nearly all.
    report = rng.uniform(0.001, 0.02) * rng.uniform(0.5, 100.0, fmt17._ENTRIES)
    ends = report.copy()
    ends[0], ends[-1] = 5e-324, 1e16
    inner = np.ones(ends.size, dtype=bool)
    inner[[0, -1]] = False
    tiny = np.finfo(np.float64).smallest_subnormal
    specials = np.array([0.0, -0.0, tiny, -tiny, np.inf, -np.inf, np.nan, 1e16, -1e16])
    # (values, where they take the array path)
    return {"array_path_only": (wide, np.ones(wide.size, dtype=bool)),
            "report_row": (report, np.ones(report.size, dtype=bool)),
            "percent_path_only": (specials, np.zeros(specials.size, dtype=bool)),
            "percent_first_and_last": (ends, inner)}


@pytest.mark.parametrize("case", ["array_path_only", "report_row", "percent_path_only",
                                  "percent_first_and_last"])
@pytest.mark.parametrize("n", [1, 7])
def test_chunk_matches_percent(case, n):
    # One chunk of the engine: the array path's texts, `%`'s, or a full
    # chunk of _ENTRIES floats with a `%` text first and last, each packed
    # with its separator at its place in the chunk's bytes.
    values, fast = chunk_cases()[case]
    assert np.array_equal(fmt17._decimal(values)[2], fast)
    texts = [b"%.17g" % v for v in values.tolist()]
    want = b"".join(t + (b"\n" if (i + 1) % n == 0 else b",") for i, t in enumerate(texts))
    assert fmt17.float_text(values, n, ",") == want


def test_no_floating_point_warning():
    values = np.array([0.0, -0.0, 5e-324, 1e-320, 1e-300, 1.5, 1e300, 1.7976931348623157e308,
                       np.inf, -np.inf, np.nan, -np.nan])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert float_texts(values) == [b"%.17g" % v for v in values.tolist()]


class Discard:
    def write(self, text):
        pass


def row_writer_peaks(shares, demands, common):
    """The traced peak of _write_rows on the profile of each share vector."""
    peaks = []
    for share in shares:
        tracemalloc.start()
        try:
            cli._write_rows(Discard(), share, demands, common)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_row_formatting_peak_does_not_grow_with_rows():
    # Rows are made, formatted and written a block at a time, so the memory
    # the writer holds at once is a block's, whatever the number of rows.
    rng = np.random.default_rng(0)
    demands = rng.uniform(0.0, 1.0, 1000)
    peaks = row_writer_peaks([rng.uniform(0.0, 1.0, m) for m in (200, 1000)], demands, None)
    assert peaks[1] <= 1.1 * peaks[0]


def test_common_line_peak_does_not_grow_with_rows():
    # A run of common lines is written a block's worth of lines at a time,
    # not as one string of the whole run.
    demands = np.random.default_rng(0).uniform(0.0, 1.0, 1000)
    peaks = row_writer_peaks([np.full(m, 0.25) for m in (200, 1000)], demands, 0)
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("size", [0, 1, 6, 7, fmt17._ENTRIES, fmt17._ENTRIES + 1, 2 * fmt17._ENTRIES + 5])
def test_lines_of_n_across_chunks(n, size):
    # A line may span chunks of _ENTRIES floats; each float is followed by
    # a newline if it ends a line of n, else by a space.
    values = np.random.default_rng(size).uniform(-1e3, 1e3, size)
    values[::5] = 0.0
    texts = [b"%.17g" % v for v in values.tolist()]
    want = b"".join(t + (b"\n" if (i + 1) % n == 0 else b" ") for i, t in enumerate(texts))
    assert fmt17.float_text(values, n) == want


def test_digit_groups_with_zeros(formatter):
    # The digits are written as a lead digit and four 4-digit groups, and
    # trailing zeros are counted group by group: put 0000 in each group, one
    # at a time and in every combination, after lead digits 1 and 9, with
    # the other groups random or ending in zeros, from 1e-10 to 1e25: in the
    # array path's range, [1e-10, 1e15), and above it.
    rng = np.random.default_rng(19)
    values, masks = [], set()
    for mask in range(16):
        for lead in (1, 9):
            groups = np.where(rng.random((40, 4)) < 0.5, rng.integers(1, 10_000, (40, 4)),
                              rng.choice([10, 100, 1000, 9000], (40, 4)))
            groups[:, [bool(mask >> g & 1) for g in range(4)]] = 0
            digits = lead * 10**16 + groups @ np.array([10**12, 10**8, 10**4, 1])
            for d, k in zip(digits.tolist(), rng.integers(-10, 25, 40).tolist()):
                values.append(float(f"{d}e{k - 16}"))
    values = with_neighbours(values, ulps=2)
    for text in ["%.16e" % v for v in np.abs(values).tolist()]:
        digits = text[0] + text[2:18]   # the 17 significant digits
        masks.add((digits[0], tuple(digits[1 + 4 * g:5 + 4 * g] == "0000" for g in range(4))))
    # Every combination of zero groups occurs after both lead digits.
    assert len(masks & {(lead, tuple(bool(mask >> g & 1) for g in range(4)))
                        for lead in "19" for mask in range(16)}) == 32
    assert_formats_like_percent(formatter, values)


def test_extreme_digits_at_every_exponent(formatter):
    # 1 followed by 16 zeros and seventeen 9s, at each decimal exponent
    # from -11 to 25: those of the array path's range, [1e-10, 1e15), and
    # of its neighbours, which `%` formats.
    values = [float(f"{d}e{k - 16}") for d in (10**16, 10**17 - 1) for k in range(-11, 26)]
    assert_formats_like_percent(formatter, with_neighbours(values, ulps=2))
