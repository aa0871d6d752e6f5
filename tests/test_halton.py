"""Digit expansions, radical inverses, and stratum bookkeeping."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltongain import default_precision, first_primes, halton_points
from haltongain.halton import MAX_INDEX, _index_digits

from oracles import (
    digits_of,
    radical_inverse,
    residue_match,
    stratum_counts,
    stratum_index,
    stratum_occupancy,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _columns(d: int, start: int, count: int) -> list:
    """The digit columns `halton_points` reads its floats from: each
    coordinate's index digits, as deep as its largest index needs."""
    return [_index_digits(start, count, b, default_precision(b)) for b in first_primes(d)]


def _fraction(row, base: int) -> Fraction:
    """Exact value sum_l row[l-1] * base**(-l) of one point's digit row."""
    num = 0
    for a in row.tolist():
        num = num * base + a
    return Fraction(num, base ** len(row))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(SMALL_PRIMES),
)
def test_digit_round_trip(i, base):
    p = default_precision(base)
    dv = digits_of(i, base, p)
    assert sum(a * base**l for l, a in enumerate(dv)) == i
    assert len(dv) == p
    assert all(0 <= a < base for a in dv)


def test_van_der_corput_base2():
    want = [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(1, 8),
        Fraction(5, 8),
        Fraction(3, 8),
        Fraction(7, 8),
    ]
    assert [radical_inverse(i, 2) for i in range(8)] == want


def test_radical_inverse_base3():
    assert radical_inverse(5, 3) == Fraction(7, 9)
    assert radical_inverse(4, 3) == Fraction(4, 9)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from((2, 3, 5, 7)),
)
def test_radical_inverse_digit_reversal(i, base):
    # Independent oracle: write i in base b, reverse the digit string.
    s = ""
    rem = i
    while rem:
        rem, a = divmod(rem, base)
        s = str(a) + s
    if not s:
        s = "0"
    assert radical_inverse(i, base) == Fraction(int(s[::-1], base), base ** len(s))


def test_column_digits_fraction_and_float():
    pts = halton_points(1, 5, 1)
    [col] = _columns(1, 5, 1)
    assert col[:, :3].tolist() == [[1, 0, 1]]
    assert _fraction(col[0, :3], 2) == Fraction(5, 8)
    assert pts.coords.tolist() == [[0.625]]
    with pytest.raises(ValueError, match="read-only"):
        pts.coords[0, 0] = 0.5


def test_precision_guard():
    with pytest.raises(ValueError, match="cannot represent index 8"):
        digits_of(8, 2, 3)
    digits_of(7, 2, 3)


def test_default_precision_covers_64_bit_indices():
    for b in SMALL_PRIMES:
        p = default_precision(b)
        assert b**p >= 2**64
        assert b ** (p - 1) < 2**64
    with pytest.raises(ValueError, match="base must be >= 2, got 1"):
        default_precision(1)


def test_first_points():
    pts = halton_points(3, 0, 2)
    assert pts.coords.tolist() == [[0.0, 0.0, 0.0], [0.5, 1 / 3, 0.2]]
    assert _columns(3, 0, 2)[0][1, 0] == 1
    assert pts.dimension == 3
    assert pts.bases == (2, 3, 5)


def test_point_fractions_match_radical_inverse():
    pts = halton_points(3, 37, 20)
    for p in range(pts.count):
        i = 37 + p
        for c, col in enumerate(_columns(3, 37, 20)):
            assert _fraction(col[p], pts.bases[c]) == radical_inverse(i, pts.bases[c])


def test_float_realization_error():
    pts = halton_points(3, 1000, 50)
    for p in range(pts.count):
        for c, col in enumerate(_columns(3, 1000, 50)):
            x = pts.coords[p][c]
            assert 0.0 <= x < 1.0
            assert abs(x - float(_fraction(col[p], pts.bases[c]))) < 2.0**-50


def test_point_set_holds_one_digit_column_at_a_time():
    # Only the floats are kept: the peak is the widest digit column (base 2,
    # 18 uint64 digits) and the float columns, where holding every digit
    # column at once peaks near 10x the coords.
    halton_points(8, 0, 8)  # primes and imports before the trace
    tracemalloc.start()
    try:
        pts = halton_points(8, 0, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * pts.coords.nbytes


def test_point_count_validation():
    with pytest.raises(ValueError):
        halton_points(3, 0, 0)
    with pytest.raises(ValueError):
        halton_points(3, -1, 2)
    with pytest.raises(ValueError, match="start must be an integer"):
        halton_points(3, 1.5, 3)  # numpy would truncate it to points 1..3


@given(
    st.integers(min_value=0, max_value=3**6 - 1),
    st.integers(min_value=0, max_value=4),
)
def test_stratum_index_is_scaled_floor(i, k):
    columns = _columns(2, i, 1)  # column 2 is base 3
    [(_, r)] = stratum_index(columns, (2, 3), [0, k])
    assert r == math.floor(_fraction(columns[1][0, :6], 3) * 3**k)


def test_stratum_index_validation():
    columns = _columns(1, 3, 1)
    with pytest.raises(ValueError):
        stratum_index(columns, (2,), [1, 2])
    with pytest.raises(ValueError):
        stratum_index(columns, (2,), [-1])
    with pytest.raises(ValueError, match=r"65 is past default_precision\(2\) = 64"):
        stratum_index(columns, (2,), [65])
    assert stratum_index(columns, (2,), [64]) == [(3 << 62,)]  # x = 0.11 in base 2; the rest reads 0


def test_residue_match_is_interval_agreement():
    for i in range(54):
        xi = radical_inverse(i, 3)
        for i2 in range(54):
            x2 = radical_inverse(i2, 3)
            for r in range(4):
                same_box = math.floor(xi * 3**r) == math.floor(x2 * 3**r)
                assert residue_match(i, i2, 3, r) == same_box


def test_stratum_counts_match_occupancy():
    levels = (1, 2, 2)
    counts = stratum_counts(3, 117, 300, levels)
    assert counts == stratum_occupancy(_columns(3, 117, 300), (2, 3, 5), levels)
    assert sum(counts.values()) == 300


def test_one_dimensional_window_balance():
    for start in (0, 3, 11):
        counts = stratum_counts(1, start, 8, (3,))
        assert sorted(counts) == [(r,) for r in range(8)]
        assert set(counts.values()) == {1}


def test_full_window_balance():
    # One full cycle of 2 * 9 * 25 indices hits every box exactly once.
    counts = stratum_counts(3, 12345, 450, (1, 2, 2))
    assert len(counts) == 450
    assert set(counts.values()) == {1}


@pytest.mark.parametrize(
    "start, count",
    [
        (0, 1),  # one digit in every base
        (1, 8),
        (0, 40),
        (37, 300),
        (3**33 - 150, 300),  # base 3: 3^33 < 2^53 < 3^34, float path to Python ints
        (2**53 - 150, 300),  # base 2 likewise at 2^53
        (MAX_INDEX - 200, 200),  # ends at the last 64-bit index
    ],
)
def test_columns_match_per_point_oracles(start, count):
    # Digits against digits_of, floats against the correctly rounded
    # radical inverse, over the first 5 primes.  Each column is as deep as
    # the digit count L of start+count-1 in its base, at least 1; the last
    # 64-bit index needs default_precision(b).
    pts = halton_points(5, start, count)
    assert pts.bases == (2, 3, 5, 7, 11)
    for c, (b, col) in enumerate(zip(pts.bases, _columns(5, start, count))):
        depth = default_precision(b)
        width = 1
        while start + count - 1 >= b**width:
            width += 1
        assert col.shape == (count, width)
        if start + count == MAX_INDEX:
            assert width == depth
        for p in range(count):
            i = start + p
            row = col[p].tolist() + [0] * (depth - col.shape[1])
            assert tuple(row) == digits_of(i, b, depth)
            want = float(radical_inverse(i, b))
            assert pts.coords[p][c] == (want if want < 1.0 else 1.0 - 2.0**-53)
    if start + count == MAX_INDEX:
        assert pts.coords[-1, 0] == 1.0 - 2.0**-53  # 64 binary ones round to 1


