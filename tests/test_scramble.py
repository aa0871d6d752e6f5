"""The Philox streams, digit scrambles, and their structural invariants."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from haltongain import (
    MAX_DIMENSION,
    ScrambleSpec,
    default_precision,
    first_primes,
    randomize,
    scramble_column,
)
from haltongain import scramble
from haltongain.halton import _float_column, _index_digits
from haltongain.scramble import _permutations, counter, draw, philox_array

from oracles import (
    LinearScramble,
    digits_of,
    draw_linear_scramble,
    linear_scramble_digits,
    nested_scramble_digits,
    permutation_node,
    philox,
    stratum_occupancy,
    stream,
)

P_FLOOR = 1e-6  # chi-square tests reject only on overwhelming evidence


def _fraction(row, base: int) -> Fraction:
    """Exact value sum_l row[l-1] * base**(-l) of one point's digit row."""
    num = 0
    for a in row.tolist():
        num = num * base + a
    return Fraction(num, base ** len(row))


def _fisher_yates(swaps) -> tuple[int, ...]:
    """The permutation that swaps entry base-1-t with entry swaps[t], in order."""
    table = list(range(len(swaps) + 1))
    for t, j in enumerate(swaps):
        i = len(swaps) - t
        table[i], table[j] = table[j], table[i]
    return tuple(table)


def test_philox_matches_numpy():
    # np.random.Philox advances its counter before each block, so its first
    # four words under counter c are the Philox block of counter c + 1.
    rng = random.Random(20261018)
    mask = (1 << 64) - 1
    cases = [[rng.getrandbits(64) for _ in range(6)] for _ in range(20)]
    cases[0][0] = mask  # the +1 carries from the low word into the next
    cases[1][:3] = [mask, mask, 5]  # and on through two words
    for *ctr, k0, k1 in cases:
        gen = np.random.Philox(counter=np.array(ctr, dtype=np.uint64),
                               key=np.array([k0, k1], dtype=np.uint64))
        want = gen.random_raw(4).tolist()
        c = sum(w << 64 * t for t, w in enumerate(ctr)) + 1
        nxt = [c >> 64 * t & mask for t in range(4)]
        assert list(philox(nxt, (k0, k1))) == want
        words = philox_array([np.array([w], dtype=np.uint64) for w in nxt], (k0, np.array([k1])))
        assert [int(w[0]) for w in words] == want


def test_stream_is_deterministic():
    args = (1, 2, "perm", 3, 4, 5, [1000] * 5)
    assert stream(*args) == stream(*args)
    both = draw(*args[:5], np.array([5, 5], dtype=np.uint64), args[6])
    assert both.tolist() == [stream(*args)] * 2


def test_stream_keys_separate():
    parts = (1, 2, "perm", 3, 4, 5)
    a = stream(*parts, [1 << 32])
    for pos, other in enumerate((9, 3, "row", 4, 5, 6)):
        changed = list(parts)
        changed[pos] = other
        assert stream(*changed, [1 << 32]) != a


def test_stream_key_encoding_cannot_collide():
    # Every field at its ends, coordinate 2^24 - 1 beyond MAX_DIMENSION and r
    # across the 64-bit word boundary: distinct tuples, distinct counters.
    coords = (0, 1, MAX_DIMENSION, (1 << 24) - 1)
    depths = (0, 1, 1 << 24, (1 << 32) - 1)
    rs = (0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1)
    tuples = list(itertools.product(("perm", "row", "tail"), coords, depths, rs, (0, 1)))
    assert len({counter(*t) for t in tuples}) == len(tuples)
    for bad in ((1 << 24, 0, 0), (-1, 0, 0), (1, 1 << 32, 0), (1, 0, 1 << 128), (1, 0, -1)):
        with pytest.raises(ValueError):
            counter("perm", *bad)


def test_counter_bounds_on_both_routes():
    # `draw` takes 64-bit nodes, every field at its end; the oracle's counter
    # keeps the 128-bit node word, whose high half `draw` leaves 0.
    wide = np.array([(1 << 64) - 1, 1 << 63, 0, 7], dtype=np.uint64)
    got = draw(5, 6, "perm", (1 << 24) - 1, (1 << 32) - 1, wide, [3, 2])
    assert got.tolist() == [stream(5, 6, "perm", (1 << 24) - 1, (1 << 32) - 1, int(r), [3, 2])
                            for r in wide]
    spec = ScrambleSpec("nested", seed=5, replicate=(1 << 64) - 1)
    assert sorted(permutation_node(spec, 1, 3, 0, (1 << 128) - 1)) == [0, 1, 2]
    with pytest.raises(ValueError, match="128 bits"):
        permutation_node(spec, 1, 3, 0, 1 << 128)
    with pytest.raises(ValueError, match="128 bits"):
        counter("perm", 1, 0, 1 << 128)
    with pytest.raises(ValueError, match="24 bits"):
        permutation_node(spec, 1 << 24, 3, 0, 0)
    with pytest.raises(ValueError, match="32 bits"):
        permutation_node(spec, 1, 3, 1 << 32, 0)
    with pytest.raises(ValueError, match="32 bits"):
        draw(5, 6, "perm", 1, [0, 1 << 32], np.zeros(2, dtype=np.uint64), [3, 2])
    with pytest.raises(ValueError, match="24 bits"):
        draw(5, 6, "perm", 1 << 24, 0, np.zeros(2, dtype=np.uint64), [3, 2])


@pytest.mark.parametrize("split", range(7))
def test_prefed_head_draws_as_full_key(split):
    # A stream's key start, now the Philox key (seed, replicate) it shares
    # with its batch, does not change its draws: seven streams drawn in two
    # batches split at `split` draw what one batch and the oracle draw.
    rs = np.array([(1 << 64) - 1, 3, 0, 1 << 63, 300, 3, 2], dtype=np.uint64)
    reps = np.array([9, 9, 0, 1, (1 << 64) - 1, 8, 9], dtype=np.uint64)
    bounds = [1 << 40] * 6 + list(range(7, 1, -1))
    want = [stream(20261018, int(v), "perm", 3, 2, int(r), bounds) for v, r in zip(reps, rs)]
    assert draw(20261018, reps, "perm", 3, 2, rs, bounds).tolist() == want
    parts = [draw(20261018, reps[sl], "perm", 3, 2, rs[sl], bounds).tolist()
             for sl in (slice(None, split), slice(split, None)) if rs[sl].size]
    assert sum(parts, []) == want


@pytest.mark.parametrize(
    "kind, tag", [("nested", None), ("linear", None), ("nested", "tail")]
)
def test_replicate_head_is_the_key_start(kind, tag, monkeypatch):
    # Every stream a spec draws is keyed (seed, replicate), under its kind's tag.
    spec = ScrambleSpec(kind, seed=1 << 40, replicate=123456)
    key = (spec.seed, spec.replicate)
    tails = []  # the nested tails randomize hands to the float view
    monkeypatch.setattr(scramble, "_float_column",
                        lambda x, b, t: tails.append(t) or _float_column(x, b, t))
    for c, depth, r in ((4, 5, 300), (1, 0, 0), (2, 255, 1 << 70)):
        if tag == "tail":  # the tail of point i, with i < 2^64
            i = min(r, (1 << 64) - 1)
            got = randomize(1, i, 1, ScrambleSpec(kind, *key))
            tail = stream(*key, "tail", 1, 0, i, [1 << 53])[0] / 2**53
            assert tails.pop().tolist() == [tail]
            y = nested_scramble_digits(digits_of(i, 2, 64), 2, 1, spec, 64)
            assert _scrambled(*_plain(1, i, 1), spec)[0].tolist() == [list(y)]
            assert got.coords[0, 0] == _realized(y, 2, tail)
            # At D digits the tail mostly falls below the float's last bit; at
            # one digit it moves the float by tail/3.
            assert _float_column(np.zeros((1, 1), np.uint64), 3, np.array([tail]))[0] == tail / 3
        elif kind == "nested":
            swaps = stream(*key, "perm", c, depth, r, range(7, 1, -1))
            assert permutation_node(spec, c, 7, depth, r) == _fisher_yates(swaps)
        else:
            s = depth + 1
            diag, shift, *off = stream(*key, "row", c, s, 0, [6] + [7] * s)
            L = draw_linear_scramble(spec, c, 7, s)
            assert (L.rows[-1], L.shift[-1]) == ((*off, diag + 1), shift)


def test_next_uint_bounds_and_uniformity():
    draws = draw(9, 0, "perm", 1, 0, np.arange(21_000, dtype=np.uint64), [7])[:, 0].tolist()
    assert draws[:5] == [stream(9, 0, "perm", 1, 0, r, [7])[0] for r in range(5)]
    assert min(draws) == 0 and max(draws) == 6
    freq = [draws.count(c) for c in range(7)]
    assert scipy.stats.chisquare(freq).pvalue > P_FLOOR


def test_unit_float_range_and_mean():
    # The nested tails: 53 random bits scaled to [0, 1).
    draws = (draw(11, 0, "tail", 1, 0, np.arange(20_000, dtype=np.uint64), [1 << 53])[:, 0]
             / 2.0**53).tolist()
    assert all(0.0 <= x < 1.0 for x in draws)
    se = 1.0 / math.sqrt(12 * len(draws))
    assert abs(sum(draws) / len(draws) - 0.5) < 4 * se


def test_permutation_uniform_over_small_group():
    tables = _permutations(3, 0, 1, 3, 0, np.arange(6000, dtype=np.uint64))
    spec = ScrambleSpec("nested", seed=3)
    assert [tuple(t) for t in tables[:20].tolist()] == [
        permutation_node(spec, 1, 3, 0, r) for r in range(20)]
    freq: dict[tuple[int, ...], int] = {}
    for p in map(tuple, tables.tolist()):
        assert sorted(p) == [0, 1, 2]
        freq[p] = freq.get(p, 0) + 1
    assert len(freq) == 6
    assert scipy.stats.chisquare(list(freq.values())).pvalue > P_FLOOR


def test_spec_validation():
    with pytest.raises(ValueError):
        ScrambleSpec("owen")
    with pytest.raises(ValueError):
        ScrambleSpec("nested", seed=-1)
    with pytest.raises(ValueError):
        ScrambleSpec("nested", replicate=-1)
    with pytest.raises(ValueError):
        ScrambleSpec("nested", replicate=1 << 64)
    with pytest.raises(ValueError, match="seed must be an integer"):
        ScrambleSpec("nested", seed=1.5)  # would draw the streams of seed 1
    with pytest.raises(ValueError, match="replicate must be an integer"):
        ScrambleSpec("nested", replicate=2.7)
    with pytest.raises(ValueError, match="kind must be one of"):
        ScrambleSpec("none")  # the CLI's --scramble none skips randomize
    x = np.zeros((1, 3), np.uint64)
    for kind in ("nested", "linear"):
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            scramble_column(ScrambleSpec(kind), 1, 2, x, range(3), replicates=0)
        last = ScrambleSpec(kind, replicate=(1 << 64) - 2)  # replicates 2^64 - 2, 2^64 - 1
        scramble_column(last, 1, 2, x, range(3), replicates=2)
        with pytest.raises(ValueError, match="past 2\\^64 - 1"):
            scramble_column(last, 1, 2, x, range(3), replicates=3)
        for levels in ([], [0, -1], [0.5]):  # no level equals 0.5: nothing would be drawn
            with pytest.raises(ValueError, match="one or more digit levels >= 0"):
                scramble_column(ScrambleSpec(kind), 1, 2, x, levels)


def test_permutation_node_is_cached_shape():
    spec = ScrambleSpec("nested", seed=5)
    table = permutation_node(spec, 1, 5, 0, 0)
    assert sorted(table) == list(range(5))
    assert permutation_node(spec, 1, 5, 0, 0) == table
    other = permutation_node(spec, 1, 5, 1, 3)
    assert sorted(other) == list(range(5))
    # The cache is keyed by the node identity (coordinate, depth, r).
    cache: dict = {}
    nested_scramble_digits((3, 1), 5, 1, spec, cache=cache)
    assert cache == {(1, 0, 0): table, (1, 1, 3): other}


digit_vectors = st.integers(min_value=2, max_value=7).flatmap(
    lambda b: st.tuples(
        st.just(b),
        st.lists(st.integers(min_value=0, max_value=b - 1), min_size=1, max_size=8),
    )
)


@given(digit_vectors, st.data())
@settings(max_examples=50)
def test_nested_scramble_respects_prefixes(dv, data):
    base, dv = dv
    spec = ScrambleSpec("nested", seed=77)
    out = nested_scramble_digits(dv, base, 1, spec)
    assert len(out) == len(dv) and all(0 <= a < base for a in out)
    # Change one digit; earlier output digits must not move.
    pos = data.draw(st.integers(min_value=0, max_value=len(dv) - 1))
    delta = data.draw(st.integers(min_value=1, max_value=base - 1))
    digits = list(dv)
    digits[pos] = (digits[pos] + delta) % base
    out2 = nested_scramble_digits(digits, base, 1, spec)
    assert out2[:pos] == out[:pos]
    assert out2[pos] != out[pos]


def test_nested_scramble_matches_node_walk():
    # Digit s+1 of index i is permuted by the node at depth s, r = i mod b^s.
    spec = ScrambleSpec("nested", seed=4)
    for i in range(27):
        dv = digits_of(i, 3, 3)
        out = nested_scramble_digits(dv, 3, 2, spec)
        want = [
            permutation_node(spec, 2, 3, s, i % 3**s)[a]
            for s, a in enumerate(dv)
        ]
        assert list(out) == want


def test_nested_scramble_first_digit_uniform():
    freq = [0] * 5
    for rep in range(3000):
        spec = ScrambleSpec("nested", seed=123, replicate=rep)
        freq[nested_scramble_digits((2, 4, 0), 5, 1, spec)[0]] += 1
    assert scipy.stats.chisquare(freq).pvalue > P_FLOOR


def test_linear_scramble_manual_example():
    L = LinearScramble(3, ((1,), (2, 2), (0, 1, 2)), (1, 0, 2))
    assert linear_scramble_digits((2, 1, 0), L) == (0, 0, 0)
    assert linear_scramble_digits((1, 2, 1), L) == (2, 0, 0)


def test_linear_scramble_validation():
    with pytest.raises(ValueError):
        LinearScramble(3, ((0,), (1, 1)), (0, 0))  # zero diagonal
    with pytest.raises(ValueError):
        LinearScramble(3, ((1,), (1,)), (0, 0))  # bad row length
    with pytest.raises(ValueError):
        LinearScramble(3, ((1,),), (3,))  # shift out of range
    L = LinearScramble(3, ((1,),), (0,))
    with pytest.raises(ValueError):
        linear_scramble_digits((3,), L)  # not a base-3 digit


def test_draw_linear_scramble():
    spec = ScrambleSpec("linear", seed=6)
    L = draw_linear_scramble(spec, 3, 5, 4)
    assert L.base == 5 and L.depth == 4
    assert all(len(row) == s + 1 for s, row in enumerate(L.rows))
    assert all(row[-1] != 0 for row in L.rows)
    again = draw_linear_scramble(spec, 3, 5, 4)
    assert (L.rows, L.shift) == (again.rows, again.shift)
    short = draw_linear_scramble(spec, 3, 5, 2)
    assert short.rows == L.rows[:2] and short.shift == L.shift[:2]
    assert draw_linear_scramble(spec, 4, 5, 4).rows != L.rows


@pytest.mark.parametrize("kind", ["nested", "linear"])
@pytest.mark.parametrize("base, level", [(2, 0), (2, 3), (3, 2), (5, 1)])
def test_scramble_level_is_digit_of_full_scramble(kind, base, level):
    spec = ScrambleSpec(kind, seed=31, replicate=2)
    m = base ** (level + 1)
    column = np.array([digits_of(rho, base, level + 1) for rho in range(m)], dtype=np.uint64)
    if kind == "nested":
        full = [nested_scramble_digits(d.tolist(), base, 2, spec) for d in column]
    else:
        L = draw_linear_scramble(spec, 2, base, level + 1)
        full = [linear_scramble_digits(d.tolist(), L) for d in column]
    want = [f[level] for f in full]
    assert scramble_column(spec, 2, base, column, [level]).tolist() == [[[w] for w in want]]
    some = [m - 1, 0, m // 2]
    both = scramble_column(ScrambleSpec(kind, seed=31, replicate=1), 2, base, column[some],
                           [level], 2)
    assert both[1, :, 0].tolist() == [want[r] for r in some]  # block 1 is replicate 2


@pytest.mark.parametrize("kind", ["nested", "linear"])
@pytest.mark.parametrize(
    "base, depth, levels",
    [
        (2, 4, [0, 3]),
        (3, 3, [2, 1]),
        (5, 2, [1]),
        (2, 64, [3, 62, 63]),  # at the depth limit: prefixes up to 2^63 - 1
        (3, 41, [0, 39, 40]),  # and up to 3^40 - 1, the closest to 2^64
    ],
)
def test_scramble_column_levels_and_replicate_blocks(kind, base, depth, levels):
    x = np.random.default_rng(depth).integers(0, base, size=(40, depth), dtype=np.uint64)
    spec = ScrambleSpec(kind, seed=31, replicate=2)
    full = scramble_column(spec, 2, base, x, range(depth))
    assert full.shape == (1, 40, depth) and full.dtype == np.uint64
    assert np.array_equal(scramble_column(spec, 2, base, x, levels), full[:, :, levels])
    blocks = scramble_column(ScrambleSpec(kind, seed=31, replicate=1), 2, base, x, levels, 3)
    for j in range(3):  # block j is replicate 1 + j
        one = scramble_column(ScrambleSpec(kind, seed=31, replicate=1 + j), 2, base, x, levels)
        assert np.array_equal(blocks[j], one[0])


@pytest.mark.parametrize("kind", ["nested", "linear"])
@pytest.mark.parametrize("replicates", [1, 3])
def test_scramble_column_of_zero_rows(kind, replicates):
    x = np.zeros((0, 4), dtype=np.uint64)
    out = scramble_column(ScrambleSpec(kind), 1, 3, x, [0, 1], replicates)
    assert out.shape == (replicates, 0, 2) and out.dtype == np.uint64


@pytest.mark.parametrize("kind", ["nested", "linear"])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_scramble_column_refuses_digits_not_uint64(kind, dtype):
    # int64 digits would send the nested prefix r + a * b^s and the linear
    # product x @ L^T through float64, so only uint64 digits are scrambled.
    x = _index_digits(0, 8, 2, 4).astype(dtype)
    with pytest.raises(ValueError, match=f"digits must be uint64, got {np.dtype(dtype)}"):
        scramble_column(ScrambleSpec(kind), 1, 2, x, [0, 3])


def test_linear_scramble_reduces_its_product_in_place():
    # The shift and mod b act on the uint64 product x @ L^T in place, and the
    # output is a view of it: the peak is one (rows, 64) array, and any
    # second one, a cast copy or a temporary of (y + e) % b, doubles it.
    spec = ScrambleSpec("linear", seed=3)
    x = _index_digits(0, 50_000, 2, 64)
    scramble_column(spec, 1, 2, x[:8], range(64))  # imports before the trace
    tracemalloc.start()
    try:
        out = scramble_column(spec, 1, 2, x, range(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.nbytes


def test_linear_scramble_bijective_on_prefixes():
    spec = ScrambleSpec("linear", seed=8)
    L = draw_linear_scramble(spec, 1, 2, 3)
    outs = {
        linear_scramble_digits((i & 1, i >> 1 & 1, i >> 2), L)
        for i in range(8)
    }
    assert len(outs) == 8


def _plain(d: int, start: int, count: int) -> tuple[list, tuple[int, ...]]:
    """The index digit columns `randomize` scrambles, and their bases."""
    bases = first_primes(d)
    return [_index_digits(start, count, b, default_precision(b)) for b in bases], bases


def _scrambled(columns, bases, spec) -> list:
    """Each digit column scrambled to default_precision(b) digits: the
    `scramble_column` call `randomize` makes."""
    return [scramble_column(spec, c, b, x, range(default_precision(b)))[0]
            for c, (b, x) in enumerate(zip(bases, columns), start=1)]


@pytest.mark.parametrize("kind", ["nested", "linear"])
def test_randomize_shapes_and_values(kind):
    spec = ScrambleSpec(kind, seed=31)
    out = randomize(3, 3, 12, spec)
    assert (out.start, out.count, out.bases) == (3, 12, (2, 3, 5))
    assert out.coords.shape == (12, 3) and not out.coords.flags.writeable
    with pytest.raises(ValueError, match="64-bit point indices"):  # halton_points' window check
        randomize(3, (1 << 64) - 1, 2, spec)
    digits = _scrambled(*_plain(3, 3, 12), spec)
    for p in range(out.count):
        for c, (b, col) in enumerate(zip(out.bases, digits)):
            x = out.coords[p][c]
            assert 0.0 <= x < 1.0
            # Digits pin the float down to one part in b**precision.
            assert abs(x - float(_fraction(col[p], b))) <= b ** -col.shape[1] + 2**-50


@pytest.mark.parametrize("kind", ["nested", "linear"])
def test_randomize_deterministic(kind):
    a = randomize(3, 0, 6, ScrambleSpec(kind, seed=9, replicate=1))
    b = randomize(3, 0, 6, ScrambleSpec(kind, seed=9, replicate=1))
    assert a.coords.tolist() == b.coords.tolist()
    c = randomize(3, 0, 6, ScrambleSpec(kind, seed=9, replicate=2))
    assert a.coords.tolist() != c.coords.tolist()


@pytest.mark.parametrize("kind", ["nested", "linear"])
def test_randomize_preserves_stratum_multiset(kind):
    # Scrambles permute the boxes, so occupancy counts survive as a multiset.
    columns, bases = _plain(2, 7, 29)
    levels = (2, 1)
    before = stratum_occupancy(columns, bases, levels)
    after = stratum_occupancy(_scrambled(columns, bases, ScrambleSpec(kind, seed=5)), bases, levels)
    assert sorted(before.values()) == sorted(after.values())
    assert sum(after.values()) == 29


def test_randomize_holds_one_scrambled_column():
    # A column's scrambled digits are dropped once its floats exist, so the
    # peak stays near one base-2 column of 64 uint64 digits (10 MB here);
    # holding all eight columns' digits at once peaks near 47 MB.
    spec = ScrambleSpec("linear", seed=3)
    randomize(8, 0, 8, spec)  # primes and imports before the trace
    tracemalloc.start()
    try:
        randomize(8, 0, 20_000, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 20_000 * 64 * 8


def _realized(row: tuple[int, ...], base: int, tail: float) -> float:
    """The float of one scrambled digit row: num/b**D correctly rounded,
    plus the tail in units of b**-D, kept below 1."""
    num = 0
    for a in row:
        num = num * base + a
    den = base ** len(row)
    x = num / den
    if tail:
        x += tail / den
    return x if x < 1.0 else 1.0 - 2.0**-53


def _padded(x: np.ndarray, depth: int) -> np.ndarray:
    """Digit column `x` zero-padded to `depth` digits: deeper than any index needs."""
    return np.pad(x, ((0, 0), (0, depth - x.shape[1])))


def _per_point(columns, bases, start: int, spec):
    """randomize the slow way: every point of the digit columns, the first
    index `start`, through the per-point oracles, each column to
    default_precision(b) digits, the missing ones read as 0."""
    digits, coords = [], []
    for column, (b, col) in enumerate(zip(bases, columns), start=1):
        depth = default_precision(b)
        if spec.kind == "nested":
            cache: dict = {}
            rows = [nested_scramble_digits(x, b, column, spec, depth, cache)
                    for x in col.tolist()]
            tails = [stream(spec.seed, spec.replicate, "tail", column, 0, i, [1 << 53])[0] / 2**53
                     for i in range(start, start + len(col))]
        else:
            L = draw_linear_scramble(spec, column, b, depth)
            rows = [linear_scramble_digits(x, L, depth) for x in col.tolist()]
            tails = [0.0] * len(col)
        digits.append(rows)
        coords.append([_realized(y, b, t) for y, t in zip(rows, tails)])
    return digits, [list(row) for row in zip(*coords)]


def _assert_matches_oracles(out, spec) -> None:
    """`randomize`'s floats `out`, and the `scramble_column` digits they are
    read from, against every point through the per-point oracles."""
    columns, bases = _plain(out.dimension, out.start, out.count)
    digits, coords = _per_point(columns, bases, out.start, spec)
    assert [x.tolist() for x in _scrambled(columns, bases, spec)] == [
        [list(y) for y in rows] for rows in digits]
    assert out.coords.tolist() == coords


@pytest.mark.parametrize("kind", ["nested", "linear"])
@pytest.mark.parametrize(
    "start, count",
    [
        pytest.param(0, 60, id="0-60-None-None"),
        pytest.param((1 << 64) - 50, 50,  # ends at the last 64-bit index
                     id="18446744073709551566-50-None-out_prec2"),
        pytest.param(1000, 40, id="1000-40-in_prec3-out_prec3"),
        pytest.param(3**40 - 20, 40, id="base-3-prefixes-near-3^40"),
    ],
)
def test_randomize_matches_per_point_oracles(kind, start, count):
    spec = ScrambleSpec(kind, seed=20261018, replicate=5)
    _assert_matches_oracles(randomize(5, start, count, spec), spec)


@pytest.mark.parametrize("group_rows", [1, 100])
def test_nested_level_groups_draw_the_same_digits(group_rows, monkeypatch):
    # At the default budget each column here is one group.  Smaller budgets
    # close groups between levels, between replicate blocks, and across the
    # 64-digit column's prefixes of the last 64-bit indices.
    x = _index_digits((1 << 64) - 40, 40, 2, 64)
    spec = ScrambleSpec("nested", seed=20261018, replicate=5)
    blocks = scramble_column(spec, 1, 2, x, range(64), 3)
    monkeypatch.setattr(scramble, "_GROUP_ROWS", group_rows)
    assert np.array_equal(scramble_column(spec, 1, 2, x, range(64), 3), blocks)
    _assert_matches_oracles(randomize(5, (1 << 64) - 40, 40, spec), spec)


def test_nested_prefixes_of_scrambled_digits():
    # Scrambled digits fill every stored digit, so the prefixes r of a second
    # nested scramble reach the top digit of the deepest one: 2^62 and more
    # in base 2, 3^39 and more in base 3.
    columns, bases = _plain(2, 5, 30)
    once = _scrambled(columns, bases, ScrambleSpec("nested", seed=1))
    assert all(x[:, -2].any() for x in once)
    spec = ScrambleSpec("nested", seed=1, replicate=1)
    digits, _ = _per_point(once, bases, 5, spec)
    assert [x.tolist() for x in _scrambled(once, bases, spec)] == [
        [list(y) for y in rows] for rows in digits]


def test_linear_depth_limit_at_the_largest_base():
    b = 179_424_673  # p_{10^7}, the largest base first_primes admits
    assert default_precision(b) == 3
    assert 3 * (b - 1) ** 2 + (b - 1) < 2**63
    # The largest column product at the limit: every input digit is b - 1.
    col = np.full((2, 3), b - 1, dtype=np.uint64)
    spec = ScrambleSpec("linear", seed=3)
    digits, _ = _per_point([col], (b,), 0, spec)
    assert _scrambled([col], (b,), spec)[0].tolist() == [list(y) for y in digits[0]]
    with pytest.raises(ValueError, match="limit 3 for base 179424673"):
        scramble_column(spec, 1, b, _padded(col, 4), range(4))
    # From base 1,753,413,058 the product at the default depth could leave
    # int64, so such a hand-built base is refused at any depth.
    first = 1_753_413_058
    assert default_precision(first) == 3 and 3 * (first - 1) ** 2 + first > 2**63
    huge = (1 << 40) + 15
    col = np.full((2, 1), huge - 1, dtype=np.uint64)
    for kind in ("nested", "linear"):
        with pytest.raises(ValueError, match=f"limit 0 for base {huge}"):
            scramble_column(ScrambleSpec(kind), 1, huge, col, range(default_precision(huge)))


@pytest.mark.parametrize("kind", ["nested", "linear"])
def test_depth_past_default_precision_refused(kind, basis3):
    # One digit deeper than default_precision(b) in any column is refused,
    # naming the limit; the default depth itself scrambles.
    columns, _ = _plain(3, 7, 5)
    spec = ScrambleSpec(kind, seed=2)
    for column, (b, x) in enumerate(zip(basis3, columns), start=1):
        limit = default_precision(b)
        with pytest.raises(ValueError, match=f"depth {limit + 1} exceeds the limit {limit} "
                                             f"for base {b}"):
            scramble_column(spec, column, b, x, [limit])
        # scramble_column reads only the digits of the levels it is asked for.
        assert np.array_equal(scramble_column(spec, column, b, _padded(x, limit + 1), [0]),
                              scramble_column(spec, column, b, x, [0]))
    randomize(3, 7, 5, spec)


@pytest.mark.parametrize("kind", ["nested", "linear"])
def test_rejected_words_are_redrawn(kind, redrawn_tags):
    # Batched Fisher-Yates, linear-row and tail words are rejected, and the
    # rows that hold them are redrawn to the oracles' draws.
    spec = ScrambleSpec(kind, seed=20261018, replicate=5)
    out = randomize(5, 37, 40, spec)
    assert set(redrawn_tags) == ({"perm", "tail"} if kind == "nested" else {"row"})
    _assert_matches_oracles(out, spec)
