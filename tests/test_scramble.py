"""Keyed streams, digit scrambles, and their structural invariants."""

import math

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from haltongain import (
    DigitVector,
    KeyedStream,
    LinearScramble,
    ScrambleSpec,
    coordinate_scrambler,
    digits_of,
    draw_linear_scramble,
    first_primes,
    halton_points,
    linear_scramble_digits,
    nested_scramble_digits,
    permutation_node,
    randomize,
    stratum_occupancy,
)
from haltongain.scramble import key_head, replicate_head, scramble_level

P_FLOOR = 1e-6  # chi-square tests reject only on overwhelming evidence


def test_stream_is_deterministic():
    a = [KeyedStream(1, "x", 2).next_uint(1000) for _ in range(5)]
    b = [KeyedStream(1, "x", 2).next_uint(1000) for _ in range(5)]
    assert a == b


def test_stream_keys_separate():
    a = KeyedStream(1, "x", 2).next_uint(1 << 32)
    assert a != KeyedStream(1, "x", 3).next_uint(1 << 32)
    assert a != KeyedStream(1, "y", 2).next_uint(1 << 32)
    assert a != KeyedStream(2, "x", 2).next_uint(1 << 32)


def test_stream_key_encoding_cannot_collide():
    # ("ab",) and ("a", "b") must key different streams.
    assert KeyedStream("ab").next_uint(1 << 32) != KeyedStream(
        "a", "b"
    ).next_uint(1 << 32)
    with pytest.raises(TypeError):
        KeyedStream(1.5)


def _draws(stream: KeyedStream) -> list[int]:
    return [stream.next_uint(1 << 40) for _ in range(6)] + list(stream.permutation(7))


@pytest.mark.parametrize("split", range(7))
def test_prefed_head_draws_as_full_key(split):
    parts = (20261018, "perm", 9, 3, 2, 1 << 70)
    want = _draws(KeyedStream(*parts))
    head = key_head(*parts[:split])
    assert _draws(KeyedStream(*parts[split:], head=head)) == want
    assert _draws(KeyedStream(*parts[split:], head=head)) == want  # head unspent
    mid = max(split, 4)  # heads stack
    inner = key_head(*parts[split:mid], head=key_head(*parts[:split]))
    assert _draws(KeyedStream(*parts[mid:], head=inner)) == want


@pytest.mark.parametrize(
    "kind, tag", [("nested", None), ("linear", None), ("nested", "tail")]
)
def test_replicate_head_is_the_key_start(kind, tag):
    spec = ScrambleSpec(kind, seed=1 << 40, replicate=123456)
    head = replicate_head(spec, tag)
    tag = tag or {"nested": "perm", "linear": "row"}[kind]
    for node in ((4, 5, 300), (1, 0, 0), (2, 255, 256, 1 << 70)):
        want = _draws(KeyedStream(spec.seed, tag, spec.replicate, *node))
        assert _draws(KeyedStream(*node, head=head)) == want


def test_next_uint_bounds_and_uniformity():
    s = KeyedStream(9, "uniform")
    draws = [s.next_uint(7) for _ in range(21_000)]
    assert min(draws) == 0 and max(draws) == 6
    freq = [draws.count(c) for c in range(7)]
    assert scipy.stats.chisquare(freq).pvalue > P_FLOOR


def test_unit_float_range_and_mean():
    s = KeyedStream(11, "floats")
    draws = [s.unit_float() for _ in range(20_000)]
    assert all(0.0 <= x < 1.0 for x in draws)
    se = 1.0 / math.sqrt(12 * len(draws))
    assert abs(sum(draws) / len(draws) - 0.5) < 4 * se


def test_permutation_uniform_over_small_group():
    s = KeyedStream(3, "perms")
    freq: dict[tuple[int, ...], int] = {}
    for _ in range(6000):
        p = s.permutation(3)
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
        coordinate_scrambler(ScrambleSpec("none"), 1, 2, 3)


def test_permutation_node_is_cached_shape():
    spec = ScrambleSpec("nested", seed=5)
    table = permutation_node(spec, 1, 5, 0, 0)
    assert sorted(table) == list(range(5))
    assert permutation_node(spec, 1, 5, 0, 0) == table
    other = permutation_node(spec, 1, 5, 1, 3)
    assert sorted(other) == list(range(5))
    # The cache is keyed by the node identity (coordinate, depth, r).
    cache: dict = {}
    nested_scramble_digits(DigitVector(5, (3, 1)), 1, spec, cache=cache)
    assert cache == {(1, 0, 0): table, (1, 1, 3): other}


digit_vectors = st.integers(min_value=2, max_value=7).flatmap(
    lambda b: st.lists(
        st.integers(min_value=0, max_value=b - 1), min_size=1, max_size=8
    ).map(lambda ds: DigitVector(b, tuple(ds)))
)


@given(digit_vectors, st.data())
@settings(max_examples=50)
def test_nested_scramble_respects_prefixes(dv, data):
    spec = ScrambleSpec("nested", seed=77)
    out = nested_scramble_digits(dv, 1, spec)
    assert out.base == dv.base and out.precision == dv.precision
    # Change one digit; earlier output digits must not move.
    pos = data.draw(st.integers(min_value=0, max_value=dv.precision - 1))
    delta = data.draw(st.integers(min_value=1, max_value=dv.base - 1))
    digits = list(dv.digits)
    digits[pos] = (digits[pos] + delta) % dv.base
    out2 = nested_scramble_digits(DigitVector(dv.base, tuple(digits)), 1, spec)
    assert out2.digits[:pos] == out.digits[:pos]
    assert out2.digits[pos] != out.digits[pos]


def test_nested_scramble_matches_node_walk():
    # Digit s+1 of index i is permuted by the node at depth s, r = i mod b^s.
    spec = ScrambleSpec("nested", seed=4)
    for i in range(27):
        dv = digits_of(i, 3, 3)
        out = nested_scramble_digits(dv, 2, spec)
        want = [
            permutation_node(spec, 2, 3, s, i % 3**s)[a]
            for s, a in enumerate(dv.digits)
        ]
        assert list(out.digits) == want


def test_nested_scramble_first_digit_uniform():
    dv = DigitVector(5, (2, 4, 0))
    freq = [0] * 5
    for rep in range(3000):
        spec = ScrambleSpec("nested", seed=123, replicate=rep)
        freq[nested_scramble_digits(dv, 1, spec).digits[0]] += 1
    assert scipy.stats.chisquare(freq).pvalue > P_FLOOR


def test_linear_scramble_manual_example():
    L = LinearScramble(3, ((1,), (2, 2), (0, 1, 2)), (1, 0, 2))
    assert linear_scramble_digits(DigitVector(3, (2, 1, 0)), L).digits == (0, 0, 0)
    assert linear_scramble_digits(DigitVector(3, (1, 2, 1)), L).digits == (2, 0, 0)


def test_linear_scramble_validation():
    with pytest.raises(ValueError):
        LinearScramble(3, ((0,), (1, 1)), (0, 0))  # zero diagonal
    with pytest.raises(ValueError):
        LinearScramble(3, ((1,), (1,)), (0, 0))  # bad row length
    with pytest.raises(ValueError):
        LinearScramble(3, ((1,),), (3,))  # shift out of range
    L = LinearScramble(3, ((1,),), (0,))
    with pytest.raises(ValueError):
        linear_scramble_digits(DigitVector(2, (1,)), L)


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
    full = coordinate_scrambler(spec, 2, base, level + 1)
    want = [full(digits_of(rho, base, level + 1)).digits[level] for rho in range(m)]
    assert scramble_level(spec, 2, base, level, range(m)) == want
    some = [m - 1, 0, m // 2]
    head = replicate_head(spec)
    assert scramble_level(spec, 2, base, level, some, head) == [want[r] for r in some]
    with pytest.raises(ValueError):
        scramble_level(ScrambleSpec("none"), 2, base, level, some)


def test_linear_scramble_bijective_on_prefixes():
    spec = ScrambleSpec("linear", seed=8)
    L = draw_linear_scramble(spec, 1, 2, 3)
    outs = {
        linear_scramble_digits(DigitVector(2, (i & 1, i >> 1 & 1, i >> 2)), L).digits
        for i in range(8)
    }
    assert len(outs) == 8


def test_randomize_none_is_identity(basis3):
    pts = halton_points(basis3, 0, 5)
    assert randomize(pts, ScrambleSpec("none")) is pts


@pytest.mark.parametrize("kind", ["nested", "linear"])
def test_randomize_shapes_and_values(kind, basis3):
    pts = halton_points(basis3, 3, 12)
    out = randomize(pts, ScrambleSpec(kind, seed=31))
    assert (out.start, out.count, out.bases) == (pts.start, pts.count, pts.bases)
    for p in range(out.count):
        for c in range(out.dimension):
            x = out.coords[p][c]
            dv = out.digits[p][c]
            assert 0.0 <= x < 1.0
            # Digits pin the float down to one part in b**precision.
            assert abs(x - float(dv.fraction())) <= dv.base ** -dv.precision + 2**-50


@pytest.mark.parametrize("kind", ["nested", "linear"])
def test_randomize_deterministic(kind, basis3):
    pts = halton_points(basis3, 0, 6)
    a = randomize(pts, ScrambleSpec(kind, seed=9, replicate=1))
    b = randomize(pts, ScrambleSpec(kind, seed=9, replicate=1))
    assert a.coords == b.coords
    c = randomize(pts, ScrambleSpec(kind, seed=9, replicate=2))
    assert a.coords != c.coords


def test_randomize_precision_override(basis3):
    pts = halton_points(basis3, 0, 4)
    out = randomize(pts, ScrambleSpec("nested", seed=2, precision={1: 2}))
    assert out.digits[0][0].precision == 2
    assert out.digits[0][1].precision == pts.digits[0][1].precision


@pytest.mark.parametrize("kind", ["nested", "linear"])
def test_randomize_preserves_stratum_multiset(kind, basis2):
    # Scrambles permute the boxes, so occupancy counts survive as a multiset.
    pts = halton_points(basis2, 7, 29)
    levels = (2, 1)
    before = stratum_occupancy(pts, levels)
    after = stratum_occupancy(randomize(pts, ScrambleSpec(kind, seed=5)), levels)
    assert sorted(before.values()) == sorted(after.values())
    assert sum(after.values()) == 29
