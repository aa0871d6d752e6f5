"""Digit scrambling for Halton points.

Two randomizations are provided, both acting digit-wise in each coordinate's
own base:

* nested: every digit position gets its own uniform permutation of Z_b,
  chosen independently for each distinct prefix of more significant digits;
* linear: a random lower-triangular digit matrix with nonzero diagonal plus
  a uniform digital shift, out_s = (sum_{t<=s} L[s][t] x_t + e_s) mod b.

All randomness comes from one keyed counter PRF, Philox4x64-10 (Salmon et
al., SC'11), so replicates need no sequential state and any digit can be
scrambled alone.  Stream (tag, coordinate, depth, r) under key (seed,
replicate) reads the words of counter (block, r mod 2^64, r >> 64,
coordinate | depth << 24 | tag << 56) for blocks 0, 1, 2, ..., one word per
draw, rejecting words that would bias it; `counter` refuses fields too wide
for their bits, so distinct streams never share a counter.  Tag "perm" is
nested node (s, r) at depth s, where r = x_1 + x_2 b + ... + x_s b^(s-1) is
i mod b^s for index i and encodes the prefix (x_1, ..., x_s) bijectively;
"row" is linear row s at depth s, r = 0; and "tail" is the nested tail of
point i, r = i.

`draw` runs Philox for many streams at once in numpy, each 64 x 64 ->
128-bit product split into 32-bit halves; every scramble uses it.  A
scrambled column holds at most default_precision(b) digits, so every prefix
r is below b^(D-1) < 2^64 and the counter's word r >> 64 is 0.  The scalar
Philox and one-stream PRF that check `draw` are the oracles `philox` and
`stream` of tests/oracles.py.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .halton import PointSet, _float_column, _index_digits, _point_set, default_precision
from .primes import _require_integers

__all__ = [
    "Kind", "ScrambleSpec", "philox_array", "counter", "draw", "scramble_column", "randomize",
]

Kind = Literal["nested", "linear"]

_KINDS = ("nested", "linear")
_TAGS = {"perm": 0, "row": 1, "tail": 2}
_MASK = (1 << 64) - 1
_SPAN = 1 << 64  # a draw below `bound` takes the first word below _SPAN - _SPAN % bound
_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # Philox4x64 multipliers
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # and key increments
_ROUNDS = 10
# Nested levels share one `draw` up to this many rows (nodes x replicates).  A
# call costs about 0.3 ms before its first row and 0.2 us per row (one x86
# core), so 8192 rows leave little fixed cost, while the call's temporaries,
# which grow with its rows, stay small; a level with more rows is drawn alone.
_GROUP_ROWS = 1 << 13


@dataclass(frozen=True)
class ScrambleSpec:
    """What to apply and under which random key.

    Distinct replicates give independent randomizations under the same seed.
    """

    kind: Kind
    seed: int = 0
    replicate: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        _require_integers(seed=self.seed, replicate=self.replicate)
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= self.replicate < 1 << 64:
            raise ValueError("replicate must be in 0..2^64-1")


_HALF, _LOW = np.uint64(32), np.uint64(0xFFFFFFFF)
_NP_MUL = tuple((np.uint64(m), np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)) for m in _MUL)
_NP_WEYL = tuple(np.uint64(w) for w in _WEYL)


def _mulhi(m, x: np.ndarray) -> np.ndarray:
    """High word of each 128-bit product m * x, from 32-bit halves (m split as in _NP_MUL)."""
    _, mh, ml = m
    xh, xl = x >> _HALF, x & _LOW
    mid = mh * xl + (ml * xl >> _HALF)  # every partial sum stays below 2^64
    return mh * xh + (mid >> _HALF) + ((ml * xh + (mid & _LOW)) >> _HALF)


def philox_array(ctr, key) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 of 4-word counters under 2-word keys, elementwise over
    uint64 arrays that broadcast together."""
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in ctr)
    k0, k1 = (np.asarray(k, dtype=np.uint64) for k in key)
    m0, m1 = _NP_MUL
    with np.errstate(over="ignore"):  # the low words are products mod 2^64
        for _ in range(_ROUNDS):
            c0, c1, c2, c3 = (_mulhi(m1, c2) ^ c1 ^ k0, c2 * m1[0],
                              _mulhi(m0, c0) ^ c3 ^ k1, c0 * m0[0])
            k0, k1 = k0 + _NP_WEYL[0], k1 + _NP_WEYL[1]
    return c0, c1, c2, c3


def counter(tag: str, coordinate: int, depth: int, r: int, block: int = 0) -> tuple[int, ...]:
    """The Philox counter of word block `block` of stream (tag, coordinate, depth, r)."""
    if not 0 <= coordinate < 1 << 24:
        raise ValueError(f"coordinate {coordinate} does not fit the counter's 24 bits")
    if not 0 <= depth < 1 << 32:
        raise ValueError(f"depth {depth} does not fit the counter's 32 bits")
    if not 0 <= r < 1 << 128:
        raise ValueError(f"node {r} does not fit the counter's 128 bits")
    return block, r & _MASK, r >> 64, coordinate | depth << 24 | _TAGS[tag] << 56


def draw(seed: int, replicate, tag: str, coordinate: int, depth, r, bounds) -> np.ndarray:
    """One draw below each of `bounds` from each of many streams: uint64, one row each.

    Row j is stream (tag, coordinate, depth[j], r[j]) under key (seed,
    replicate[j]); `replicate` and `depth` are one int or one per row, and
    `r` is uint64.  Each draw reads words in order and keeps word % bound
    from the first word below the largest multiple of bound that fits in 64
    bits.  All rows read their first words at once; a row with a rejected
    word among them, which has probability below b/2^64 per word, is redrawn.
    """
    r = np.asarray(r, dtype=np.uint64)
    n = len(r)
    depth = np.asarray(depth)
    for d in (depth.min(initial=0), depth.max(initial=0)):  # depth 0 is valid
        counter(tag, coordinate, int(d), 0)
    depth = np.broadcast_to(depth, (n,))
    replicate = np.broadcast_to(np.asarray(replicate, dtype=np.uint64), (n,))
    bounds = np.asarray(bounds, dtype=np.uint64)
    m = len(bounds)
    word3 = np.uint64(counter(tag, coordinate, 0, 0)[3]) | depth.astype(np.uint64) << np.uint64(24)
    blocks = np.arange(-(-m // 4), dtype=np.uint64)
    words = philox_array((blocks, r[:, None], 0, word3[:, None]), (seed, replicate[:, None]))
    words = np.stack(words, axis=-1).reshape(n, 4 * len(blocks))[:, :m]
    top = np.uint64(_SPAN - 1)
    limits = top - (top % bounds + np.uint64(1)) % bounds  # the largest word each draw keeps
    out = words % bounds
    for j in np.flatnonzero((words > limits).any(axis=1)):
        out[j] = _redraw(seed, replicate[j], r[j], word3[j], bounds, limits)
    return out


def _redraw(seed: int, replicate, r, word3, bounds, limits) -> list[int]:
    """One stream's draws, reading its words block after block in order."""
    words = (w for block in itertools.count()
             for w in philox_array((block, r, 0, word3), (seed, replicate)))
    return [next(w % b for w in words if w <= top) for b, top in zip(bounds, limits)]


def _permutations(seed: int, replicate, coordinate: int, base: int, depth, r) -> np.ndarray:
    """Permutation table of each node (replicate, depth, r) at once: one row each.

    Stream ("perm", coordinate, depth, r) draws the Fisher-Yates swaps:
    draw t, below base - t, picks the entry swapped with entry base-1-t.
    """
    swaps = draw(seed, replicate, "perm", coordinate, depth, r, np.arange(base, 1, -1))
    table = np.tile(np.arange(base, dtype=np.uint64), (len(swaps), 1))
    rows = np.arange(len(swaps))
    for t in range(base - 1):
        i, j = base - 1 - t, swaps[:, t].astype(np.intp)
        table[rows, i], table[rows, j] = table[rows, j], table[rows, i]
    return table


def scramble_column(
    spec: ScrambleSpec,
    coordinate: int,
    base: int,
    x: np.ndarray,
    levels: Sequence[int],
    replicates: int = 1,
) -> np.ndarray:
    """Scrambled digits levels[t]+1 of each digit row of one coordinate.

    The one place that turns a spec's kind into a scramble of digit arrays.
    `x` must be uint64 of shape (rows, digits), digit l+1 in column l, and
    the digits past its columns are 0; any other dtype is refused.  Returns
    uint64 of shape (replicates, rows, len(levels)); block j is under
    replicate spec.replicate + j.  Linear: one `draw` gives matrix row
    level+1 and shift e_{level+1} for every level and replicate, then one
    uint64 product x @ L^T, reduced in place: += e, then %= b.
    Nested: the permutations of every replicate's distinct nodes
    (coordinate, s, r) at each requested level s, r the prefix (x_1, ...,
    x_s) read as an integer, with one `draw` per group of consecutive levels
    of at most _GROUP_ROWS rows in all.  Any subset of levels gives those
    digits of the full scramble.

    The deepest level scrambled is digit default_precision(b): every prefix
    then fits in uint64, and the linear product plus shift stays below
    D*(b-1)**2 + b <= 2^63.  That holds for every base up to p_{10^7} =
    179,424,673 (depth 3) and fails from base 1,753,413,058, so a hand-built
    base whose product could reach 2^63 is refused at every depth.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if x.dtype != np.uint64:
        raise ValueError(f"digits must be uint64, got {x.dtype}")
    levels = np.asarray(levels)
    if levels.size == 0 or levels.dtype.kind not in "iu" or levels.min() < 0:
        raise ValueError(f"levels must be one or more digit levels >= 0, got {levels.tolist()}")
    if spec.replicate + replicates > 1 << 64:
        raise ValueError("replicates past 2^64 - 1 do not fit the Philox key")
    reps = np.uint64(spec.replicate) + np.arange(replicates, dtype=np.uint64)
    rows, stored = x.shape
    depth = int(levels.max()) + 1
    limit = min(default_precision(base), ((1 << 63) - base) // (base - 1) ** 2)
    if depth > limit:
        raise ValueError(f"scramble depth {depth} exceeds the limit {limit} for base {base}")
    if spec.kind == "linear":
        # Draw row (j, t) is matrix row s = levels[t] + 1 of replicate j; it
        # reads its first s + 1 draws: L[s][s] - 1, e_s, L[s][1], ..., L[s][s-1].
        diagonal = np.tile(levels, replicates)
        drawn = draw(spec.seed, np.repeat(reps, len(levels)), "row", coordinate, diagonal + 1,
                     np.zeros(len(diagonal), np.uint64), [base - 1] + [base] * depth)
        matrix = np.zeros((len(diagonal), depth), dtype=np.uint64)
        matrix[:, :-1] = np.where(np.arange(depth - 1) < diagonal[:, None], drawn[:, 2:], 0)
        matrix[np.arange(len(diagonal)), diagonal] = 1 + drawn[:, 0]
        y = x[:, :depth] @ matrix[:, :stored].T
        y += drawn[:, 1]
        y %= base
        return y.reshape(rows, replicates, len(levels)).transpose(1, 0, 2)
    out = np.empty((replicates, rows, len(levels)), dtype=np.uint64)
    group: list[tuple[int, np.ndarray, np.ndarray, np.ndarray | int]] = []  # (s, nodes, which, a)

    def draw_group() -> None:
        depths, nodes, inverses, digits = zip(*group)
        sizes = [len(v) * replicates for v in nodes]
        tables = _permutations(
            spec.seed, np.concatenate([np.repeat(reps, len(v)) for v in nodes]), coordinate,
            base, np.repeat(depths, sizes), np.concatenate([np.tile(v, replicates) for v in nodes]))
        blocks = np.split(tables, np.cumsum(sizes)[:-1])
        for s, v, which, a, block in zip(depths, nodes, inverses, digits, blocks):
            out[:, :, levels == s] = block.reshape(replicates, len(v), base)[:, which, a, None]
        group.clear()

    # The prefix r = x_1 + x_2 b + ... + x_s b^(s-1) < b^(depth-1) < 2^64.
    r = np.zeros(rows, dtype=np.uint64)
    for s in range(depth):
        a = x[:, s] if s < stored else 0
        if s in levels:
            nodes, which = np.unique(r, return_inverse=True)
            if group and (sum(len(g[1]) for g in group) + len(nodes)) * replicates > _GROUP_ROWS:
                draw_group()
            group.append((s, nodes, which, a))
        if s + 1 < depth and s < stored:  # digits past the stored ones are 0
            r = r + a * np.uint64(base**s)
    draw_group()
    return out


def randomize(d: int, start: int, count: int, spec: ScrambleSpec) -> PointSet:
    """Points start, ..., start+count-1 of the d-dimensional Halton sequence,
    every digit column scrambled.

    Each column's index digits are scrambled to D = default_precision(b)
    digits, turned into floats and dropped before the next column's.  Nested
    realization adds one uniform tail draw per (point, coordinate) at the
    level below the last scrambled digit: the tail digits of a nested
    scramble are independent uniforms, and a single draw of 53 bits scaled
    by b**-D has exactly that law.  Linear tails are zero, matching the zero
    input digits beyond the stored ones.
    """
    def column(c: int, base: int) -> np.ndarray:
        depth = default_precision(base)
        x = scramble_column(spec, c, base, _index_digits(start, count, base, depth), range(depth))
        tails = None
        if spec.kind == "nested":
            indices = np.uint64(start) + np.arange(count, dtype=np.uint64)
            tails = draw(spec.seed, spec.replicate, "tail", c, 0, indices, [1 << 53])[:, 0] / 2**53
        return _float_column(x[0], base, tails)

    return _point_set(d, start, count, column)
