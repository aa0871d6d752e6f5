"""Per-point oracles: slow, independent twins of the package's columnar routes.

The package computes each concept by one columnar route: digit columns by
`halton._index_digits`, scrambles by `scramble.scramble_column`, gain curves
by `gains._pair_prefix`.  The functions here do the same work one index, one
point or one query at a time, so the tests can check each columnar route
against a slower second one:

* digits, radical inverses and strata of single indices (the `halton` twins);
* Philox4x64-10 on Python ints (`philox`, the twin of `scramble.philox_array`)
  and one stream of draws through it (`stream`, the twin of `scramble.draw`);
* nested and linear scrambles of one point's digits, drawing through
  `stream` (the `scramble_column` twins);
* the brute-force gain of one query, its extreme moduli and the attained
  lower bound n* (the `gains` twins), and the chunk-local prefix sums with
  each term's spikes scattered on their own (`pair_prefix_by_terms`, the
  twin of `gains._pair_prefix`);
* the bound rows one d at a time, with compensated (Kahan) log sums
  (`bounds_rows`, the twin of `gains.bounds_table`).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, MutableMapping, Sequence

import numpy as np

from haltongain import scramble
from haltongain.gains import _bruteforce_prefix, _int64_terms, _prefix_at, gain_exact, pair_levels
from haltongain.halton import _leading, default_precision
from haltongain.primes import first_primes
from haltongain.scramble import _MASK, _MUL, _ROUNDS, _WEYL, ScrambleSpec, counter


def digits_of(i: int, base: int, precision: int) -> tuple[int, ...]:
    """First `precision` base-b digits of i, least significant first.

    The per-point oracle of `halton._index_digits`' digit columns.  Refuses to
    drop significant digits: requires base**precision > i.
    """
    if i < 0:
        raise ValueError(f"index must be >= 0, got {i}")
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    if i >= base**precision:
        raise ValueError(f"{precision} base-{base} digits cannot represent index {i}")
    digits = []
    rem = i
    for _ in range(precision):
        rem, a = divmod(rem, base)
        digits.append(a)
    return tuple(digits)


def radical_inverse(i: int, base: int) -> Fraction:
    """Reflect the base-b digits of i about the radix point; exact value.

    The oracle of `halton_points`' floats, which are this value correctly
    rounded.
    """
    if i < 0:
        raise ValueError(f"index must be >= 0, got {i}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    num, den = 0, 1
    rem = i
    while rem:
        rem, a = divmod(rem, base)
        num = num * base + a
        den *= base
    return Fraction(num, den)


def stratum_index(columns: Sequence[np.ndarray], bases: Sequence[int],
                  levels: Sequence[int]) -> list[tuple[int, ...]]:
    """Which level-k elementary box each point falls in, one tuple per point.

    `columns[j-1]` holds coordinate j's digit rows in base `bases[j-1]`,
    plain or scrambled, digit l in column l-1.  Coordinate j with level k_j
    contributes floor(b^k_j * x_j), read off the first k_j digits most
    significant first, digits past the stored ones reading as 0, so it is
    exact at every level.  Level 0 contributes 0.
    """
    if not len(levels) == len(columns) == len(bases):
        raise ValueError("one level per coordinate required")
    cols = []
    for x, b, k in zip(columns, bases, levels):
        if k < 0:
            raise ValueError(f"level must be >= 0, got {k}")
        if k > default_precision(b):
            raise ValueError(f"level {k} is past default_precision({b}) = {default_precision(b)}")
        x = np.pad(x, ((0, 0), (0, max(k - x.shape[1], 0))))
        cols.append(_leading(x, b, k).tolist())
    return list(zip(*cols))


def residue_match(i: int, i2: int, base: int, r: int) -> bool:
    """Whether points i and i2 share their level-r interval in this base.

    floor(b^r * x_i) == floor(b^r * x_i2) holds exactly when
    i == i2 (mod b^r); this is the digit-level statement of that fact.
    """
    if r < 0:
        raise ValueError(f"level must be >= 0, got {r}")
    return (i - i2) % base**r == 0


def _stratum_of_index(i: int, bases: Sequence[int], levels: Sequence[int]) -> tuple[int, ...]:
    out = []
    for b, k in zip(bases, levels):
        rem = i % b**k
        r = 0
        for l in range(1, k + 1):
            rem, a = divmod(rem, b)
            r += a * b ** (k - l)
        out.append(r)
    return tuple(out)


def stratum_counts(
    d: int,
    start: int,
    batch: int,
    levels: Sequence[int],
) -> dict[tuple[int, ...], int]:
    """Occupancy of every level-k box over one batch of consecutive indices
    of the d-dimensional Halton sequence.

    Works on index arithmetic alone (the first k_j digits of point i depend
    only on i mod b_j^k_j), so no floats are involved.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if len(levels) != d:
        raise ValueError("one level per coordinate required")
    bases = first_primes(d)
    counts: dict[tuple[int, ...], int] = {}
    for i in range(start, start + batch):
        key = _stratum_of_index(i, bases, levels)
        counts[key] = counts.get(key, 0) + 1
    return counts


def stratum_occupancy(
    columns: Sequence[np.ndarray], bases: Sequence[int], levels: Sequence[int]
) -> dict[tuple[int, ...], int]:
    """Occupancy of level-k boxes for digit columns, plain or scrambled."""
    return dict(Counter(stratum_index(columns, bases, levels)))


def philox(ctr: Sequence[int], key: Sequence[int]) -> tuple[int, int, int, int]:
    """Philox4x64-10 of one 4-word counter under a 2-word key, on Python ints."""
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for _ in range(_ROUNDS):
        p0, p1 = _MUL[0] * c0, _MUL[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK
        k0, k1 = (k0 + _WEYL[0]) & _MASK, (k1 + _WEYL[1]) & _MASK
    return c0, c1, c2, c3


def stream(seed: int, replicate: int, tag: str, coordinate: int, depth: int, r: int,
           bounds: Sequence[int]) -> list[int]:
    """One draw below each of `bounds` from one stream, on Python ints.

    Each draw reads words in order and keeps word % bound from the first
    word below the largest multiple of bound that fits in 64 bits.  The
    span is read from `scramble._SPAN` at each call, the rule `draw` uses.
    """
    _, lo, hi, word3 = counter(tag, coordinate, depth, r)
    span = scramble._SPAN
    words = (w for block in itertools.count()
             for w in philox((block, lo, hi, word3), (seed, replicate)))
    return [next(w % b for w in words if w < span - span % b) for b in bounds]


@dataclass(frozen=True)
class LinearScramble:
    """Lower-triangular digit matrix and shift for one coordinate.

    rows[s-1] holds (L[s][1], ..., L[s][s]) with L[s][s] != 0; shift[s-1]
    is e_s.  Rows are generated independently, so a depth-D' truncation of a
    depth-D scramble matches the directly drawn depth-D' one.
    """

    base: int
    rows: tuple[tuple[int, ...], ...]
    shift: tuple[int, ...]

    def __post_init__(self) -> None:
        for s, row in enumerate(self.rows, start=1):
            if len(row) != s:
                raise ValueError(f"row {s} must have {s} entries")
            if row[-1] % self.base == 0:
                raise ValueError(f"diagonal entry of row {s} must be nonzero")
        if len(self.shift) != len(self.rows):
            raise ValueError("one shift entry per row required")
        if any(not 0 <= e < self.base for e in self.shift):
            raise ValueError("shift entries must be digits in the base")

    @property
    def depth(self) -> int:
        return len(self.rows)


def permutation_node(
    spec: ScrambleSpec, coordinate: int, base: int, depth: int, r: int
) -> tuple[int, ...]:
    """Permutation table for digit depth+1 below the prefix encoded by r.

    Stream ("perm", coordinate, depth, r) under (seed, replicate) draws the
    Fisher-Yates swaps: draw t, below base - t, picks the entry swapped
    with entry base-1-t.
    """
    table = list(range(base))
    swaps = stream(spec.seed, spec.replicate, "perm", coordinate, depth, r, range(base, 1, -1))
    for i, j in zip(range(base - 1, 0, -1), swaps):
        table[i], table[j] = table[j], table[i]
    return tuple(table)


def draw_linear_scramble(
    spec: ScrambleSpec, coordinate: int, base: int, depth: int
) -> LinearScramble:
    """Matrix rows 1..depth and shift for this coordinate under `spec`.

    Stream ("row", coordinate, s, 0) draws L[s][s] - 1, then e_s, then
    L[s][1], ..., L[s][s-1]: every row reads a prefix of the bounds
    (b - 1, b, b, ...), so `scramble_column` draws all rows at once.
    """
    drawn = [stream(spec.seed, spec.replicate, "row", coordinate, s, 0, [base - 1] + [base] * s)
             for s in range(1, depth + 1)]
    return LinearScramble(base, tuple((*off, diag + 1) for diag, _, *off in drawn),
                          tuple(shift for _, shift, *_ in drawn))


def nested_scramble_digits(
    x: Sequence[int],
    base: int,
    coordinate: int,
    spec: ScrambleSpec,
    depth: int | None = None,
    cache: MutableMapping[tuple[int, int, int], tuple[int, ...]] | None = None,
) -> tuple[int, ...]:
    """Apply the nested scramble to one point's digits in one coordinate.

    The per-point oracle of `scramble_column`'s nested columns.  Digit s+1 is
    permuted by node (coordinate, s, r) with r the input prefix
    (x_1, ..., x_s) read as an integer, so points agreeing to depth s share
    that node.  Pass a dict as `cache` to reuse nodes across the points of
    one replicate; it is keyed by the same (coordinate, s, r).
    """
    if depth is None:
        depth = len(x)
    out, r, weight = [], 0, 1
    for s in range(depth):
        a = x[s] if s < len(x) else 0
        key = (coordinate, s, r)
        table = cache.get(key) if cache is not None else None
        if table is None:
            table = permutation_node(spec, coordinate, base, s, r)
            if cache is not None:
                cache[key] = table
        out.append(table[a])
        r += a * weight
        weight *= base
    return tuple(out)


def linear_scramble_digits(
    x: Sequence[int], scramble: LinearScramble, depth: int | None = None
) -> tuple[int, ...]:
    """Apply a drawn linear scramble to one point's digits in one coordinate.

    The per-point oracle of `scramble_column`'s linear columns.
    """
    b = scramble.base
    if any(not 0 <= a < b for a in x):
        raise ValueError("digits out of range for the scramble's base")
    if depth is None:
        depth = min(len(x), scramble.depth)
    if depth > scramble.depth:
        raise ValueError(f"scramble holds only {scramble.depth} rows")
    out = []
    for s in range(1, depth + 1):
        row = scramble.rows[s - 1]
        acc = scramble.shift[s - 1]
        for t in range(s):
            a = x[t] if t < len(x) else 0
            acc += row[t] * a
        out.append(acc % b)
    return tuple(out)


def gain_bruteforce(
    u: Iterable[int], levels: Sequence[int], n: int
) -> Fraction:
    """G_{u,k}(n) by the defining double sum over index pairs.

    The last entry of _bruteforce_prefix.  Quadratic in n, so n is capped.
    """
    _, levels, bases = pair_levels(u, levels)
    t = int(_bruteforce_prefix(bases, levels, n)[-1])
    total = n * math.prod(b - 1 for b in bases)
    return Fraction(total + 2 * t, total)


def pair_prefix_by_terms(terms: list[tuple[int, int]], lo: int, hi: int) -> np.ndarray:
    """T(n) - T(lo) for lo < n <= hi, with the spikes H_v scattered at the multiples of
    each m_v, term by term.

    The per-term twin of `gains._pair_prefix`, which sets the spikes one
    coordinate at a time; it shares the int64 rule and the F(lo) seed.
    """
    small = _int64_terms(terms, lo, hi)
    acc = np.zeros(hi - lo, dtype=np.int64)
    for h, m in small:
        acc[(lo // m + 1) * m - lo :: m] += h
    acc[0] = _prefix_at(small, lo)[0]
    np.cumsum(acc, out=acc)
    np.cumsum(acc, out=acc)
    return acc


def moduli(bases: Sequence[int], levels: Sequence[int]) -> tuple[int, int]:
    """(prod b^k, prod b^(k+1)) of aligned bases and levels: a query's
    smallest and largest modulus."""
    under = math.prod(b**k for b, k in zip(bases, levels))
    return under, under * math.prod(bases)


def lower_bound_n_star(
    u: Iterable[int],
    j_star: int,
) -> tuple[int, Fraction]:
    """The count n* at which the worst gain over u is provably attained.

    Requires j_star in u with base 2 or 3 (coordinate 1 or 2); then at
    n* = prod of the other member bases the level-0 gain equals
    prod_{j in u, j != j_star} (b_j + 1)/b_j exactly.  The returned value is
    re-verified against gain_exact.
    """
    u = tuple(u)
    if j_star not in u or j_star not in (1, 2):
        raise ValueError("j_star must be a member of u with coordinate 1 or 2")
    primes = first_primes(max(u))
    others = [primes[j - 1] for j in u if j != j_star]
    n_star = 1
    value = Fraction(1)
    for b in others:
        n_star *= b
        value *= Fraction(b + 1, b)
    check = gain_exact(u, (0,) * len(u), n_star)
    if check != value:
        raise RuntimeError(
            f"attained-bound identity failed: gain({n_star}) = {check}, "
            f"expected {value}"
        )
    return n_star, value


class Kahan:
    """Compensated running sum; keeps 1e6-term log sums near full precision."""

    __slots__ = ("total", "_c")

    def __init__(self) -> None:
        self.total = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


def bounds_rows(d_max: int) -> Iterator[tuple[int, float, float, float]]:
    """Rows (d, lower, upper, guide) of `gains.bounds_table`, one d at a time.

    The log sums run as Kahan sums, one prime per row.
    """
    lo = Kahan()
    hi = Kahan()
    for d, b in enumerate(first_primes(d_max), start=1):
        lo.add(math.log1p(1.0 / b))
        hi.add(-math.log1p(-1.0 / b))
        guide = 1.5 + math.log(d / 2.0)
        if d == 1:
            yield 1, 1.0, 1.0, guide
        else:
            yield d, 0.75 * math.exp(lo.total), 0.5 * math.exp(hi.total), guide
