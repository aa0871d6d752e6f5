"""Digit scrambling for Halton points.

Two randomizations are provided, both acting digit-wise in each coordinate's
own base:

* nested: every digit position gets its own uniform permutation of Z_b,
  chosen independently for each distinct prefix of more significant digits;
* linear: a random lower-triangular digit matrix with nonzero diagonal plus
  a uniform digital shift, out_s = (sum_{t<=s} L[s][t] x_t + e_s) mod b.

All randomness is counter-based: a (seed, replicate, coordinate, node) key
deterministically yields the permutation or matrix row, so replicates need
no sequential state and any subset of digits can be scrambled without
generating the rest.  A nested node is the integer pair (s, r): depth s and
r = x_1 + x_2 b + ... + x_s b^(s-1), which is i mod b^s for the digits of
index i and encodes the prefix (x_1, ..., x_s) bijectively.

Every stream of one replicate starts its key with (seed, tag, replicate);
`replicate_head` feeds that start to a blake2b state once, and each stream
copies the state and adds only its own node parts.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Callable, Literal, Mapping, MutableMapping, Sequence

import numpy as np

from .halton import PointSet, _point_set

__all__ = [
    "Kind",
    "ScrambleSpec",
    "LinearScramble",
    "KeyedStream",
    "key_head",
    "replicate_head",
    "permutation_node",
    "draw_linear_scramble",
    "linear_depth_limit",
    "nested_scramble_digits",
    "linear_scramble_digits",
    "scramble_level",
    "coordinate_scrambler",
    "randomize",
]

Kind = Literal["none", "nested", "linear"]

_KINDS = ("none", "nested", "linear")
_TAGS = {"nested": "perm", "linear": "row"}  # stream tag of each kind's draws


@dataclass(frozen=True)
class ScrambleSpec:
    """What to apply and under which random key.

    `precision` optionally caps the number of output digits per 1-based
    coordinate; unlisted coordinates keep their stored precision.  Distinct
    replicates give independent randomizations under the same seed.
    """

    kind: Kind
    seed: int = 0
    replicate: int = 0
    precision: Mapping[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if self.replicate < 0:
            raise ValueError("replicate must be >= 0")


def _int_code(part: int) -> bytes:
    raw = part.to_bytes((part.bit_length() + 7) // 8 or 1, "big")
    return b"i" + len(raw).to_bytes(4, "big") + raw


# Coordinates, depths and most node prefixes: encoded once, not per stream.
_SMALL_INT_CODES = tuple(_int_code(v) for v in range(256))


def _encode(part: int | str) -> bytes:
    if isinstance(part, str):
        raw = part.encode()
        return b"s" + len(raw).to_bytes(4, "big") + raw
    if isinstance(part, int):
        return _SMALL_INT_CODES[part] if 0 <= part < 256 else _int_code(part)
    raise TypeError(f"cannot key a stream on {type(part).__name__}")


def key_head(*parts: int | str, head=None):
    """A blake2b state fed `parts` after those of `head`: a shared key start.

    `KeyedStream(*rest, head=key_head(*first))` draws exactly what
    `KeyedStream(*first, *rest)` draws; `first` is encoded only once.
    """
    h = hashlib.blake2b(digest_size=32) if head is None else head.copy()
    for p in parts:
        h.update(_encode(p))
    return h


class KeyedStream:
    """Deterministic byte stream: blake2b over a structured key plus counter.

    The key parts are length-prefixed, so distinct part tuples can never
    collide.  Draws are rejection-sampled from 64-bit chunks, hence unbiased.
    The key is `head`'s parts (see `key_head`), if given, then `parts`.
    """

    __slots__ = ("_key", "_counter", "_buf", "_pos")

    def __init__(self, *parts, head=None) -> None:
        self._key = key_head(*parts, head=head).digest()
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def _chunk(self) -> int:
        if self._pos >= len(self._buf):
            self._buf = hashlib.blake2b(
                self._key + self._counter.to_bytes(8, "big"), digest_size=32
            ).digest()
            self._counter += 1
            self._pos = 0
        v = int.from_bytes(self._buf[self._pos : self._pos + 8], "big")
        self._pos += 8
        return v

    def next_uint(self, bound: int) -> int:
        """Uniform draw from range(bound)."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        if bound == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self._chunk()
            if v < limit:
                return v % bound

    def unit_float(self) -> float:
        """Uniform draw from [0, 1) with 53 random bits."""
        return (self._chunk() >> 11) / (1 << 53)

    def permutation(self, size: int) -> tuple[int, ...]:
        """Uniform permutation of range(size), by Fisher-Yates."""
        table = list(range(size))
        for i in range(size - 1, 0, -1):
            j = self.next_uint(i + 1)
            table[i], table[j] = table[j], table[i]
        return tuple(table)


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


@functools.lru_cache(maxsize=16)
def _tag_head(seed: int, tag: str):
    # (seed, tag) fed once for every replicate of a run; users only copy it.
    return key_head(seed, tag)


def replicate_head(spec: ScrambleSpec, tag: str | None = None):
    """`key_head(seed, tag, replicate)`: the start of every key `spec` draws.

    `tag` defaults to the kind's own ("perm" nested, "row" linear).
    """
    return key_head(spec.replicate, head=_tag_head(spec.seed, tag or _TAGS[spec.kind]))


def permutation_node(
    spec: ScrambleSpec, coordinate: int, base: int, depth: int, r: int, head=None
) -> tuple[int, ...]:
    """Permutation table for digit depth+1 below the prefix encoded by r.

    Keyed (seed, "perm", replicate, coordinate, depth, r); `head`, if given,
    is `replicate_head(spec)`, shared by the nodes of a replicate.
    """
    if head is None:
        head = replicate_head(spec, "perm")
    return KeyedStream(coordinate, depth, r, head=head).permutation(base)


def _linear_row(
    head, coordinate: int, base: int, s: int
) -> tuple[tuple[int, ...], int]:
    """Row s of the matrix, (L[s][1], ..., L[s][s]), and the shift e_s.

    Keyed (seed, "row", replicate, coordinate, s), `head` holding the first
    three parts, and drawn diagonal first, then the off-diagonal entries,
    then the shift.
    """
    stream = KeyedStream(coordinate, s, head=head)
    diag = 1 + stream.next_uint(base - 1)
    off = tuple(stream.next_uint(base) for _ in range(s - 1))
    return off + (diag,), stream.next_uint(base)


def draw_linear_scramble(
    spec: ScrambleSpec, coordinate: int, base: int, depth: int
) -> LinearScramble:
    """Matrix rows 1..depth and shift for this coordinate under `spec`."""
    head = replicate_head(spec, "row")
    drawn = [_linear_row(head, coordinate, base, s) for s in range(1, depth + 1)]
    return LinearScramble(
        base, tuple(row for row, _ in drawn), tuple(e for _, e in drawn)
    )


def nested_scramble_digits(
    x: Sequence[int],
    base: int,
    coordinate: int,
    spec: ScrambleSpec,
    depth: int | None = None,
    cache: MutableMapping[tuple[int, int, int], tuple[int, ...]] | None = None,
) -> tuple[int, ...]:
    """Apply the nested scramble to one point's digits in one coordinate.

    The per-point oracle of `randomize`'s nested columns.  Digit s+1 is
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

    The per-point oracle of `randomize`'s linear columns.
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


def scramble_level(
    spec: ScrambleSpec,
    coordinate: int,
    base: int,
    level: int,
    residues: Sequence[int],
    head=None,
) -> list[int]:
    """Scrambled digit level+1 of an index i, for each residue i mod b^(level+1).

    That one digit depends on i only through this residue.  Nested: node
    (coordinate, level, residue mod b^level) permutes input digit level+1,
    one permutation per distinct prefix.  Linear: matrix row level+1 and
    shift e_{level+1} combine input digits 1..level+1, one row in all.
    These are the full scramble's draws, so the digit is its digit level+1.
    `head`, if given, is `replicate_head(spec)`.
    """
    if spec.kind == "none":
        raise ValueError("kind 'none' scrambles no digits")
    if head is None:
        head = replicate_head(spec)
    if spec.kind == "linear":
        row, shift = _linear_row(head, coordinate, base, level + 1)
        out = []
        for rho in residues:
            acc = shift
            for a in row:  # input digits 1..level+1, least significant first
                rho, x = divmod(rho, base)
                acc += a * x
            out.append(acc % base)
        return out
    low = base**level
    tables: dict[int, tuple[int, ...]] = {}
    out = []
    for rho in residues:
        prefix, digit = rho % low, rho // low
        if prefix not in tables:
            tables[prefix] = permutation_node(
                spec, coordinate, base, level, prefix, head
            )
        out.append(tables[prefix][digit])
    return out


def linear_depth_limit(base: int) -> int:
    """Deepest linear scramble whose column product is exact in int64.

    Digit s sums at most D products L[s][t]*x_t plus e_s, below
    D*(b-1)**2 + b <= 2**63 for D up to this limit: 286 at the largest
    admitted base, p_{10^7} = 179,424,673, whose default depth is 3.
    """
    return ((1 << 63) - base) // (base - 1) ** 2


def coordinate_scrambler(
    spec: ScrambleSpec, coordinate: int, base: int, depth: int
) -> Callable[[np.ndarray], np.ndarray]:
    """digit column -> scrambled column (`depth` digits) for one coordinate.

    The one place that turns a spec's kind into a scramble of digit arrays
    of shape (points, digits).  Linear: the matrix is drawn once up front,
    then one integer product (x @ L^T + e) mod b scrambles the column.
    Nested: one pass per depth s draws each distinct node (s, r) once.
    """
    if spec.kind == "linear":
        if depth > linear_depth_limit(base):
            raise ValueError(f"linear scramble depth {depth} exceeds the int64-exact "
                             f"limit {linear_depth_limit(base)} for base {base}")
        L = draw_linear_scramble(spec, coordinate, base, depth)
        matrix = np.zeros((depth, depth), dtype=np.int64)
        for s, row in enumerate(L.rows):
            matrix[s, : s + 1] = row

        def linear(x: np.ndarray) -> np.ndarray:
            width = min(depth, x.shape[1])  # input digits past the stored ones are 0
            y = x[:, :width].astype(np.int64) @ matrix[:, :width].T + L.shift
            return (y % base).astype(np.uint64)

        return linear
    if spec.kind != "nested":
        raise ValueError("kind 'none' scrambles no digits")
    head = replicate_head(spec)

    def nested(x: np.ndarray) -> np.ndarray:
        n, stored = x.shape
        out = np.empty((n, depth), dtype=np.uint64)
        # The prefix r = x_1 + x_2 b + ... + x_s b^(s-1) < b^s, by Horner.
        # Exact at every depth: uint64 while b^s <= 2^64, Python ints (an
        # object array) past that, which default depths D (b^(D-1) < 2^64)
        # never reach.
        r = np.zeros(n, dtype=np.uint64)
        for s in range(depth):
            a = x[:, s] if s < stored else 0
            nodes, which = np.unique(r, return_inverse=True)
            node_head = key_head(coordinate, s, head=head)
            tables = [KeyedStream(v, head=node_head).permutation(base) for v in nodes.tolist()]
            out[:, s] = np.array(tables, dtype=np.uint64)[which, a]
            if s + 1 < depth and s < stored:  # digits past the stored ones are 0
                if base ** (s + 1) <= 1 << 64:
                    r = r + a * np.uint64(base**s)
                else:
                    r = r.astype(object) + a.astype(object) * base**s
        return out

    return nested


def randomize(points: PointSet, spec: ScrambleSpec) -> PointSet:
    """Scramble every coordinate of every point; kind "none" is identity.

    Each column is scrambled to one depth: its precision override, else its
    stored precision.  Nested realization adds one uniform tail draw per
    (point, coordinate) at the level below the last scrambled digit: the
    tail digits of a nested scramble are independent uniforms, and a single
    draw in [0,1) scaled by b**-D has exactly that law.  Linear tails are
    zero, matching the zero input digits beyond the stored precision.
    """
    if spec.kind == "none":
        return points
    tail_head = replicate_head(spec, "tail")
    indices = range(points.start, points.start + points.count)
    nested = spec.kind == "nested"
    digits, tails = [], []
    for c, (base, x) in enumerate(zip(points.bases, points.digits)):
        column = c + 1
        depth = (spec.precision or {}).get(column, x.shape[1])
        if depth < 1:
            raise ValueError(f"precision override for coordinate {column} must be >= 1")
        digits.append(coordinate_scrambler(spec, column, base, depth)(x))
        head = key_head(column, head=tail_head)
        tails.append([KeyedStream(i, head=head).unit_float() for i in indices] if nested else None)
    return _point_set(points.start, points.bases, digits, tails)
