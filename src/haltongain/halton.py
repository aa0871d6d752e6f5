"""Halton points and their digit expansions.

The i-th point's coordinate j is the base-b_j radical inverse of i: write
i = sum_l a_l * b^(l-1) and reflect the digits about the radix point,
x = sum_l a_l * b^(-l).  A point set is its floats, one array; a column's
digits, as deep as its largest index needs, live only while its floats are made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .primes import _require_integers, first_primes

__all__ = ["MAX_INDEX", "PointSet", "default_precision", "halton_points"]

# Point indices are 64-bit; the digit precision is chosen to match.
MAX_INDEX = 1 << 64


def default_precision(base: int) -> int:
    """Smallest D with base**D >= 2**64: at most 64 digits, reached in base 2."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    d, p = 0, 1
    while p < MAX_INDEX:
        p *= base
        d += 1
    return d


@dataclass(frozen=True, eq=False)
class PointSet:
    """Consecutive Halton points, plain or scrambled, as realized floats.

    `coords[p, c]` is coordinate c+1 of point `start + p`, a float in [0,1),
    in one read-only float64 array.  `bases[c]` is that column's base, the
    prime p_{c+1}, as a Python int.
    """

    start: int
    count: int
    bases: tuple[int, ...]
    coords: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.bases)


def _leading(digits: np.ndarray, base: int, k: int) -> np.ndarray:
    """Each row's first k digits read as one integer, most significant first.

    Row p gives sum_{l=1..k} digits[p, l-1] * base**(k-l).  Horner runs on
    uint64 limbs of `per` digits, the most with base**per <= 2**64, so each
    limb is exact.  Past one limb the value can exceed 2**64, so the limbs
    are joined as Python ints (an object array).
    """
    per = 1
    while base ** (per + 1) <= MAX_INDEX:
        per += 1
    b = np.uint64(base)
    value = np.zeros(len(digits), dtype=np.uint64)
    for lo in range(0, k, per):
        hi = min(lo + per, k)
        limb = np.zeros(len(digits), dtype=np.uint64)
        for l in range(lo, hi):
            limb = limb * b + digits[:, l]
        value = limb if lo == 0 else value.astype(object) * base ** (hi - lo) + limb.astype(object)
    return value


def _float_column(digits: np.ndarray, base: int, tails: np.ndarray | None) -> np.ndarray:
    """Float view of one digit column of L digits, plus `tails` in units of b**-L.

    Each value is num/b**L correctly rounded, plus the tail, kept below 1.
    With b**L <= 2**53 num and b**L are exact doubles, so one float64
    division is correctly rounded.  Otherwise the exact numerator is a
    Python int, whose division Python rounds correctly.
    """
    width = digits.shape[1]
    den = base**width
    if tails is None and den <= 1 << 53:
        return _leading(digits, base, width).astype(np.float64) / den
    x = np.array([num / den for num in _leading(digits, base, width).tolist()])
    if tails is not None:
        x += tails / float(den)
    x[x >= 1.0] = 1.0 - 2.0**-53
    return x


def _index_digits(start: int, count: int, base: int, depth: int) -> np.ndarray:
    """Digits 1..L of indices start..start+count-1, one row each, L the
    digit count of the largest index, at least 1 and at most `depth`: every
    index is below 2**64 <= base**default_precision(base), exact at that
    depth, and a smaller depth keeps its first digits."""
    width = next((w for w in range(1, depth) if start + count - 1 < base**w), depth)
    out = np.empty((count, width), dtype=np.uint64)
    rem = np.uint64(start) + np.arange(count, dtype=np.uint64)
    for l in range(width):
        rem, out[:, l] = np.divmod(rem, np.uint64(base))
    return out


def _point_set(d: int, start: int, count: int, column: Callable) -> PointSet:
    """Points start, ..., start+count-1 in d dimensions, coordinate c in base
    b the floats column(c, b): one column's digits are built, read and
    dropped before the next column's."""
    bases = first_primes(d)
    _require_integers(start=start, count=count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if start + count > MAX_INDEX:
        raise ValueError("index range exceeds 64-bit point indices")
    coords = np.stack([column(c, b) for c, b in enumerate(bases, start=1)], axis=1)
    coords.flags.writeable = False
    return PointSet(start, count, bases, coords)


def halton_points(d: int, start: int, count: int) -> PointSet:
    """Points start, ..., start+count-1 of the d-dimensional Halton sequence,
    coordinate j in base p_j, each read from digits as deep as its largest
    index needs."""
    return _point_set(d, start, count, lambda c, b: _float_column(
        _index_digits(start, count, b, default_precision(b)), b, None))
