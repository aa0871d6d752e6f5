"""Halton points and their digit expansions.

The i-th point's coordinate j is the base-b_j radical inverse of i: write
i = sum_l a_l * b^(l-1) and reflect the digits about the radix point,
x = sum_l a_l * b^(-l).  A point set holds each coordinate as one integer
digit array, and floats are a derived view.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .primes import PrimeBasis

__all__ = ["MAX_INDEX", "PointSet", "default_precision", "halton_points"]

# Point indices are 64-bit; the digit precision is chosen to match.
MAX_INDEX = 1 << 64


def _require_integers(**values) -> None:
    """Refuse any value that is not an integer: numpy would truncate 1.5 to 1."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


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
    """Consecutive Halton points as digit columns and realized floats.

    `digits[c]` is column c+1, a uint64 array of shape (count, D_c) whose
    entry [p, l-1] is digit l (weight b**-l) of point `start + p`;
    `coords[p][c]` is the matching float in [0,1).  `bases[c]` is that
    column's base: a scrambled set has no PrimeBasis of its own, so the
    base travels with the column.
    """

    start: int
    count: int
    bases: tuple[int, ...]
    digits: tuple[np.ndarray, ...]
    coords: tuple[tuple[float, ...], ...]

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


def _float_column(digits: np.ndarray, base: int, tails: list[float] | None) -> list[float]:
    """Float view of one digit column, plus `tails` in units of b**-D.

    Each value is num/b**D correctly rounded, plus the tail, kept below 1.
    When the digits past the first L are all zero, num/b**D = num_L/b**L,
    and with b**L <= 2**53 both are exact doubles, so one float64 division
    is correctly rounded.  Otherwise the exact numerator is a Python int,
    whose division Python rounds correctly.
    """
    depth = digits.shape[1]
    used = np.flatnonzero(digits.any(axis=0))
    width = int(used[-1]) + 1 if len(used) else 1
    if tails is None and base**width <= 1 << 53:
        return (_leading(digits, base, width).astype(np.float64) / base**width).tolist()
    den = base**depth
    x = np.array([num / den for num in _leading(digits, base, depth).tolist()])
    if tails is not None:
        x += np.array(tails) / float(den)
    x[x >= 1.0] = 1.0 - 2.0**-53
    return x.tolist()


def _point_set(start: int, bases: Sequence[int], digits: list, tails: list) -> PointSet:
    """These digit columns and their float view, with `tails[c]` column c's
    nested tails or None."""
    cols = [_float_column(x, b, t) for b, x, t in zip(bases, digits, tails)]
    return PointSet(start, len(digits[0]), tuple(bases), tuple(digits), tuple(zip(*cols)))


def _index_digits(start: int, count: int, base: int, depth: int) -> np.ndarray:
    """Digits 1..depth of indices start..start+count-1, one row each.

    Every index is below 2**64 <= base**default_precision(base), so that
    depth holds each index exactly; a smaller depth keeps its first digits.
    """
    out = np.zeros((count, depth), dtype=np.uint64)
    rem = np.uint64(start) + np.arange(count, dtype=np.uint64)
    b = np.uint64(base)
    last = start + count - 1
    for l in range(depth):
        if not last:  # digits past those of the largest index are all zero
            break
        rem, out[:, l] = np.divmod(rem, b)
        last //= base
    return out


def halton_points(basis: PrimeBasis, start: int, count: int) -> PointSet:
    """Points start, ..., start+count-1 of the Halton sequence over `basis`,
    with default_precision(b) digits per column."""
    _require_integers(start=start, count=count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if start + count > MAX_INDEX:
        raise ValueError("index range exceeds 64-bit point indices")
    digits = [_index_digits(start, count, b, default_precision(b)) for b in basis.bases]
    return _point_set(start, basis.bases, digits, [None] * len(digits))
