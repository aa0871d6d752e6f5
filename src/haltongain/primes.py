"""Prime bases for Halton-type constructions.

Coordinate j of a Halton sequence works in base b_j, the j-th prime.  This
module produces those bases with a segmented sieve and caches the result for
the lifetime of the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MAX_DIMENSION", "PrimeBasis", "first_primes"]

MAX_DIMENSION = 10_000_000

_SEGMENT = 1 << 20

# The primes sieved so far, as one read-only int64 array.  It only grows, by
# rebinding.
_sieved = np.empty(0, dtype=np.int64)


def _sieve_limit(count: int) -> int:
    # p_j <= j(ln j + ln ln j) for j >= 6; below that a fixed bound suffices.
    if count < 6:
        return 16
    x = float(count)
    return int(x * (math.log(x) + math.log(math.log(x)))) + 16


def _small_sieve(limit: int) -> np.ndarray:
    """All primes <= limit, by plain Eratosthenes on a boolean array."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def _extend_cache(count: int) -> None:
    global _sieved
    if len(_sieved) >= count:
        return
    limit = _sieve_limit(count)
    base = _small_sieve(math.isqrt(limit) + 1)
    found: list[np.ndarray] = []  # each segment's primes
    total, lo = 0, 2
    while lo <= limit and total < count:
        hi = min(lo + _SEGMENT, limit + 1)
        flags = np.ones(hi - lo, dtype=bool)
        for p in base.tolist():
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            flags[start - lo :: p] = False
        found.append(np.flatnonzero(flags) + lo)
        total += len(found[-1])
        lo = hi
    if total < count:
        # The analytic bound cannot fail for count >= 6, but stay defensive.
        raise RuntimeError(f"sieve bound too small for {count} primes")
    _sieved = np.concatenate(found).astype(np.int64, copy=False)
    _sieved.flags.writeable = False


def _prime_array(d: int) -> np.ndarray:
    """The first d primes as a read-only int64 array, sieved once per process."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > MAX_DIMENSION:
        raise ValueError(f"dimension {d} exceeds supported cap {MAX_DIMENSION}")
    _extend_cache(d)
    return _sieved[:d]


@dataclass(frozen=True)
class PrimeBasis:
    """The first d primes, in increasing order, as Halton bases.

    ``bases[0]`` is the base of coordinate 1.  Use :meth:`base` for the
    1-based coordinate indexing used throughout this package.
    """

    dimension: int
    bases: tuple[int, ...] = field(repr=False)

    def base(self, j: int) -> int:
        """Base of coordinate j (1-based)."""
        if not 1 <= j <= self.dimension:
            raise ValueError(f"coordinate {j} outside 1..{self.dimension}")
        return self.bases[j - 1]

    def __len__(self) -> int:
        return self.dimension

    def __repr__(self) -> str:  # avoid dumping a million bases
        head = ", ".join(str(b) for b in self.bases[:6])
        tail = ", ..." if self.dimension > 6 else ""
        return f"PrimeBasis(dimension={self.dimension}, bases=({head}{tail}))"


def first_primes(d: int) -> PrimeBasis:
    """Basis of the first d primes.  Sieved once per process, then cached."""
    return PrimeBasis(d, tuple(_prime_array(d).tolist()))
