"""Prime bases for Halton-type constructions.

Coordinate j of a Halton sequence works in base b_j, the j-th prime.  This
module produces those bases with a segmented sieve and caches the result for
the lifetime of the process.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["MAX_DIMENSION", "first_primes"]

MAX_DIMENSION = 10_000_000

_SEGMENT = 1 << 20

# The first primes, as one read-only int64 array.  It only grows, by rebinding.
_sieved = np.empty(0, dtype=np.int64)


def _require_integers(**values) -> None:
    """Refuse any value that is not an integer: numpy would truncate 1.5 to 1."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


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
    primes = np.empty(count, dtype=np.int64)  # each segment's primes are written straight in
    total, lo = 0, 2
    while lo <= limit and total < count:
        hi = min(lo + _SEGMENT, limit + 1)
        flags = np.ones(hi - lo, dtype=bool)
        for p in base.tolist():
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            flags[start - lo :: p] = False
        found = np.flatnonzero(flags)[: count - total]
        np.add(found, lo, out=primes[total : total + len(found)])
        total += len(found)
        lo = hi
    if total < count:
        # The analytic bound cannot fail for count >= 6, but stay defensive.
        raise RuntimeError(f"sieve bound too small for {count} primes")
    primes.flags.writeable = False
    _sieved = primes


def _prime_array(d: int) -> np.ndarray:
    """The first d primes as a read-only int64 array, sieved once per process."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > MAX_DIMENSION:
        raise ValueError(f"dimension {d} exceeds supported cap {MAX_DIMENSION}")
    _extend_cache(d)
    return _sieved[:d]


def first_primes(d: int) -> tuple[int, ...]:
    """The first d primes as Python ints: entry j - 1 is coordinate j's base.

    Sieved once per process, then cached.  Exact arithmetic takes these
    ints; a product over the int64 array of `_prime_array` can wrap.
    """
    _require_integers(d=d)
    return tuple(_prime_array(d).tolist())
