"""Prime bases against independent oracles."""

import math
import subprocess
import sys

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import haltongain.primes as primes
from haltongain import first_primes


def _trial_division(count: int) -> list[int]:
    out = []
    n = 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def test_first_ten():
    assert first_primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_trial_division_oracle():
    assert list(first_primes(1000)) == _trial_division(1000)


def _nth(j: int) -> int:
    return first_primes(j)[-1]


def test_known_large_values():
    assert _nth(26) == 101
    assert _nth(27) == 103
    assert _nth(10_000) == 104_729


@given(st.integers(min_value=1, max_value=50_000))
@settings(max_examples=40)
def test_matches_sympy(j):
    assert _nth(j) == sympy.prime(j)


def test_millionth_prime():
    assert _nth(1_000_000) == 15_485_863


def test_basis_indexing():
    # Entry j - 1 is coordinate j's base.
    primes = first_primes(5)
    assert len(primes) == 5
    assert (primes[0], primes[4]) == (2, 11)


def test_basis_is_value_like():
    # The bases are a plain tuple: equal, hashable, and the same for np.int64 d.
    assert first_primes(3) == first_primes(3) == (2, 3, 5)
    assert first_primes(3) in {(2, 3, 5)}
    assert first_primes(np.int64(3)) == (2, 3, 5)


def test_products_of_first_primes_are_exact():
    # prod(b - 1) over 30 primes passes 2^63: exact in Python ints, where
    # the same product over the sieve's int64 array would wrap.
    want = math.prod(p - 1 for p in _trial_division(30))
    assert want >= 1 << 63
    assert math.prod(b - 1 for b in first_primes(30)) == want


@pytest.mark.parametrize("d", [2.5, np.float64(3.0), "3"])
def test_non_integer_dimension_refused(d):
    # Refused before the sieve, which would raise a TypeError on a float.
    with pytest.raises(ValueError, match="d must be an integer, got "):
        first_primes(d)


def test_validation():
    with pytest.raises(ValueError):
        first_primes(0)
    with pytest.raises(ValueError):
        first_primes(20_000_001)


def test_cache_order_independent():
    # Results must not depend on which call sizes came first.
    big = first_primes(2000)
    small = first_primes(7)
    assert big[:7] == small
    assert first_primes(2000) == big


def test_cache_grows_across_a_segment_boundary(monkeypatch):
    # From an empty cache: one segment, then a sieve past the first
    # segment's 2^20 numbers (82,025 primes), then the small size again.
    monkeypatch.setattr(primes, "_sieved", np.empty(0, dtype=np.int64))
    small = first_primes(1000)
    large = first_primes(100_000)
    assert len(primes._sieved) >= 100_000 > 82_025
    assert large[82_024:82_026] == (1_048_573, 1_048_583)
    assert large[:1000] == small == first_primes(1000)
    assert large == tuple(primes._prime_array(100_000).tolist())
    assert list(large[:1000]) == _trial_division(1000)


def test_sieve_holds_one_copy():
    # A fresh process sieves 10^6 primes straight into its one 8 MB array:
    # it keeps exactly those primes and peaks under 1.5 times their size.
    code = ("import tracemalloc, haltongain.primes as p; tracemalloc.start(); "
            "a = p._prime_array(10**6); "
            "print(len(p._sieved), a.nbytes, tracemalloc.get_traced_memory()[1])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    count, size, peak = map(int, proc.stdout.split())
    assert (count, size) == (10**6, 8 * 10**6)
    assert peak < 1.5 * size
