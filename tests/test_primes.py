"""Prime basis generation against independent oracles."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import haltongain.primes as primes
from haltongain import PrimeBasis, first_primes


def _trial_division(count: int) -> list[int]:
    out = []
    n = 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def test_first_ten():
    assert first_primes(10).bases == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_trial_division_oracle():
    assert list(first_primes(1000).bases) == _trial_division(1000)


def _nth(j: int) -> int:
    return first_primes(j).bases[-1]


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
    basis = first_primes(5)
    assert basis.dimension == 5
    assert basis.base(1) == 2
    assert basis.base(5) == 11
    with pytest.raises(ValueError):
        basis.base(0)
    with pytest.raises(ValueError):
        basis.base(6)


def test_basis_is_value_like():
    assert first_primes(3) == first_primes(3)
    assert first_primes(3) in {PrimeBasis(3, (2, 3, 5))}


def test_repr_stays_short():
    assert len(repr(first_primes(1000))) < 200


def test_validation():
    with pytest.raises(ValueError):
        first_primes(0)
    with pytest.raises(ValueError):
        first_primes(20_000_001)


def test_cache_order_independent():
    # Results must not depend on which call sizes came first.
    big = first_primes(2000).bases
    small = first_primes(7).bases
    assert big[:7] == small
    assert first_primes(2000).bases == big


def test_cache_grows_across_a_segment_boundary(monkeypatch):
    # From an empty cache: one segment, then a sieve past the first
    # segment's 2^20 numbers (82,025 primes), then the small size again.
    monkeypatch.setattr(primes, "_sieved", np.empty(0, dtype=np.int64))
    small = first_primes(1000).bases
    large = first_primes(100_000).bases
    assert len(primes._sieved) >= 100_000 > 82_025
    assert large[82_024:82_026] == (1_048_573, 1_048_583)
    assert large[:1000] == small == first_primes(1000).bases
    assert large == tuple(primes._prime_array(100_000).tolist())
    assert list(large[:1000]) == _trial_division(1000)
