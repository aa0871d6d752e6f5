"""Shared fixtures and the seeded query sampler used by several modules."""

import random

import pytest
from hypothesis import settings

from haltongain import first_primes, scramble

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

QUERY_SEED = 20260822
QUERY_COUNT = 500


Query = tuple[tuple[int, ...], tuple[int, ...], int]


def sample_queries(count: int = QUERY_COUNT, seed: int = QUERY_SEED) -> list[Query]:
    """Random (u, levels, n) queries over the first 4 primes, levels <= 2,
    n <= 5000; u is sorted and `levels` aligned with it.

    One fixed seed, so every module that consumes these sees the same
    sample and failures reproduce exactly.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, 4)
        u = tuple(sorted(rng.sample(range(1, 5), size)))
        levels = tuple(rng.randint(0, 2) for _ in u)
        n = rng.randint(1, 5000)
        out.append((u, levels, n))
    return out


@pytest.fixture(scope="session")
def queries() -> list[Query]:
    return sample_queries()


@pytest.fixture(scope="session")
def basis2() -> tuple[int, ...]:
    return first_primes(2)


@pytest.fixture(scope="session")
def basis3() -> tuple[int, ...]:
    return first_primes(3)


@pytest.fixture(scope="session")
def basis4() -> tuple[int, ...]:
    return first_primes(4)


@pytest.fixture
def redrawn_tags(monkeypatch) -> list[str]:
    """Reject every word at or above 3 * 2^62, about one in four, and list
    the tag of each stream `draw` redraws, read from its counter word 3."""
    monkeypatch.setattr(scramble, "_SPAN", 3 << 62)
    tags = []
    redraw = scramble._redraw

    def counted(seed, replicate, r, word3, bounds, limits):
        tags.append(("perm", "row", "tail")[int(word3) >> 56])
        return redraw(seed, replicate, r, word3, bounds, limits)

    monkeypatch.setattr(scramble, "_redraw", counted)
    return tags
