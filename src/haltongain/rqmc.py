"""Randomized-QMC experiments that exhibit the gain law.

A Haar-style integrand at (u, k) reads one digit per coordinate in u:
f(x) = prod_{j in u} eta_j(digit k_j+1 of x_j), with each per-coordinate
table eta_j summing to zero over Z_b.  Such an f is mean zero with plain MC
variance sigma^2/n, and under either digit scramble the variance of the
replicate mean over n consecutive Halton points equals G_{u,k}(n) times
that, which is what these estimators measure.

Evaluation works on digits, never on float coordinates, so the check is
exact where the theory says it should be (a complete cycle gives every
replicate mean exactly zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gains import pair_levels
from .halton import MAX_INDEX, _index_digits
from .primes import _require_integers
from .scramble import ScrambleSpec, scramble_column

__all__ = [
    "HaarIntegrand",
    "EstimateSummary",
    "make_haar",
    "rqmc_estimate",
]

_MAX_COUNT = 1 << 53  # counts stay exactly representable as floats
# Array cells (points, plus digit rows times base) one block of replicates may
# fill: about 2^10 replicates at n = 2, one replicate at a time for n >= 2^14.
_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class HaarIntegrand:
    """Digit-reading product integrand pinned to one variance component.

    u is a sorted tuple of 1-based coordinates.  `tables[t]` is eta for
    coordinate u[t] over its base `bases[t]`; `levels[t]` is that
    coordinate's k.  sigma2 is the exact integrand variance
    prod_j (1/b_j) sum_c eta_j(c)^2.
    """

    u: tuple[int, ...]
    levels: tuple[int, ...]
    bases: tuple[int, ...]
    tables: tuple[tuple[Fraction, ...], ...]
    sigma2: Fraction


def make_haar(
    u: Sequence[int],
    levels: Sequence[int],
    tables: Sequence[Sequence[int | Fraction]] | None = None,
) -> HaarIntegrand:
    """Build an integrand; default table per coordinate is b*[c = b-1] - 1.

    u and its levels are checked by `pair_levels`; `levels` and `tables`
    follow u in the order it is given.  Each table
    must have one entry per digit value, sum to zero, and not be
    identically zero.
    """
    coords = tuple(u)
    u, levels, bases = pair_levels(coords, levels)
    if tables is None:
        tables = [[-1] * (b - 1) + [b - 1] for b in bases]
    elif len(tables) != len(coords):
        raise ValueError("one table per subset member required")
    else:
        given = dict(zip(coords, tables))
        tables = [given[j] for j in u]
    frozen = []
    sigma2 = Fraction(1)
    for b, table in zip(bases, tables):
        row = tuple(Fraction(x) for x in table)
        if len(row) != b:
            raise ValueError(f"table needs {b} entries for base {b}")
        if sum(row) != 0:
            raise ValueError("table must sum to zero over the digit values")
        ss = sum(x * x for x in row)
        if ss == 0:
            raise ValueError("table must not be identically zero")
        sigma2 *= Fraction(ss, b)
        frozen.append(row)
    return HaarIntegrand(u, levels, bases, tuple(frozen), sigma2)


@dataclass(frozen=True)
class EstimateSummary:
    """Replicated estimate of a mean and the implied variance gain."""

    n: int
    replicates: int
    means: tuple[float, ...]
    mean: float
    variance: float
    sigma2: float
    mc_variance: float
    empirical_gain: float
    gain_se: float


def _summarize(n: int, means: list[float], sigma2: float) -> EstimateSummary:
    r = len(means)
    grand = math.fsum(means) / r
    variance = math.fsum((m - grand) ** 2 for m in means) / (r - 1)
    mc_variance = sigma2 / n
    gain = n * variance / sigma2
    # Normal-theory dispersion of a variance ratio over r replicates.
    gain_se = gain * math.sqrt(2.0 / (r - 1))
    return EstimateSummary(
        n, r, tuple(means), grand, variance, sigma2, mc_variance, gain, gain_se
    )


def _blocks(replicates: int, cells: int) -> list[tuple[int, int]]:
    """(first, count) of each block of replicates, `cells` per replicate."""
    step = max(1, _BLOCK_CELLS // cells)
    return [(r0, min(step, replicates - r0)) for r0 in range(0, replicates, step)]


def rqmc_estimate(
    f: HaarIntegrand,
    n: int,
    replicates: int,
    spec: ScrambleSpec,
    start: int = 0,
) -> EstimateSummary:
    """Replicate means of f over n scrambled Halton points, in f's bases.

    Replicate r reuses `spec` with its replicate field set to
    spec.replicate + r, so a fixed (seed, spec) reproduces the summary bit
    for bit and replicates are independent.  Only the one digit f reads per
    coordinate is scrambled (`scramble_column` at level k); it depends
    on a point's index i only through i mod b^(k+1), so the window's first
    min(n, b^(k+1)) points are scrambled, for a whole block of replicates
    in one call, and every point looks its value up.  Each replicate's
    products and correctly rounded `math.fsum` are those of evaluating f at
    every fully scrambled point, so the means are too, bit for bit.
    """
    _require_integers(n=n, replicates=replicates, start=start)
    if n < 1 or n > _MAX_COUNT:
        raise ValueError(f"point count must be in 1..2^53, got {n}")
    if replicates < 2:
        raise ValueError(f"replicates must be >= 2 for a sample variance, got {replicates}")
    if spec.replicate + replicates > 1 << 64:
        raise ValueError("replicates past 2^64 - 1 do not fit the Philox key")
    if start < 0 or start + n > MAX_INDEX:
        raise ValueError("index range exceeds 64-bit point indices")
    # Per coordinate: digits 1..k+1 of the window's first min(n, b^(k+1)) indices, one per
    # residue i mod b^(k+1) in the window, and for point p the row p mod min(n, b^(k+1)).
    rows, positions = [], []
    for b, k in zip(f.bases, f.levels):
        size = min(n, b ** min(k + 1, int(n).bit_length()))  # b^bits(n) > n: no huge power
        rows.append(_index_digits(start, size, b, k + 1))
        positions.append(np.arange(n) % size)
    values = [np.array([float(x) for x in table]) for table in f.tables]
    cells = n + sum(len(x) * b for x, b in zip(rows, f.bases))
    means = []
    for r0, count in _blocks(replicates, cells):
        rspec = ScrambleSpec(spec.kind, spec.seed, spec.replicate + r0)
        product = 1.0  # then times each coordinate's factor, in u's order
        for t, (c, b, k) in enumerate(zip(f.u, f.bases, f.levels)):
            digits = scramble_column(rspec, c, b, rows[t], [k], count)[:, :, 0]
            product = product * values[t][digits][:, positions[t]]
        means.extend(math.fsum(row) / n for row in product.tolist())
    return _summarize(n, means, float(f.sigma2))
