"""Randomized-QMC experiments that exhibit the gain law.

The Haar-style integrand at (u, k) reads one digit per coordinate in u:
f(x) = prod_{j in u} eta_j(digit k_j+1 of x_j), with the one fixed table
eta_j(c) = b_j [c = b_j - 1] - 1, which sums to zero over Z_b.  It is mean
zero with variance sigma^2 = prod_j (b_j - 1), and under either digit
scramble the variance of the replicate mean over n consecutive Halton
points equals G_{u,k}(n) sigma^2/n, which is what these estimators measure.
The law holds for every zero-sum table, so one table shows it.

Evaluation works on digits, never on float coordinates, so the check is
exact where the theory says it should be (a complete cycle gives every
replicate mean exactly zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gains import pair_levels
from .halton import _index_digits
from .primes import _require_integers
from .scramble import ScrambleSpec, scramble_column

__all__ = [
    "EstimateSummary",
    "rqmc_estimate",
]

_MAX_COUNT = 1 << 53  # counts stay exactly representable as floats
# Array cells (points, plus digit rows times base) one block of replicates may
# fill: about 2^10 replicates at n = 2, one replicate at a time for n >= 2^14.
_BLOCK_CELLS = 1 << 14


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
    step = max(1, _BLOCK_CELLS // max(cells, 1))
    return [(r0, min(step, replicates - r0)) for r0 in range(0, replicates, step)]


def rqmc_estimate(
    u: Sequence[int],
    levels: Sequence[int],
    n: int,
    replicates: int,
    spec: ScrambleSpec,
) -> EstimateSummary:
    """Replicate means of the integrand at (u, levels) over scrambled
    Halton points 0, ..., n-1, u and its levels checked by `pair_levels`.

    Replicate r reuses `spec` with its replicate field set to
    spec.replicate + r, so a fixed (seed, spec) reproduces the summary bit
    for bit and replicates are independent.  Only the one digit read per
    coordinate is scrambled (`scramble_column` at level k); it depends on a
    point's index i only through i mod b^(k+1), so f does through i mod S,
    S = prod_j b_j^(k_j+1).  Each S consecutive points meet every residue
    once and add exactly 0, so only the window's first n mod S points, whose
    residues are those of its last n mod S, are scrambled and summed, for a
    whole block of replicates at once.  An exponent past n's bit length is
    capped there, which makes S > n and n mod S = n.  When S <= n <= 2^53
    every factor is an integer and |f| <= prod_j (b_j - 1) < S, so every
    product is exact and `math.fsum` rounds the same exact sum as over all
    n points: the means are those of evaluating f at every fully scrambled
    point, bit for bit.  Memory is about one block of replicates times
    (n mod S) + sum_j b_j^(k_j+1) (k_j+1+b_j) cells, whatever n is.
    """
    u, levels, bases = pair_levels(u, levels)
    _require_integers(n=n, replicates=replicates)
    if n < 1 or n > _MAX_COUNT:
        raise ValueError(f"point count must be in 1..2^53, got {n}")
    if replicates < 2:
        raise ValueError(f"replicates must be >= 2 for a sample variance, got {replicates}")
    if spec.replicate + replicates > 1 << 64:
        raise ValueError("replicates past 2^64 - 1 do not fit the Philox key")
    # b^bits(n) > n: no huge power, and a capped exponent leaves n mod S = n.
    cycles = [b ** min(k + 1, int(n).bit_length()) for b, k in zip(bases, levels)]
    m = n % math.prod(cycles)
    # Per coordinate: digits 1..k+1 of the window's first min(m, b^(k+1)) indices, one per
    # residue i mod b^(k+1) among them, tiled so point p < m reads row p mod min(m, b^(k+1)).
    rows = [_index_digits(0, min(m, cycle), b, k + 1) for b, k, cycle in zip(bases, levels, cycles)]
    cells = m + sum(len(x) * b for x, b in zip(rows, bases))
    means = []
    for r0, count in _blocks(replicates, cells):
        rspec = ScrambleSpec(spec.kind, spec.seed, spec.replicate + r0)
        product = 1.0  # then times each coordinate's factor, in u's order
        for c, b, k, x, cycle in zip(u, bases, levels, rows, cycles):
            digits = scramble_column(rspec, c, b, x, [k], count)[:, :, 0]
            factor = np.where(digits == b - 1, b - 1.0, -1.0)
            product = product * np.tile(factor, -(-m // cycle))[:, :m]
        means.extend(math.fsum(row) / n for row in product.tolist())
    return _summarize(n, means, float(math.prod(b - 1 for b in bases)))
