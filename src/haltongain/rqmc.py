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

from .gains import CoordSubset, pair_levels
from .primes import PrimeBasis
from .scramble import (
    KeyedStream,
    ScrambleSpec,
    key_head,
    replicate_head,
    scramble_level,
)

__all__ = [
    "HaarIntegrand",
    "EstimateSummary",
    "make_haar",
    "rqmc_estimate",
    "mc_estimate",
]

_MAX_COUNT = 1 << 53  # counts stay exactly representable as floats


@dataclass(frozen=True)
class HaarIntegrand:
    """Digit-reading product integrand pinned to one variance component.

    `tables[t]` is eta for coordinate u.indices[t] over its base
    `bases[t]`; `levels[t]` is that coordinate's k.  sigma2 is the exact
    integrand variance prod_j (1/b_j) sum_c eta_j(c)^2.
    """

    u: CoordSubset
    levels: tuple[int, ...]
    bases: tuple[int, ...]
    tables: tuple[tuple[Fraction, ...], ...]
    sigma2: Fraction


def make_haar(
    u: CoordSubset | Sequence[int],
    levels: Sequence[int],
    basis: PrimeBasis,
    tables: Sequence[Sequence[int | Fraction]] | None = None,
) -> HaarIntegrand:
    """Build an integrand; default table per coordinate is b*[c = b-1] - 1.

    `levels` and `tables` follow u in the order it is given.  Each table
    must have one entry per digit value, sum to zero, and not be
    identically zero.
    """
    coords = tuple(u)
    u, levels = pair_levels(coords, levels)
    if not len(u):
        raise ValueError("integrand needs a nonempty coordinate subset")
    if any(k < 0 for k in levels):
        raise ValueError("levels must be >= 0")
    bases = tuple(basis.base(j) for j in u.indices)
    if tables is None:
        tables = [[-1] * (b - 1) + [b - 1] for b in bases]
    elif len(tables) != len(coords):
        raise ValueError("one table per subset member required")
    else:
        given = dict(zip(coords, tables))
        tables = [given[j] for j in u.indices]
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
    variance = (
        math.fsum((m - grand) ** 2 for m in means) / (r - 1) if r > 1 else 0.0
    )
    mc_variance = sigma2 / n
    gain = n * variance / sigma2
    # Normal-theory dispersion of a variance ratio over r replicates.
    gain_se = gain * math.sqrt(2.0 / (r - 1)) if r > 1 else 0.0
    return EstimateSummary(
        n, r, tuple(means), grand, variance, sigma2, mc_variance, gain, gain_se
    )


def rqmc_estimate(
    f: HaarIntegrand,
    basis: PrimeBasis,
    n: int,
    replicates: int,
    spec: ScrambleSpec,
    start: int = 0,
) -> EstimateSummary:
    """Replicate means of f over n scrambled Halton points.

    Replicate r reuses `spec` with its replicate field set to
    spec.replicate + r, so a fixed (seed, spec) reproduces the summary
    bit for bit and replicates are independent.  Only the one digit f reads
    per coordinate is scrambled (`scramble_level`); it depends on a point's
    index i only through i mod b^(k+1), so each replicate scrambles the
    distinct residues once and every point looks its value up.  The
    products and the correctly rounded `math.fsum` are those of evaluating
    f at every fully scrambled point, so the means are too, bit for bit.
    """
    if n < 1 or n > _MAX_COUNT:
        raise ValueError(f"point count must be in 1..2^53, got {n}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if spec.kind == "none":
        raise ValueError("variance experiments need a randomizing scramble")
    # Per coordinate: the distinct residues mod m = b^(k+1) of the window's
    # indices, which are those of its first min(n, m) points, and for point
    # p the position p mod min(n, m) of its residue among them.
    residues, positions = [], []
    for b, k in zip(f.bases, f.levels):
        m = b ** (k + 1)
        size = min(n, m)
        residues.append([(start + p) % m for p in range(size)])
        positions.append(np.arange(n) % size)
    values = [[float(x) for x in table] for table in f.tables]
    coords = f.u.indices
    means = []
    for r in range(replicates):
        rspec = ScrambleSpec(spec.kind, spec.seed, spec.replicate + r)
        head = replicate_head(rspec)
        product = 1.0  # then times each coordinate's factor, in u's order
        for t, (c, b, k) in enumerate(zip(coords, f.bases, f.levels)):
            digits = scramble_level(rspec, c, b, k, residues[t], head)
            product = product * np.array([values[t][d] for d in digits])[positions[t]]
        means.append(math.fsum(product.tolist()) / n)
    return _summarize(n, means, float(f.sigma2))


def mc_estimate(
    f: HaarIntegrand,
    n: int,
    replicates: int,
    seed: int = 0,
) -> EstimateSummary:
    """Plain Monte Carlo baseline: n iid uniform points per replicate.

    Draws the digits f reads directly (the digits of a uniform coordinate
    are iid uniform over Z_b), from the same keyed stream family as the
    scrambles under a distinct tag.
    """
    if n < 1 or n > _MAX_COUNT:
        raise ValueError(f"point count must be in 1..2^53, got {n}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    depths = [k + 1 for k in f.levels]
    mc_head = key_head(seed, "mc")
    means = []
    for r in range(replicates):
        head = key_head(r, head=mc_head)
        streams = [KeyedStream(c, head=head) for c in f.u.indices]
        values = []
        for _ in range(n):
            out = 1.0
            for t, (b, depth) in enumerate(zip(f.bases, depths)):
                digit = 0
                for _ in range(depth):  # draw in digit order for determinism
                    digit = streams[t].next_uint(b)
                out *= float(f.tables[t][digit])
            values.append(out)
        means.append(math.fsum(values) / n)
    return _summarize(n, means, float(f.sigma2))
