"""Replicated variance experiments against the exact gain predictions."""

import functools
import math
import tracemalloc

import pytest

from haltongain import rqmc
from haltongain import (
    ScrambleSpec,
    default_precision,
    first_primes,
    gain_exact,
    rqmc_estimate,
    scramble_column,
)
from haltongain.halton import _index_digits

from oracles import (
    digits_of,
    draw_linear_scramble,
    linear_scramble_digits,
    nested_scramble_digits,
)


def evaluate(u, levels, point) -> float:
    """The integrand at sorted u and its levels at one point given
    per-coordinate digit sequences: the per-point oracle of `rqmc_estimate`,
    prod_j eta_j(digit k_j+1) with eta_j(c) = b_j [c = b_j - 1] - 1.

    Coordinate u[t] must sit at position u[t]-1 when the full point is
    passed, or at position t when only the u coordinates are.
    """
    bases = first_primes(max(u))
    if len(point) == len(u):
        rows = point
    else:
        rows = [point[j - 1] for j in u]
    out = 1.0
    for j, k, digits in zip(u, levels, rows):
        if len(digits) < k + 1:
            raise ValueError(f"digit {k + 1} required but only {len(digits)} stored")
        b = bases[j - 1]
        out *= float(b * (digits[k] == b - 1) - 1)
    return out


def test_evaluate_reads_the_level_digit():
    assert evaluate((1,), (1,), [(0, 1)]) == 1.0
    assert evaluate((1,), (1,), [(1, 0)]) == -1.0
    with pytest.raises(ValueError):
        evaluate((1,), (1,), [(1,)])  # needs digit 2


def test_evaluate_full_point_rows():
    full = [(0,), (2,), (0,)]
    assert evaluate((2,), (0,), full) == 2.0
    assert evaluate((2,), (0,), [(2,)]) == 2.0


def test_replicate_window_contract():
    spec = ScrambleSpec("nested", seed=40)
    a = rqmc_estimate((1, 2), (0, 0), 4, 3, spec)
    b = rqmc_estimate((1, 2), (0, 0), 4, 2, ScrambleSpec("nested", seed=40, replicate=1))
    assert a.means[1:] == b.means
    again = rqmc_estimate((1, 2), (0, 0), 4, 3, spec)
    assert a == again


def test_zero_gain_counts_give_exactly_zero_means():
    # n = 6 is one full cycle for (u, k) = ({1, 2}, (0, 0)).
    for kind in ("nested", "linear"):
        out = rqmc_estimate((1, 2), (0, 0), 6, 20, ScrambleSpec(kind, seed=3))
        assert out.means == (0.0,) * 20
        assert out.variance == 0.0
        assert out.empirical_gain == 0.0


def test_gain_law_nested_and_linear():
    reps = 4000
    want = float(gain_exact((1, 2), (0, 0), 2))
    for kind in ("nested", "linear"):
        out = rqmc_estimate((1, 2), (0, 0), 2, reps, ScrambleSpec(kind, seed=71))
        band = 4 * want * math.sqrt(2.0 / (reps - 1))
        assert abs(out.empirical_gain - want) < band
        assert out.n == 2 and out.replicates == reps
        assert out.sigma2 == 2.0
        assert out.mc_variance == 1.0


def test_single_point_matches_monte_carlo():
    reps = 4000
    band = 4 * math.sqrt(2.0 / (reps - 1))
    out = rqmc_estimate((1, 2), (0, 0), 1, reps, ScrambleSpec("nested", seed=72))
    assert abs(out.empirical_gain - 1.0) < band


def test_summary_arithmetic():
    out = rqmc_estimate((1,), (0,), 3, 5, ScrambleSpec("nested", seed=1))
    grand = sum(out.means) / 5
    var = sum((m - grand) ** 2 for m in out.means) / 4
    assert math.isclose(out.mean, grand, rel_tol=1e-15, abs_tol=1e-15)
    assert math.isclose(out.variance, var, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(
        out.empirical_gain, 3 * out.variance / out.sigma2, rel_tol=1e-15
    )
    assert math.isclose(
        out.gain_se, out.empirical_gain * math.sqrt(0.5), rel_tol=1e-15
    )


def test_validation():
    f = ((1,), (0,))
    with pytest.raises(ValueError):
        rqmc_estimate(*f, 0, 2, ScrambleSpec("nested"))
    with pytest.raises(ValueError):
        rqmc_estimate(*f, 1, 0, ScrambleSpec("nested"))
    with pytest.raises(ValueError, match="replicates must be >= 2"):
        rqmc_estimate(*f, 2, 1, ScrambleSpec("nested"))  # no sample variance
    with pytest.raises(ValueError):
        rqmc_estimate(*f, 1 << 54, 2, ScrambleSpec("nested"))
    # the last two replicates the key holds
    rqmc_estimate(*f, 1, 2, ScrambleSpec("nested", replicate=(1 << 64) - 2))
    with pytest.raises(ValueError, match="2\\^64"):
        rqmc_estimate(*f, 1, 2, ScrambleSpec("nested", replicate=(1 << 64) - 1))
    with pytest.raises(ValueError, match="n must be an integer"):
        rqmc_estimate(*f, 2.5, 2, ScrambleSpec("nested"))
    # u and its levels go through pair_levels, as in every entry point
    with pytest.raises(ValueError, match="levels must be >= 0, got -1"):
        rqmc_estimate((1,), (-1,), 3, 2, ScrambleSpec("nested"))
    with pytest.raises(ValueError, match="level must be an integer, got 0.5"):
        rqmc_estimate((1,), (0.5,), 3, 2, ScrambleSpec("nested"))


@pytest.mark.parametrize("kind", ["nested", "linear"])
def test_level_past_the_digit_limit_refused(kind, basis2):
    # At k = default_precision(b), b^k >= 2^64 exceeds every count, so the
    # gain is 1; scrambling digit k + 1 is refused, naming the limit.
    for c, b in enumerate(basis2, start=1):
        limit = default_precision(b)
        with pytest.raises(ValueError, match=f"limit {limit} for base {b}"):
            rqmc_estimate((c,), (limit,), 5, 2, ScrambleSpec(kind))


def _oracle_points(u, levels, start, n, replicates, spec):
    """Points start..start+n-1 of coordinates u, every point scrambled in
    full by the per-point oracles: one list of points per replicate."""
    bases = [first_primes(max(u))[j - 1] for j in u]
    out = []
    for r in range(replicates):
        rspec = ScrambleSpec(spec.kind, spec.seed, spec.replicate + r)
        scrambles = []
        for c, b, k in zip(u, bases, levels):
            if spec.kind == "nested":
                scrambles.append(functools.partial(
                    nested_scramble_digits, base=b, coordinate=c, spec=rspec, depth=k + 1))
            else:
                L = draw_linear_scramble(rspec, c, b, k + 1)
                scrambles.append(functools.partial(linear_scramble_digits, scramble=L,
                                                   depth=k + 1))
        out.append([[scramble(digits_of(i, b, k + 1 + i.bit_length()))
                     for scramble, b, k in zip(scrambles, bases, levels)]
                    for i in range(start, start + n)])
    return out


def _oracle_means(u, levels, n, replicates, spec):
    """rqmc_estimate's means the slow way: evaluate every fully scrambled point."""
    return tuple(math.fsum(evaluate(u, levels, p) for p in points) / n
                 for points in _oracle_points(u, levels, 0, n, replicates, spec))


@pytest.mark.parametrize("kind", ["nested", "linear"])
@pytest.mark.parametrize(
    "u, k, n, start, block_cells",
    [
        ((1,), (3,), 5, 0, None),  # n below b^k
        ((1,), (3,), 37, 11, None),  # n above b^(k+1), start > 0
        ((2,), (3,), 30, 2, None),  # n between b^k and b^(k+1)
        ((1, 2, 3), (1, 2, 0), 40, 3, None),
        ((1, 2, 3), (3, 0, 1), 6, 50, None),
        ((2, 3), (1, 0), 23, 100, 64),  # one replicate per block
        ((1, 2, 3), (2, 1, 0), 45, 7, 256),  # two replicates per block
        ((1, 2), (63, 40), 4, 5, None),  # prefixes below 2^63 and 3^40, just inside 64 bits
        ((1,), (63,), 5, 3, None),  # k + 1 = default_precision(2), the deepest level
        ((1, 3), (63, 27), 4, 2**64 - 9, None),  # the same in bases 2 and 5, last indices
        # n = S - 1, S, S + 1 and 3S + 2 around the cycle S = prod_j b_j^(k_j+1)
        ((1, 2), (0, 0), 5, 0, None),  # S = 6
        ((1, 2), (0, 0), 6, 0, None),
        ((1, 2), (0, 0), 7, 0, None),
        ((1, 2), (0, 0), 20, 13, None),
        ((1, 3), (1, 0), 19, 0, None),  # S = 20
        ((1, 3), (1, 0), 20, 0, None),
        ((1, 3), (1, 0), 21, 5, 64),
        ((1, 3), (1, 0), 62, 2**64 - 62, None),
    ],
)
def test_level_path_matches_per_point_oracle(kind, u, k, n, start, block_cells, monkeypatch):
    if block_cells is not None:
        monkeypatch.setattr(rqmc, "_BLOCK_CELLS", block_cells)
    spec = ScrambleSpec(kind, seed=20261018, replicate=4)
    assert rqmc_estimate(u, k, n, 6, spec).means == _oracle_means(u, k, n, 6, spec)
    # The one digit each coordinate reads, scrambled by the call rqmc_estimate
    # makes, is the oracle's at every window: here indices start..start+n-1.
    points = _oracle_points(u, k, start, n, 6, spec)
    for t, (c, level) in enumerate(zip(u, k)):
        b = first_primes(c)[-1]
        got = scramble_column(spec, c, b, _index_digits(start, n, b, level + 1), [level], 6)
        assert got[:, :, 0].tolist() == [[p[t][level] for p in pts] for pts in points]


def test_levels_pair_with_u_as_given():
    spec = ScrambleSpec("linear", seed=6)
    a = rqmc_estimate((3, 1), (2, 0), 7, 3, spec)
    assert a == rqmc_estimate((1, 3), (0, 2), 7, 3, spec)
    assert a.sigma2 == 4.0  # (2 - 1) * (5 - 1)
    with pytest.raises(ValueError, match="coordinate 3 listed more than once"):
        rqmc_estimate((3, 1, 3), (0, 0, 0), 7, 3, spec)


def test_memory_follows_n_mod_cycle():
    # S = 2 * 3 * 5 = 30 and n = 2^22 = 139810 S + 4: only 4 points are
    # scrambled and summed, where scrambling all of them peaks at 256 MiB.
    spec = ScrambleSpec("nested", seed=1)
    tracemalloc.start()
    try:
        rqmc_estimate((1, 2, 3), (0, 0, 0), 2**22, 4, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", ["nested", "linear"])
def test_memory_per_point_of_n_mod_cycle(kind):
    # S = 2 * 3 * ... * 17 = 510510 and n = S - 1, so every point is summed.
    # Each factor row is repeated out to n columns, with no per-point index
    # array: the peak is the float product and its tolist, 40 bytes a point;
    # an int64 index array per coordinate would add 8 bytes a point each.
    spec = ScrambleSpec(kind, seed=1)
    rqmc_estimate(range(1, 8), (0,) * 7, 7, 2, spec)  # primes and imports before the trace
    tracemalloc.start()
    try:
        rqmc_estimate(range(1, 8), (0,) * 7, 510_509, 2, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 510_509


def test_rejected_words_are_redrawn(monkeypatch, redrawn_tags):
    # Batched Fisher-Yates and linear-row words are rejected and their rows
    # redrawn; blocks of a few replicates make several blocks per estimate.
    monkeypatch.setattr(rqmc, "_BLOCK_CELLS", 64)
    u, k = (1, 2, 3), (2, 1, 0)
    got = {kind: rqmc_estimate(u, k, 23, 12, ScrambleSpec(kind, seed=9, replicate=3)).means
           for kind in ("nested", "linear")}
    assert set(redrawn_tags) == {"perm", "row"}  # each kind redrew at least one row
    for kind, means in got.items():
        assert means == _oracle_means(u, k, 23, 12, ScrambleSpec(kind, seed=9, replicate=3))
