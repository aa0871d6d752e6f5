"""Exact gain arithmetic: closed form, brute force, and the search layers."""

import itertools
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haltongain.gains as gains
from haltongain import (
    ScrambleSpec,
    bounds_table,
    first_primes,
    gain_curve,
    gain_exact,
    gamma_max,
    global_bounds_exact,
    oracle_check,
    rqmc_estimate,
    upper_bound_u_exact,
)
from haltongain.gains import pair_levels
from haltongain.primes import _prime_array

from oracles import (bounds_rows, gain_bruteforce, lower_bound_n_star, moduli,
                     pair_prefix_by_terms, residue_match)

D2_LEVELS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _bases(u) -> list[int]:
    """The base of each coordinate of u, in u's order."""
    primes = first_primes(max(u))
    return [primes[j - 1] for j in u]


def _cycle_max(u, levels) -> Fraction:
    m_over = moduli(_bases(u), levels)[1]
    return max(gain_curve(u, levels, m_over))


def closed_form_curve(u, levels, n_max) -> list[Fraction]:
    """[G(1), ..., G(n_max)] by the closed form _prefix_at, one n at a time.

    gain_curve and the worst-gain scan share one prefix-sum evaluator, whose
    cumulative sums this per-n route skips, so it is the scan's oracle.
    """
    _, levels, bases = pair_levels(u, levels)
    terms = gains._terms(bases, levels, n_max)
    denom = math.prod(b - 1 for b in bases)
    return [
        Fraction(n * denom + 2 * gains._prefix_at(terms, n)[1], n * denom)
        for n in range(1, n_max + 1)
    ]


def brute_curve(u, levels, n_max) -> list[Fraction]:
    """[G(1), ..., G(n_max)] from one brute-force pass over index pairs."""
    _, levels, bases = pair_levels(u, levels)
    denom = math.prod(b - 1 for b in bases)
    t = gains._bruteforce_prefix(bases, levels, n_max)
    return [
        Fraction(n * denom + 2 * int(x), n * denom) for n, x in enumerate(t, start=1)
    ]


# ---------------------------------------------------------------- pair counts


def _pair_count(m, n):
    """Pairs in [0, n)^2 agreeing mod m: C(m, n) = n + 2 T(n) for the term (1, m)."""
    return n + 2 * gains._prefix_at([(1, m)], n)[1]


def test_pair_count_known():
    assert _pair_count(3, 7) == 17
    assert _pair_count(1, 5) == 25
    assert _pair_count(10, 7) == 7


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=400),
)
def test_pair_count_closed_form(m, n):
    brute = sum(
        1 for i in range(n) for i2 in range(n) if (i - i2) % m == 0
    )
    assert _pair_count(m, n) == brute


# ------------------------------------------------------------ reference gains


def test_reference_values():
    assert gain_exact((1, 2), (0, 0), 2) == Fraction(3, 2)
    assert gain_exact((1, 2, 3), (0, 0, 0), 2) == Fraction(7, 8)
    assert gain_exact((1,), (1,), 4) == 0
    assert gain_exact((1, 2), (1, 1), 36) == 0


def test_single_coordinate_law(basis3):
    # For one coordinate at level 0 the curve is (b - n)/(b - 1) up to n = b.
    for j in (1, 2, 3):
        b = basis3[j - 1]
        for n in range(1, b + 1):
            got = gain_exact((j,), (0,), n)
            assert got == Fraction(b - n, b - 1)


def test_curve_matches_pointwise():
    curve = gain_curve((1, 2), (0, 1), 40)
    for n in range(1, 41):
        assert curve[n - 1] == gain_exact((1, 2), (0, 1), n)


def test_d2_curves_peak_then_never_reattain():
    for levels in D2_LEVELS:
        m_under = 2 ** levels[0] * 3 ** levels[1]
        curve = gain_curve((1, 2), levels, 12 * m_under)
        peak = max(curve)
        assert peak == Fraction(3, 2)
        assert curve.index(peak) + 1 == 2 * m_under
        assert all(g < peak for g in curve[2 * m_under :])


def test_subset_terms_structure():
    u, levels, bases = pair_levels((1, 2), (1, 0))
    bitmask_order = [
        tuple(j for t, j in enumerate(u) if bits >> t & 1)
        for bits in range(1 << len(u))
    ]
    terms = dict(zip(bitmask_order, gains._terms(bases, levels, moduli(bases, levels)[1] + 1)))
    assert terms == {
        (): (1, 2),
        (1,): (-2, 4),
        (2,): (-3, 6),
        (1, 2): (6, 12),
    }


# ---------------------------------------------------------- oracle equivalence


def test_exact_equals_bruteforce_small_grid():
    for u in [(1,), (2,), (1, 2)]:
        for levels in [(0,) * len(u), (1,) * len(u)]:
            for n in range(1, 37):
                assert gain_exact(u, levels, n) == gain_bruteforce(u, levels, n)


@given(st.data())
@settings(max_examples=60)
def test_exact_equals_bruteforce_random(data):
    size = data.draw(st.integers(min_value=1, max_value=3))
    u = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=1, max_value=3), min_size=size, max_size=size)
    )))
    levels = tuple(
        data.draw(st.integers(min_value=0, max_value=2)) for _ in u
    )
    n = data.draw(st.integers(min_value=1, max_value=50))
    value = gain_exact(u, levels, n)
    assert value == gain_bruteforce(u, levels, n)
    assert value >= 0


def test_bruteforce_count_guard():
    with pytest.raises(ValueError):
        gain_bruteforce((1,), (0,), 10_001)


def test_pair_weights_match_residue_match():
    # The vectorized kernel against the per-pair definition, every pair
    # below n: w(i, i2) = prod_j (b [i == i2 mod b^(k+1)] - [i == i2 mod b^k])
    # for i2 < i, and 0 on and above the diagonal.
    for u, levels in [((1,), (0,)), ((2,), (1,)), ((1, 2), (1, 0)),
                      ((1, 3), (0, 2)), ((1, 2, 3), (1, 1, 0)),
                      ((1, 2, 3, 4), (0, 0, 0, 0)), ((1, 4), (3, 1))]:
        bases = _bases(u)
        for n in (1, 2, 7, 30):
            got = gains._pair_weights(bases, levels, np.arange(n), n)
            for i in range(n):
                for i2 in range(n):
                    want = 0
                    if i2 < i:
                        want = 1
                        for b, k in zip(bases, levels):
                            want *= (b * residue_match(i, i2, b, k + 1)
                                     - residue_match(i, i2, b, k))
                    assert got[i, i2] == want, (u, levels, n, i, i2)


def test_bruteforce_huge_modulus():
    # 2^71 and 2^70 exceed every index difference below 5, so each pair
    # weighs 0 and the gain is 1; neither modulus is cast to int64.
    assert gain_bruteforce((1,), (70,), 5) == gain_exact((1,), (70,), 5) == 1
    assert gains._bruteforce_prefix((2,), (70,), 5).tolist() == [0] * 5


def test_oracle_check_clean():
    assert oracle_check(2, n_max=40, k_max=1) == []


def test_oracle_check_refuses_empty_grid():
    # A grid with no count or no level vector would compare nothing.
    with pytest.raises(ValueError, match="n_max"):
        oracle_check(2, n_max=0)
    with pytest.raises(ValueError, match="k_max"):
        oracle_check(2, n_max=10, k_max=-1)
    with pytest.raises(ValueError, match="d must be an integer, got 2.0"):
        oracle_check(2.0, 10)
    with pytest.raises(ValueError, match="k_max must be an integer, got 1.5"):
        oracle_check(2, 10, 1.5)


@given(st.data())
@settings(max_examples=60)
def test_curve_routes_agree(data):
    # The shared prefix-sum evaluator, the per-n closed form and one
    # brute-force pass over index pairs give the same curve.
    u = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=1, max_value=4), min_size=1)
    )))
    levels = tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in u)
    n_max = data.draw(st.integers(min_value=1, max_value=60))
    curve = gain_curve(u, levels, n_max)
    assert curve == closed_form_curve(u, levels, n_max)
    assert curve == brute_curve(u, levels, n_max)


def test_curve_routes_agree_folded_25_dimensions():
    # u = 1..25 keeps only the terms with m_v < 40; the rest add 0 below it.
    u = tuple(range(1, 26))
    curve = gain_curve(u, (0,) * 25, 40)
    assert curve == closed_form_curve(u, (0,) * 25, 40)
    assert curve == brute_curve(u, (0,) * 25, 40)


def test_prefix_sum_overflow_bound():
    # K terms with |H| <= m below hi give |T(n) - T(lo)| < K (hi^2 - lo^2) / 2
    # over lo < n <= hi, so the int64 sums are admitted exactly while
    # K (hi^2 - lo^2) < 2^64.  Four terms (1, 1) give F(n') = 4 n' and
    # T(n) - T(lo) = 2 (n - lo)(n + lo - 1).  From lo = 0 the last admitted
    # range ends at 2^31 - 1, where T is just below 2^63.
    four = [(1, 1)] * 4
    assert gains._int64_terms(four, 0, (1 << 31) - 1) == four
    refused = "K \\(n\\^2 - lo\\^2\\) < 2\\^64"
    with pytest.raises(ValueError, match=refused):
        gains._int64_terms(four, 0, 1 << 31)
    # Four counts from lo = 2^59 - 3 are the last admitted: their sums reach
    # 2^63 - 24, while F(lo) alone is 2^61.  Four equal terms are no gain's
    # terms, so the per-term scatter, which shares the rule and the F(lo)
    # seed with _pair_prefix, sums them.
    lo = (1 << 59) - 3
    got = pair_prefix_by_terms(four, lo, lo + 4)
    assert got.tolist() == [2 * (n - lo) * (n + lo - 1) for n in range(lo + 1, lo + 5)]
    assert got[-1] == (1 << 63) - 24
    with pytest.raises(ValueError, match=refused):
        pair_prefix_by_terms(four, lo + 1, lo + 5)
    # The spikes of a real gain near the rule's edge: u = 1..3 at levels 0
    # keeps K = 8 terms, admitted on 2^2 counts from lo = 2^57.
    bases = (2, 3, 5)
    terms = gains._terms(bases, (0, 0, 0), 1 << 59)
    lo = 1 << 57
    assert gains._pair_prefix(bases, terms, lo, lo + 4).tolist() == (
        pair_prefix_by_terms(terms, lo, lo + 4).tolist())
    with pytest.raises(ValueError, match=refused):
        gains._pair_prefix(bases, terms, lo, lo + (1 << 3))
    # u = (1,) keeps the terms m = 1 and m = 2: refused before any array.
    with pytest.raises(ValueError, match=refused):
        gain_curve((1,), (0,), 1 << 40)


def test_pair_prefix_matches_per_term_scatter():
    # The spikes set one coordinate at a time against each term's spikes
    # scattered on their own, over chunks with lo > 0: random queries and
    # ranges, and 2^19-count chunks of the d = 8, 9 and 10 scans.
    rng = random.Random(20261020)
    for _ in range(300):
        size = rng.randint(1, 5)
        u = tuple(sorted(rng.sample(range(1, 9), size)))
        _, levels, bases = pair_levels(u, [rng.randint(0, 2) for _ in u])
        lo = rng.choice([0, rng.randint(1, 500), rng.randint(1, 10**12)])
        hi = lo + rng.randint(1, 2000)
        terms = gains._terms(bases, levels, hi)
        got = gains._pair_prefix(bases, terms, lo, hi)
        assert got.tolist() == pair_prefix_by_terms(terms, lo, hi).tolist(), (u, levels, lo, hi)
    for d in (8, 9, 10):
        bases = first_primes(d)
        n_hi = math.prod(bases) // 2
        terms = gains._terms(bases, (0,) * d, n_hi)
        lo = rng.randrange(n_hi - gains._CHUNK)
        hi = lo + gains._CHUNK
        got = gains._pair_prefix(bases, terms, lo, hi)
        assert np.array_equal(got, pair_prefix_by_terms(terms, lo, hi)), d


# ----------------------------------------------------------- curve recurrences


def test_gain_one_below_small_modulus(queries):
    for u, levels, n in queries:
        if n < moduli(_bases(u), levels)[0]:
            assert gain_exact(u, levels, n) == 1
    # The boundary count itself still gives 1.
    for u, levels in [((1, 2), (1, 1)), ((2, 3), (2, 0)), ((1, 2, 3), (1, 0, 2))]:
        boundary = moduli(_bases(u), levels)[0]
        assert gain_exact(u, levels, boundary) == 1


def test_gain_zero_on_full_cycles(queries):
    for u, levels, _ in queries[:120]:
        m_over = moduli(_bases(u), levels)[1]
        for r in (1, 2):
            assert gain_exact(u, levels, r * m_over) == 0


def test_tail_cycle_scaling(queries):
    for u, levels, n in queries:
        m_over = moduli(_bases(u), levels)[1]
        rem = n % m_over
        if n <= m_over or rem == 0:
            continue
        head = gain_exact(u, levels, rem)
        assert gain_exact(u, levels, n) == Fraction(rem, n) * head


def test_level_bump_invariance(queries, basis4):
    for t, (u, levels, n) in enumerate(queries[:200]):
        pos = t % len(levels)
        bumped = list(levels)
        bumped[pos] += 1
        at = gain_exact(u, bumped, n * basis4[u[pos] - 1])
        assert at == gain_exact(u, levels, n)


def _residue_form(u, levels, n) -> Fraction:
    """G = sum_v s_v r_v (m_v - r_v) / (n prod(b_j - 1) m_under), where
    s_v = (-1)^(|u|-|v|), m_v = m_under prod_{j in v} b_j and r_v = n mod m_v."""
    bases = _bases(u)
    m_under = moduli(bases, levels)[0]
    total = 0
    for v in itertools.product((0, 1), repeat=len(bases)):
        m = m_under * math.prod(b for b, bit in zip(bases, v) if bit)
        r = n % m
        total += (-1) ** (len(v) - sum(v)) * r * (m - r)
    return Fraction(total, n * math.prod(b - 1 for b in bases) * m_under)


def test_gain_exact_matches_residue_form(queries):
    # The sampler stops at n = 5000; the residue form also reaches n far
    # past int64, where no other route evaluates gain_exact.
    for u, levels, n in queries:
        assert gain_exact(u, levels, n) == _residue_form(u, levels, n)
    rng = random.Random(20261018)
    counts = (2**64 + 7, 10**30, *(10**40 + s for s in range(-2, 3)))
    for _ in range(300):
        u = rng.sample(range(1, 7), rng.randint(1, 6))
        levels = [rng.randint(0, 3) for _ in u]
        for n in counts:
            assert gain_exact(u, levels, n) == _residue_form(u, levels, n)


def test_level_shift_identity(queries):
    for u, levels, n in queries[:200]:
        shifted = gain_exact(u, levels, n * moduli(_bases(u), levels)[0])
        assert shifted == gain_exact(u, (0,) * len(levels), n)


# ------------------------------------------------------------------ the search


def _nonempty_subsets(d: int):
    coords = range(1, d + 1)
    return [u for size in coords for u in itertools.combinations(coords, size)]


def test_level_zero_attains_supremum():
    for u in _nonempty_subsets(3):
        flat = _cycle_max(u, (0,) * len(u))
        for levels in itertools.product((0, 1), repeat=len(u)):
            assert _cycle_max(u, levels) <= flat


def test_supersets_dominate():
    tops = {u: _cycle_max(u, (0,) * len(u)) for u in _nonempty_subsets(3)}
    for small, small_top in tops.items():
        for big, big_top in tops.items():
            if set(small) <= set(big):
                assert small_top <= big_top


def test_leave_one_out_upper_bound():
    for u in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]:
        bound = upper_bound_u_exact(u)
        assert _cycle_max(u, (0,) * len(u)) <= bound
    assert upper_bound_u_exact((1, 2)) == Fraction(3, 2)
    assert upper_bound_u_exact((1, 2, 3)) == Fraction(15, 8)


def test_subset_bound_lemma():
    # G_{u,k}(n) <= Gamma_A * prod_{j in u - A} b_j/(b_j - 1) for nonempty
    # A inside u (the lemma in the upper_bound_u_exact docstring), here
    # with A = u & {1, 2, 3} on random queries over coordinates 1..6.
    bases = first_primes(6)
    rng = random.Random(20260822)
    worst = {}
    checked = 0
    while checked < 400:
        u = sorted(rng.sample(range(1, 7), rng.randint(1, 6)))
        a = tuple(j for j in u if j <= 3)
        if not a:
            continue
        if a not in worst:
            worst[a] = _cycle_max(a, (0,) * len(a))
        levels = tuple(rng.randint(0, 1) for _ in u)
        n = rng.randint(1, 3000)
        bound = worst[a] * math.prod(
            Fraction(bases[j - 1], bases[j - 1] - 1) for j in u if j > 3
        )
        assert gain_exact(u, levels, n) <= bound
        checked += 1
    # A = 1..6 inside u = 1..7 bounds the frozen Gamma_7 by
    # Gamma*_6 * 17/16, a margin of about 0.005 only.
    gamma6 = Fraction(1548299, 637056)
    gamma7 = Fraction(4210265, 1633632)
    assert gamma7 <= gamma6 * Fraction(17, 16) < gamma7 + Fraction(1, 100)


def test_attained_bound_values():
    assert lower_bound_n_star((1, 2), 1) == (3, Fraction(4, 3))
    assert lower_bound_n_star((1, 2), 2) == (2, Fraction(3, 2))
    assert lower_bound_n_star((1, 2, 3), 1) == (15, Fraction(8, 5))
    with pytest.raises(ValueError):
        lower_bound_n_star((3, 4), 3)
    with pytest.raises(ValueError):
        lower_bound_n_star((1, 2), 3)


def test_gamma_max_small_dimensions():
    one = gamma_max(1)
    assert (one.gamma, one.argmax_n) == (1, 1)
    two = gamma_max(2)
    assert (two.gamma, two.argmax_n) == (Fraction(3, 2), 2)
    assert two.lower == two.upper == Fraction(3, 2)
    three = gamma_max(3)
    assert (three.gamma, three.argmax_n) == (Fraction(9, 5), 10)
    assert three.lower <= three.gamma <= three.upper
    assert (three.lower, three.upper) == (Fraction(9, 5), Fraction(15, 8))


def _worst_gain_at(d: int, n: int) -> Fraction:
    """Max of gain_exact at n over nonempty u in 1..d and levels with
    prod b^k <= n, floored at 1: every other level vector gives gain 1."""
    primes = first_primes(d)
    best = Fraction(1)
    for u in _nonempty_subsets(d):
        bases = [primes[j - 1] for j in u]
        for levels in itertools.product(range(n.bit_length()), repeat=len(u)):
            if math.prod(b**k for b, k in zip(bases, levels)) <= n:
                best = max(best, gain_exact(u, levels, n))
    return best


def test_gamma_max_matches_pointwise_search():
    best = max(_worst_gain_at(3, n) for n in range(1, 31))
    assert best == gamma_max(3).gamma


def test_gamma_max_record_n():
    # The per-n worst gains that gamma_max(2) peaks over: 3/2 at n = 2,
    # and 3/2 again at n = 6, where levels (0, 1) shift the n = 2 peak
    # out to 3 * 2 (the level-bump identity).
    gains_at = tuple((n, _worst_gain_at(2, n)) for n in (2, 6))
    assert gains_at == ((2, Fraction(3, 2)), (6, Fraction(3, 2)))
    two = gamma_max(2)
    assert (two.gamma, two.argmax_n) == (Fraction(3, 2), 2)


def test_gamma_max_frozen_six():
    six = gamma_max(6)
    assert six.gamma == Fraction(1548299, 637056)
    assert six.argmax_n == 11060
    assert six.lower <= six.gamma <= six.upper


def test_curve_arrays_int64_edge():
    # u = 1..16 at level 0 has denom = prod(b - 1) ~ 4.4e18: the pair sums
    # of n <= 2 fit int64, the one at n = 3 does not, so that curve is kept
    # in Python ints.
    u = tuple(range(1, 17))
    for n_max, dtype in ((2, np.int64), (3, object)):
        num, den = gains._gain_curve_arrays(u, (0,) * 16, n_max)
        assert num.dtype == den.dtype == dtype
        assert gain_curve(u, (0,) * 16, n_max) == closed_form_curve(
            u, (0,) * 16, n_max
        )


def test_gamma_scan_matches_curve_oracle(monkeypatch):
    # The per-n closed form over one full cycle, or up to a cap, is the
    # oracle for the chunked scan; chunks of 7 and 1000 carry T(lo) across
    # many chunk borders, and capped d = 12 and 16 add it to chunk-local
    # sums of thousands of terms.
    bases = first_primes(6)
    oracle = {}
    for d, n_cap in [*((d, None) for d in range(1, 7)), (12, 600), (16, 250)]:
        u = tuple(range(1, d + 1))
        curve = closed_form_curve(u, (0,) * d, n_cap or math.prod(bases[:d]))
        top = max(curve)
        oracle[d, n_cap] = (top, curve.index(top) + 1)
    for chunk in (gains._CHUNK, 7, 1000):
        monkeypatch.setattr(gains, "_CHUNK", chunk)
        for (d, n_cap), want in oracle.items():
            summary = gamma_max(d, n_cap=n_cap)
            assert (summary.gamma, summary.argmax_n) == want, (chunk, d)


def test_gamma_max_frozen_seven_screened():
    # Half a cycle, 255255 counts, all inside the first scan chunk.
    seven = gamma_max(7)
    assert seven.gamma == Fraction(4210265, 1633632)
    assert seven.argmax_n == 187187
    assert seven.lower <= seven.gamma <= seven.upper


def test_gamma_max_frozen_eight():
    # Half a cycle, 4849845 counts, spans 10 scan chunks.
    eight = gamma_max(8)
    assert eight.gamma == Fraction(109986683, 40432392)
    assert eight.argmax_n == 3556553
    assert eight.lower <= eight.gamma <= eight.upper


def test_gamma_max_frozen_nine():
    # Half a cycle, 111546435 counts: 2^8 * n^2 stays below 2^63.
    nine = gamma_max(9)
    assert nine.gamma == Fraction(35298810970925, 12438944534016)
    assert nine.argmax_n == 81800719
    assert nine.lower <= nine.gamma <= nine.upper


@pytest.mark.parametrize(
    "u, levels",
    [((1, 2, 3, 4), (0, 0, 0, 0)), ((1, 2, 3), (1, 0, 2)), ((2, 4), (1, 1))],
)
def test_gain_reflection_identity(u, levels):
    # Every m_v divides P = m_over, so n G(n) = (P - n) G(P - n): the
    # lemma behind gamma_max's half-cycle scan, at P = 210, 1500 and 441.
    p = moduli(_bases(u), levels)[1]
    curve = [None, *gain_curve(u, levels, p)]  # curve[n] = G(n)
    for n in range(1, p):
        assert n * curve[n] == (p - n) * curve[p - n], n
        if 2 * n < p and curve[n] > 0:
            assert curve[n] > curve[p - n], n


def test_gamma_max_capped_high_dimension():
    # Moduli of u = 1..16 reach far past 2^63; only those below the cap
    # enter the int64 scan.
    u = tuple(range(1, 17))
    summary = gamma_max(16, n_cap=250)
    at = gain_exact(u, (0,) * 16, summary.argmax_n)
    assert summary.gamma == at
    rng = random.Random(20260822)
    for n in rng.sample(range(1, 251), 16):
        assert summary.gamma >= gain_exact(u, (0,) * 16, n)
    # Against the per-n closed form on every count below the cap.
    curve = closed_form_curve(range(1, 13), (0,) * 12, 600)
    top = max(curve)
    summary = gamma_max(12, n_cap=600)
    assert (summary.gamma, summary.argmax_n) == (top, curve.index(top) + 1)


def test_gamma_max_guards(monkeypatch):
    with pytest.raises(ValueError):
        gamma_max(0)
    with pytest.raises(ValueError):
        gamma_max(31)
    with pytest.raises(ValueError):
        gamma_max(9, n_cap=0)
    with pytest.raises(ValueError, match="d must be an integer, got 2.5"):
        gamma_max(2.5)
    with pytest.raises(ValueError, match="n_cap must be an integer, got 2.5"):
        gamma_max(2, n_cap=2.5)
    capped = gamma_max(2, n_cap=2)
    assert capped.gamma == Fraction(3, 2)
    # The scan's int64 rule, K (hi^2 - lo^2) < 2^64 for its widest chunk, is
    # checked before the first chunk: d = 10 in full (1022 terms, half a
    # cycle of 3234846615) passes it and d = 11 (2046 terms) does not.
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(gains, "_pair_prefix", reached)
    with pytest.raises(Reached):
        gamma_max(10)
    lo = 100280245065 // gains._CHUNK * gains._CHUNK - gains._CHUNK
    message = (f"exact int64 prefix sums need K (n^2 - lo^2) < 2^64; 2046 terms "
               f"over {lo} < n <= {lo + gains._CHUNK} exceed it")
    with pytest.raises(ValueError, match=re.escape(message)):
        gamma_max(11)


def test_gamma_scan_keeps_smallest_argmax(monkeypatch):
    # A level cell, 2^3, that no n <= 5 fills: G(n) = 1 for every n, so
    # every count ties and the first must win, within and across chunks.
    for chunk in (gains._CHUNK, 2):
        monkeypatch.setattr(gains, "_CHUNK", chunk)
        assert gains._scan_gamma((2,), (3,), 5) == (Fraction(1), 1)


def test_gamma_ten_window():
    # Gamma_10 without the 60 s scan of 3234846615 counts: over the chunks
    # around its argmax, chunk-local sums plus T(lo) are T, and the
    # window's max is the recorded value, at the recorded n.
    gamma, argmax = Fraction(176494054854625, 60121565247744), 2372220851
    bases = first_primes(10)
    n_hi = math.prod(bases) // 2
    terms = gains._terms(bases, (0,) * 10, n_hi)
    denom = math.prod(b - 1 for b in bases)
    assert gain_exact(range(1, 11), (0,) * 10, argmax) == gamma
    rng = random.Random(20261020)
    first = argmax // gains._CHUNK * gains._CHUNK - gains._CHUNK
    best, best_n = Fraction(0), None
    for lo in range(first, first + 3 * gains._CHUNK, gains._CHUNK):
        hi = lo + gains._CHUNK
        local = gains._pair_prefix(bases, terms, lo, hi)
        t_lo = gains._prefix_at(terms, lo)[1]
        for n in [hi, *rng.sample(range(lo + 1, hi), 5)]:
            assert t_lo + int(local[n - lo - 1]) == gains._prefix_at(terms, n)[1]
        t = local + t_lo  # T < 2^62 here, so the int64 sum is exact
        ratio = t / np.arange(lo + 1, hi + 1, dtype=np.float64)
        for i in np.flatnonzero(ratio >= ratio.max() * (1 - 1e-9)):
            n = lo + 1 + int(i)
            value = Fraction(n * denom + 2 * int(t[i]), n * denom)
            if value > best:
                best, best_n = value, n
    assert (best, best_n) == (gamma, argmax)


def test_pruned_terms_match_bruteforce_at_25_dimensions():
    # 2^25 terms in full; only the m_v < n ones are listed, the rest add 0
    # to T(n).  Brute force over index pairs shares none of that.
    u = tuple(range(1, 26))
    brute = [gain_bruteforce(u, (0,) * 25, n) for n in range(1, 11)]
    exact = [gain_exact(u, (0,) * 25, n) for n in range(1, 11)]
    assert exact == brute == gain_curve(u, (0,) * 25, 10)
    summary = gamma_max(25, n_cap=10)
    top = max(brute)
    assert (summary.gamma, summary.argmax_n) == (top, brute.index(top) + 1)


@pytest.mark.parametrize("d", [26, 30])
def test_gamma_max_past_the_modulus_range(d):
    # prod b_j of u = 1..d passes 2^127; the int64 scan bound alone admits
    # n <= 10.  The oracle is the brute force's pair sum, read directly
    # from the bases.
    bases = first_primes(d)
    t = gains._bruteforce_prefix(bases, (0,) * d, 10)
    denom = math.prod(b - 1 for b in bases)
    brute = [Fraction(n * denom + 2 * int(t[n - 1]), n * denom) for n in range(1, 11)]
    summary = gamma_max(d, n_cap=10)
    top = max(brute)
    assert (summary.gamma, summary.argmax_n) == (top, brute.index(top) + 1)
    u = range(1, d + 1)
    assert gain_curve(u, (0,) * d, 10) == brute
    assert [gain_exact(u, (0,) * d, n) for n in range(1, 11)] == brute


def test_gamma_max_int64_bound_is_the_only_limit(monkeypatch):
    # No bound on d past the term budget and the int64 rule: d = 63 and
    # d = 64 scan n = 1, which keeps no term.  d takes global_bounds_exact's
    # range, 1..10000, so d = 10001 and d = 10^7 are refused before any sieve.
    for d in (63, 64):
        top = gamma_max(d, n_cap=1)
        assert (top.gamma, top.argmax_n) == (1, 1)

    def sieved(d):
        raise AssertionError(f"sieved {d} primes")

    monkeypatch.setattr(gains, "_prime_array", sieved)
    monkeypatch.setattr(gains, "first_primes", sieved)
    for d, n_cap in ((10_001, 1), (10**7, None)):
        with pytest.raises(ValueError, match="capped at d <= 10000"):
            gamma_max(d, n_cap=n_cap)


def _budget_message(n: int, size: int, budget: int = 1 << 18) -> str:
    return f"more than {budget} gain terms with m_v < n = {n} for |u| = {size}; lower n or |u|"


def test_term_budget_refuses_fast():
    # Every one of the 2^25 moduli of u = 1..25 lies below 10^38.  Past
    # 2^18 kept terms the count refuses, before a longer list is built.
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        gain_exact(range(1, 26), (0,) * 25, 10**38)
    assert time.perf_counter() - t0 < 1.0
    assert str(refused.value) == _budget_message(10**38, 25)


def test_term_budget_memory(monkeypatch):
    # With a budget of 2^10, the refusal holds at most 2^10 terms: the
    # survivors are counted before the next list is built.
    monkeypatch.setattr(gains, "_MAX_TERMS", 1 << 10)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(_budget_message(10**38, 25, 1 << 10))):
            gain_exact(range(1, 26), (0,) * 25, 10**38)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_term_budget_is_the_one_size_rule(monkeypatch):
    # u = 1..3 keeps all 8 of its terms below n = 40, and u = 1..4 keeps
    # 12: a budget admits exactly as many terms as it names, and every
    # evaluator meets the same refusal past it.
    want, top = gain_exact((1, 2, 3), (0, 0, 0), 40), gamma_max(4, n_cap=40)
    curve = gain_curve((1, 2, 3), (0, 0, 0), 40)
    monkeypatch.setattr(gains, "_MAX_TERMS", 8)
    assert gain_exact((1, 2, 3), (0, 0, 0), 40) == want
    assert gain_curve((1, 2, 3), (0, 0, 0), 40) == curve
    assert oracle_check(3, n_max=40, k_max=0) == []
    monkeypatch.setattr(gains, "_MAX_TERMS", 12)
    assert gamma_max(4, n_cap=40) == top
    monkeypatch.setattr(gains, "_MAX_TERMS", 7)
    refused = re.escape(_budget_message(40, 3, 7))
    for evaluate in (
        lambda: gain_exact((1, 2, 3), (0, 0, 0), 40),
        lambda: gain_curve((1, 2, 3), (0, 0, 0), 40),
        lambda: oracle_check(3, n_max=40, k_max=0),
    ):
        with pytest.raises(ValueError, match=refused):
            evaluate()
    monkeypatch.setattr(gains, "_MAX_TERMS", 11)
    with pytest.raises(ValueError, match=re.escape(_budget_message(40, 4, 11))):
        gamma_max(4, n_cap=40)


def test_huge_level_forms_no_power():
    # 2^(10^9) takes seconds and hundreds of MB to form.  A level at or past
    # the bit length of n empties the terms at once, and every count below
    # the cell gives G = 1.
    t0 = time.perf_counter()
    assert gain_exact((1,), (10**9,), 5) == 1
    assert gains._terms((3, 2), (0, 10**9), 5) == []
    assert time.perf_counter() - t0 < 1.0
    # Around that level, the kept terms are the full list's below the limit.
    for b in (2, 3):
        for k in range(8):
            full = [(-1, b**k), (b, b ** (k + 1))]
            for limit in range(1, 300):
                assert gains._terms((b,), (k,), limit) == [t for t in full if t[1] < limit]


def test_pruned_terms_memory_at_20_dimensions():
    # The full 2^20 term list of u = 1..20 alone takes about 190 MB.
    u = tuple(range(1, 21))
    tracemalloc.start()
    try:
        gain_exact(u, (0,) * 20, 1000)
        gamma_max(20, n_cap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


# ------------------------------------------------------------------ the bounds


def test_global_bounds_exact_values():
    assert global_bounds_exact(1) == (1, 1)
    assert global_bounds_exact(2) == (Fraction(3, 2), Fraction(3, 2))
    assert global_bounds_exact(3) == (Fraction(9, 5), Fraction(15, 8))
    with pytest.raises(ValueError):
        global_bounds_exact(0)
    with pytest.raises(ValueError):
        global_bounds_exact(10_001)
    with pytest.raises(ValueError, match="d must be an integer, got 2.5"):
        global_bounds_exact(2.5)


def table_rows(d_max: int) -> list[tuple]:
    """bounds_table's blocks joined into rows (d, lower, upper, guide)."""
    return list(zip(*(np.concatenate(col).tolist() for col in zip(*bounds_table(d_max)))))


def test_bounds_table_rows():
    rows = table_rows(100)
    assert [r[0] for r in rows] == list(range(1, 101))
    assert rows[0][1] == rows[0][2] == 1.0
    for d, lower, upper, guide in rows:
        lo_x, hi_x = global_bounds_exact(d)
        assert math.isclose(lower, float(lo_x), rel_tol=1e-11)
        assert math.isclose(upper, float(hi_x), rel_tol=1e-11)
        assert guide == 1.5 + math.log(d / 2.0)
    for a, b in zip(rows, rows[1:]):
        assert a[1] <= b[1] and a[2] <= b[2]
    with pytest.raises(ValueError):
        list(bounds_table(0))
    with pytest.raises(ValueError, match="d_max must be an integer, got 2.5"):
        list(bounds_table(2.5))


def test_bounds_table_blocks():
    # Full blocks of _BOUNDS_BLOCK rows, then the rest; d counts on across them.
    blocks = list(bounds_table(2 * gains._BOUNDS_BLOCK + 5))
    assert [len(b[0]) for b in blocks] == [gains._BOUNDS_BLOCK] * 2 + [5]
    for block in blocks:
        assert len({len(col) for col in block}) == 1
        assert block[0].dtype == np.int64
        assert all(col.dtype == np.float64 for col in block[1:])
    assert np.array_equal(np.concatenate([b[0] for b in blocks]),
                          np.arange(1, 2 * gains._BOUNDS_BLOCK + 6))


def test_bounds_table_matches_correctly_rounded_log_sums():
    # Each log sum equals math.fsum of its prefix, so the rows are exp of
    # the correctly rounded log sums; a plain running sum already misses at
    # d = 3.
    checked = (2, 3, 7, 30, 1000, 2146, 5000, 20000)
    rows = table_rows(checked[-1])
    bases = first_primes(checked[-1])
    for d in checked:
        lower = 0.75 * math.exp(math.fsum(math.log1p(1.0 / b) for b in bases[:d]))
        upper = 0.5 * math.exp(math.fsum(-math.log1p(-1.0 / b) for b in bases[:d]))
        assert rows[d - 1][:3] == (d, lower, upper)


def test_bounds_table_matches_kahan_oracle():
    # Every row to 2*10^5, across 97 block boundaries and their carried
    # limbs, equals the one-row-at-a-time Kahan oracle.
    d_max = 200_000
    got = [np.concatenate(col) for col in zip(*bounds_table(d_max))]
    want = np.array(list(bounds_rows(d_max)))
    assert np.array_equal(got[0], np.arange(1, d_max + 1))
    for col in (1, 2, 3):
        assert np.array_equal(got[col], want[:, col])


def test_rosser_schoenfeld_recall():
    # The two prime bounds behind the abstract's line for every d (see
    # bounds_table), as recalled from Rosser and Schoenfeld (1962), hold at
    # every sieved point to 10^6 primes: (3.13) p_d < d (ln d + ln ln d)
    # for d >= 6, and (3.30) prod_{p <= x} p/(p-1) < e^gamma ln x
    # (1 + 1/(2 ln^2 x)) for x >= 286.  Between primes the product stays
    # and the right side grows, so x = 286 and x at each prime p >= 286 are
    # the tightest points.  Below 286 (3.30) fails, last at x = 283, which
    # matches its stated range.  A check of the recall, not a proof.
    p = _prime_array(10**6).astype(np.float64)
    d = np.arange(6, 10**6 + 1, dtype=np.float64)
    assert np.all(p[5:] < d * (np.log(d) + np.log(np.log(d))))
    product = np.exp(np.cumsum(-np.log1p(-1.0 / p)))
    x = np.concatenate(([286.0], p[p > 286]))
    held = np.concatenate((product[p < 286][-1:], product[p > 286]))
    ln_x = np.log(x)
    assert np.all(held < np.exp(np.euler_gamma) * ln_x * (1 + 0.5 / ln_x**2))
    ln_p = np.log(p)
    fails = p[product >= np.exp(np.euler_gamma) * ln_p * (1 + 0.5 / ln_p**2)]
    assert fails.max() == 283


def test_prefix_sums_are_correctly_rounded():
    # Terms k * 2^-80 at the bottom of [2^-28, 1) have full 40-bit low
    # limbs, so a low-limb sum left without its carry passes 2^53 after
    # about 2^14 terms and loses bits on its way to float, while the sums
    # stay small enough for that loss to show on some prefix.  Fed in
    # blocks, as bounds_table does, every prefix is the exact sum correctly
    # rounded.
    k = np.random.default_rng(4).integers(1 << 52, 1 << 53, 1 << 17, dtype=np.int64)
    total = np.zeros(2, dtype=np.int64)
    got = np.concatenate([gains._prefix_sums(np.ldexp(block.astype(np.float64), -80), total)
                          for block in np.split(k, 8)])
    exact = itertools.accumulate(k.tolist())
    assert got.tolist() == [math.ldexp(float(s), -80) for s in exact]


def test_log_terms_split_into_exact_limbs():
    # The smallest terms come from the largest base, p_{10^7} = 179,424,673,
    # and the largest from base 2.  All lie in [2^-28, 1), so every term up
    # to MAX_DIMENSION is a multiple of 2^-80 below 1: two exact 40-bit limbs.
    for b in (2, 179_424_673):
        for t in (math.log1p(1.0 / b), -math.log1p(-1.0 / b)):
            assert 2.0**-28 <= t < 1.0
            assert math.ldexp(t, 80).is_integer()


# ------------------------------------------------------------------ containers


def test_coord_subset_basics():
    # A subset is a tuple of 1-based ints, taken in any order but never
    # with a coordinate twice.
    assert upper_bound_u_exact((3, 1)) == Fraction(5, 4)
    with pytest.raises(ValueError, match="coordinate 3 listed more than once"):
        upper_bound_u_exact((3, 1, 3))
    with pytest.raises(ValueError, match="got 1.5"):
        upper_bound_u_exact((1.5, 2))
    # Coordinate 4 has base 7, whatever else was asked for before.
    assert gain_curve((4,), (0,), 8) == [gain_bruteforce((4,), (0,), n) for n in range(1, 9)]
    assert upper_bound_u_exact((4,)) == 1
    assert rqmc_estimate((4,), (0,), 7, 2, ScrambleSpec("nested")).sigma2 == 6.0  # 7 - 1


# Each bad subset, the level-count mismatch included, and the message that
# pair_levels, the one subset check, gives for it.
REFUSED_SUBSETS = [
    ((), (), "u must name at least one coordinate"),
    ((0,), (0,), "coordinate 0 outside 1..10000000"),
    ((10_000_001,), (0,), "coordinate 10000001 outside 1..10000000"),
    ((1.5,), (0,), "coordinate must be an integer, got 1.5"),
    ((1, 1), (0, 0), "coordinate 1 listed more than once in u"),
    ((1, 2), (0,), "one level per coordinate required, got (0,) for u = (1, 2)"),
]

SUBSET_ENTRY_POINTS = {
    "gain_exact": lambda u, k: gain_exact(u, k, 5),
    "gain_curve": lambda u, k: gain_curve(u, k, 5),
    "rqmc_estimate": lambda u, k: rqmc_estimate(u, k, 5, 2, ScrambleSpec("nested")),
    "upper_bound_u_exact": lambda u, k: upper_bound_u_exact(u),
}


@pytest.mark.parametrize(
    "entry, u, levels, message",
    [
        (entry, *case)
        for entry in SUBSET_ENTRY_POINTS
        for case in REFUSED_SUBSETS
        # upper_bound_u_exact takes no levels, so cannot mismatch them
        if entry != "upper_bound_u_exact" or len(case[0]) == len(case[1])
    ],
)
def test_one_refusal_across_entry_points(entry, u, levels, message):
    with pytest.raises(ValueError) as refused:
        SUBSET_ENTRY_POINTS[entry](u, levels)
    assert str(refused.value) == message


def test_query_validation():
    with pytest.raises(ValueError):
        gain_exact((), (), 5)
    with pytest.raises(ValueError):
        gain_exact((1,), (0, 0), 5)
    with pytest.raises(ValueError, match="levels must be >= 0, got -1"):
        gain_exact((1,), (-1,), 5)
    with pytest.raises(ValueError, match="level must be an integer, got 0.5"):
        gain_exact((1,), (0.5,), 5)
    with pytest.raises(ValueError, match="coordinate 10000001 outside 1..10000000"):
        gain_exact((10_000_001,), (0,), 5)
    assert gain_exact((4,), (0,), 5) == gain_bruteforce((4,), (0,), 5) == Fraction(1, 3)
    with pytest.raises(ValueError, match="point count must be >= 1, got 0"):
        gain_exact((1,), (0,), 0)
    with pytest.raises(ValueError, match="coordinate 1 listed more than once"):
        gain_exact((1, 2, 1), (0, 0, 0), 5)
    with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
        gain_exact((1,), (0,), 2.5)
    # No size is refused up front: moduli past 2^127 and |u| = 31 evaluate
    # (see test_term_budget_is_the_one_size_rule).
    assert gain_exact((1,), (200,), 5) == 1
    wide = (range(1, 32), (0,) * 31, 5)
    assert gain_exact(*wide) == gain_bruteforce(*wide)
    with pytest.raises(ValueError, match="n_max must be an integer, got 3.5"):
        gain_curve((1,), (0,), 3.5)
    u, levels, bases = pair_levels((2, 1), (0, 1))
    assert (u, levels, bases) == ((1, 2), (1, 0), (2, 3))  # each level stays with its coordinate
    assert moduli(bases, levels) == (2, 12)  # 2^1 * 3^0, 2^2 * 3^1
    assert gain_exact((2, 1), (0, 1), 5) == gain_exact((1, 2), (1, 0), 5)
