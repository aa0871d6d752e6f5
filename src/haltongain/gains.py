"""Exact gain coefficients for scrambled Halton estimators.

The gain G_{u,k}(n) is the factor by which scrambling inflates (or deflates)
the variance of a mean over n consecutive Halton points for an integrand
living on the level-k Haar cells of the coordinates in u, relative to plain
Monte Carlo at the same n.  With b_j the coordinate bases it reduces to the
closed form

    G_{u,k}(n) = (1/n) * prod_{j in u} (b_j - 1)^(-1)
               * sum_{v subset u} H_{u,v} * C(m_{u,v,k}, n)

where H_{u,v} = (-1)^{|u|-|v|} prod_{j in v} b_j, the modulus m_{u,v,k} is
prod_{j in v} b_j^(k_j+1) * prod_{j in u-v} b_j^(k_j), and C(m, n) counts
index pairs below n that agree modulo m.  Everything here is exact rational
arithmetic; floats appear only in the large-d bound tables, as views, and to
pick the counts the worst-gain scan re-checks exactly.

With C(m, n) = n + 2 sum_{n' < n} floor(n'/m), the pair sum is
n * denom + 2 T(n), T(n) = sum_{n' < n} sum_v H_v floor(n'/m_v).  One closed
form, _prefix_at, gives T at a single n in Python ints: gain_exact uses it,
the worst-gain scan re-checks with it, and it seeds _pair_prefix, the
evaluator every gain curve, the scan and the oracle grid share, which gives
T(n) - T(lo) over a range lo < n <= hi as two int64 cumulative sums of
spikes set one coordinate at a time.  The brute force shares none of it: it
sums the defining pair kernel over index pairs.  There is one size rule,
_terms' budget of _MAX_TERMS terms with m_v < n, and one int64 rule,
_int64_terms' K (hi^2 - lo^2) < 2^64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .primes import MAX_DIMENSION, _prime_array, _require_integers, first_primes

__all__ = [
    "pair_levels",
    "GainSummary",
    "gain_exact",
    "gain_curve",
    "gamma_max",
    "upper_bound_u_exact",
    "global_bounds_exact",
    "bounds_table",
    "oracle_check",
]

_MAX_TERMS = 1 << 18  # terms (H_v, m_v) with m_v < n one query may keep
_MAX_BRUTEFORCE_N = 10_000
_PAIR_BLOCK = 1 << 18  # index pairs per brute-force block
_CHUNK = 1 << 19  # counts per chunk of the worst-gain scan


def pair_levels(
    u: Iterable[int], levels: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """u sorted, with its levels and bases aligned: the one subset check.

    A coordinate subset is a tuple of 1-based ints; coordinate j has base
    p_j, returned as a Python int.  `levels` holds one level per member of
    u in the order u lists them, so a permuted u pairs exactly as its
    sorted form.  Refused: an empty u, a level count other than |u|, a
    coordinate or level that is not an integer, a negative level, a
    coordinate listed twice, and one outside 1..MAX_DIMENSION, before any
    prime is sieved.
    """
    coords, levels = tuple(u), tuple(levels)
    if not coords:
        raise ValueError("u must name at least one coordinate")
    if len(levels) != len(coords):
        raise ValueError(
            f"one level per coordinate required, got {levels} for u = {coords}"
        )
    for j, k in zip(coords, levels):
        _require_integers(coordinate=j, level=k)
        if k < 0:
            raise ValueError(f"levels must be >= 0, got {k}")
    pairs = sorted(zip(coords, levels))
    for (a, _), (b, _) in zip(pairs, pairs[1:]):
        if a == b:
            raise ValueError(f"coordinate {a} listed more than once in u")
    u = tuple(j for j, _ in pairs)
    for j in (u[0], u[-1]):  # the smallest coordinate, then the largest
        if not 1 <= j <= MAX_DIMENSION:
            raise ValueError(f"coordinate {j} outside 1..{MAX_DIMENSION}")
    primes = _prime_array(u[-1])
    return u, tuple(k for _, k in pairs), tuple(int(primes[j - 1]) for j in u)


def _terms(bases: Sequence[int], levels: Sequence[int], limit: int) -> list[tuple[int, int]]:
    """(H_v, m_v) of the subsets v with m_v < limit, in bitmask order.

    That list gives T(n) exactly for every n <= limit: a term with m >= n
    adds H floor(n'/m) = 0 to T(n) for every n' < n.  The pair sum's other
    part, n * prod (b - 1), is no term.  m_v only grows as v does, so a
    pruned partial term has no descendant below the limit.  Each
    coordinate's survivors are counted before they are built, and more
    than _MAX_TERMS is refused: the one size rule of every gain evaluator.
    """
    out, bits = [(1, 1)], int(limit).bit_length()
    for b, k in zip(bases, levels):
        if k >= bits:  # b^k >= 2^k > limit: no term survives, and b^k is not formed
            return []
        low = b**k
        top = (limit - 1) // low  # m * low < limit iff m <= top
        high = top // b  # m * low * b < limit iff m <= high
        if sum((m <= top) + (m <= high) for _, m in out) > _MAX_TERMS:
            raise ValueError(f"more than {_MAX_TERMS} gain terms with m_v < n = {limit} "
                             f"for |u| = {len(bases)}; lower n or |u|")
        out = [(-h, m * low) for h, m in out if m <= top] + [
            (h * b, m * low * b) for h, m in out if m <= high]
    return out


def _prefix_at(terms: list[tuple[int, int]], n: int) -> tuple[int, int]:
    """F(n) = sum_v H_v floor(n/m_v) and T(n) = sum_{n' < n} F(n'), exactly.

    With n = qm + r, sum_{n' < n} floor(n'/m) = m q(q-1)/2 + r q.
    """
    f = t = 0
    for h, m in terms:
        q, r = divmod(n, m)
        f += h * q
        t += h * (m * q * (q - 1) // 2 + r * q)
    return f, t


def gain_exact(u: Iterable[int], levels: Sequence[int], n: int) -> Fraction:
    """G_{u,k}(n) by the closed form, as an exact reduced rational.

    Levels follow u in the order given (`pair_levels`), and n >= 1; the
    only size rule is _terms' budget.
    """
    _, levels, bases = pair_levels(u, levels)
    _require_integers(n=n)
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    den = n * math.prod(b - 1 for b in bases)
    total = den + 2 * _prefix_at(_terms(bases, levels, n), n)[1]
    if total < 0:
        raise RuntimeError("negative gain sum; closed-form evaluation is broken")
    return Fraction(total, den)


def _int64_terms(terms: list[tuple[int, int]], lo: int, hi: int) -> list[tuple[int, int]]:
    """The K terms with m_v < hi, which alone reach F below hi, if K (hi^2 - lo^2) < 2^64:
    as |H_v| <= m_v, |F(n')| <= K n' and |T(n) - T(lo)| < K (hi^2 - lo^2) / 2 on lo < n <= hi."""
    small = [(h, m) for h, m in terms if m < hi]
    if len(small) * (hi - lo) * (hi + lo) >= 1 << 64:
        raise ValueError(f"exact int64 prefix sums need K (n^2 - lo^2) < 2^64; "
                         f"{len(small)} terms over {lo} < n <= {hi} exceed it")
    return small


def _pair_prefix(bases: Sequence[int], terms: list[tuple[int, int]], lo: int,
                 hi: int) -> np.ndarray:
    """T(n) - T(lo) for lo < n <= hi as an int64 array, at index n - lo - 1; T itself from lo = 0.

    `terms` are _terms(bases, levels, limit) for a limit >= hi.  T(n) = sum_{n' < n} F(n'),
    F(n') = sum_v H_v floor(n'/m_v), so the differences of F are spikes at the multiples
    of M = prod b^k: there the m_v dividing n' are those of the v whose bases all divide
    n'/M, and the distinct primes make the spike (-1)^|u| prod_{b | n'/M} (1 - b).  Once
    _int64_terms admits the range, the spikes are set one coordinate at a time, and two
    in-place cumulative sums seeded with F(lo) from _prefix_at give the chunk-local sums.
    """
    small = _int64_terms(terms, lo, hi)
    acc = np.zeros(hi - lo, dtype=np.int64)
    if small:  # ((-1)^|u|, M), the term of v = {}, comes first in bitmask order
        sign, cell = small[0]
        acc[(lo // cell + 1) * cell - lo :: cell] = sign
        for b in bases:
            m = cell * b
            if m < hi:
                acc[(lo // m + 1) * m - lo :: m] *= 1 - b
    acc[0] = _prefix_at(small, lo)[0]
    np.cumsum(acc, out=acc)  # acc[i] = F(lo + i)
    np.cumsum(acc, out=acc)  # acc[i] = T(lo + i + 1) - T(lo)
    return acc


def _pair_weights(bases: Sequence[int], levels: Sequence[int], rows: np.ndarray,
                  n: int) -> np.ndarray:
    """The defining kernel w(i, i2) for i in rows, 0 <= i2 < n; 0 unless i2 < i.

    w(i, i2) = prod_j (b_j [i == i2 mod b_j^(k_j+1)] - [i == i2 mod b_j^k_j]),
    by residue matching.  A modulus >= n matches no pair i2 < i < n, so it
    is skipped and never reaches int64.  The b_j^(k_j+1) that divide i - i2
    are coprime, so |w| <= i - i2 < n.
    """
    cols = np.arange(n, dtype=np.int64)
    w = (rows[:, None] > cols).astype(np.int64)
    for b, k in zip(bases, levels):
        factor = np.zeros(w.shape, dtype=np.int64)
        for m, h in ((b**k, -1), (b ** (k + 1), b)):
            if m < n:
                factor += h * (rows[:, None] % m == cols % m)
        w *= factor
    return w


def _bruteforce_prefix(bases: Sequence[int], levels: Sequence[int], n_max: int) -> np.ndarray:
    """T(n) for 1 <= n <= n_max by the defining double sum, T(n) at index n - 1.

    T(n) sums w(i, i2) over the pairs i2 < i < n; the diagonal adds
    n * prod(b_j - 1) to the pair sum.  No inclusion-exclusion and no
    pair-count formula.  Rows of pairs go in blocks, so memory is
    O(block * n_max); |w| < n_max keeps T below n_max^3, well inside int64.
    """
    if n_max > _MAX_BRUTEFORCE_N:
        raise ValueError(f"brute force capped at n <= {_MAX_BRUTEFORCE_N}")
    f = np.empty(n_max, dtype=np.int64)  # f[i] = sum_{i2 < i} w(i, i2)
    step = max(1, _PAIR_BLOCK // n_max)
    for lo in range(0, n_max, step):
        hi = min(lo + step, n_max)
        rows = np.arange(lo, hi, dtype=np.int64)
        f[lo:hi] = _pair_weights(bases, levels, rows, hi).sum(axis=1)
    return np.cumsum(f)


def _gain_curve_arrays(u: Iterable[int], levels: Sequence[int],
                       n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """G_{u,k}(1..n_max) as reduced (numerator, denominator) arrays.

    One _pair_prefix pass gives every pair sum n * denom + 2 T(n).  The
    arrays are int64 when every pair sum fits, which n_max * denom
    + K n_max^2 < 2^63 ensures, and hold Python ints otherwise.
    """
    _require_integers(n_max=n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _, levels, bases = pair_levels(u, levels)
    denom = math.prod(b - 1 for b in bases)
    terms = _terms(bases, levels, n_max)
    t = _pair_prefix(bases, terms, 0, n_max)
    n = np.arange(1, n_max + 1, dtype=np.int64)
    if n_max * (denom + len(terms) * n_max) >= 1 << 63:
        n, t = n.astype(object), t.astype(object)
    den = n * denom
    num = den + 2 * t
    g = np.gcd(num, den)
    return num // g, den // g


def gain_curve(u: Iterable[int], levels: Sequence[int], n_max: int) -> list[Fraction]:
    """[G_{u,k}(1), ..., G_{u,k}(n_max)], exact."""
    num, den = _gain_curve_arrays(u, levels, n_max)
    return [Fraction(a, b) for a, b in zip(num.tolist(), den.tolist())]


@dataclass(frozen=True)
class GainSummary:
    """Result of a worst-case search over n for the full subset u = 1..d."""

    d: int
    gamma: Fraction
    argmax_n: int
    lower: Fraction
    upper: Fraction


def gamma_max(d: int, n_cap: int | None = None) -> GainSummary:
    """Worst gain over all n for u = 1..d at levels 0, with its argmax.

    Levels 0 reach the supremum (see upper_bound_u_exact), and half a cycle
    holds the smallest argmax.  Write P = prod b_j and r_v = n mod m_v.
    Then C(m_v, n) = (n^2 + r_v (m_v - r_v)) / m_v, and the H_v / m_v = +-1
    sum to 0, so the pair sum is sum_v +-r_v (m_v - r_v).  Every m_v
    divides P, and r (m - r) is symmetric under r -> m - r, so
    n G(n) = (P - n) G(P - n) and the pair sum has period P.  Hence
    G(P - n) < G(n) for n < P/2 where G(n) > 0, G only shrinks past the
    cycle, and the smallest argmax, where G >= G(1) = 1, is at most P/2.
    Every n up to min(n_cap, P // 2) is scanned exactly by _scan_gamma,
    under the term budget and its int64 rule: d <= 10 runs in full, d = 11
    is refused before a chunk is scanned, and larger d need an n_cap.  d is
    in 1..10000, global_bounds_exact's range, checked before any sieve.
    """
    lower, upper = global_bounds_exact(d)
    bases = first_primes(d)
    n_hi = math.prod(bases) // 2
    if n_cap is not None:
        _require_integers(n_cap=n_cap)
        if n_cap < 1:
            raise ValueError(f"n_cap must be >= 1, got {n_cap}")
        n_hi = min(n_cap, n_hi)
    gamma, argmax = _scan_gamma(bases, (0,) * d, n_hi)
    return GainSummary(d, gamma, argmax, lower, upper)


def _scan_gamma(bases: Sequence[int], levels: Sequence[int], n_hi: int) -> tuple[Fraction, int]:
    """Exact max of G(n) = 1 + 2 R(n) / denom, R(n) = T(n)/n, denom = prod (b - 1), on
    1..n_hi; smallest argmax.

    Chunk by chunk, lo < n <= hi: _pair_prefix gives L(n) = T(n) - T(lo),
    T(lo) is carried as a Python int, and the int64 rule is checked first on
    the last two chunks, one of them the widest.  Each n with r(n) =
    (float(T(lo)) + float(L(n)))/n within 1e-12 |top| of its chunk's top is
    re-checked exactly.  r(n) errs by u (|T(lo)| + |L(n)|)/n (u = 2^-53;
    nothing below 2^53) plus 2u |R(n)|, so, as |L(n)| <= |T(n)| + |T(lo)| and
    lo < n, by at most 3u |R(n)| + 2u |R(lo)|.  The band keeps the smallest
    argmax n*, R* = R(n*) >= R(1) = 0, while its chunk errs below 1e-12 R*/2:
    in the first chunk, where T(lo) = 0 and errors are relative, always; past
    it, where G >= 0 and R <= R* bound |R| by M = max(R*, denom/2), whenever
    5u M does, i.e. Gamma >= 1 + 1/900: in every full scan (Gamma_d >= 3/2 for
    d >= 2), and in a capped one unless |T| passes 2^53 and G dips below 1 by
    900 times its rise above it.  So a chunk whose |T(lo)|/n is large next to
    its top holds no n*, and one without n* only adds exactly checked values.
    """
    terms, denom = _terms(bases, levels, n_hi), math.prod(b - 1 for b in bases)
    last = (n_hi - 1) // _CHUNK * _CHUNK
    for lo in (max(last - _CHUNK, 0), last):
        _int64_terms(terms, lo, min(lo + _CHUNK, n_hi))
    best, best_n, t_lo = Fraction(-1), 1, 0
    ratio = np.empty(min(_CHUNK, n_hi))  # one float buffer for every chunk
    for lo in range(0, n_hi, _CHUNK):
        hi = min(lo + _CHUNK, n_hi)
        local = _pair_prefix(bases, terms, lo, hi)  # local[i] = T(lo + i + 1) - T(lo)
        r = np.add(local, float(t_lo), out=ratio[: hi - lo])
        r /= np.arange(lo + 1, hi + 1, dtype=np.float64)
        top = r.max()
        for i in np.flatnonzero(r >= top - abs(top) * 1e-12):
            n = lo + 1 + int(i)
            t = _prefix_at(terms, n)[1]
            if t_lo + int(local[i]) != t:
                raise RuntimeError(f"scan disagrees with the closed form at n = {n}")
            value = Fraction(n * denom + 2 * t, n * denom)
            if value > best:
                best, best_n = value, n
        t_lo += int(local[-1])
    return best, best_n


def upper_bound_u_exact(u: Iterable[int]) -> Fraction:
    """sup_n G_{u,k}(n) <= prod_{j in u, j != j_min} b_j/(b_j - 1), exactly.

    This leave-one-out bound is the case A = {j_min} of a lemma: for every
    nonempty A subset of u,

        G_{u,k}(n) <= Gamma_A * prod_{j in u - A} b_j/(b_j - 1),

    where Gamma_A = sup_n G_{A,0}(n) is the worst gain over A alone
    (Gamma_A = 1 for a single coordinate).  Proof sketch: G equals
    (1/n) sum_{i,i' < n} prod_{j in u} c_j(i, i') with the per-coordinate
    kernel

        c_j = (b/(b-1)) [b^(k+1) | i-i'] - (1/(b-1)) [b^k | i-i'].

    Each c_j is positive semidefinite: on a class mod b^k, split into b
    classes mod b^(k+1), it is a scaled complete-graph Laplacian.  Each c_j
    is also <= (b/(b-1)) [b^(k+1) | i-i'] in the semidefinite order, so by
    the Schur product theorem every factor j outside A may be replaced by
    that kernel.  Their product is prod_{j not in A} b_j/(b_j-1) times the
    indicator of M | i-i', with M = prod_{j not in A} b_j^(k_j+1).  The
    bases are distinct primes, so within a residue class r mod M, holding
    n_r of the indices, stepping by M leaves every [b^k | i-i'] with b in A
    unchanged (CRT).  The class thus contributes n_r * G_{A,k_A}(n_r), and
    the n_r sum to n.  Only levels 0 matter for the supremum: pairs in
    different classes mod prod_{j in A} b_j^(k_j) have a zero factor, and
    within one class the kernel is the level-0 kernel, so G_{A,k_A}(n) is
    an n-weighted average of level-0 gains, each at most Gamma_A.
    """
    u = tuple(u)
    bases = pair_levels(u, (0,) * len(u))[2]  # b_{j_min} comes first
    return math.prod((Fraction(b, b - 1) for b in bases[1:]), start=Fraction(1))


def global_bounds_exact(d: int) -> tuple[Fraction, Fraction]:
    """Eq-style sandwich for the worst gain over all subsets of 1..d.

    (3/4) prod (b_j+1)/b_j <= Gamma_d <= (1/2) prod b_j/(b_j-1) for d >= 2;
    both collapse to 1 at d = 1.  As b_1 = 2, the upper side is the lemma's
    upper_bound_u_exact(1..d).  Exact rationals, so meant for modest d.
    """
    _require_integers(d=d)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > 10_000:
        raise ValueError("exact bounds capped at d <= 10000; use bounds_table")
    if d == 1:
        return Fraction(1), Fraction(1)
    lower = Fraction(3, 4)
    for b in first_primes(d):
        lower *= Fraction(b + 1, b)
    return lower, upper_bound_u_exact(range(1, d + 1))


_BOUNDS_BLOCK = 1 << 11  # rows per bounds_table block
_LIMB = 40  # bits per limb of an exact log sum


def _prefix_sums(terms: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Correctly rounded sums of `total` plus each prefix of `terms`.

    Every term lies in [2^-28, 1), so it is a multiple of 2^-80 and splits
    exactly into two 40-bit limbs, hi * 2^-40 + lo * 2^-80.  The limbs'
    int64 cumulative sums are exact; with L's carry moved into H, both
    H * 2^-40 and L * 2^-80 are exact doubles, and their one IEEE addition
    rounds the exact sum.  `total`, the int64 limbs (H, L) of the sums so
    far, is advanced in place to the last prefix.
    """
    scaled = np.ldexp(terms, _LIMB)
    hi = np.floor(scaled)
    h = total[0] + np.cumsum(hi.astype(np.int64))
    lo = total[1] + np.cumsum(np.ldexp(scaled - hi, _LIMB).astype(np.int64))
    h += lo >> _LIMB
    lo &= (1 << _LIMB) - 1
    total[:] = h[-1], lo[-1]
    return np.ldexp(h.astype(np.float64), -_LIMB) + np.ldexp(lo.astype(np.float64), -2 * _LIMB)


def _each(fn, x: np.ndarray) -> np.ndarray:
    """fn of every element, by Python's math library (numpy's can differ in the last bit)."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=len(x))


def bounds_table(d_max: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Blocks (d, lower, upper, guide) of the rows d = 1..d_max, in order.

    Each block holds up to 2^11 rows as four arrays: d (int64) and the
    three float64 columns; blocks this small keep one block's temporaries,
    and the CLI writer's, reused from block to block rather than returned
    to the system and faulted back in.  The products are exp of log sums,
    each the correctly rounded sum of its terms (see _prefix_sums): the
    terms log1p(1/b) and -log1p(-1/b) are >= 2^-28 for bases to p_{10^7}.

    guide = 1.5 + ln(d/2) is the line of the paper's abstract.  Over
    6..10^6 it exceeds the sharper bound B(d) = Gamma*_6 prod_{j=7..d}
    b_j/(b_j-1) on Gamma_d, with Gamma*_6 = 1548299/637056 the exact worst
    gain over every subset of 1..6 (see the lemma in upper_bound_u_exact),
    by at least 0.146 (at d = 30), while the upper column, the leave-one-out
    bound, runs above it by 0.008 at d = 6 and up to 0.294 at d = 2146.
    Past 10^6, write B(d) = c prod_{p <= p_d} p/(p-1), c < 0.4662.  Rosser
    and Schoenfeld (1962) give p_d < x = d (ln d + ln ln d), their (3.13),
    and prod_{p <= x} p/(p-1) < e^gamma y (1 + 1/(2 y^2)), y = ln x >= ln 286,
    their (3.30).  So B(d) < U(d) = c e^gamma (y + 1/(2y)), and the line
    exceeds U by 0.80 at d = 10^6.  Beyond, dU/dd <= c e^gamma (1 + (1 +
    1/ln d)/(ln d + ln ln d))/d < 0.885/d, a factor that falls with d, under
    the line's slope 1/d: the gap widens, and B(d) < the line for all d >= 6.
    """
    _require_integers(d_max=d_max)
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    bases = _prime_array(d_max)
    lower_total, upper_total = np.zeros((2, 2), dtype=np.int64)  # each log sum's limbs (H, L)
    for start in range(0, d_max, _BOUNDS_BLOCK):
        b = bases[start : start + _BOUNDS_BLOCK].astype(np.float64)
        d = np.arange(start + 1, start + 1 + len(b), dtype=np.int64)
        lower = 0.75 * _each(math.exp, _prefix_sums(_each(math.log1p, 1.0 / b), lower_total))
        upper = 0.5 * _each(math.exp, _prefix_sums(-_each(math.log1p, -1.0 / b), upper_total))
        if start == 0:
            lower[0] = upper[0] = 1.0
        yield d, lower, upper, 1.5 + _each(math.log, d / 2.0)


def oracle_check(
    d: int, n_max: int, k_max: int = 1
) -> list[tuple[tuple[int, ...], tuple[int, ...], int, Fraction, Fraction]]:
    """Compare the closed form and the brute force over a full grid.

    Every nonempty u in 1..d, every level vector with entries up to k_max,
    every n up to n_max: one _pair_prefix array against one
    _bruteforce_prefix array per (u, k).  Returns the disagreements as
    (u, k, n, closed form, brute force); an empty list means the two routes
    agree everywhere.
    """
    _require_integers(d=d, n_max=n_max, k_max=k_max)
    if d < 1 or d > 6:
        raise ValueError("oracle grid supported for 1 <= d <= 6")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    mismatches = []
    coords = range(1, d + 1)
    subsets = (v for size in coords for v in itertools.combinations(coords, size))
    for u in subsets:
        for levels in itertools.product(range(k_max + 1), repeat=len(u)):
            bases = pair_levels(u, levels)[2]
            denom = math.prod(b - 1 for b in bases)
            closed = _pair_prefix(bases, _terms(bases, levels, n_max), 0, n_max)
            brute = _bruteforce_prefix(bases, levels, n_max)
            for i in np.flatnonzero(closed != brute):
                n = int(i) + 1
                mismatches.append((
                    u, levels, n,
                    Fraction(n * denom + 2 * int(closed[i]), n * denom),
                    Fraction(n * denom + 2 * int(brute[i]), n * denom),
                ))
    return mismatches
