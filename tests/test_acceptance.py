"""The package acceptance gate: eight criteria, criterion 6's extension
past 10^6 and criterion 7's exact form, one printed verdict each.

Every test prints exactly one line of the form

    criterion N: PASS|FAIL - detail

to the real terminal (bypassing capture) and then asserts, so a plain
pytest run shows all ten verdicts regardless of capture settings.

Statistical criteria (7) run under one fixed seed and tolerances sized at
or above four standard errors, so a false failure needs a several-sigma
excursion (roughly a 0.01% event).  Policy: the seed is bumped exactly
once, with a note here, if an intentional generator change shifts the
stream; it is never searched for a passing value.  Note: bumped once,
from 20260822 to 20261018 (chosen before any run), when nested
permutation nodes were rekeyed from digit-prefix tuples to the integer
node (depth s, i mod b^s), which shifts the "perm" stream.  Note: bumped
once more, from 20261018 to 20270107 (written down before any run), when
the blake2b streams were replaced by the Philox4x64-10 counter PRF, which
moves every stream.

Criterion 6 checks the abstract's sentence: for 6 <= d <= 10^6 the
upper bound on the gain coefficient is never larger than 1.5 + ln(d/2).
The bound it checks is B(d) = Gamma*_6 * prod_{j=7..d} p_j/(p_j - 1),
with Gamma*_6 the exact worst gain over all 63 subsets of 1..6, computed
here.  B(d) majorizes Gamma_d by the lemma in the upper_bound_u_exact
docstring, and it stays under the line by at least 0.146 (at d = 30).
The table's upper column, the leave-one-out bound (1/2) prod p/(p-1),
cannot meet the line: it is 1001/384 > 1.5 + ln 3 at d = 6 and runs above
the line by up to 0.294 (at d = 2146).  Its extension shows, in exact
rationals from two prime bounds of Rosser and Schoenfeld, that B(d) stays
under the line for every d >= 10^6, so the line holds for every d >= 6.
See the bounds discussion in the README and the gains.bounds_table
docstring.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

import haltongain.scramble as scramble

from haltongain import (
    ScrambleSpec,
    default_precision,
    first_primes,
    gain_curve,
    gain_exact,
    gamma_max,
    global_bounds_exact,
    halton_points,
    oracle_check,
    randomize,
    rqmc_estimate,
    scramble_column,
    upper_bound_u_exact,
)
from haltongain.cli import main
from haltongain.halton import _index_digits

from oracles import lower_bound_n_star, moduli, stratum_counts, stratum_index, stratum_occupancy

SEED = 20270107
D2_LEVELS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _verdict(capfd, num: int | str, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_reference_values(capfd):
    t0 = time.perf_counter()
    problems = []
    # CSV row n,gain_num,gain_den,gain_float: 3/2 and 7/8 at n = 2
    for u, k, row in (("1,2", "0,0", "2,3,2,1.5"), ("1,2,3", "0,0,0", "2,7,8,0.875")):
        code = main(["gain", "--u", u, "--k", k, "--n", "2"])
        out = capfd.readouterr().out
        if code != 0 or out.splitlines()[1:] != [row]:
            problems.append(f"gain({u}, {k}, 2) printed {out!r}")
    for levels in D2_LEVELS:
        if gain_curve((1, 2), levels, 36)[35] != 0:
            problems.append(f"curve k={levels} not 0 at n=36")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(
        capfd, 1, not problems,
        problems[0] if problems
        else f"3/2 and 7/8 exact, four curves vanish at 36 [{elapsed:.2f}s]",
    )


def test_criterion_2_oracle_equivalence(capfd):
    t0 = time.perf_counter()
    mismatches = oracle_check(3, n_max=90, k_max=1)
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 30.0
    _verdict(
        capfd, 2, ok,
        f"{len(mismatches)} mismatches over u in 1:3, levels <= 1, "
        f"n <= 90 [{elapsed:.1f}s]",
    )


def test_criterion_3_recurrence_suite(capfd, queries, basis4):
    t0 = time.perf_counter()
    bad = 0
    for t, (u, levels, n) in enumerate(queries):
        value = gain_exact(u, levels, n)
        bases = [basis4[j - 1] for j in u]
        m_under, m_over = moduli(bases, levels)
        if n < m_under and value != 1:
            bad += 1
        for r in (1, 2):
            if gain_exact(u, levels, r * m_over) != 0:
                bad += 1
        rem = n % m_over
        if n > m_over and rem:
            if value != Fraction(rem, n) * gain_exact(u, levels, rem):
                bad += 1
        pos = t % len(levels)
        bumped = list(levels)
        bumped[pos] += 1
        if gain_exact(u, bumped, n * bases[pos]) != value:
            bad += 1
        shifted = gain_exact(u, levels, n * m_under)
        if shifted != gain_exact(u, (0,) * len(levels), n):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60.0
    _verdict(
        capfd, 3, ok,
        f"{bad} violations across 5 exact identities on {len(queries)} "
        f"random queries [{elapsed:.1f}s]",
    )


def test_criterion_4_worst_case_search(capfd):
    t0 = time.perf_counter()
    problems = []
    one = gamma_max(1)
    if (one.gamma, one.argmax_n) != (1, 1):
        problems.append(f"d=1 search found {one.gamma} at {one.argmax_n}")
    two = gamma_max(2)
    if (two.gamma, two.argmax_n) != (Fraction(3, 2), 2):
        problems.append(f"d=2 search found {two.gamma} at {two.argmax_n}")
    three = gamma_max(3)
    lo, hi = global_bounds_exact(3)
    if not lo <= three.gamma <= hi:
        problems.append(f"d=3 value {three.gamma} outside [{lo}, {hi}]")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s, budget 10s")
    _verdict(
        capfd, 4, not problems,
        problems[0] if problems else (
            f"1 at n=1; 3/2 at n=2; d=3 worst case = "
            f"{three.gamma.numerator}/{three.gamma.denominator} at "
            f"n={three.argmax_n}, the lower endpoint of [9/5, 15/8] "
            f"[{elapsed:.2f}s]"
        ),
    )


def test_criterion_5_bound_consistency(capfd, queries):
    t0 = time.perf_counter()
    bad = 0
    for u, levels, n in queries:
        if gain_exact(u, levels, n) > upper_bound_u_exact(u):
            bad += 1
    primes5 = first_primes(5)
    checked = 0
    for bits in range(1, 32):
        u = tuple(j for j in range(1, 6) if bits >> (j - 1) & 1)
        stars = [j for j in u if j in (1, 2)]
        if not stars:
            continue
        for j_star in stars:
            others = [primes5[j - 1] for j in u if j != j_star]
            n_star = math.prod(others)
            want = math.prod(Fraction(b + 1, b) for b in others)
            if lower_bound_n_star(u, j_star) != (n_star, want):
                bad += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0
    _verdict(
        capfd, 5, ok,
        f"{bad} violations: leave-one-out bound on {len(queries)} queries, "
        f"attained value on {checked} subset cases [{elapsed:.1f}s]",
    )


def test_criterion_6_bounds_at_scale(capfd, tmp_path):
    target = tmp_path / "bounds.csv"
    t0 = time.perf_counter()
    code = main(["bounds", "--d-max", "1000000", "--out", str(target)])
    elapsed = time.perf_counter() - t0
    capfd.readouterr()
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if elapsed > 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    rows = np.loadtxt(target, delimiter=",", skiprows=1, ndmin=2)
    if len(rows) != 1_000_000:
        problems.append(f"{len(rows)} rows")
    dims = rows[:, 0].astype(np.int64)
    lower, upper, guide = rows[:, 1], rows[:, 2], rows[:, 3]
    d2 = (int(dims[1]), float(lower[1]), float(upper[1]), float(guide[1]))
    if abs(d2[1] - 1.5) > 1e-12 or abs(d2[2] - 1.5) > 1e-12:
        problems.append(f"d=2 row {d2}")
    falls = np.flatnonzero((lower[1:] < lower[:-1]) | (upper[1:] < upper[:-1]))
    if falls.size:
        problems.append(f"columns not monotone at d={dims[falls[0] + 1]}")
    # The abstract's line 1.5 + ln(d/2), checked against the bound
    # B(d) = Gamma*_6 * upper(d)/upper(6) = Gamma*_6 * prod_{j=7..d} p/(p-1).
    # Gamma*_6 is the exact worst gain over all 63 subsets u of 1..6, one
    # full cycle each.  B(d) >= Gamma_d by the lemma in upper_bound_u_exact
    # with A = u & 1..6; subsets of 7..d take the leave-one-out bound,
    # below B(d) since Gamma*_6 * 17/16 > 1.
    primes6 = first_primes(6)
    star = max(
        max(gain_curve(u, (0,) * len(u),
                       math.prod(primes6[j - 1] for j in u)))
        for size in range(1, 7)
        for u in itertools.combinations(range(1, 7), size)
    )
    if star != gamma_max(6).gamma:
        problems.append(f"subset sweep Gamma*_6 = {star} differs from gamma_max(6)")
    up6 = float(upper[5])
    if not math.isclose(up6, float(global_bounds_exact(6)[1]), rel_tol=1e-12):
        problems.append(f"d=6 upper {up6} is not 1001/384")
    star_f = float(star)
    d, up, g = dims[5:], upper[5:], guide[5:]
    margins = g - star_f * (up / up6)
    viol = np.flatnonzero(margins < 0)
    if viol.size:
        worst = viol[np.argmin(margins[viol])]  # the first of equal minima, as min() takes
        problems.append(
            f"B(d) > 1.5 + ln(d/2) at {len(viol)} of 999995 dimensions "
            f"(worst d={d[worst]}, excess {-margins[worst]:.4f})"
        )
    closest = np.argmin(margins)
    above = up - g
    top = np.flatnonzero(above == above.max())[-1]  # max() over (up - g, d): the last d on a tie
    _verdict(
        capfd, 6, not problems,
        "; ".join(problems) if problems
        else f"10^6 rows, d=2 exact, monotone; B(d) with Gamma*_6 = "
             f"{star.numerator}/{star.denominator} (63 subsets) stays under "
             f"1.5 + ln(d/2), closest at d={d[closest]} by {margins[closest]:.4f}; "
             f"upper runs above the line by up to {above[top]:.4f} "
             f"(d={d[top]}) [{elapsed:.1f}s]",
    )


_GRID = 1 << 64
# e^gamma = 1.78107241799019798523..., rounded up
EXP_GAMMA_HI = Fraction(17810724179901980, 10**16)


def _ln_bounds(z) -> tuple[Fraction, Fraction]:
    """Rationals lo <= ln z <= hi for z >= 1, rounded outward to 2^-64.

    z = 2^k m with 1 <= m < 2, and ln y = 2 sum_i t^(2i+1)/(2i+1) with
    t = (y-1)/(y+1) <= 1/3 for y = 2 and y = m.  Every term is >= 0, and
    the 20-term sum falls short of ln y by under 2 t^41/(41 (1 - t^2)),
    less than 2^-64, so lo plus (k+1) 2^-64 is above ln z.
    """
    z = Fraction(z)
    k = int(z).bit_length() - 1
    lo = Fraction(0)
    for y, times in ((Fraction(2), k), (z / 2**k, 1)):
        t = (y - 1) / (y + 1)
        lo += times * 2 * sum(t ** (2 * i + 1) / (2 * i + 1) for i in range(20))
    hi = lo + Fraction(k + 1, _GRID)
    return Fraction(math.floor(lo * _GRID), _GRID), Fraction(math.ceil(hi * _GRID), _GRID)


def test_criterion_6_line_past_its_range(capfd):
    # Criterion 6 checks B(d) < 1.5 + ln(d/2) on 6..10^6; this gives every
    # d >= 10^6 (see gains.bounds_table).  B(d) = c prod_{p <= p_d} p/(p-1)
    # with c = Gamma*_6 prod_{p <= 13} (p-1)/p.  By Rosser and Schoenfeld
    # (Illinois J. Math. 6, 1962), (3.13) p_d < x = d (ln d + ln ln d) and
    # (3.30) prod_{p <= x} p/(p-1) < e^gamma ln x (1 + 1/(2 ln^2 x)) for
    # x >= 286, so B(d) < U(d) = c e^gamma (y + 1/(2y)), y = ln x.  Every
    # step below rounds outward, in exact rationals.
    t0 = time.perf_counter()
    assert abs(EXP_GAMMA_HI - Fraction(math.exp(np.euler_gamma))) < Fraction(1, 10**15)
    star = gamma_max(6).gamma
    c = star * math.prod(Fraction(p - 1, p) for p in first_primes(6))
    d = 10**6
    ln_d = _ln_bounds(d)
    ln_ln_d = (_ln_bounds(ln_d[0])[0], _ln_bounds(ln_d[1])[1])
    y = _ln_bounds(d * (ln_d[1] + ln_ln_d[1]))[1]  # y + 1/(2y) grows with y
    bound = c * EXP_GAMMA_HI * (y + 1 / (2 * y))
    line = Fraction(3, 2) + _ln_bounds(Fraction(d, 2))[0]
    # d U/dd <= c e^gamma (1 + (1 + 1/ln d)/(ln d + ln ln d)) / d, and the
    # factor only falls as d grows, while the line grows as 1/d.
    slope = c * EXP_GAMMA_HI * (1 + (1 + 1 / ln_d[0]) / (ln_d[0] + ln_ln_d[0]))
    elapsed = time.perf_counter() - t0
    margin = line - bound
    _verdict(
        capfd, "6 past 10^6", margin > 0 and slope < 1 and elapsed < 2.0,
        f"at d = 10^6, 1.5 + ln(d/2) >= {float(line):.4f} exceeds the Rosser-"
        f"Schoenfeld bound on B(d), <= {float(bound):.4f}, by {float(margin):.4f}; "
        f"the bound's slope is at most {float(slope):.4f} of the line's for "
        f"every d >= 10^6 [{elapsed:.2f}s]",
    )


def test_criterion_7_variance_law(capfd):
    t0 = time.perf_counter()
    reps = 100_000
    f = ((1, 2), (0, 0))
    problems = []
    gains = {}
    for kind in ("nested", "linear"):
        spec = ScrambleSpec(kind, seed=SEED)
        two = rqmc_estimate(*f, 2, reps, spec)
        gains[kind, 2] = two.empirical_gain
        if abs(two.empirical_gain - 1.5) > 0.05:
            problems.append(f"{kind} n=2 gain {two.empirical_gain:.4f}")
        six = rqmc_estimate(*f, 6, reps, spec)
        worst = max(abs(m) for m in six.means)
        if worst > 1e-12:
            problems.append(f"{kind} n=6 replicate mean off zero by {worst:.2e}")
        single = rqmc_estimate(*f, 1, reps, spec)
        gains[kind, 1] = single.empirical_gain
        if abs(single.empirical_gain - 1.0) > 0.05:
            problems.append(f"{kind} n=1 gain {single.empirical_gain:.4f}")
    elapsed = time.perf_counter() - t0
    if elapsed > 120.0:
        problems.append(f"took {elapsed:.1f}s, budget 120s")
    _verdict(
        capfd, 7, not problems,
        problems[0] if problems else (
            f"R=10^5: n=2 gains "
            f"{gains['nested', 2]:.3f}/{gains['linear', 2]:.3f} "
            f"(want 1.5), n=6 means exactly 0, n=1 gains "
            f"{gains['nested', 1]:.3f}/{gains['linear', 1]:.3f} (want 1) "
            f"[{elapsed:.1f}s]"
        ),
    )


def _enumerating_draw(seed, replicate, tag, coordinate, depth, r, bounds):
    """`scramble.draw` over every outcome: with q outcomes of `bounds`, the
    rows of one stream node take outcome replicate % q; of two nodes, the
    first takes replicate // q, so q^2 replicates give every joint outcome."""
    outcomes = np.array(list(itertools.product(*map(range, bounds))), dtype=np.uint64)
    replicate = np.broadcast_to(np.asarray(replicate, dtype=np.uint64), (len(r),))
    nodes, node = np.unique(np.asarray(r), return_inverse=True)
    assert len(nodes) <= 2
    q = np.uint64(len(outcomes))
    first = replicate // q if len(nodes) == 2 else replicate % q
    return outcomes[np.where(node.ravel() == 0, first, replicate % q).astype(np.intp)]


def _kernel_sums(kind: str, coordinate: int, b: int, k: int) -> tuple[np.ndarray, int]:
    """(S, R) with S[i, i'] / R = E[eta(y(i)) eta(y(i'))] for the residues i, i'
    mod b^(k+1), y the scrambled digit k+1 and eta = b [c = b-1] - 1, exactly
    over every outcome of the draws the scramble reads."""
    q = b ** (k + 1)
    x = _index_digits(0, q, b, k + 1)
    eta = np.array([-1] * (b - 1) + [b - 1], dtype=np.int64)
    spec = ScrambleSpec(kind)
    if kind == "linear":  # one stream: diagonal, shift and k matrix entries
        reps = (b - 1) * b ** (k + 1)
        e = eta[scramble.scramble_column(spec, coordinate, b, x, [k], reps)[:, :, 0]]
        return e.T @ e, reps
    reps = math.factorial(b) ** 2  # a pair of points reads at most two nodes
    sums = np.empty((q, q), dtype=np.int64)
    for i, j in itertools.combinations_with_replacement(range(q), 2):
        e = eta[scramble.scramble_column(spec, coordinate, b, x[[i, j]], [k], reps)[:, :, 0]]
        sums[i, j] = sums[j, i] = e[:, 0] @ e[:, 1]
    return sums, reps


def test_criterion_7_exact_variance_law(capfd, monkeypatch):
    # Var(mean) = n^-2 sum_{i,i'} prod_{j in u} E[eta_j(y_j(i)) eta_j(y_j(i'))]:
    # coordinates read distinct streams, so each factor is exact over the
    # outcomes of that coordinate's own draws, fed to the code's scramble
    # maps through `draw`.  Points with distinct nested nodes read distinct
    # streams; the enumeration gives them every joint outcome.  The law
    # Var = G sigma^2 / n must hold as a Fraction for every case.
    t0 = time.perf_counter()
    monkeypatch.setattr(scramble, "draw", _enumerating_draw)
    problems = []
    for b in range(2, 8):  # Fisher-Yates over all b! swap rows: each permutation once
        fact = math.factorial(b)
        tables = scramble._permutations(0, np.arange(fact), 1, b, 0, np.zeros(fact, np.uint64))
        if sorted(map(tuple, tables.tolist())) != list(itertools.permutations(range(b))):
            problems.append(f"Fisher-Yates is no bijection for b = {b}")
    bases = first_primes(3)
    sums = {(kind, j, k): _kernel_sums(kind, j, bases[j - 1], k)
            for kind in ("nested", "linear") for j in (1, 2, 3) for k in (0, 1)}
    n_max, cases = 30, 0
    idx = np.arange(n_max)
    for kind in ("nested", "linear"):
        for u in (v for size in (1, 2, 3) for v in itertools.combinations((1, 2, 3), size)):
            for levels in itertools.product((0, 1), repeat=len(u)):
                pairs = np.ones((n_max, n_max), dtype=object)
                reps = 1
                for j, k in zip(u, levels):
                    s, r = sums[kind, j, k]
                    res = idx % len(s)
                    pairs = pairs * s[np.ix_(res, res)].astype(object)
                    reps *= r
                total = pairs.cumsum(axis=0).cumsum(axis=1)  # total[n-1, n-1]: pairs below n
                sigma2 = math.prod(bases[j - 1] - 1 for j in u)
                for n in range(1, n_max + 1):
                    cases += 1
                    var = Fraction(int(total[n - 1, n - 1]), reps * n * n)
                    want = gain_exact(u, levels, n) * sigma2 / n
                    if var != want:
                        problems.append(f"{kind} u={u} k={levels} n={n}: Var {var}, law {want}")
    elapsed = time.perf_counter() - t0
    if elapsed > 3.0:
        problems.append(f"took {elapsed:.1f}s, budget 3s")
    _verdict(
        capfd, "7 exact", not problems,
        problems[0] if problems else (
            f"Var = G sigma^2/n exactly in {cases} cases: u in {{1,2,3}}, k <= 1, "
            f"n <= {n_max}, nested and linear; Fisher-Yates bijective for b <= 7 "
            f"[{elapsed:.2f}s]"
        ),
    )


def test_criterion_8_strata_balance(capfd):
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    problems = []
    bases = first_primes(3)
    for _ in range(20):
        start = rng.randrange(3_000_000)
        # Digit columns: the index digits, and each scrambled by the call
        # `randomize` makes; the floats of each set come from its own route.
        plain = [_index_digits(start, 450, b, default_precision(b)) for b in bases]
        scrambled = {
            kind: [scramble_column(ScrambleSpec(kind, SEED), c, b, x, range(default_precision(b)))[0]
                   for c, (b, x) in enumerate(zip(bases, plain), start=1)]
            for kind in ("nested", "linear")
        }
        floats = {"plain": halton_points(3, start, 450),
                  **{kind: randomize(3, start, 450, ScrambleSpec(kind, SEED))
                     for kind in scrambled}}
        for levels, window in (((1, 2, 2), 450), ((1, 1, 1), 30)):
            boxes = window
            direct = stratum_counts(3, start, window, levels)
            if len(direct) != boxes or set(direct.values()) != {1}:
                problems.append(f"index tally start={start} levels={levels}")
            occ = stratum_occupancy(plain, bases, levels) if window == 450 else None
            if occ is not None and occ != direct:
                problems.append(f"digit tally differs start={start}")
            for kind, sc in scrambled.items():
                tally: dict[tuple[int, ...], int] = {}
                for key in stratum_index(sc, bases, levels)[:window]:
                    tally[key] = tally.get(key, 0) + 1
                if len(tally) != boxes or set(tally.values()) != {1}:
                    problems.append(
                        f"{kind} start={start} levels={levels} unbalanced"
                    )
            # floor(b^k x), taken exactly from each float, is its digit stratum.
            for kind, columns in (("plain", plain), *scrambled.items()):
                strata = list(zip(*(
                    [b**k * num // den for num, den in map(float.as_integer_ratio, x.tolist())]
                    for x, b, k in zip(floats[kind].T, bases, levels))))
                if strata != stratum_index(columns, bases, levels):
                    problems.append(f"{kind} floats leave their strata start={start} "
                                    f"levels={levels}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, budget 5s")
    _verdict(
        capfd, 8, not problems,
        problems[0] if problems else (
            f"20 offsets: each 450-window fills 450 level-(1,2,2) boxes "
            f"once and each 30-window fills 30 level-(1,1,1) boxes once, "
            f"plain and both scrambles, each float in its digit box [{elapsed:.2f}s]"
        ),
    )
