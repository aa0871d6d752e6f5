"""Output checks for every benchmark operation, written apart from the package.

Nothing here imports haltongain.  Gains come from the paper's closed form or
from the defining pair sum, points from digit reversal, bounds from a numpy
sieve and ``math.fsum``.  A check returns None when the output is right and a
one-line reason when it is not; the runner counts any reason as a failed op.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

# Worst level-0 gain over all n for u = 1..d, with its smallest argmax
# (Owen & Pan, arXiv:2308.08035; d = 7 is also frozen in the test suite).
FROZEN_GAMMA = {
    5: (Fraction(15249, 6776), 847),
    6: (Fraction(1548299, 637056), 11060),
    7: (Fraction(4210265, 1633632), 187187),
}

REL_TOL = 1e-12  # bounds rows: far above fsum-vs-Kahan rounding, far below a row shift


def primes(count: int) -> list[int]:
    """The first `count` primes, by a plain numpy sieve."""
    limit = 16
    if count >= 6:
        x = float(count)
        limit = int(x * (math.log(x) + math.log(math.log(x)))) + 16
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    found = np.flatnonzero(flags)[:count]
    if len(found) < count:
        raise ValueError(f"sieve limit {limit} too small for {count} primes")
    return found.tolist()


def pair_count(m: int, n: int) -> int:
    """Index pairs in [0, n)^2 that agree modulo m."""
    q, r = divmod(n, m)
    return r * (q + 1) ** 2 + (m - r) * q * q


def closed_form_gain(bases: tuple[int, ...], levels: tuple[int, ...], n: int) -> Fraction:
    """G_{u,k}(n) = sum_v H_v C(m_v, n) / (n prod (b-1)), exact."""
    total = 0
    for pick in product((0, 1), repeat=len(bases)):
        h, m = 1, 1
        for inside, b, k in zip(pick, bases, levels):
            h *= b if inside else -1
            m *= b ** (k + inside)
        total += h * pair_count(m, n)
    return Fraction(total, n * math.prod(b - 1 for b in bases))


def pair_sum_gain(bases: tuple[int, ...], levels: tuple[int, ...], n: int) -> Fraction:
    """G_{u,k}(n) from its defining double sum over index pairs (small n)."""
    i = np.arange(n, dtype=np.int64)
    diff = i[:, None] - i[None, :]
    w = np.ones((n, n), dtype=np.int64)
    for b, k in zip(bases, levels):
        w *= b * (diff % b ** (k + 1) == 0) - (diff % b**k == 0)
    return Fraction(int(w.sum()), n * math.prod(b - 1 for b in bases))


def _json(path: Path):
    try:
        return json.loads(path.read_text())
    except (ValueError, UnicodeDecodeError) as exc:
        return f"output is not JSON: {exc}"


def _ratio(doc: dict, num: str, den: str) -> Fraction:
    return Fraction(int(doc[num]), int(doc[den]))


def check_gamma(path: Path, d: int, n_cap: int | None, probes: list[int]) -> str | None:
    """gamma output: frozen value (full search) or closed form (capped)."""
    doc = _json(path)
    if isinstance(doc, str):
        return doc
    if doc.get("d") != d:
        return f"gamma reports d={doc.get('d')}, asked {d}"
    g, n = _ratio(doc, "gamma_num", "gamma_den"), int(doc["argmax_n"])
    bases = tuple(primes(d))
    zeros = (0,) * d
    if n_cap is None:
        if (g, n) != FROZEN_GAMMA[d]:
            want, at = FROZEN_GAMMA[d]
            return f"gamma d={d}: {g} at n={n}, frozen {want} at n={at}"
        return None
    if not 1 <= n <= n_cap:
        return f"gamma d={d}: argmax {n} outside 1..{n_cap}"
    at_argmax = closed_form_gain(bases, zeros, n)
    if g != at_argmax:
        return f"gamma d={d}: reports {g} at n={n}, closed form gives {at_argmax}"
    for m in probes:
        if closed_form_gain(bases, zeros, m) > g:
            return f"gamma d={d}: gain at n={m} exceeds the reported maximum"
    return None


def check_oracle(path: Path) -> str | None:
    text = path.read_text()
    if "agree" not in text or "MISMATCH" in text:
        return f"oracle-check reported: {text.strip()[:120]}"
    return None


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def figure3_row_count(n_max: int) -> int:
    """Rows of figure 3: every nonempty u in 1..3, every level vector with
    prod b^k < n_max, and every n with prod b^k < n <= n_max."""
    bases = (2, 3, 5)
    total = 0
    for pick in product((0, 1), repeat=3):
        sub = [b for b, inside in zip(bases, pick) if inside]
        if not sub:
            continue
        cells = [1]
        for b in sub:
            cells = [c * b**k for c in cells for k in range(40) if c * b**k < n_max]
        total += sum(n_max - c for c in cells)
    return total


def check_figure3(path: Path, n_max: int, rng: random.Random, samples: int) -> str | None:
    rows = _csv_rows(path)
    want = figure3_row_count(n_max)
    if len(rows) != want:
        return f"figure 3 has {len(rows)} rows, expected {want}"
    bases = {1: 2, 2: 3, 3: 5}
    for row in rng.sample(rows, min(samples, len(rows))):
        u = tuple(int(j) for j in row["u"].split(","))
        k = tuple(int(x) for x in row["k"].split(","))
        n = int(row["n"])
        g = closed_form_gain(tuple(bases[j] for j in u), k, n)
        got = Fraction(int(row["gain_num"]), int(row["gain_den"]))
        if got != g or float(row["gain_float"]) != float(g):
            return f"figure 3 row u={u} k={k} n={n}: {got}, expected {g}"
    return None


class BoundsReference:
    """Log-space sums of the dimension sandwich, for sampled rows."""

    def __init__(self, d_max: int) -> None:
        ps = primes(d_max)
        self.lo_logs = [math.log1p(1.0 / p) for p in ps]
        self.hi_logs = [-math.log1p(-1.0 / p) for p in ps]

    def row(self, d: int) -> tuple[float, float, float]:
        guide = 1.5 + math.log(d / 2.0)
        if d == 1:
            return 1.0, 1.0, guide
        lower = 0.75 * math.exp(math.fsum(self.lo_logs[:d]))
        upper = 0.5 * math.exp(math.fsum(self.hi_logs[:d]))
        return lower, upper, guide


def check_bounds(path: Path, d_max: int, ref: BoundsReference, picks: list[int]) -> str | None:
    """Every row labelled with its d and the row count, then sampled rows
    (always d = 1, 2 and d_max) against fsum."""
    wanted = set(picks) | {1, 2, d_max}
    seen = 0
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        if header != ["d", "lower", "upper", "guide"]:
            return f"bounds header is {header}"
        for d, line in enumerate(fh, start=1):
            seen = d
            label, _, rest = line.partition(",")
            if label != str(d):
                return f"bounds row {d} is labelled d={label}"
            if d not in wanted:
                continue
            got = [float(x) for x in rest.split(",")]
            if len(got) != 3:
                return f"bounds row {d} has {len(got) + 1} fields"
            for name, g, w in zip(("lower", "upper", "guide"), got, ref.row(d)):
                if not math.isclose(g, w, rel_tol=REL_TOL):
                    return f"bounds d={d} {name}: {g!r}, fsum gives {w!r}"
    if seen != d_max:
        return f"bounds has {seen} rows, expected {d_max}"
    return None


def radical_inverses(count: int, base: int) -> np.ndarray:
    """Float radical inverses of 0..count-1, correctly rounded."""
    i = np.arange(count, dtype=np.int64)
    num = np.zeros(count, dtype=np.int64)
    den = 1
    while den <= count:  # every index below count has fewer digits than this
        i, a = np.divmod(i, base)
        num = num * base + a
        den *= base
    return num.astype(np.float64) / float(den)


def _points(path: Path, d: int, n: int):
    doc = _json(path)
    if isinstance(doc, str):
        return doc
    rows = doc.get("points")
    if doc.get("start") != 0 or doc.get("n") != n or len(rows) != n:
        return f"points output holds {len(rows)} rows from {doc.get('start')}, asked {n} from 0"
    if any(len(r) != d for r in rows):
        return f"points rows are not all {d} wide"
    return [[float(x) for x in r] for r in rows]


def check_plain_points(path: Path, d: int, n: int) -> str | None:
    """Unscrambled points equal the radical inverses exactly."""
    pts = _points(path, d, n)
    if isinstance(pts, str):
        return pts
    got = np.array(pts, dtype=np.float64)
    for c, b in enumerate(primes(d)):
        bad = np.flatnonzero(got[:, c] != radical_inverses(n, b))
        if len(bad):
            i = int(bad[0])
            return f"point {i} coordinate {c + 1} is {got[i, c]!r}, radical inverse differs"
    return None


def check_scrambled_points(path: Path, d: int, n: int) -> str | None:
    """Every coordinate in [0,1); every level k with b^k <= n equally filled.

    A digit scramble permutes level-k intervals, so over the first m*b^k
    points of the sequence each of the b^k intervals holds exactly m.
    """
    pts = _points(path, d, n)
    if isinstance(pts, str):
        return pts
    for c, b in enumerate(primes(d)):
        col = [p[c] for p in pts]
        if not all(0.0 <= x < 1.0 for x in col):
            return f"coordinate {c + 1} leaves [0,1)"
        ratios = [x.as_integer_ratio() for x in col]
        k, cells = 1, b
        while cells <= n:
            m = n // cells
            counts = np.bincount(
                [num * cells // den for num, den in ratios[: m * cells]], minlength=cells
            )
            if counts.min() != m or counts.max() != m:
                return f"coordinate {c + 1} level {k}: intervals hold {counts.min()}..{counts.max()}, not {m}"
            k, cells = k + 1, cells * b
    return None


def check_variance(path: Path, u: tuple[int, ...], k: tuple[int, ...], n: int, reps: int) -> str | None:
    """Exact expected gain from the pair sum, and |z| <= 5."""
    doc = _json(path)
    if isinstance(doc, str):
        return doc
    if doc.get("n") != n or doc.get("R") != reps:
        return f"variance echoes n={doc.get('n')} R={doc.get('R')}, asked n={n} R={reps}"
    ps = primes(max(u))
    want = pair_sum_gain(tuple(ps[j - 1] for j in u), k, n)
    got = _ratio(doc, "expected_gain_num", "expected_gain_den")
    if got != want:
        return f"variance expected gain {got}, pair sum gives {want}"
    z = float(doc["z_score"])
    if not abs(z) <= 5.0:
        return f"variance z = {z}"
    return None
