"""Command-line front end.

Subcommands map one-to-one onto the library: point/prime generation, exact
gain evaluation, worst-case searches, bound tables, variance experiments,
and the stock figures.  Tabular output is CSV with a header row and LF line
endings; structured output is a single JSON object carrying a config echo,
so identical invocations produce identical bytes.

Each subcommand's handler takes the config echo (command, seed, then the
parsed options in argparse order) and the format, runs its argument checks,
and returns its output: a dict for a JSON body, or a lazy iterable of text
that is written as it is produced.  Only then does `dispatch` open --out
and write {"config": echo, **body} or the text, so a refused argument
leaves no file.

Exit codes: 0 on success; 1 on bad arguments, an unwritable --out
included; 2 when an internal consistency check fails: oracle-check's
handler returns 2 with its mismatch report, and a RuntimeError from the
library (for example the two gain routes disagreeing) exits 2.

Importing this module sets the process policy of a CLI run, which is short
and makes no BLAS call.  OpenBLAS gets one thread, unless the user set
OPENBLAS_NUM_THREADS, since its pool of workers costs each process CPU at
start-up.  And the import heap, numpy's above all, is frozen (gc.freeze)
once the imports are done: it lives until the process ends, so every later
collection, the interpreter's last ones at exit included, skips it rather
than walk it again.  It is done here, once per process, and not in `main`,
which may run many times in one process; `import haltongain` and the
library modules set neither.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from typing import Any, Iterable, Sequence

# Set before numpy loads, which the next imports do: numpy's bundled OpenBLAS
# starts a pool of worker threads as it loads, and no command makes a BLAS
# call.  A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import gains, rqmc
from .halton import halton_points
from .primes import first_primes
from .scramble import _HALF, _LOW, ScrambleSpec, _mulhi, randomize

gc.freeze()  # the import heap, which every collection would walk again (see above)

__all__ = ["dispatch", "main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # internal check failures, so remap argument problems to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int(text: str) -> int:
    """An integer in ASCII decimal digits with an optional sign.

    int() also takes underscores, surrounding spaces and non-ASCII digits,
    so '1_0' would read as 10 and a full-width zero as 0.
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past int()'s limit on digits
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(_int(p) for p in text.split(","))
    except argparse.ArgumentTypeError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")


@contextmanager
def _open_out(path: str | None):
    """--out or stdout, where integers of any length are written in full: the
    interpreter's cap on int-to-str digits, where it has one, is lifted until
    the output is written, after every argument has been read under it."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
            yield fh
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


_U = np.uint64
_TINY = 2.0**-36  # below it 10^(16-E) is past 5^27, and Python writes the value


def _tens() -> np.ndarray:
    """The least double >= 10^e for e in -10..15: x has decimal exponent
    E = -11 + (how many of them are <= x) for x in [2^-36, 2^53)."""
    tens = []
    for e in range(-10, 16):
        t = float(Fraction(10) ** e)
        tens.append(t if Fraction(t) >= Fraction(10) ** e else math.nextafter(t, math.inf))
    return np.array(tens)


_TENS = _tens()
# x 10^k = m * _SCALE[k] / 2^(s - _TWOS[k]) for k = 16 - E in 1..27: 10^k itself
# through k = 18, then 5^k with its 2^k moved into the shift, which so stays in 0..62
_SCALE = np.array([10**k if k <= 18 else 5**k for k in range(28)], dtype=np.uint64)
_TWOS = np.array([0 if k <= 18 else k for k in range(28)], dtype=np.uint64)


def _kept(e: int, zeros: int) -> list[bool]:
    """Which of a field's 27 slots %.17g writes, at decimal exponent e when
    the 17 digits end in `zeros` zeros.

    Slots 0..21 hold 4 zeros and the 17 digits with a point after digit
    slot 4 + e, slots 22..25 "e-XX", and slot 26 the separator.  The field
    runs from slot 4 + min(e, 0), so e < 0 gives "0." and -e - 1 zeros,
    through the last nonzero digit or the digit before the point, whichever
    is later; the point is written only when a digit follows it.  Below
    e = -4, %.17g's exponent form, the digits are laid out as at e = 0 and
    "e-XX" follows them.
    """
    exponent = e < -4
    e = 0 if exponent else e
    first, point = 4 + min(e, 0), 5 + e
    last = 21 - zeros if 21 - zeros > point else point - 1
    return ([False] * first + [True] * (last + 1 - first) + [False] * (21 - last)
            + [exponent] * 4 + [True])


# Row 17 * (e + 11) + zeros of _KEEP, and row e + 11 of _POINT (the point's
# slot), _BEFORE_POINT (which of slots 1..20 lie left of it) and, below
# e = -4, _EXPONENT, for e in -11..15 and zeros in 0..16.
_KEEP = np.array([_kept(e, zeros) for e in range(-11, 16) for zeros in range(17)], dtype=bool)
_POINT = np.array([5 + (e if e >= -4 else 0) for e in range(-11, 16)])
_BEFORE_POINT = np.array([[c < point for c in range(1, 21)] for point in _POINT])
_EXPONENT = np.frombuffer(b"".join(b"e-%02d" % -e for e in range(-11, -4)),
                          dtype=np.uint8).reshape(7, 4)


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """For g in 0..9999: "%04d" % g as one native word of four ASCII bytes,
    and how many zeros end those four digits (4 for g = 0)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # row j: 10^(3-j)
    words = np.ascontiguousarray((digits + np.uint8(ord("0"))).T).view(np.uint32).ravel()
    zero = digits == 0
    zeros = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0].astype(np.uint8))))
    return words, zeros


_QUADS, _QUAD_ZEROS = _quad_tables()


def _digits17(m: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """round-half-even(m * 10^(16-e) / 2^s) for m < 2^53, exactly, where m / 2^s
    lies in [2^-36, 2^53) and e is its decimal exponent."""
    k = 16 - e
    p, s = _SCALE[k], s - _TWOS[k]
    hi, lo = _mulhi((p, p >> _HALF, p & _LOW), m), p * m  # the 128-bit product
    q = hi << (_U(63) - s) << _U(1) | lo >> s
    rem2, half2 = (lo & ((_U(1) << s) - _U(1))) << _U(1), _U(1) << s
    return q + ((rem2 > half2) | ((rem2 == half2) & (q & _U(1) == _U(1)))).astype(np.uint64)


def _g17_lines(columns: Sequence[np.ndarray], heads: np.ndarray | None = None) -> str:
    """CSV lines of the columns, every value written as '%.17g' % x writes it,
    and each line led by its entry of `heads`, a bytes array, if given.

    Values must lie in [0, 2^53), where float64 holds every integer exactly,
    so an integer column below 2^53 is written as '%d' writes it.  %.17g
    writes 0 as "0", x >= 1e-4 fixed-point, and smaller x in exponent form,
    d.ddde-XX.  The 17 significant digits of x = m / 2^s (m < 2^53) at
    decimal exponent E are q = round-half-even(m * 10^(16-E) / 2^s), exact
    in 128 bits down to 2^-36 (E >= -11); trailing zeros after the point,
    and then a bare point, are dropped.  The values in (0, 2^-36), which a
    gain num/den reaches only when den passes 2^36, are written by Python's
    own '%.17g'.
    """
    x = np.stack(columns, axis=1).astype(np.float64, copy=False)
    if not np.all(~np.signbit(x) & (x < 2.0**53)):  # -0.0 is refused too
        raise ValueError("the %.17g writer takes values in [0, 2^53)")
    width = x.shape[1]
    x = x.reshape(-1)
    small = np.flatnonzero(x < _TINY)  # 0, and the values Python writes
    y = np.maximum(x, _TINY)
    bits = y.view(np.uint64)
    m = bits & _U((1 << 52) - 1) | _U(1 << 52)
    s = _U(1075) - (bits >> _U(52))
    # q < 10^17: no double in the domain lies within half a unit of its
    # 17th digit below a power of ten, so none rounds up to the next one
    e = np.searchsorted(_TENS, y, side="right") - 11
    q = _digits17(m, s, e)
    q[small], e[small] = 0, 0  # written as "0": 17 zeros at e = 0

    # q's 17 digits in groups of 1 + 4 + 4 + 4 + 4, each written as one
    # table word; the group splits run on 32-bit halves of q
    high = q // _U(10**8)
    low = (q - high * _U(10**8)).astype(np.uint32)
    high = high.astype(np.uint32)
    top = high // np.uint32(10**8)
    groups = (top, *np.divmod(high - top * np.uint32(10**8), np.uint32(10**4)),
              *np.divmod(low, np.uint32(10**4)))
    words = np.empty((len(x), 5), dtype=np.uint32)
    for j, group in enumerate(groups):
        words[:, j] = _QUADS.take(group)
    digits = words.view(np.uint8)  # 3 zeros, then q's digits
    # the zeros that end the last 16 digits; top is 0 only for q = 0, whose
    # first digit the field keeps
    zeros = _QUAD_ZEROS.take(groups[1])
    for group in groups[2:]:
        zeros = _QUAD_ZEROS.take(group) + (group == 0) * zeros
    chars = np.empty((len(x), 27), dtype=np.uint8)
    chars[:, 26] = ord(",")
    chars[width - 1 :: width, 26] = ord("\n")  # after the last field of a row
    # Slots after the point hold digit c - 1 of the 4 zeros and q's digits,
    # the ones before it digit c.
    chars[:, :2] = ord("0")
    chars[:, 2:22] = digits
    lead = chars[:, 1:21]
    lead += _BEFORE_POINT.take(e + 11, axis=0) * (chars[:, 2:22] - lead)  # uint8 wraps back
    chars[np.arange(len(x)), _POINT.take(e + 11)] = ord(".")
    exponent = np.flatnonzero(e < -4)
    chars[exponent, 22:26] = _EXPONENT.take(e[exponent] + 11, axis=0)
    keep = _KEEP.take((e + 11) * 17 + zeros, axis=0)
    tiny = small[x[small] > 0]
    if len(tiny):
        text = np.array(["%.17g" % v for v in x[tiny].tolist()], dtype="S26")
        chars[tiny, :26] = text = text.view(np.uint8).reshape(-1, 26)
        keep[tiny, :26] = text != 0
    chars, keep = chars.reshape(-1, width * 27), keep.reshape(-1, width * 27)
    if heads is not None:
        head = heads.view(np.uint8).reshape(len(heads), -1)
        chars, keep = np.hstack((head, chars)), np.hstack((head != 0, keep))
    return chars[keep].tobytes().decode("ascii")


def _rat(name: str, x: Fraction) -> dict[str, Any]:
    """The fields name, name_num, name_den and name_float of an exact value;
    name holds x itself, which `dispatch` writes as "num/den"."""
    return {name: x, name + "_num": x.numerator,
            name + "_den": x.denominator, name + "_float": float(x)}


def _build_parser() -> _Parser:
    parser = _Parser(prog="haltongain", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, formats: tuple[str, ...]) -> None:
        # The formats the command writes; the first is its default.
        p.add_argument("--seed", type=_int, default=0, help="PRF seed (default 0)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("primes", help="first d prime bases")
    p.add_argument("--d", type=_int, required=True)
    common(p, ("csv", "json"))

    p = sub.add_parser("points", help="consecutive (optionally scrambled) points")
    p.add_argument("--d", type=_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--start", type=_int, default=0)
    p.add_argument("--scramble", choices=("none", "nested", "linear"), default="none")
    p.add_argument("--replicate", type=_int, default=0)
    common(p, ("csv", "json"))

    p = sub.add_parser("gain", help="one exact gain value")
    p.add_argument("--u", required=True, help="coordinate subset, e.g. 1,2")
    p.add_argument("--k", required=True, help="levels aligned with --u, e.g. 0,0")
    p.add_argument("--n", type=_int, required=True)
    common(p, ("csv", "json"))

    p = sub.add_parser("gain-curve", help="gain as a function of n")
    p.add_argument("--u", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--n-max", type=_int, required=True)
    common(p, ("csv", "json"))

    p = sub.add_parser("gamma", help="worst gain over all n for u = 1..d")
    p.add_argument("--d", type=_int, required=True)
    p.add_argument("--n-cap", type=_int, default=None)
    common(p, ("json",))

    p = sub.add_parser("bounds", help="dimension sandwich table")
    p.add_argument("--d-max", type=_int, required=True)
    common(p, ("csv",))

    p = sub.add_parser("variance", help="replicated variance experiment")
    p.add_argument("--u", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--reps", type=_int, required=True)
    p.add_argument("--scramble", choices=("nested", "linear"), default="nested")
    common(p, ("json",))

    p = sub.add_parser("oracle-check", help="closed form vs brute force grid")
    p.add_argument("--d", type=_int, default=3)
    p.add_argument("--n-max", type=_int, default=90)
    p.add_argument("--k-max", type=_int, default=1)
    common(p, ("text",))

    p = sub.add_parser("figure", help="data behind the stock figures")
    p.add_argument("which", choices=("1", "2", "3"))
    p.add_argument("--d-max", type=_int, default=1_000_000, help="figure 1 range")
    p.add_argument("--n-max", type=_int, default=1000, help="figure 3 range")
    common(p, ("csv",))

    return parser


def _cmd_primes(echo: dict[str, Any], fmt: str) -> dict[str, Any] | Iterable[str]:
    primes = first_primes(echo["d"])
    if fmt == "json":
        return {"d": len(primes), "primes": list(primes)}
    rows = ("%d,%d\n" % row for row in enumerate(primes, start=1))
    return itertools.chain(["j,prime\n"], rows)


def _cmd_points(echo: dict[str, Any], fmt: str) -> dict[str, Any] | Iterable[str]:
    d, n, start = echo["d"], echo["n"], echo["start"]
    kind, replicate = echo["scramble"], echo["replicate"]
    if kind == "none":
        points = halton_points(d, start, n)
    else:
        points = randomize(d, start, n, ScrambleSpec(kind, echo["seed"], replicate))
    if fmt == "json":
        return {"start": start, "n": n,
                "points": [[format(x, ".17g") for x in row] for row in points.coords.tolist()]}
    head = []
    if kind != "none":
        # randomized runs carry their key in the header for replay
        head.append("# config: " + json.dumps(echo) + "\n")
    head.append(",".join(["i"] + [f"x{j}" for j in range(1, d + 1)]) + "\n")
    line = "%d" + ",%.17g" * d + "\n"
    blocks = np.split(points.coords, range(1 << 12, n, 1 << 12))
    rows = enumerate(itertools.chain.from_iterable(map(np.ndarray.tolist, blocks)), start)
    return itertools.chain(head, (line % (i, *row) for i, row in rows))


def _subset_args(echo: dict[str, Any]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """--u and --k; the library checks the subset."""
    return _parse_ints(echo["u"], "--u"), _parse_ints(echo["k"], "--k")


def _cmd_gain(echo: dict[str, Any], fmt: str) -> dict[str, Any] | Iterable[str]:
    u, k = _subset_args(echo)
    g = gains.gain_exact(u, k, echo["n"])
    if fmt == "json":
        return _rat("gain", g)
    row = (echo["n"], g.numerator, g.denominator, float(g))
    lines = ("%d,%d,%d,%.17g\n" % r for r in [row])  # formatted as it is written
    return itertools.chain(["n,gain_num,gain_den,gain_float\n"], lines)


def _gain_columns(num: np.ndarray, den: np.ndarray) -> tuple[list, list, list]:
    """Numerators, denominators and floats of a gain curve, as Python numbers.

    Each float is the Python-int quotient, which rounds correctly and so
    equals float(Fraction(num, den)).
    """
    nums, dens = num.tolist(), den.tolist()
    return nums, dens, [a / b for a, b in zip(nums, dens)]


def _cmd_gain_curve(echo: dict[str, Any], fmt: str) -> dict[str, Any] | Iterable[str]:
    u, k = _subset_args(echo)
    n_max = echo["n_max"]
    if fmt == "json":
        columns = _gain_columns(*gains._gain_curve_arrays(u, k, n_max))
        return {"gains": [{"n": n, "num": a, "den": b, "float": f}
                          for n, a, b, f in zip(range(1, n_max + 1), *columns)]}
    rows = _curve_rows([("", u, k, 0)], n_max, by_n=False)
    return itertools.chain(["n,gain_num,gain_den,gain_float\n"], rows)


def _cmd_gamma(echo: dict[str, Any], fmt: str) -> dict[str, Any]:
    d = echo["d"]
    summary = gains.gamma_max(d, n_cap=echo["n_cap"])
    return {"d": d, **_rat("gamma", summary.gamma), "argmax_n": summary.argmax_n,
            "lower_bound": float(summary.lower), "upper_bound": float(summary.upper)}


def _cmd_bounds(echo: dict[str, Any], fmt: str) -> Iterable[str]:
    blocks = gains.bounds_table(echo["d_max"])
    first = next(blocks)  # runs the table's argument checks before --out opens
    # d, below 2^53, writes as "%d" does
    lines = map(_g17_lines, itertools.chain((first,), blocks))
    return itertools.chain(["d,lower,upper,guide\n"], lines)


def _cmd_variance(echo: dict[str, Any], fmt: str) -> dict[str, Any]:
    u, k = _subset_args(echo)
    n, reps = echo["n"], echo["reps"]
    kind = echo["scramble"]
    expected = gains.gain_exact(u, k, n)
    summary = rqmc.rqmc_estimate(u, k, n, reps, ScrambleSpec(kind, echo["seed"]))
    gap = summary.empirical_gain - float(expected)
    z = gap / summary.gain_se if summary.gain_se > 0 else 0.0
    return {"n": n, "R": reps, "mean": summary.mean, "var": summary.variance,
            "sigma2": summary.sigma2, "empirical_gain": summary.empirical_gain,
            "expected_gain_num": expected.numerator,
            "expected_gain_den": expected.denominator, "z_score": z}


def _cmd_oracle_check(echo: dict[str, Any], fmt: str) -> list[str] | tuple[list[str], int]:
    d, n_max, k_max = echo["d"], echo["n_max"], echo["k_max"]
    mismatches = gains.oracle_check(d, n_max, k_max)
    if mismatches:
        lines = [
            f"MISMATCH u={u} k={k} n={n}: closed form {a}, brute {b}\n"
            for u, k, n, a, b in mismatches
        ]
        return lines + [f"{len(mismatches)} disagreements\n"], 2
    return [
        f"closed form and brute force agree for d={d}, "
        f"levels <= {k_max}, n <= {n_max}\n"
    ]


_FIG2_LEVELS = ((0, 0), (0, 1), (1, 0), (1, 1))
_FIGURE_HEAD = "u,k,n,gain_num,gain_den,gain_float\n"


def _csv_field(values) -> str:
    # csv.writer quotes a field that holds the delimiter
    text = ",".join(map(str, values))
    return f'"{text}"' if "," in text else text


def _label(u, levels) -> str:
    """The u and k fields that lead a figure row, with their separators."""
    return _csv_field(u) + "," + _csv_field(levels) + ","


_ROW_BLOCK = 1 << 12  # rows per block of a curve table


def _curve_rows(curves, n_max: int, by_n: bool) -> Iterable[str]:
    """CSV rows "label n,num,den,gain" of each (label, u, levels, start) curve
    at start < n <= n_max.

    Curve by curve, or, with by_n, count by count with the curves in the
    order given.  The curves are evaluated first, so a refused one stops the
    command before --out opens.  While every numerator and denominator is
    below 2^53 they are stacked int64 arrays, each gain is one float64
    division num / den, correctly rounded from exact operands as the
    Python-int quotient is, and _g17_lines writes the rows 2^12 at a time.
    Past 2^53, Python-int arrays included, each row is formatted from Python
    ints on its own: the one route for that input.
    """
    arrays = [gains._gain_curve_arrays(u, k, n_max) for _, u, k, _ in curves]
    if any(num.dtype == object or max(num.max(), den.max()) >= 1 << 53 for num, den in arrays):
        cols = [(label, start, *_gain_columns(num, den))
                for (label, _, _, start), (num, den) in zip(curves, arrays)]
        counts = range(1, n_max + 1)
        if by_n:
            order = ((n, c) for n in counts for c in cols)
        else:
            order = ((n, c) for c in cols for n in counts)
        return (
            "%s%d,%d,%d,%.17g\n" % (label, n, nums[n - 1], dens[n - 1], floats[n - 1])
            for n, (label, start, nums, dens, floats) in order
            if start < n
        )
    labels = np.array([label.encode() for label, *_ in curves], dtype="S")
    num = np.array([num for num, _ in arrays], dtype=np.int64).reshape(-1, n_max)
    den = np.array([den for _, den in arrays], dtype=np.int64).reshape(-1, n_max)
    starts = np.array([start for *_, start in curves], dtype=np.int64)
    counts = np.arange(1, n_max + 1)
    kept = counts[:, None] > starts if by_n else counts > starts[:, None]
    rows = np.flatnonzero(kept)

    def blocks() -> Iterable[str]:
        for first in range(0, len(rows), _ROW_BLOCK):
            i = rows[first : first + _ROW_BLOCK]
            n, c = np.divmod(i, len(curves)) if by_n else np.divmod(i, n_max)[::-1]
            a, b = num[c, n], den[c, n]
            yield _g17_lines((n + 1, a, b, a / b), labels[c])

    return blocks()


def _cmd_figure(echo: dict[str, Any], fmt: str) -> Iterable[str]:
    which = echo["which"]
    if which == "1":
        return _cmd_bounds(echo, fmt)
    if which == "2":
        curves = [(_label((1, 2), levels), (1, 2), levels, 0) for levels in _FIG2_LEVELS]
        return itertools.chain([_FIGURE_HEAD], _curve_rows(curves, 36, by_n=False))
    n_max = echo["n_max"]
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    bases = first_primes(3)
    levels_below = range((n_max - 1).bit_length())  # 2^k < n_max bounds every level
    curves = []
    subsets = (u for size in (1, 2, 3) for u in itertools.combinations((1, 2, 3), size))
    for u in subsets:  # by |u|, then u, then levels: the rows' order
        for levels in itertools.product(levels_below, repeat=len(u)):
            cell = math.prod(bases[j - 1] ** k for j, k in zip(u, levels))
            if cell < n_max:  # the curve only starts once a full level cell fits below n
                curves.append((_label(u, levels), u, levels, cell))
    return itertools.chain([_FIGURE_HEAD], _curve_rows(curves, n_max, by_n=True))


_HANDLERS = {
    "primes": _cmd_primes,
    "points": _cmd_points,
    "gain": _cmd_gain,
    "gain-curve": _cmd_gain_curve,
    "gamma": _cmd_gamma,
    "bounds": _cmd_bounds,
    "variance": _cmd_variance,
    "oracle-check": _cmd_oracle_check,
    "figure": _cmd_figure,
}


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse argv, run one subcommand and write its output; returns the exit code."""
    args = _build_parser().parse_args(argv)
    opts = vars(args)
    command = opts.pop("command")
    seed = opts.pop("seed")
    fmt = opts.pop("format")
    out = opts.pop("out")
    if seed < 0 or seed >= 1 << 64:
        raise ValueError("--seed must fit in 64 bits")
    echo = {"command": command, "seed": seed, **opts}
    body = _HANDLERS[command](echo, fmt)
    body, code = body if isinstance(body, tuple) else (body, 0)
    with _open_out(out) as fh:
        if isinstance(body, dict):
            fh.write(json.dumps({"config": echo, **body},
                                default=lambda x: f"{x.numerator}/{x.denominator}") + "\n")
        else:
            fh.writelines(body)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return dispatch(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:
        return 0
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"haltongain: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"haltongain: internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
