"""Command-line surface: formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import haltongain.cli as cli
import haltongain.gains as gains
from haltongain import bounds_table, first_primes, gain_curve, gain_exact
from haltongain.cli import _g17_lines, main

# sha256 of outputs built from exact integer digits with one correctly
# rounded division per coordinate, or (variance) from IEEE products summed
# by the correctly rounded math.fsum, so the bytes are the same on every
# platform; a change to any of them is a change of behaviour.
PINNED = {
    ("points", "--d", "6", "--n", "200", "--scramble", "linear", "--seed", "7",
     "--replicate", "3", "--format", "json"):
        "2ebf57a6b84c2765fd334241aaf379f87554659547a47818f26e22615a351cba",
    ("points", "--d", "8", "--n", "200"):
        "90fd9b2e2e70a6e50711449c4f9f6ba9951f72bd233d6ef8f82cd4e9f5512a56",
    ("points", "--d", "3", "--n", "300", "--scramble", "nested", "--seed", "7",
     "--replicate", "3", "--format", "json"):
        "09551bb14e918be6d155f12af6f1cfda87608942e3628c637be8b78f0547d1b4",
    # the last 64-bit index: the 1 - 2^-53 clamp and the Python-int float path
    ("points", "--d", "2", "--n", "3", "--start", "18446744073709551613"):
        "125f2a72486ab8409f25501c0fd1bba922bb33b9e0e2f03169598e5433ffaf14",
    ("points", "--d", "2", "--n", "3", "--start", "18446744073709551613",
     "--scramble", "nested"):
        "8736a680c979477f265709602e380c9e7513121075d65f3136a2db534f144606",
    ("figure", "3", "--n-max", "60"):
        "da678030594ccacbab31de3d90f922f3b54a194ddd08f716d57572114594aa28",
    ("figure", "3", "--n-max", "400"):
        "377884ad931da870393283cba6d1d6993dc5e86c5c797ea2fbef192f0b702595",
    ("figure", "2"):
        "a9595fb50bb5d30ff63434bad501d5d9db7119e05c1da966a052544fc5330109",
    ("gain-curve", "--u", "1,2,3", "--k", "1,0,1", "--n-max", "300"):
        "b7cdfeaccd40a11be9e457adbedfdc111126461be952e277060f1a612130077d",
    ("gain-curve", "--u", "1,2,3", "--k", "1,0,1", "--n-max", "300",
     "--format", "json"):
        "dc3e303eecb14a02dc79d68bcfa2468babb2147521f5ea22e99e2635077b165e",
    ("variance", "--u", "1,2,3", "--k", "1,1,0", "--n", "50", "--reps", "300",
     "--scramble", "nested", "--seed", "7"):
        "ae9bbe02517febfe9200db0efae32d1b7a41e15ed0cb8cf67c44eb0ccf41fa5a",
    ("variance", "--u", "1,3", "--k", "2,1", "--n", "40", "--reps", "300",
     "--scramble", "linear", "--seed", "7"):
        "8d083d4b1168eeec787487560b734643b3857329f5c53b1d732ce2deed569e1a",
    ("primes", "--d", "1000"):
        "63b718c0735d469b1bea6c08ab27de45af71457093a8f03cac1b05c1bfa0788b",
    ("gain", "--u", "1,2,3", "--k", "0,1,0", "--n", "100000"):
        "0cbf3a4402a4206f6c8e4e8f0d315f0c863097a4a74ae5d0926d8de0cc593ec2",
    # one row past the first block of 2^11 rows; the hash of the 2^14-row blocks
    ("bounds", "--d-max", "2049"):
        "ba4b45c5a49f3f5dd2ccf10460362396be1fc1eba3f6ceb6fccc8e509e846a28",
    ("gamma", "--d", "5"):
        "661fabba00968cbfbbe69ce787dbe99b1d69a1af0b66c66c5eb28244fbba4cd7",
    ("gain", "--u", "1,2", "--k", "0,1", "--n", "7", "--format", "json"):
        "57bfd04bcc500dc1f3e5d12c2072697ad14e00bb3a894bcf4b31bf56533526c6",
    ("primes", "--d", "5", "--format", "json"):
        "a552b3006adc1cedede95def0efe635385e9e0c75792239ae5a37516b9064b0e",
    # a scrambled CSV, whose first line is the "# config:" echo
    ("points", "--d", "3", "--n", "20", "--scramble", "linear", "--seed", "7"):
        "046c68bc0330e4d004871f3e06658a92c6bf80a4847331db5128b57a99a80505",
    ("oracle-check", "--d", "2", "--n-max", "30"):
        "f2491719e73478508eeef8346f2266b500f961593b434883927b954925a6223d",
    ("figure", "1", "--d-max", "50"):
        "c0f9fe4e7c5a71548f187d6ce0cca9185d85cccfa3625d88ddd69e8b59a5be52",
    ("gamma", "--d", "7"):
        "35736dcfa5cc50f5eba8e54227b1391d47f7f30eb7baa7460623eb13bbcc0533",
    ("gamma", "--d", "8"):
        "b5170f1bf1d473fd48f585102e70a2ff49ae88a5a9de2f7e1cafaadd15befab3",
    # caps between half a cycle and a full one: P = 30030 and 9699690
    ("gamma", "--d", "6", "--n-cap", "20000"):
        "6813c302bbe2c82fa67b9f9538fbcb32989816ea4c9390f9938f738d41d5bbf4",
    ("gamma", "--d", "8", "--n-cap", "5000000"):
        "e753e667915e3085effc08e40df6abb09225339e80d60d8b2816999fce5a2a98",
    # the benchmark's plain command
    ("points", "--d", "8", "--n", "3000", "--format", "json"):
        "1c83f5d460fbdd9680a5dc00df9b9146c8db77b8fef54196e75d30f9f5379506",
    # start 3^40 - 20: base-3 indices cross 3^40, so their prefixes gain a digit
    ("points", "--d", "5", "--n", "40", "--start", "12157665459056928781",
     "--scramble", "linear", "--seed", "7", "--format", "json"):
        "514af3739da26f0b76c0744853047aed385992c6ee00ed2fee9e68c55aa2143f",
    ("points", "--d", "5", "--n", "40", "--start", "12157665459056928781",
     "--scramble", "nested", "--seed", "7", "--format", "json"):
        "0dbc04180e11f51642e104b11eaaea3ab5f2b7767de2ce7ea68ba6f904baeed7",
}


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_primes_csv(capsys):
    code, out = run(capsys, "primes", "--d", "4")
    assert code == 0
    assert out.splitlines() == ["j,prime", "1,2", "2,3", "3,5", "4,7"]


def test_primes_json(capsys):
    code, out = run(capsys, "primes", "--d", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["primes"] == [2, 3, 5]
    assert data["config"]["command"] == "primes"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "primes.csv"
    code, out = run(capsys, "primes", "--d", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1] == "1,2"


def test_unwritable_out_refused(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert main(["primes", "--d", "3", "--out", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("haltongain: error: ") and "No such file or directory" in err


def test_points_plain(capsys):
    code, out = run(capsys, "points", "--d", "2", "--n", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "i,x1,x2"
    assert lines[1].startswith("0,0,0")
    assert lines[2].split(",")[1] == "0.5"
    assert len(lines) == 4


def test_points_scrambled_header_and_determinism(capsys):
    args = ("points", "--d", "3", "--n", "5", "--scramble", "nested",
            "--seed", "11")
    code, first = run(capsys, *args)
    assert code == 0
    assert first.startswith("# config: ")
    echo = json.loads(first.splitlines()[0].removeprefix("# config: "))
    assert echo["seed"] == 11 and echo["scramble"] == "nested"
    _, second = run(capsys, *args)
    assert first == second
    _, other = run(capsys, "points", "--d", "3", "--n", "5", "--scramble",
                   "nested", "--seed", "12")
    assert first != other


def test_points_scramble_changes_values(capsys):
    _, plain = run(capsys, "points", "--d", "2", "--n", "4")
    _, scrambled = run(capsys, "points", "--d", "2", "--n", "4",
                       "--scramble", "linear")
    assert plain.splitlines()[1:] != scrambled.splitlines()[2:]


def test_gain_csv_default(capsys):
    code, out = run(capsys, "gain", "--u", "1,2", "--k", "0,0", "--n", "2")
    assert code == 0
    assert out == "n,gain_num,gain_den,gain_float\n2,3,2,1.5\n"


def test_gain_json(capsys):
    code, out = run(capsys, "gain", "--u", "1,2,3", "--k", "0,0,0", "--n", "2",
                    "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert (data["gain_num"], data["gain_den"]) == (7, 8)


def test_gain_curve_matches_library(capsys):
    code, out = run(capsys, "gain-curve", "--u", "1,2", "--k", "1,0",
                    "--n-max", "12")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "n,gain_num,gain_den,gain_float"
    assert len(lines) == 13
    for row in lines[1:]:
        n, num, den, _ = row.split(",")
        want = gain_exact((1, 2), (1, 0), int(n))
        assert Fraction(int(num), int(den)) == want


@pytest.mark.parametrize("d", [13, 15, 16, 25])
def test_gain_curve_floats_match_fractions(capsys, d):
    # d = 13: numerators and denominators below 2^53, divided in float64;
    # d = 15: int64 but above 2^53, divided as Python ints; d = 16 and 25:
    # n * denom beyond int64, so Python ints throughout.  Every gain is
    # gain_exact's and every float is float(Fraction(num, den)).
    u = ",".join(str(j) for j in range(1, d + 1))
    code, out = run(capsys, "gain-curve", "--u", u, "--k", ",".join("0" * d),
                    "--n-max", "60")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 60
    for n, num, den, flt in rows:
        g = Fraction(int(num), int(den))
        assert g == gain_exact(range(1, d + 1), (0,) * d, int(n))
        assert flt == format(float(g), ".17g")
    assert (max(int(r[2]) for r in rows) >= 1 << 53) == (d > 13)


def test_exact_values_of_any_length(capsys):
    # G at u = 1..1500, n = 5 has terms of over 4300 digits, past Python's
    # default int-to-str limit: the CSV and JSON outputs write them in full,
    # the CLI restores the limit after, and an --n that long is still refused.
    u = range(1, 1501)
    flags = ["--u", ",".join(map(str, u)), "--k", ",".join("0" * 1500)]
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    outs = [run(capsys, "gain", *flags, "--n", "5", *fmt) for fmt in ((), ("--format", "json"))]
    outs.append(run(capsys, "gain-curve", *flags, "--n-max", "3"))
    if cap:
        assert sys.get_int_max_str_digits() == cap
        assert main(["gain", "--u", "1", "--k", "0", "--n", "9" * 4301]) == 1
        assert "invalid int value" in capsys.readouterr().err
        sys.set_int_max_str_digits(0)
    try:
        (code, csv_out), (json_code, json_out), (curve_code, curve_out) = outs
        assert code == json_code == curve_code == 0
        g = gain_exact(u, (0,) * 1500, 5)
        assert len(str(g.denominator)) > 4300
        assert csv_out.splitlines()[1] == f"5,{g.numerator},{g.denominator},{float(g):.17g}"
        data = json.loads(json_out)
        assert data["gain"] == f"{g.numerator}/{g.denominator}"
        assert (data["gain_num"], data["gain_den"]) == (g.numerator, g.denominator)
        rows = [line.split(",") for line in curve_out.splitlines()[1:]]
        curve = gains.gain_curve(u, (0,) * 1500, 3)
        assert [Fraction(int(a), int(b)) for _, a, b, _ in rows] == curve
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def test_gamma_json(capsys):
    code, out = run(capsys, "gamma", "--d", "2")
    data = json.loads(out)
    assert code == 0
    assert (data["gamma_num"], data["gamma_den"], data["argmax_n"]) == (3, 2, 2)
    assert data["lower_bound"] == data["upper_bound"] == 1.5


def test_gamma_int64_bound_is_the_only_limit(capsys):
    # Moduli past 2^127 stop no search, and d has no bound of its own below
    # 10000: the term budget refuses d = 31 in full, and d = 64 at n = 1
    # keeps no term and answers 1.  (d = 10^7 is checked in test_gains,
    # where a regression fails fast instead of sieving.)
    code, out = run(capsys, "gamma", "--d", "30", "--n-cap", "10")
    data = json.loads(out)
    assert (code, data["d"], data["argmax_n"]) == (0, 30, 2)
    n = math.prod(first_primes(31)) // 2
    message = (f"haltongain: error: more than {1 << 18} gain terms with m_v < n = {n} "
               f"for |u| = 31; lower n or |u|\n")
    assert main(["gamma", "--d", "31"]) == 1
    assert capsys.readouterr() == ("", message)
    code, out = run(capsys, "gamma", "--d", "64", "--n-cap", "1")
    data = json.loads(out)
    assert (code, data["gamma"], data["argmax_n"]) == (0, "1/1", 1)
    # nor does |u| = 31 stop a gain: its terms m = 1, 2, 3 below n = 5 give
    # T(5) = 4
    u = ",".join(map(str, range(1, 32)))
    code, out = run(capsys, "gain", "--u", u, "--k", ",".join("0" * 31), "--n", "5")
    denom = math.prod(b - 1 for b in first_primes(31))
    g = Fraction(5 * denom + 8, 5 * denom)
    assert (code, out.splitlines()[1]) == (0, f"5,{g.numerator},{g.denominator},1")


@pytest.mark.parametrize("d", [26, 30])
def test_gain_past_the_modulus_range_matches_bruteforce(capsys, d):
    # prod b_j of u = 1..d passes 2^127; at n <= 10 only the terms m_v < 10
    # are kept.  The oracle is the brute force's pair sum, read directly
    # from the bases.
    bases = first_primes(d)
    t = gains._bruteforce_prefix(bases, (0,) * d, 10)
    denom = math.prod(b - 1 for b in bases)
    brute = [Fraction(n * denom + 2 * int(t[n - 1]), n * denom) for n in range(1, 11)]
    u, k = ",".join(map(str, range(1, d + 1))), ",".join("0" * d)
    code, out = run(capsys, "gain-curve", "--u", u, "--k", k, "--n-max", "10")
    assert code == 0
    assert [Fraction(int(r.split(",")[1]), int(r.split(",")[2]))
            for r in out.splitlines()[1:]] == brute
    for n in (1, 7, 10):
        code, out = run(capsys, "gain", "--u", u, "--k", k, "--n", str(n))
        _, num, den, _ = out.splitlines()[1].split(",")
        assert (code, Fraction(int(num), int(den))) == (0, brute[n - 1])


def test_gain_term_budget_refusal(capsys):
    # All 2^25 moduli of u = 1..25 lie below 10^38: refused by the term
    # budget, before the terms past it are built.
    n = 10**38
    t0 = time.perf_counter()
    code = main(["gain", "--u", ",".join(map(str, range(1, 26))),
                 "--k", ",".join("0" * 25), "--n", str(n)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert capsys.readouterr() == ("", (
        f"haltongain: error: more than 262144 gain terms with m_v < n = {n} "
        "for |u| = 25; lower n or |u|\n"))


def test_huge_level_forms_no_power(capsys):
    # b^(k+1) with k = 10^9 takes seconds and hundreds of MB to form.  The
    # gain is 1 below the cell; variance meets scramble_column's depth limit.
    t0 = time.perf_counter()
    code, out = run(capsys, "gain", "--u", "1", "--k", "1000000000", "--n", "5")
    assert (code, out.splitlines()[1]) == (0, "5,1,1,1")
    assert main(["variance", "--u", "1", "--k", "1000000000", "--n", "5",
                 "--reps", "2"]) == 1
    assert capsys.readouterr() == ("", (
        "haltongain: error: scramble depth 1000000001 exceeds the limit 64 "
        "for base 2\n"))
    assert time.perf_counter() - t0 < 1.0



@pytest.mark.parametrize("argv", [
    ("variance", "--u", "1", "--k", "60", "--n", str(1 << 53), "--reps", "2"),
    ("points", "--d", "1", "--n", str(10**15)),
], ids=["variance", "points"])
def test_failed_allocation_is_reported(capsys, argv):
    # 3.31 EiB and 355 PiB exceed any address space, so numpy refuses them at once:
    # one error line and exit 1, not a traceback.
    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("haltongain: error: Unable to allocate")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_bounds_csv(capsys):
    code, out = run(capsys, "bounds", "--d-max", "6")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "d,lower,upper,guide"
    assert len(lines) == 7
    assert lines[1].split(",")[1:3] == ["1", "1"]
    d6 = lines[6].split(",")
    assert float(d6[2]) == pytest.approx(2.606770833333333, rel=1e-15)


def test_variance_json(capsys):
    code, out = run(capsys, "variance", "--u", "1", "--k", "0", "--n", "2",
                    "--reps", "50", "--seed", "5")
    data = json.loads(out)
    assert code == 0
    assert data["R"] == 50
    assert (data["expected_gain_num"], data["expected_gain_den"]) == (0, 1)
    assert "z_score" in data
    # n = 2^53 is whole cycles of S = 2, which add exactly 0 and are skipped
    code, out = run(capsys, "variance", "--u", "1", "--k", "0", "--n", str(1 << 53),
                    "--reps", "2")
    assert code == 0
    assert (json.loads(out)["var"], json.loads(out)["mean"]) == (0.0, 0.0)


def test_variance_needs_two_replicates(capsys):
    # one replicate has no sample variance, so its gain and z-score mean nothing
    assert main(["variance", "--u", "1,2", "--k", "0,0", "--n", "2", "--reps", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "replicates must be >= 2" in err


def test_variance_past_the_digit_limit_refused(capsys):
    # k = 64 scrambles digit 65 of base 2, past default_precision(2) = 64; the
    # gain there is exactly 1 and is still computed.
    for kind in ("nested", "linear"):
        assert main(["variance", "--u", "1", "--k", "64", "--n", "5", "--reps", "2",
                     "--scramble", kind]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "limit 64 for base 2" in err
    code, out = run(capsys, "gain", "--u", "1", "--k", "70", "--n", "5")
    assert code == 0 and out.splitlines()[1] == "5,1,1,1"


def test_oracle_check_cli(capsys):
    code, out = run(capsys, "oracle-check", "--d", "2", "--n-max", "20")
    assert code == 0
    assert "agree" in out


def test_oracle_check_reports_disagreements(capsys, monkeypatch):
    # A brute force one pair too high at n = 5 of u = 1: the CLI lists the
    # disagreement with both gains, counts it and exits 2.
    brute = gains._bruteforce_prefix

    def off_at_five(bases, levels, n_max):
        t = brute(bases, levels, n_max)
        t[4] += 1
        return t

    monkeypatch.setattr(gains, "_bruteforce_prefix", off_at_five)
    code, out = run(capsys, "oracle-check", "--d", "1", "--n-max", "6", "--k-max", "0")
    assert code == 2
    assert out == "MISMATCH u=(1,) k=(0,) n=5: closed form 1/5, brute 3/5\n1 disagreements\n"


def test_internal_check_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(gains, "_prefix_at", lambda terms, n: (0, -n))
    assert main(["gain", "--u", "1", "--k", "0", "--n", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("haltongain: internal check failed: negative gain sum; "
                   "closed-form evaluation is broken\n")


@pytest.mark.parametrize("tail", [("--n-max", "0"), ("--d", "2", "--k-max", "-1")])
def test_oracle_check_refuses_empty_grid(capsys, tail):
    # a grid that compares nothing must not report agreement
    assert run(capsys, "oracle-check", *tail) == (1, "")


@pytest.mark.parametrize(
    "argv",
    [("bounds", "--d-max", "0"), ("figure", "1", "--d-max", "0"),
     ("bounds", "--d-max", "10000001")],
)
def test_bounds_refused_before_output(tmp_path, capsys, argv):
    assert run(capsys, *argv) == (1, "")
    target = tmp_path / "bounds.csv"
    assert run(capsys, *argv, "--out", str(target)) == (1, "")
    assert not target.exists()


def test_figure_three_needs_a_count(capsys):
    assert run(capsys, "figure", "3", "--n-max", "0") == (1, "")


def test_figure_two(capsys):
    code, out = run(capsys, "figure", "2")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "u,k,n,gain_num,gain_den,gain_float"
    assert len(lines) == 1 + 4 * 36
    at36 = [row for row in csv.reader(lines[1:]) if row[2] == "36"]
    # all four level vectors hit gain 0 at n = 36
    assert len(at36) == 4
    assert {row[1] for row in at36} == {"0,0", "0,1", "1,0", "1,1"}
    for row in at36:
        assert Fraction(int(row[3]), int(row[4])) == 0


def test_figure_three_rows(capsys):
    code, out = run(capsys, "figure", "3", "--n-max", "10")
    lines = out.splitlines()
    assert code == 0
    bases = first_primes(3)
    seen = 0
    for parts in csv.reader(lines[1:]):
        u = tuple(int(t) for t in parts[0].split(","))
        k = tuple(int(t) for t in parts[1].split(","))
        n = int(parts[2])
        prod = 1
        for j, kj in zip(u, k):
            prod *= bases[j - 1] ** kj
        assert prod < n <= 10  # rows appear once a full level cell fits
        want = gain_exact(u, k, n)
        assert Fraction(int(parts[3]), int(parts[4])) == want
        seen += 1
    assert seen > 50


def test_figure_one_small(capsys):
    code, out = run(capsys, "figure", "1", "--d-max", "4")
    assert code == 0
    assert len(out.splitlines()) == 5


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gain", "--u", "1,,2", "--k", "0,0", "--n", "5"),
         "--u expects comma-separated integers, got '1,,2'"),
        (("gain", "--u", "1", "--k", "0,", "--n", "5"),
         "--k expects comma-separated integers, got '0,'"),
        (("gain", "--u", "1,x", "--k", "0,0", "--n", "5"),
         "--u expects comma-separated integers, got '1,x'"),
        (("primes", "--d", "2", "--seed", "-1"), "--seed must fit in 64 bits"),
        (("primes", "--d", "2", "--seed", str(1 << 64)), "--seed must fit in 64 bits"),
        (("gain-curve", "--u", "1", "--k", "0", "--n-max", "0"), "n_max must be >= 1, got 0"),
        (("oracle-check", "--d", "7"), "oracle grid supported for 1 <= d <= 6"),
        (("points", "--d", "2", "--start", str((1 << 64) - 1), "--n", "2"),
         "index range exceeds 64-bit point indices"),
        # int() would read these as 10 and 0
        (("gain", "--u", "1_0", "--k", "0", "--n", "5"),
         "--u expects comma-separated integers, got '1_0'"),
        (("gain", "--u", "1", "--k", "\uff10", "--n", "5"),
         "--k expects comma-separated integers, got '\uff10'"),
    ],
    ids=["u-empty-entry", "k-trailing-comma", "u-not-integer", "seed-negative",
         "seed-2^64", "n-max-0", "oracle-d-7", "points-past-2^64", "u-underscore",
         "k-full-width"],
)
def test_bad_argument_refused(capsys, argv, message):
    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"haltongain: error: {message}\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (("primes", "--d", "1_0"),
         "haltongain primes: error: argument --d: invalid int value: '1_0'"),
        (("gain", "--u", "1", "--k", "0", "--n", "\uff15"),
         "haltongain gain: error: argument --n: invalid int value: '\uff15'"),
        (("bounds", "--d-max", " 7"),
         "haltongain bounds: error: argument --d-max: invalid int value: ' 7'"),
    ],
    ids=["d-underscore", "n-full-width", "d-max-space"],
)
def test_bad_integer_option_refused(capsys, argv, line):
    # Integer options refuse what int() takes beyond [+-]?[0-9]+; argparse
    # prints the subcommand's usage before the error line.
    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: haltongain {argv[0]} ")
    assert err.endswith(f"\n{line}\n")


def test_integer_options_take_a_sign():
    assert main(["primes", "--d", "+3", "--format", "json"]) == 0
    assert main(["gain", "--u", "+2", "--k", "-0", "--n", "+5"]) == 0


def test_exit_codes(capsys):
    assert main(["gain", "--u", "", "--k", "0", "--n", "1"]) == 1
    assert main(["gain", "--u", "1", "--k", "0,0", "--n", "1"]) == 1
    assert main(["gamma", "--d", "11"]) == 1
    assert main(["nonsense"]) == 1
    assert main([]) == 1
    capsys.readouterr()
    # 2^200 is past n = 1: no term is kept, and the gain is 1
    code, out = run(capsys, "gain", "--u", "1", "--k", "200", "--n", "1")
    assert (code, out.splitlines()[1]) == (0, "1,1,1,1")


@pytest.mark.parametrize(
    "argv, refused",
    [
        (("gain", "--u", "1", "--k", "0", "--n", "1"), "text"),
        (("gamma", "--d", "2"), "csv"),
        (("bounds", "--d-max", "3"), "json"),
        (("variance", "--u", "1", "--k", "0", "--n", "2", "--reps", "2"), "csv"),
        (("oracle-check", "--d", "1", "--n-max", "2"), "json"),
        (("figure", "1", "--d-max", "3"), "json"),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else v,
)
def test_format_outside_declared_set_refused(capsys, argv, refused):
    assert main([*argv, "--format", refused]) == 1
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    list(PINNED),
    ids=["linear", "plain", "nested", "plain-last-index", "nested-last-index",
         "figure3", "figure3-400", "figure2", "gain-curve", "gain-curve-json",
         "variance-nested", "variance-linear", "primes-1000", "gain", "bounds-block-edge",
         "gamma", "gain-json", "primes-json", "linear-csv", "oracle-check", "figure1",
         "gamma-7", "gamma-8", "gamma-6-capped", "gamma-8-capped", "plain-json",
         "linear-near-3^40", "nested-near-3^40"],
)
def test_output_bytes_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]


def _body(out: str) -> dict:
    body = json.loads(out)
    del body["config"]  # echoes --u and --k as typed
    return body


@pytest.mark.parametrize(
    "command, tail",
    [
        ("gain", ("--n", "5")),
        ("gain-curve", ("--n-max", "40")),
        ("variance", ("--n", "7", "--reps", "40", "--scramble", "linear")),
    ],
)
def test_levels_follow_u_as_given(capsys, command, tail):
    # --k lists one level per --u entry in --u's order, sorted or not.
    runs = [
        run(capsys, command, "--u", u, "--k", k, *tail, "--format", "json")
        for u, k in (("1,3", "0,2"), ("3,1", "2,0"), ("2,3,1", "1,2,0"),
                     ("1,2,3", "0,1,2"))
    ]
    assert all(code == 0 for code, _ in runs)
    bodies = [_body(out) for _, out in runs]
    assert bodies[0] == bodies[1]
    assert bodies[2] == bodies[3]
    if command == "gain":
        assert bodies[1]["gain"] == "1/1"  # the README's pairing, not 11/10


def test_coordinate_outside_basis_refused(capsys):
    # The library's subset check names the coordinate and the one range,
    # 1..MAX_DIMENSION, before any prime is sieved.
    for coordinate in ("0", "10000001"):
        assert main(["gain", f"--u={coordinate}", "--k=0", "--n", "5"]) == 1
        err = capsys.readouterr().err
        assert err == f"haltongain: error: coordinate {coordinate} outside 1..10000000\n"


def test_large_coordinate_builds_no_prime_tuple(capsys):
    # Coordinate 10^6 reads its one base from the sieve's int64 array; a
    # tuple of the first 10^6 primes as Python ints would take about 36 MB.
    first_primes(1_000_000)  # sieved before tracing starts
    tracemalloc.start()
    try:
        code, out = run(capsys, "gain", "--u", "1000000", "--k", "0", "--n", "7")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    g = gain_exact((1_000_000,), (0,), 7)
    assert g == Fraction(15_485_863 - 7, 15_485_863 - 1)  # (b - n)/(b - 1), b = p_(10^6)
    assert out.splitlines()[1] == "7,%d,%d,%.17g" % (g.numerator, g.denominator, float(g))
    assert peak < 4 << 20, peak


def test_coordinate_listed_twice_refused(capsys):
    assert main(["gain", "--u", "1,1", "--k", "0,0", "--n", "5"]) == 1
    assert "coordinate 1 listed more than once" in capsys.readouterr().err
    assert main(["variance", "--u", "2,1,2", "--k", "0,0,1", "--n", "5",
                 "--reps", "2"]) == 1
    assert "coordinate 2 listed more than once" in capsys.readouterr().err


def test_bounds_rows_match_csv_writer(capsys):
    # 40,000 rows span 20 blocks of bounds_table.
    code, out = run(capsys, "bounds", "--d-max", "40000", "--format", "csv")
    want = io.StringIO()
    w = csv.writer(want, lineterminator="\n")
    w.writerow(["d", "lower", "upper", "guide"])
    for block in bounds_table(40000):
        for d, *values in zip(*(col.tolist() for col in block)):
            w.writerow([d, *(format(x, ".17g") for x in values)])
    assert code == 0
    # line lists, so a failure reports the first bad line without diffing 3 MB
    assert out.splitlines(keepends=True) == want.getvalue().splitlines(keepends=True)


def _g17(values) -> list[str]:
    """The writer's fields for one column of values."""
    return _g17_lines([np.asarray(values, dtype=np.float64)]).split("\n")[:-1]


def test_g17_writer_matches_percent_format():
    rng = np.random.default_rng(20261019)
    top = 2.0**53
    # log-uniform over the domain, and uniform over its bit patterns: from
    # 1e-3 up, and below it, fixed-point down to 1e-4 and then the exponent
    # form, to the least subnormal
    spread = 10.0 ** rng.uniform(-3, math.log10(top), 100_000)
    small = 10.0 ** rng.uniform(-323.3, -3, 100_000)
    lo, mid, hi = (int(np.float64(v).view(np.uint64)) for v in (1e-3, 1e-3, top))
    bits = rng.integers(lo, hi, 100_000, dtype=np.uint64).view(np.float64)
    small_bits = rng.integers(1, mid, 100_000, dtype=np.uint64).view(np.float64)
    below = np.array([1e-4 * v for v in (0.1, 0.5, 0.9, 1.0, 1.5, 3.3344448149383128, 9.99)])
    # exact half-way cases, 18 significant digits ending in 5, with the
    # 17th digit even (kept) and odd (rounded up): 1 + 2^-17 and so on
    ties = [10.0**e + k * 2.0 ** (e - 17) for e in range(16) for k in (1, 3)]
    ties += [0.5 + 2.0**-18, 0.5 + 3 * 2.0**-18]
    # powers of ten and their neighbours, where the decimal exponent turns,
    # at every exponent from -11 to 16 (none of the doubles below them
    # rounds up to 17 digits of the next); 10^16 and its neighbours lie
    # past 2^53 and are refused
    tens = np.array([10.0**k for k in range(-11, 17)])
    edges = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, top),
                            [9.9999999999999982, 1.0, top - 1, 2.0**52 + 0.5]])
    # 0; 2^-36, where Python's own '%.17g' takes over; the least normal
    # and subnormal doubles
    limits = [0.0, 2.0**-36, np.nextafter(2.0**-36, 0), np.nextafter(2.0**-36, 1),
              2.0**-1022, 5e-324, 1e-11, 1e-100, 1e-300]
    for values in (spread, small, bits, small_bits, below, ties, edges[edges < top], limits):
        assert _g17(values) == ["%.17g" % v for v in np.asarray(values).tolist()]
    for value in edges[edges >= top]:
        with pytest.raises(ValueError):
            _g17([value])
    for t in ties:
        digits = format(Decimal(t), "f").replace(".", "").lstrip("0")
        assert len(digits) == 18 and digits[-1] == "5"
    # the d = 1 row of bounds, all four columns
    row = [np.array([v]) for v in (1, 1.0, 1.0, 1.5 + math.log(0.5))]
    assert _g17_lines(row) == "1,1,1,0.80685281944005471\n"
    # a row led by its label, and a label-free one
    row = [np.array([v, v]) for v in (3, 0, 1, 0.0)]
    heads = np.array([b'"1,2","0,0",', b""])
    assert _g17_lines(row, heads) == '"1,2","0,0",3,0,1,0\n3,0,1,0\n'


def _trailing_zeros(x: float) -> int:
    """How many zeros end the 17 significant digits of x."""
    digits = ("%.16e" % x).split("e")[0].replace(".", "")
    return len(digits) - len(digits.rstrip("0"))


def test_g17_writer_trailing_zeros_cross_every_group():
    # q's last 16 digits are four table groups, so a run of trailing zeros
    # can end inside or at the edge of any of them: halves and integers
    # whose 17 digits end in each count of zeros from 0 (1 for integers,
    # which stay below 2^53) to 16.
    values = []
    for zeros in range(17):
        half = int("1234567891234567"[: 16 - zeros] or "0") + 0.5
        values.append(half)
        assert _trailing_zeros(half) == zeros
        if zeros:
            integer = int("1234567891234567"[: 17 - zeros])
            values += [integer, integer * 2.0**-9]
            assert _trailing_zeros(integer) == zeros
    values += [1.5, 1.25, 1234.5, 2.0**52 + 0.5]
    values += [2.0**k for k in range(-9, 53)]
    assert {_trailing_zeros(v) for v in values} == set(range(17))
    assert _g17(values) == ["%.17g" % v for v in values]


def test_g17_writer_integers_match_percent_d():
    # the d column: every integer 1..2^20, in blocks as bounds writes them
    for start in range(1, 1 << 20, 1 << 16):
        d = np.arange(start, start + (1 << 16), dtype=np.int64)
        assert _g17(d) == ["%d" % i for i in d.tolist()]
    # the numerators and denominators of a curve: 0, and up to 2^53 - 1
    rng = np.random.default_rng(20261020)
    ints = np.concatenate([
        [0, (1 << 53) - 1, 1 << 52, (1 << 52) - 1],
        [10**k + j for k in range(1, 16) for j in (-1, 0, 1)],
        np.exp2(rng.uniform(20, 53, 100_000)).astype(np.int64),
    ]).astype(np.int64)
    assert _g17(ints) == ["%d" % i for i in ints.tolist()]


def test_g17_writer_tables_match_python_formatting():
    quads = [b"%04d" % g for g in range(10_000)]
    assert cli._QUADS.tobytes() == b"".join(quads)
    assert cli._QUAD_ZEROS.tolist() == [4 - len(q.rstrip(b"0")) for q in quads]


@pytest.mark.parametrize("bad", [-0.0, -5e-324, -1.0, float("nan"), float("inf"), 2.0**53])
def test_g17_writer_refuses_values_outside_its_domain(bad):
    # %.17g writes -0.0 as "-0"; no column holds it
    with pytest.raises(ValueError, match=r"\[0, 2\^53\)"):
        _g17_lines([np.array([1.0, bad])])


def _curve_csv_by_rows(u, levels, n_max) -> str:
    """gain-curve's CSV one row at a time, from exact Fractions."""
    rows = ("%d,%d,%d,%.17g\n" % (n, g.numerator, g.denominator, float(g))
            for n, g in enumerate(gain_curve(u, levels, n_max), start=1))
    return "n,gain_num,gain_den,gain_float\n" + "".join(rows)


def test_gain_curve_csv_matches_per_row_route(capsys):
    # u = 1 at level 0 holds 0 at even n and 1/n at odd n, so past
    # n = 10^4 its gain column is written in exponent form
    code, out = run(capsys, "gain-curve", "--u", "1", "--k", "0", "--n-max", "20000")
    assert code == 0
    assert "9.9990000999900015e-05" in out
    assert out == _curve_csv_by_rows((1,), (0,), 20000)


def test_curve_tables_switch_routes_at_2_53(capsys, monkeypatch):
    # u = 30,40,...,80 at levels 0: every integer stays below 2^53 through
    # n = 114 and reaches it at n = 115, where each row is formatted from
    # Python ints; u = 1..20 runs on Python-int arrays from the start.
    u, levels = (30, 40, 50, 60, 70, 80), (0,) * 6
    num, den = gains._gain_curve_arrays(u, levels, 115)
    assert max(num[:114].max(), den[:114].max()) < 1 << 53 <= max(num[114], den[114])
    writes = []
    monkeypatch.setattr(cli, "_g17_lines", lambda *args: writes.append(args) or "")
    argv = ("gain-curve", "--u", ",".join(map(str, u)), "--k", "0,0,0,0,0,0")
    assert run(capsys, *argv, "--n-max", "114") == (0, "n,gain_num,gain_den,gain_float\n")
    assert len(writes) == 1
    monkeypatch.undo()
    for n_max in (114, 115):
        code, out = run(capsys, *argv, "--n-max", str(n_max))
        assert (code, out) == (0, _curve_csv_by_rows(u, levels, n_max))
    monkeypatch.setattr(cli, "_g17_lines", None)  # the per-row route writes without it
    code, out = run(capsys, *argv, "--n-max", "115")
    assert (code, out) == (0, _curve_csv_by_rows(u, levels, 115))
    wide = ",".join(map(str, range(1, 21)))
    code, out = run(capsys, "gain-curve", "--u", wide, "--k", ",".join("0" * 20), "--n-max", "60")
    assert (code, out) == (0, _curve_csv_by_rows(range(1, 21), (0,) * 20, 60))


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def _python(code: str, **env: str) -> str:
    """stdout of `python -c code`, with OPENBLAS_NUM_THREADS unset unless in `env`."""
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], env={**inherited, **env},
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def test_package_import_loads_no_numpy():
    code = ("import os, sys; before = dict(os.environ); import haltongain; "
            "print('numpy' in sys.modules, os.environ == before, haltongain.rqmc.__name__)")
    assert _python(code) == "False True haltongain.rqmc\n"


@pytest.mark.parametrize("env, want", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_cli_import_defaults_blas_to_one_thread(env, want):
    code = "import os, haltongain.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, **env) == want + "\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_process_starts_no_blas_threads():
    code = "import os, haltongain.cli; print(len(os.listdir('/proc/self/task')))"
    assert _python(code) == "1\n"


def test_only_the_cli_freezes_the_import_heap():
    # The CLI's process policy: its import heap is frozen once, at import;
    # the package and the library layers freeze nothing.
    code = ("import gc, haltongain, haltongain.gains, haltongain.rqmc; "
            "before = gc.get_freeze_count(); import haltongain.cli; "
            "print(before, gc.get_freeze_count() > 0)")
    assert _python(code) == "0 True\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "haltongain", "gain", "--u", "1,2", "--k",
         "0,0", "--n", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n,gain_num,gain_den,gain_float\n2,3,2,1.5\n"
