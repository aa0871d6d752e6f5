"""Self-tests of the benchmark: metric names, output checks, tracer binding.

    python3 -m pytest -q perfbench

Each check is run on a real CLI output (it must pass) and on a corrupted
copy (it must fail).  Tiny runs of every workload check that each metric of
BENCHMARK.json is reported.
"""

import csv
import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import verify
from spans import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli(tmp_path: Path, *argv: str) -> Path:
    out = tmp_path / "out.txt"
    with open(out, "wb") as fh:
        subprocess.run([sys.executable, "-m", "haltongain", *argv], stdout=fh, check=True,
                       cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    return out


def edit_json(path: Path, **changes) -> Path:
    doc = json.loads(path.read_text())
    doc.update(changes)
    bad = path.with_suffix(".bad")
    bad.write_text(json.dumps(doc))
    return bad


def write_lines(path: Path, lines: list[str]) -> Path:
    bad = path.with_suffix(".bad")
    bad.write_text("".join(lines))
    return bad


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    got = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    context = json.loads(got.stdout.splitlines()[-2])[workload]
    assert {"git_rev", "python", "numpy", "nproc", "loadavg_before", "loadavg_after"} <= set(
        context["context"])
    assert context["samples"]


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds_table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert got.returncode != 0
    assert got.stdout == ""


def test_gamma_frozen(tmp_path):
    out = cli(tmp_path, "gamma", "--d", "5", "--format", "json")
    assert verify.check_gamma(out, 5, None, []) is None
    num = json.loads(out.read_text())["gamma_num"]
    assert verify.check_gamma(edit_json(out, gamma_num=num + 1), 5, None, [])


def test_gamma_capped(tmp_path):
    out = cli(tmp_path, "gamma", "--d", "8", "--n-cap", "3000", "--format", "json")
    probes = [random.Random(1).randint(1, 3000) for _ in range(16)]
    assert verify.check_gamma(out, 8, 3000, probes) is None
    doc = json.loads(out.read_text())
    assert verify.check_gamma(edit_json(out, gamma_num=doc["gamma_num"] + 1), 8, 3000, [])
    # a smaller value at a real n: the closed form matches, the probe at the true max does not
    lower = verify.closed_form_gain(tuple(verify.primes(8)), (0,) * 8, 1)
    fake = edit_json(out, gamma_num=lower.numerator, gamma_den=lower.denominator, argmax_n=1)
    assert verify.check_gamma(fake, 8, 3000, [doc["argmax_n"]])


def test_oracle(tmp_path):
    out = cli(tmp_path, "oracle-check", "--d", "2", "--n-max", "12")
    assert verify.check_oracle(out) is None
    assert verify.check_oracle(write_lines(out, ["MISMATCH u=(1,) ...\n", "1 disagreements\n"]))


def test_figure3(tmp_path):
    out = cli(tmp_path, "figure", "3", "--n-max", "40", "--format", "csv")
    lines = out.read_text().splitlines(keepends=True)
    rng = random.Random(2)
    assert verify.check_figure3(out, 40, rng, len(lines)) is None
    assert verify.check_figure3(write_lines(out, lines[:-1]), 40, rng, 8)
    rows = list(csv.reader(lines))
    rows[5][3] = str(int(rows[5][3]) + 1)  # gain_num of one row
    bad = out.with_suffix(".bad")
    with open(bad, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert verify.check_figure3(bad, 40, rng, len(lines))


def test_bounds(tmp_path):
    out = cli(tmp_path, "bounds", "--d-max", "500", "--format", "csv")
    ref = verify.BoundsReference(500)
    assert verify.check_bounds(out, 500, ref, [137, 300]) is None
    lines = out.read_text().splitlines(keepends=True)
    assert verify.check_bounds(write_lines(out, lines[:-1]), 500, ref, [])
    # row d = 300 carries the values of d = 301
    shifted = lines[:300] + ["300," + lines[301].split(",", 1)[1]] + lines[301:]
    assert verify.check_bounds(write_lines(out, shifted), 500, ref, [300])
    # every row after d = 299 moved up by one
    assert verify.check_bounds(write_lines(out, lines[:300] + lines[301:]), 500, ref, [])


def test_plain_points(tmp_path):
    out = cli(tmp_path, "points", "--d", "4", "--n", "200", "--format", "json")
    assert verify.check_plain_points(out, 4, 200) is None
    pts = json.loads(out.read_text())["points"]
    pts[77][2] = repr(float(pts[77][2]) + 1e-16)
    assert verify.check_plain_points(edit_json(out, points=pts), 4, 200)


@pytest.mark.parametrize("kind", ["nested", "linear"])
def test_scrambled_points(tmp_path, kind):
    out = cli(tmp_path, "points", "--d", "3", "--n", "100", "--scramble", kind,
              "--seed", "9", "--format", "json")
    assert verify.check_scrambled_points(out, 3, 100) is None
    pts = json.loads(out.read_text())["points"]
    at_one = [row[:] for row in pts]
    at_one[10][1] = "1.0"
    assert verify.check_scrambled_points(edit_json(out, points=at_one), 3, 100)
    unbalanced = [row[:] for row in pts]
    unbalanced[0][0] = unbalanced[1][0]  # points 0 and 1 always split the halves
    assert verify.check_scrambled_points(edit_json(out, points=unbalanced), 3, 100)


def test_variance(tmp_path):
    out = cli(tmp_path, "variance", "--u", "1,2", "--k", "0,1", "--n", "7", "--reps", "300",
              "--scramble", "linear", "--seed", "4", "--format", "json")
    args = ((1, 2), (0, 1), 7, 300)
    assert verify.check_variance(out, *args) is None
    doc = json.loads(out.read_text())
    assert verify.check_variance(edit_json(out, expected_gain_num=doc["expected_gain_num"] + 1), *args)
    assert verify.check_variance(edit_json(out, z_score=6.0), *args)


def test_gains_agree_with_each_other():
    for bases, levels in (((2, 3), (0, 1)), ((2, 3, 5), (1, 0, 0)), ((3,), (2,))):
        for n in (1, 2, 7, 30, 61):
            assert verify.closed_form_gain(bases, levels, n) == verify.pair_sum_gain(bases, levels, n)


def test_tracer_patches_every_binding_and_reports_absent(monkeypatch):
    pkg = "fakepkg"
    calls = []

    def nested_scramble_digits(x):
        calls.append(x)
        return types.SimpleNamespace(digits=(x,) * 3)

    mods = {name: types.ModuleType(name) for name in
            (pkg, *(f"{pkg}.{layer}" for layer in LAYERS))}
    mods[f"{pkg}.scramble"].nested_scramble_digits = nested_scramble_digits
    mods[f"{pkg}.rqmc"].nested_scramble_digits = nested_scramble_digits
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    tr = Tracer("test")
    tr.install(pkg)
    mods[f"{pkg}.rqmc"].nested_scramble_digits(1)
    mods[f"{pkg}.scramble"].nested_scramble_digits(2)
    assert calls == [1, 2]
    report = tr.report()
    assert report["counts"]["scramble.nested_scramble_digits.calls"] == 2
    assert report["counts"]["scramble.nested_positions"] == 6
    assert "scramble.permutation_node" in report["absent"]
    assert "scramble.nested_scramble_digits" not in report["absent"]
