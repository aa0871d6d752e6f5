"""Benchmark of the haltongain CLI: one fresh process per operation.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  One closed-loop client (this process) runs one operation at a time,
checks its output with perfbench/verify.py, and repeats passes over the
workload's operation list until the next pass would overrun --seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 spends
half the time on plain passes and half on traced ones and reports the
per-layer metrics, including the tracing overhead.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the line before it
holds the run context and the sample count behind every median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from spans import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
RUN_BUDGET_S = 165.0  # every run must exit within 180 s


@dataclass
class OpResult:
    label: str
    failure: str | None
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    out_bytes: int
    trace: dict | None = None


@dataclass
class Pass:
    ops: list[OpResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.ops)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.ops)

    @property
    def failed(self) -> int:
        return sum(o.failure is not None for o in self.ops)


class Runner:
    def __init__(self, deadline: float, work: Path) -> None:
        self.deadline = deadline
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def launch(self, mode: str, argv: tuple[str, ...], check=None, label: str = "") -> OpResult:
        """Run one op process to completion; time it, then check its output."""
        out, err, report = (self.work / f for f in ("op.out", "op.err", "op.json"))
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "launch.py"), str(report), mode, *argv]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
                                    cwd=ROOT, env=self.env, start_new_session=True)
            killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        try:
            stamp = json.loads(report.read_text())
        except (OSError, ValueError):
            stamp = {}
        failure = None
        if rc != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-1:]
            failure = f"exit {rc}: {' '.join(tail)[:200]}"
        elif check is not None:
            try:
                failure = check(out)
            except Exception as exc:  # a malformed output is a failed op, not a crash
                failure = f"check raised {exc!r}"[:200]
        setup = stamp["ready"] - t0 if "ready" in stamp else None
        return OpResult(label or " ".join(argv), failure, wall,
                        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                        setup, out.stat().st_size, stamp.get("trace"))

    def run_pass(self, ops: list[workloads.Op], mode: str) -> Pass:
        p = Pass()
        for op in ops:
            r = self.launch(mode, op.argv, op.check, op.label)
            if r.failure:
                print(f"FAILED {r.label}: {r.failure}", file=sys.stderr)
            p.ops.append(r)
        return p

    def passes(self, ops: list[workloads.Op], mode: str, seconds: float) -> list[Pass]:
        """At least one pass; more while the next is expected to fit `seconds`."""
        start = time.monotonic()
        done: list[Pass] = []
        took: list[float] = []
        while True:
            t = time.monotonic()
            done.append(self.run_pass(ops, mode))
            took.append(time.monotonic() - t)
            now = time.monotonic()
            expect = statistics.median(took)
            if now - start + expect > seconds or now + expect > self.deadline:
                return done


def tail_percentile(values: list[float]) -> dict | None:
    """Highest of p50/p90/p99/p99.9 with at least 10 samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            ranked = sorted(values)
            return {"p": p, "value": ranked[min(n - 1, int(p / 100 * n))]}
    return None


def end_to_end(plain: list[Pass], setups: list[float]) -> tuple[dict, dict, dict]:
    walls = [p.wall_s for p in plain]
    series = {
        "setup_s": (setups, "s"),
        "wall_s": (walls, "s"),
        "cpu_s": ([p.cpu_s for p in plain], "s"),
        "peak_rss_mb": ([p.peak_rss_mb for p in plain], "MB"),
    }
    metrics = {k: {"value": statistics.median(v), "unit": u} for k, (v, u) in series.items()}
    samples = {k: len(v) for k, (v, _) in series.items()}
    tails = {"wall_s": tail_percentile(walls), "setup_s": tail_percentile(setups)}
    return metrics, samples, tails


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_pass(p: Pass) -> tuple[dict[str, float], dict[str, float], set[str]]:
    """Per-layer values of one traced pass, with the base of every ratio."""
    self_s, busy_s, c = Counter(), Counter(), Counter()
    absent: set[str] = set()
    for op in p.ops:
        tr = op.trace or {}
        self_s.update(tr.get("self_s", {}))
        busy_s.update(tr.get("busy_s", {}))
        c.update(tr.get("counts", {}))
        absent.update(tr.get("absent", ()))
    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        for name in names:
            key = f"{layer}.{name}"
            count = ".rows" if key == "gains.bounds_table" else ".calls"
            out[key + count] = c[key + count]
            out[key + ".self_s"] = self_s[key]
    positions = c["scramble.nested_positions"]
    bases = {
        "primes.cache_hit_ratio": c["primes.first_primes.calls"],
        "scramble.node_cache_hit_ratio": positions,
        "halton.coords_per_s": self_s["halton.halton_points"],
        "gains.n_per_s": self_s["gains.gamma_max"],
        "rqmc.replicate_points_per_s": busy_s["rqmc.rqmc_estimate"],
    }
    out.update({
        "primes.primes_sieved": c["primes.primes_sieved"],
        "primes.cache_hit_ratio": _ratio(c["primes.cache_hits"], bases["primes.cache_hit_ratio"]),
        "halton.coords_generated": c["halton.coords_generated"],
        "halton.coords_per_s": _ratio(c["halton.coords_generated"], bases["halton.coords_per_s"]),
        "scramble.node_cache_hit_ratio":
            1.0 - _ratio(c["scramble.permutation_node.calls"], positions) if positions else 0.0,
        "scramble.keyed_streams": c["scramble.keyed_streams"],
        "gains.n_searched": c["gains.n_searched"],
        "gains.n_per_s": _ratio(c["gains.n_searched"], bases["gains.n_per_s"]),
        "rqmc.replicates": c["rqmc.replicates"],
        "rqmc.replicate_points_per_s":
            _ratio(c["rqmc.replicate_points"], bases["rqmc.replicate_points_per_s"]),
        "cli.main.self_s": self_s["cli.main"],
        "cli.out_bytes": float(sum(op.out_bytes for op in p.ops)),
    })
    return out, bases, absent


def per_layer(plain: list[Pass], traced: list[Pass]) -> tuple[dict, dict, list[str]]:
    layers = [layer_pass(p) for p in traced]
    spec = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    metrics = {}
    for name, unit in spec.items():
        if name == "trace.overhead_s":
            value = (statistics.median(p.wall_s for p in traced)
                     - statistics.median(p.wall_s for p in plain))
        else:
            value = statistics.median(values[name] for values, _, _ in layers)
        metrics[name] = {"value": value, "unit": unit}
    absent = sorted(set().union(*(a for _, _, a in layers)))
    return metrics, layers[-1][1], absent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_context(load_before: tuple) -> dict:
    rev = None
    if shutil.which("git") and (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 runner: Runner) -> dict:
    ops = workloads.build(name, seed, tiny)
    load_before = os.getloadavg()
    info: dict = {"workload": name, "seed": seed, "ops_per_pass": len(ops)}
    if trace:
        plain = runner.passes(ops, "plain", seconds / 2)
        traced = runner.passes(ops, "trace", seconds / 2)
        metrics, bases, absent = per_layer(plain, traced)
        info.update(samples={"plain_passes": len(plain), "traced_passes": len(traced)},
                    ratio_bases=bases, absent=absent)
        done = plain + traced
    else:
        probes = [runner.launch("probe", (), label="setup probe") for _ in range(SETUP_PROBES)]
        plain = runner.passes(ops, "plain", seconds)
        setups = [r.setup_s for r in probes + [o for p in plain for o in p.ops]
                  if r.setup_s is not None]
        metrics, samples, tails = end_to_end(plain, setups)
        op_walls = {op.label: statistics.median(p.ops[i].wall_s for p in plain)
                    for i, op in enumerate(ops)}
        info.update(samples=samples, tail_percentiles=tails, op_wall_s=op_walls)
        done = plain
    attempted = sum(len(p.ops) for p in done)
    failed = sum(p.failed for p in done)
    info.update(failed_ops={"failed": failed, "attempted": attempted},
                context=run_context(load_before))
    return {"info": info, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    names = list(workloads.BUILDERS)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes, not for measuring")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "haltongain" / "cli.py").is_file():
        print(f"perfbench: no haltongain source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    chosen = names if args.workload == "all" else [args.workload]
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    runner = Runner(time.monotonic() + RUN_BUDGET_S * len(chosen), work)
    try:
        results = {w: run_workload(w, args.seed, seconds, bool(args.trace), args.tiny, runner)
                   for w in chosen}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for w, res in results.items():
        print(f"== {w}: {res['failed']} of {res['attempted']} ops failed; "
              f"samples {res['info']['samples']}")
        for name, m in res["metrics"].items():
            print(f"{w:17s} {name:40s} {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({w: r["info"] for w, r in results.items()}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
