"""The four benchmark workloads as seeded lists of CLI operations.

Each operation is one `haltongain` invocation plus the check of its output.
The workload seed draws the operation parameters (sizes jitter by at most a
few percent, so passes cost about the same under every seed) and the samples
the checks look at; the program only ever sees the generated arguments.

Why these four (see README.md for the layer map):

* exact_gains      - the paper's headline computation: exact serial search
                     (d <= 6), float screen plus exact re-check (d >= 7),
                     the oracle grid and figure 3.  Bypasses halton,
                     scramble and rqmc; sieves at most 8 primes.
* bounds_table     - the only workload where sieving ~2.5*10^5 primes and
                     emitting as many float CSV rows dominate; no gain search.
* scrambled_points - one replicate over many points: digit generation,
                     permutation nodes reused across points, large output.
* rqmc_variance    - the scramble layer used the other way: fresh keys per
                     replicate, so nodes are never reused, and tiny output.
                     Kept apart from scrambled_points so a scramble change
                     that helps one use and hurts the other cannot net out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import verify

Check = Callable[[Path], "str | None"]

@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _gamma(d: int, n_cap: int | None, rng: random.Random) -> Op:
    argv = ("gamma", "--d", str(d), "--format", "json")
    probes: list[int] = []
    if n_cap is not None:
        argv += ("--n-cap", str(n_cap))
        probes = [rng.randint(1, n_cap) for _ in range(64)]
    return Op(argv, partial(verify.check_gamma, d=d, n_cap=n_cap, probes=probes))


def exact_gains(rng: random.Random, tiny: bool) -> list[Op]:
    full_ds = (5, 6) if tiny else (5, 6, 7)
    # below 2^20 but above 2^19: two equal screen chunks keep both pool workers busy
    cap = rng.randint(2_000, 3_000) if tiny else rng.randint(1_000_000, 1_040_000)
    oracle_n = 20 if tiny else 50
    fig_n = 60 if tiny else 400
    ops = [_gamma(d, None, rng) for d in full_ds]
    ops.append(_gamma(8, cap, rng))
    ops.append(Op(("oracle-check", "--d", "3", "--n-max", str(oracle_n)), verify.check_oracle))
    ops.append(Op(
        ("figure", "3", "--n-max", str(fig_n), "--format", "csv"),
        partial(verify.check_figure3, n_max=fig_n, rng=random.Random(rng.random()), samples=64),
    ))
    return ops


def bounds_table(rng: random.Random, tiny: bool) -> list[Op]:
    d_max = rng.randint(900, 1_000) if tiny else rng.randint(245_000, 255_000)
    picks = [rng.randint(1, d_max) for _ in range(8)]
    argv = ("bounds", "--d-max", str(d_max), "--format", "csv")
    check = partial(verify.check_bounds, d_max=d_max, ref=verify.BoundsReference(d_max),
                    picks=picks)
    return [Op(argv, check)]


def _points(d: int, n: int, kind: str, rng: random.Random) -> Op:
    argv = ("points", "--d", str(d), "--n", str(n), "--format", "json")
    if kind == "none":
        return Op(argv, partial(verify.check_plain_points, d=d, n=n))
    argv += ("--scramble", kind, "--seed", str(rng.getrandbits(32)),
             "--replicate", str(rng.randint(0, 999)))
    return Op(argv, partial(verify.check_scrambled_points, d=d, n=n))


def scrambled_points(rng: random.Random, tiny: bool) -> list[Op]:
    if tiny:
        return [_points(3, 100, "nested", rng), _points(4, 100, "linear", rng),
                _points(5, 300, "none", rng)]
    return [
        _points(3, rng.randint(590, 610), "nested", rng),
        _points(6, rng.randint(590, 610), "linear", rng),
        _points(8, 3_000, "none", rng),
    ]


def _variance(u: tuple[int, ...], k: tuple[int, ...], n: int, reps: int, kind: str,
              rng: random.Random) -> Op:
    argv = ("variance", "--u", ",".join(map(str, u)), "--k", ",".join(map(str, k)),
            "--n", str(n), "--reps", str(reps), "--scramble", kind,
            "--seed", str(rng.getrandbits(32)), "--format", "json")
    return Op(argv, partial(verify.check_variance, u=u, k=k, n=n, reps=reps))


def rqmc_variance(rng: random.Random, tiny: bool) -> list[Op]:
    big = rng.randint(1_900, 2_100) if tiny else rng.randint(14_700, 15_300)
    small = rng.randint(90, 110) if tiny else rng.randint(590, 610)
    ops = []
    for kind in ("nested", "linear"):
        ops.append(_variance((1, 2), (0, 0), 2, big, kind, rng))
        ops.append(_variance((1, 2, 3), (1, 1, 0), 50, small, kind, rng))
    return ops


BUILDERS = {
    "exact_gains": exact_gains,
    "bounds_table": bounds_table,
    "scrambled_points": scrambled_points,
    "rqmc_variance": rqmc_variance,
}


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operation list of one pass of workload `name` under `seed`."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"), tiny)
