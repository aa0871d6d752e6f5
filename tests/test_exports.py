"""Export lists: every public name resolves, the package re-exports only
names its modules declare public, its 17 names and the entry points' call
forms are pinned, only Python ints reach exact arithmetic, and the per-point
oracles of tests/oracles.py stay out of it."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import haltongain
from haltongain.halton import _window

import oracles

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(haltongain.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"haltongain.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_imports_are_declared_public():
    # Each name the package resolves is the object of a module that declares it.
    modules = [importlib.import_module(f"haltongain.{name}") for name in MODULES]
    undeclared = [
        name for name in haltongain.__all__
        if not any(name in m.__all__ and getattr(m, name) is getattr(haltongain, name)
                   for m in modules)
    ]
    assert undeclared == []


PUBLIC = sorted([
    "GainSummary", "bounds_table", "gain_curve", "gain_exact",
    "gamma_max", "global_bounds_exact", "oracle_check", "upper_bound_u_exact",
    "default_precision", "halton_points",
    "MAX_DIMENSION", "first_primes",
    "EstimateSummary", "rqmc_estimate",
    "ScrambleSpec", "randomize", "scramble_column",
])

# The per-point oracles, which live in tests/oracles.py and not in the package.
ORACLES = [
    "digits_of", "radical_inverse", "residue_match", "stratum_index", "stratum_counts",
    "stratum_occupancy", "LinearScramble", "permutation_node", "draw_linear_scramble",
    "nested_scramble_digits", "linear_scramble_digits", "lower_bound_n_star", "gain_bruteforce",
    "philox", "stream", "pair_prefix_by_terms",
]


def test_package_surface_is_pinned():
    assert len(PUBLIC) == 17
    assert sorted(haltongain.__all__) == PUBLIC


def _parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_entry_points_take_one_call_form():
    # A subset and its levels come first, in that order, wherever both are
    # read, and the coordinates name their primes.
    assert _parameters(haltongain.gain_exact) == ["u", "levels", "n"]
    assert _parameters(haltongain.gain_curve) == ["u", "levels", "n_max"]
    assert _parameters(haltongain.upper_bound_u_exact) == ["u"]
    assert _parameters(haltongain.halton_points) == ["d", "start", "count"]
    assert _parameters(haltongain.randomize) == ["d", "start", "count", "spec"]
    assert _parameters(haltongain.rqmc_estimate) == ["u", "levels", "n", "replicates", "spec"]
    # A point set is its floats, one read-only float64 array, row p point start + p.
    spec = haltongain.ScrambleSpec("nested", 1)
    for points in (haltongain.halton_points(3, 5, 4), haltongain.randomize(3, 5, 4, spec)):
        assert type(points) is np.ndarray and points.dtype == np.float64
        assert points.shape == (4, 3) and not points.flags.writeable


def test_bases_are_python_ints():
    # Exact arithmetic reads bases as Python ints: a product of np.int64
    # wraps past 2^63.  No public function or class takes a `basis`.
    for bases in (
        haltongain.first_primes(30),
        haltongain.gains.pair_levels((30, 1), (0, 0))[2],
        _window(3, 0, 2),  # the bases halton_points and randomize read
    ):
        assert type(bases) is tuple
        assert {type(b) for b in bases} == {int}
    takes_basis = []
    for name in MODULES:
        module = importlib.import_module(f"haltongain.{name}")
        entries = [getattr(module, entry) for entry in module.__all__]
        takes_basis += [fn for fn in entries if callable(fn) and "basis" in _parameters(fn)]
    assert takes_basis == []


def test_oracles_are_not_in_the_package():
    assert [name for name in ORACLES if not hasattr(oracles, name)] == []
    modules = [haltongain] + [importlib.import_module(f"haltongain.{name}") for name in MODULES]
    found = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in ORACLES
        if hasattr(module, name)
    ]
    assert found == []
