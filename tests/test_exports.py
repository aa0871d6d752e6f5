"""Export lists: every public name resolves, the package re-exports only
names its modules declare public, its 24 names are pinned, and the per-point
oracles of tests/oracles.py stay out of it."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import haltongain

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


def _package_imports() -> list[tuple[str, str]]:
    """(module, name) for each name `haltongain/__init__.py` imports from a module."""
    tree = ast.parse(inspect.getsource(haltongain))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_imports_are_declared_public():
    undeclared = [
        f"{module}.{name}"
        for module, name in _package_imports()
        if name not in importlib.import_module(f"haltongain.{module}").__all__
    ]
    assert undeclared == []


PUBLIC = sorted([
    "GainQuery", "GainSummary", "bounds_table", "gain_curve", "gain_exact",
    "gamma_max", "global_bounds_exact", "oracle_check", "upper_bound_u_exact",
    "PointSet", "default_precision", "halton_points",
    "MAX_DIMENSION", "PrimeBasis", "first_primes",
    "EstimateSummary", "HaarIntegrand", "make_haar", "rqmc_estimate",
    "ScrambleSpec", "linear_depth_limit", "randomize", "scramble_column",
])

# The per-point oracles, which live in tests/oracles.py and not in the package.
ORACLES = [
    "digits_of", "radical_inverse", "residue_match", "stratum_index", "stratum_counts",
    "stratum_occupancy", "LinearScramble", "permutation_node", "draw_linear_scramble",
    "nested_scramble_digits", "linear_scramble_digits", "lower_bound_n_star", "gain_bruteforce",
]


def test_package_surface_is_pinned():
    assert len(PUBLIC) == 23
    assert sorted(name for _, name in _package_imports()) == PUBLIC


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
