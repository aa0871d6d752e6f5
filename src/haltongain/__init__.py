"""Scrambled Halton sequences and their exact variance gain coefficients.

The package splits into small layers: prime bases (`primes`), digit-exact
point generation (`halton`), nested and linear digit scrambles
(`scramble`), exact rational gain coefficients with worst-case searches and
dimension bounds (`gains`), replicated variance experiments (`rqmc`), and a
CLI (`cli`).

Public names resolve on first use (PEP 562), so importing the package loads
no numpy: the CLI sets its BLAS thread default before numpy loads.
"""

import importlib

_HOMES = {
    "gains": ("GainSummary", "bounds_table", "gain_curve", "gain_exact", "gamma_max",
              "global_bounds_exact", "oracle_check", "upper_bound_u_exact"),
    "halton": ("PointSet", "default_precision", "halton_points"),
    "primes": ("MAX_DIMENSION", "first_primes"),
    "rqmc": ("EstimateSummary", "rqmc_estimate"),
    "scramble": ("ScrambleSpec", "randomize", "scramble_column"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:  # the layer modules themselves, e.g. haltongain.scramble
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
