"""Scrambled Halton sequences and their exact variance gain coefficients.

The package splits into small layers: prime bases (`primes`), digit-exact
point generation (`halton`), nested and linear digit scrambles
(`scramble`), exact rational gain coefficients with worst-case searches and
dimension bounds (`gains`), replicated variance experiments (`rqmc`), and a
CLI (`cli`).
"""

from .gains import (
    GainQuery,
    GainSummary,
    bounds_table,
    gain_curve,
    gain_exact,
    gamma_max,
    global_bounds_exact,
    oracle_check,
    upper_bound_u_exact,
)
from .halton import PointSet, default_precision, halton_points
from .primes import MAX_DIMENSION, PrimeBasis, first_primes
from .rqmc import EstimateSummary, HaarIntegrand, make_haar, rqmc_estimate
from .scramble import ScrambleSpec, linear_depth_limit, randomize, scramble_column

__version__ = "0.1.0"
