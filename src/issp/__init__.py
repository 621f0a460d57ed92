"""Interval subset sum toolkit.

Pick at most one integer from each interval [lo_i, hi_i] (or skip it) so
the total is as large as possible without exceeding a target T.  The
package provides an exact pseudo-polynomial solver, a space-efficient
(1 - eps)-approximation scheme with full solution reconstruction,
polynomial special-case detectors, reproducible instance generators, and a
benchmarking CLI (``issp``).
"""

from .core import (
    Instance,
    Solution,
    SolveOutcome,
    evaluate,
    midrange_count,
    preprocess,
    relative_error,
    sort_by_length,
    validate,
    validate_columns,
)
from .exact import brute_force_optimum, dp_exact
from .fptas import FptasParams, fptas_solve
from .analysis import (
    check_wide,
    solution_from_subset,
    solve_polynomial,
)
from .instgen import GenSpec, gen_a, gen_b, gen_c, gen_d

__all__ = [
    "Instance",
    "Solution",
    "SolveOutcome",
    "validate",
    "validate_columns",
    "preprocess",
    "sort_by_length",
    "evaluate",
    "midrange_count",
    "relative_error",
    "brute_force_optimum",
    "dp_exact",
    "FptasParams",
    "fptas_solve",
    "solution_from_subset",
    "check_wide",
    "solve_polynomial",
    "GenSpec",
    "gen_a",
    "gen_b",
    "gen_c",
    "gen_d",
]

__version__ = "0.1.0"
