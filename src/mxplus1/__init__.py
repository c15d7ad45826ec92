"""Exact stopping-time distribution tables for the 3x+1 and 5x+1 maps.

The table side runs a streaming big-integer column recursion; the
oracle side re-derives the same counts by brute-force iteration over
residue windows.  Agreement of the two, plus the diophantine structure
of parity vectors, is the point of the package.
"""

from .bigmath import EQUAL, GREATER, LESS, cmp_pow, ratio_to_float
from .density import (DensityColumn, DensityPoint, DensitySeries, ShadedCell,
                      binomial_reference, density_series, initial_column,
                      next_column)
from .diophantine import (Classification, Cycle, DiophantineEq,
                          DiophantineSolution, classify, cycle_candidate,
                          equation_of_vector, find_cycles, residue_of_vector,
                          solve)
from .report import to_csv, to_json, to_plot_data
from .trajectory import (MapParams, ParityVector, StoppingTimeResult, T3,
                         T5, Trajectory, iterate, parity_vector, step,
                         stopping_time_actual, stopping_time_coefficient)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the oracle loads numpy; the table, cycles and trajectories never need it
    if name in ("OracleReport", "count_window", "discrepancy_scan", "periodicity_window"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Classification", "Cycle", "DensityColumn", "DensityPoint",
    "DensitySeries", "DiophantineEq", "DiophantineSolution", "EQUAL",
    "GREATER", "LESS", "MapParams", "OracleReport", "ParityVector",
    "ShadedCell", "StoppingTimeResult", "T3", "T5", "Trajectory",
    "binomial_reference", "classify", "cmp_pow", "count_window",
    "cycle_candidate", "density_series", "discrepancy_scan",
    "equation_of_vector", "find_cycles", "initial_column", "iterate",
    "next_column", "parity_vector", "periodicity_window", "ratio_to_float",
    "residue_of_vector", "solve", "step", "stopping_time_actual",
    "stopping_time_coefficient", "to_csv", "to_json", "to_plot_data",
]
