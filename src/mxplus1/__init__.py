"""Exact stopping-time distribution tables for the 3x+1 and 5x+1 maps.

The table side runs a streaming big-integer column recursion; the
oracle side re-derives the same counts by brute-force iteration over
residue windows.  Agreement of the two, plus the diophantine structure
of parity vectors, is the point of the package.
"""

from .bigmath import ratio_to_float
from .density import DensityPoint, DensitySeries, density_series
from .diophantine import (Classification, Cycle, DiophantineEq,
                          DiophantineSolution, classify, equation_of_vector,
                          find_cycles, residue_of_vector, solve)
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
    "Classification", "Cycle", "DensityPoint", "DensitySeries",
    "DiophantineEq", "DiophantineSolution", "MapParams", "OracleReport",
    "ParityVector", "StoppingTimeResult", "T3", "T5", "Trajectory",
    "classify", "count_window", "density_series", "discrepancy_scan",
    "equation_of_vector", "find_cycles", "iterate", "parity_vector",
    "periodicity_window", "ratio_to_float", "residue_of_vector", "solve",
    "step", "stopping_time_actual", "stopping_time_coefficient", "to_csv",
    "to_json", "to_plot_data",
]
