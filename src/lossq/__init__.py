"""Point and interval estimates for finite-buffer loss-queue characteristics.

The package computes expected busy-period lengths, served and lost counts
per busy cycle, and stationary loss probabilities for single-server queues
with finite waiting room, from an observed sample of service or
interarrival times.  Distribution-free confidence bounds come from the
limit laws of the empirical-CDF sup deviations; everything is verifiable
against exact oracles and a reproducible busy-cycle simulator.

The package namespace re-exports the names the quick start and the
simulator need; everything else is imported from its own module.
"""

from .ecdf import (
    EmpiricalCdf,
    KsStatistics,
    Sample,
    build_ecdf,
    ks_statistics,
    read_sample_file,
)
from .errors import DegeneracyError, ParseError
from .intervals import Method, interval_table
from .moments import MomentVector, moments_empirical, moments_exponential
from .recursion import CharacteristicSpec, estimate_characteristic
from .simulate import (
    Deterministic,
    ErlangK,
    Exponential,
    Uniform,
    draw_samples,
    ks_law_experiment,
    simulate_busy_period,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ParseError",
    "DegeneracyError",
    # empirical CDFs and sup statistics
    "Sample",
    "EmpiricalCdf",
    "KsStatistics",
    "build_ecdf",
    "ks_statistics",
    "read_sample_file",
    # moment coefficients
    "MomentVector",
    "moments_empirical",
    "moments_exponential",
    # point and interval estimates
    "CharacteristicSpec",
    "estimate_characteristic",
    "Method",
    "interval_table",
    # sampling and simulation
    "Exponential",
    "ErlangK",
    "Deterministic",
    "Uniform",
    "draw_samples",
    "simulate_busy_period",
    "ks_law_experiment",
]
