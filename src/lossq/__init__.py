"""Point and interval estimates for finite-buffer loss-queue characteristics.

The package computes expected busy-period lengths, served and lost counts
per busy cycle, and stationary loss probabilities for single-server queues
with finite waiting room, from an observed sample of service or
interarrival times.  Distribution-free confidence bounds come from the
limit laws of the empirical-CDF sup deviations; everything is verifiable
against exact oracles and a reproducible busy-cycle simulator.

The package namespace re-exports the names the quick start and the
simulator need; everything else is imported from its own module.  Each
re-export, and each submodule, is imported on first access, so
``import lossq`` itself loads no NumPy.
"""

import importlib

__version__ = "0.1.0"

# each re-exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "errors": ("ParseError", "DegeneracyError"),
    "ecdf": ("Sample", "EmpiricalCdf", "KsStatistics", "build_ecdf", "ks_statistics",
             "read_sample_file"),
    "moments": ("MomentVector", "moments_empirical", "moments_exponential"),
    "recursion": ("CharacteristicSpec", "estimate_characteristic"),
    "choices": ("Method",),
    "intervals": ("interval_table",),
    "simulate": ("Exponential", "ErlangK", "Deterministic", "Uniform", "draw_samples",
                 "simulate_busy_period", "ks_law_experiment"),
}.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "kolmogorov"}
__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Import a re-export's submodule on first access and keep the name
    here, so that later accesses are plain lookups."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
