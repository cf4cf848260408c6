"""Kicked Heisenberg rings, their rotor images, and the classical maps behind them.

The public names are looked up on first access (PEP 562), so importing the
package, or the CLI to validate a config, loads no numpy.
"""

import importlib

# The function shares its module's name.  Imported here, it is bound over the
# submodule, which the import system binds to the package only on first load.
from .feasibility import FeasibilityReport, feasibility

__version__ = "0.1.0"

# Each public name and the module it is taken from.
_HOMES = {
    **dict.fromkeys(
        (
            "ChainConfig", "ChainModel", "DoubleKick", "KickSchedule", "RandomDoubleKick",
            "SingleKick", "DoubleKickMap", "DoubleWellMap", "MapSpec",
            "RandomRescaledDoubleKickMap", "RescaledDoubleKickMap", "StandardMap",
        ),
        "specs",
    ),
    **dict.fromkeys(
        (
            "RotorImageParams", "delta_state", "dispersion", "magnon_state", "rotor_image",
            "wavenumber_grid",
        ),
        "chain",
    ),
    **dict.fromkeys(("PropagationRecord", "build_floquet", "evolve", "qkr_evolve"), "evolution"),
    **dict.fromkeys(
        (
            "LocalizationFit", "SpikeTrack", "SpikeTracker", "cell_occupancy",
            "cyclic_displacements", "detect_accelerator_modes", "distribution_stats",
            "fit_localization_length",
        ),
        "diagnostics",
    ),
    **dict.fromkeys(
        (
            "EnsembleStats", "FixedPoint", "fixed_point_stability", "iterate_ensemble",
            "map_step", "surface_of_section",
        ),
        "maps",
    ),
}

__all__ = [*_HOMES, "FeasibilityReport", "feasibility", "__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
