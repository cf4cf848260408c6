"""Seeded scenario configs for the four benchmark workloads.

The benchmark seed selects one of ``VARIANTS`` input variants of a workload
(``seed % VARIANTS``).  Each variant draws its inputs from its own
``numpy.random.default_rng(variant)``, so the same seed always gives the same
config, and every run can be compared with the reference outputs recorded for
its variant in ``reference.json``.
"""

from __future__ import annotations

import numpy as np

VARIANTS = 16

N_SITES = 4096
CHAIN_PERIODS = 12_000
CHAIN_SNAPSHOT_EVERY = 1000
N_BASIS = 4096
ROTOR_PERIODS = 2000
ROTOR_SNAPSHOT_EVERY = 20
SECTION_POINTS = 200
SECTION_STEPS = 1500
ENSEMBLE_TRAJECTORIES = 20_000
ENSEMBLE_STEPS = 2000
ENSEMBLE_RECORD_EVERY = 100


# Workload name -> suffix of the CSV file its run writes besides the report.
# Why each workload is in the benchmark, and its work units, are recorded in
# BENCHMARK.json at the repository root.
WORKLOADS = {
    "chain_sparse": "_dist.csv",
    "rotor_dense": "_dist.csv",
    "sections": "_sos.csv",
    "random_ensemble": None,
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def make_config(name: str, seed: int, out_prefix: str) -> dict:
    """The scenario config a workload runs for ``seed``, writing to ``out_prefix``."""
    variant = variant_of(seed)
    rng = np.random.default_rng(variant)
    base = {"seed": int(rng.integers(2**32)), "output": out_prefix}
    if name == "chain_sparse":
        offset = int(rng.integers(-8, 9))
        return base | {
            "scenario": "single_kick",
            "chain": {"n_sites": N_SITES, "j1": 1.0},
            "schedule": {"b_kick": 0.25, "period": 20.0},
            "n_periods": CHAIN_PERIODS,
            "snapshot_every": CHAIN_SNAPSHOT_EVERY,
            "initial": {"delta_site": N_SITES // 2 + offset},
        }
    if name == "rotor_dense":
        return base | {
            "scenario": "qkr",
            "rotor": {"k": 5.0, "hbar": 0.25, "n_basis": N_BASIS, "initial_momentum": 0},
            "n_periods": ROTOR_PERIODS,
            "snapshot_every": ROTOR_SNAPSHOT_EVERY,
        }
    if name == "sections":
        x = rng.uniform(0.0, 2.0 * np.pi, SECTION_POINTS)
        p = rng.uniform(-0.5, 0.5, SECTION_POINTS)
        return base | {
            "scenario": "surface_of_section",
            "map": {"variant": "double_well", "k1": 0.35, "k2": 0.35},
            "initial": {"points": [[float(a), float(b)] for a, b in zip(x, p)]},
            "n_steps": SECTION_STEPS,
        }
    if name == "random_ensemble":
        return base | {
            "scenario": "classical_map",
            "map": {"variant": "rescaled_double_kick_random", "k_eps": 0.35},
            "initial": {"uniform_x": {"n_trajectories": ENSEMBLE_TRAJECTORIES, "p0": 0.0}},
            "n_steps": ENSEMBLE_STEPS,
            "record_every": ENSEMBLE_RECORD_EVERY,
        }
    raise KeyError(name)


def recorded_periods(n_periods: int, every: int) -> list[int]:
    """Periods the program snapshots: 0, every multiple of ``every``, and the last."""
    return [0] + [t for t in range(1, n_periods + 1) if t % every == 0 or t == n_periods]
