"""Classical kicked maps: standard, double-kick, rescaled, random, double-well.

All variants share the kick-then-drift structure of area-preserving kicked
maps.  Angles are kept unwrapped internally (transport diagnostics need the
winding); wrap with ``np.mod(x, 2*np.pi)`` for section plots, which
``surface_of_section`` does for you.

The random rescaled variant models the long-drift limit of the double-kicked
map: the angle entering each kick pair is replaced by a fresh uniform draw,
which removes correlations between pairs while keeping the intra-pair
correlation that controls momentum trapping.  The trailing drift is omitted
because the next pair redraws the angle anyway; consequently there is no
drift-length parameter.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import _streams
from ._limits import MAX_ENSEMBLE, check_ensemble, check_integers, check_reals, to_array
from .specs import (
    DoubleKickMap,
    DoubleWellMap,
    MapSpec,
    RandomRescaledDoubleKickMap,
    RescaledDoubleKickMap,
    StandardMap,
)

__all__ = [
    "StandardMap",
    "DoubleKickMap",
    "RescaledDoubleKickMap",
    "RandomRescaledDoubleKickMap",
    "DoubleWellMap",
    "MapSpec",
    "EnsembleStats",
    "FixedPoint",
    "map_step",
    "iterate_ensemble",
    "surface_of_section",
    "fixed_point_stability",
    "MAX_ENSEMBLE",
]

# Trajectories per tile: the contiguous slice of the ensemble one thread steps.
_TILE = 4096
# |V''(x*)| below which a fixed point is reported as marginal.
MARGINAL_TOL = 1e-9

TWO_PI = 2.0 * np.pi


def _step(x, p, spec: MapSpec, draws=None):
    """One full map period on scalars or aligned arrays."""
    if isinstance(spec, StandardMap):
        p = p - spec.k * np.sin(x)
        x = x + p
    elif isinstance(spec, DoubleKickMap):
        p = p - spec.k * np.sin(x)
        x = x + p * spec.eps
        p = p - spec.k * np.sin(x)
        x = x + p * spec.tau
    elif isinstance(spec, RescaledDoubleKickMap):
        p = p - spec.k_eps * np.sin(x)
        x = x + p
        p = p - spec.k_eps * np.sin(x)
        x = x + p * spec.tau_eps
    elif isinstance(spec, RandomRescaledDoubleKickMap):
        x = draws
        p = p - spec.k_eps * np.sin(x)
        x = x + p
        p = p - spec.k_eps * np.sin(x)
    elif isinstance(spec, DoubleWellMap):
        p = p - spec.k1 * np.sin(x) - 2.0 * spec.k2 * np.sin(2.0 * x)
        x = x + p
    else:
        raise TypeError(f"unknown map spec {type(spec).__name__}")
    return x, p


def map_step(x: float, p: float, spec: MapSpec, rng: np.random.Generator | None = None):
    """Advance a single phase point, finite reals ``x`` and ``p``, by one full period of the map."""
    check_reals(x=x, p=p)
    draws = None
    if isinstance(spec, RandomRescaledDoubleKickMap):
        if rng is None:
            raise ValueError("random map variant requires an rng")
        # read as it is used, not as a np.random.Generator, which would load numpy.random
        if not callable(getattr(rng, "uniform", None)):
            raise TypeError(f"rng must be a random generator, got {type(rng).__name__}")
        draws = rng.uniform(0.0, TWO_PI)
    return _step(x, p, spec, draws)


@dataclass
class EnsembleStats:
    """Ensemble momentum statistics recorded along an iteration.

    ``momenta`` has shape (n_records, n_trajectories) and holds unwrapped
    momenta; ``mean_p`` and ``var_p`` are the per-record ensemble mean and
    variance.
    """

    steps: np.ndarray
    mean_p: np.ndarray
    var_p: np.ndarray
    momenta: np.ndarray


def _ensemble(x0, p0, spec: MapSpec, n_steps: int, seed, record_every=None):
    """Validated float copies of the initial conditions, checked with the caps before any work,
    and the seed as a SeedSequence or its :data:`_streams.Seed` record."""
    x = to_array(x0, "x0", copy=True).ravel()
    p = to_array(p0, "p0", copy=True).ravel()
    if x.size == 0:
        raise ValueError("ensemble must contain at least one trajectory")
    if x.shape != p.shape:
        raise ValueError("x0 and p0 must have the same length")
    check_ensemble(x.size, n_steps, record_every)
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise ValueError("initial conditions must be finite")
    if isinstance(spec, RandomRescaledDoubleKickMap) and seed is None:
        raise ValueError("random map variant requires a seed")
    if seed is not None and not hasattr(seed, "spawn_key"):
        check_integers(seed=seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        seed = _streams.Seed(int(seed))
    return x, p, seed


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _advance_tile(x, p, spec, n_steps, seq, a, b, emit):
    """Step trajectories a:b; return how many of them ended non-finite."""
    x, p = x[a:b], p[a:b]
    angles = repeat(None, n_steps) if seq is None else _streams.angles(seq, a, b, n_steps)
    for t, draws in enumerate(angles, 1):
        x, p = _step(x, p, spec, draws)
        emit(t, a, b, x, p)
    return int(np.count_nonzero(~(np.isfinite(x) & np.isfinite(p))))


def _advance(x, p, spec: MapSpec, n_steps: int, seed, emit) -> None:
    """Step the ensemble ``n_steps`` times, calling ``emit(t, a, b, x, p)`` after step t.

    The ensemble is cut into contiguous tiles of at most ``_TILE``
    trajectories; ``x`` and ``p`` passed to ``emit`` are the new state of
    trajectories a:b.  Tiles run on one thread per usable CPU (numpy's
    ufuncs release the GIL), and emit calls of different tiles may
    interleave.  Every element sees the same arithmetic whatever the tiling,
    so results do not depend on the number of threads.  Trajectory i of the
    random variant draws its angles from child i of ``seed``.
    """
    seq = seed if isinstance(spec, RandomRescaledDoubleKickMap) else None

    def run(tile):
        # errstate is per thread, so each tile enters its own
        with np.errstate(over="ignore", invalid="ignore"):
            return _advance_tile(x, p, spec, n_steps, seq, *tile, emit)

    n = x.size
    n_tiles = -(-n // _TILE)
    workers = min(_usable_cpus(), n_tiles)
    n_tiles = -(-n_tiles // workers) * workers  # equal shares for the workers
    bounds = [n * k // n_tiles for k in range(n_tiles + 1)]
    tiles = list(zip(bounds[:-1], bounds[1:]))
    if workers == 1:
        bad = sum(map(run, tiles))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            bad = sum(pool.map(run, tiles))
    if bad:
        raise ValueError(f"{bad} of {n} trajectories became non-finite (the map overflowed)")


def iterate_ensemble(
    x0,
    p0,
    spec: MapSpec,
    n_steps: int,
    record_every: int = 1,
    seed: int | np.random.SeedSequence | None = None,
) -> EnsembleStats:
    """Iterate an ensemble of initial conditions, recording momentum statistics.

    Records step 0 and the final step regardless of ``record_every``.  For the
    random map variant ``seed`` (an int or a ``SeedSequence``) is required, and
    trajectory i draws its angles from child i of it:
    ``SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (i,))``, the i-th
    child a fresh ``seq.spawn`` gives.  ``seed`` itself is not advanced, so a
    seed gives the same streams on every call, whatever the batching.  Raises
    ``ValueError`` if any trajectory overflows to a non-finite value, or the
    momentum mean or variance of a step does.
    """
    check_integers(n_steps=n_steps, record_every=record_every)
    x, p, seed = _ensemble(x0, p0, spec, n_steps, seed, record_every)
    steps = list(range(0, n_steps + 1, record_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    row_of = {t: r for r, t in enumerate(steps)}
    momenta = np.empty((len(steps), x.size))
    momenta[0] = p

    def record(t, a, b, x, p):
        r = row_of.get(t)
        if r is not None:
            momenta[r, a:b] = p

    _advance(x, p, spec, n_steps, seed, record)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mean_p, var_p = momenta.mean(axis=1), momenta.var(axis=1)
    if not (np.isfinite(mean_p).all() and np.isfinite(var_p).all()):
        raise ValueError("the momentum mean or variance overflowed; every momentum is finite")
    return EnsembleStats(steps=np.array(steps), mean_p=mean_p, var_p=var_p, momenta=momenta)


def surface_of_section(
    x0,
    p0,
    spec: MapSpec,
    n_steps: int,
    seed: int | np.random.SeedSequence | None = None,
) -> np.ndarray:
    """Stroboscopic section points, one per full map period.

    Returns an array of shape (n_trajectories, n_steps, 2) whose last axis is
    (x mod 2*pi, p) recorded after each step.  Validation and the random
    variant's streams are those of :func:`iterate_ensemble`.
    """
    check_integers(n_steps=n_steps)
    x, p, seed = _ensemble(x0, p0, spec, n_steps, seed)
    out = np.empty((x.size, n_steps, 2))

    def record(t, a, b, x, p):
        out[a:b, t - 1, 0] = np.mod(x, TWO_PI)
        out[a:b, t - 1, 1] = p

    _advance(x, p, spec, n_steps, seed, record)
    return out


@dataclass(frozen=True)
class FixedPoint:
    """Period-1 fixed point on the p = 0 line with its tangent-map trace.

    The trace of the linearized one-step map is 2 - V''(x*); the point is
    stable for |trace| < 2, marginal when V''(x*) vanishes.
    """

    x: float
    p: float
    trace: float
    stability: str  # "stable" | "unstable" | "marginal"


def fixed_point_stability(spec: MapSpec) -> list[FixedPoint]:
    """All period-1 fixed points of a single-drift kicked map on p = 0.

    The kick force of the standard (k1 = k, k2 = 0) and double-well maps
    factors as V'(x) = sin(x) * (k1 + 4*k2*cos(x)), so its roots on
    [0, 2*pi) are 0 and pi, plus +-arccos(-k1/(4*k2)) mod 2*pi when
    |k1| <= 4*|k2|; a root shared by both factors is listed once.  Each is
    classified by the tangent-map trace 2 - V''(x*).
    """
    if isinstance(spec, StandardMap):
        if spec.k == 0:
            raise ValueError("k = 0 has no isolated fixed points")
        k1, k2 = spec.k, 0.0
    elif isinstance(spec, DoubleWellMap):
        if spec.k1 == 0 and spec.k2 == 0:
            raise ValueError("k1 = k2 = 0 has no isolated fixed points")
        k1, k2 = spec.k1, spec.k2
    else:
        raise ValueError(
            f"fixed-point analysis applies to single-drift kicked maps, not {type(spec).__name__}"
        )

    # acos(+-1) is exactly 0 or pi, and -pi % 2*pi is pi, so a coinciding
    # root is an equal float and the set keeps one copy
    roots = {0.0, math.pi}
    if abs(k1) <= 4.0 * abs(k2):
        x = math.acos(-k1 / (4.0 * k2))
        roots |= {x, -x % TWO_PI}

    points = []
    for x in sorted(roots):
        curvature = k1 * math.cos(x) + 4.0 * k2 * math.cos(2.0 * x)
        if abs(curvature) < MARGINAL_TOL:
            stability = "marginal"
        elif 0.0 < curvature < 4.0:
            stability = "stable"
        else:
            stability = "unstable"
        points.append(FixedPoint(x=x, p=0.0, trace=2.0 - curvature, stability=stability))
    return points
