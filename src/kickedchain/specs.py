"""The frozen parameter records of chains, kick schedules and classical maps.

These are the dataclasses a scenario config is built from and checked
against.  They use only the standard library, so validating a config loads
no numpy; :mod:`.chain`, :mod:`.evolution` and :mod:`.maps` import them back
and run them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

from ._limits import check_integers, check_phases, check_reals


class ChainModel(str, Enum):
    """Exchange model selecting the one-magnon dispersion."""

    FERROMAGNET = "ferromagnet"
    NNN_LADDER = "nnn_ladder"
    ANTIFERRO_LINEAR = "antiferro_linear"


@dataclass(frozen=True)
class ChainConfig:
    """Ring of spins with nearest (j1) and next-nearest (j2) exchange.

    ``kick_center`` is the site index about which pulsed parabolic fields are
    centered; it defaults to the middle of the chain.
    """

    n_sites: int
    j1: float
    j2: float = 0.0
    kick_center: int | None = None
    model: ChainModel = ChainModel.FERROMAGNET

    def __post_init__(self):
        check_integers(n_sites=self.n_sites)
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if self.kick_center is None:
            object.__setattr__(self, "kick_center", self.n_sites // 2)
        check_integers(kick_center=self.kick_center)
        if not 0 <= self.kick_center < self.n_sites:
            raise ValueError(
                f"kick_center must lie in [0, {self.n_sites}), got {self.kick_center}"
            )
        check_reals(j1=self.j1, j2=self.j2)
        model = ChainModel(self.model)
        object.__setattr__(self, "model", model)
        if model is ChainModel.FERROMAGNET:
            if not self.j1 > 0:
                raise ValueError("ferromagnet requires j1 > 0")
            if self.j2 != 0:
                raise ValueError("ferromagnet requires j2 == 0")
        elif model is ChainModel.NNN_LADDER:
            if not self.j1 > 0:
                raise ValueError("nnn_ladder requires j1 > 0")
            if self.j2 == 0:
                raise ValueError("nnn_ladder requires j2 != 0")
        # antiferro_linear ignores j2 entirely


def _m_range(n_sites: int) -> tuple[int, int]:
    """Least and greatest integer m whose wavenumber 2*pi*m/n_sites lies in (-pi, pi]."""
    return -((n_sites - 1) // 2), n_sites // 2


class _Schedule:
    """A kick schedule's checks: each strength and the period are finite and >= 0.

    Period 0 is allowed as the degenerate do-nothing schedule.
    """

    def __post_init__(self):
        check_reals(0, **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "seed"})


@dataclass(frozen=True)
class SingleKick(_Schedule):
    """One parabolic kick of curvature ``b_kick`` per period."""

    b_kick: float
    period: float


@dataclass(frozen=True)
class DoubleKick(_Schedule):
    """Alternating weak/strong parabolic kicks, one pair per period.

    The intended regime is b_strong/b_weak >> 1, mirroring the long drift
    between kick pairs of the double-kicked rotor.
    """

    b_weak: float
    b_strong: float
    period: float


@dataclass(frozen=True)
class RandomDoubleKick(_Schedule):
    """Double kick with the strong parabola replaced by a static random field.

    The strong kick's site phases are drawn once from ``seed``, i.i.d. uniform
    on [0, 2*pi), and the same profile is reapplied every period.  This is the
    long-drift limit of the double kick: there the strong kick contributes a
    fixed, pseudo-random-in-site phase each period, and it is that frozen
    randomness which decorrelates successive kick pairs while preserving the
    intra-pair correlations responsible for trapping.
    """

    b_weak: float
    period: float
    seed: int

    def __post_init__(self):
        super().__post_init__()
        check_integers(seed=self.seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


KickSchedule = SingleKick | DoubleKick | RandomDoubleKick


def check_chain_phases(config: ChainConfig, schedule: KickSchedule) -> None:
    """Refuse a chain schedule whose exchange or kick phase is out of range, and a
    ``config`` or ``schedule`` of another type with ``TypeError``."""
    if not isinstance(config, ChainConfig):
        raise TypeError(f"config must be a ChainConfig, got {type(config).__name__}")
    if not isinstance(schedule, KickSchedule):
        raise TypeError(f"schedule must be a kick schedule, got {type(schedule).__name__}")
    # |dispersion| is at most |j1| for the antiferromagnet (which ignores j2)
    # and at most 2 * (|j1| + |j2|) otherwise
    j1, j2 = abs(float(config.j1)), abs(float(config.j2))
    energy = j1 if config.model is ChainModel.ANTIFERRO_LINEAR else 2.0 * (j1 + j2)
    d = max(config.kick_center, config.n_sites - 1 - config.kick_center)
    curvature = max(float(getattr(schedule, b, 0.0)) for b in ("b_kick", "b_weak", "b_strong"))
    check_phases(exchange=energy * float(schedule.period), kick=0.5 * curvature * d * d)


# The map-spec fields that are drift lengths.
_MAP_DRIFTS = ("eps", "tau", "tau_eps")


class _Map:
    """A map spec's checks: each field is finite, and each drift is > 0."""

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        check_reals(**{name: v for name, v in values.items() if name not in _MAP_DRIFTS})
        check_reals(0, True, **{name: v for name, v in values.items() if name in _MAP_DRIFTS})


@dataclass(frozen=True)
class StandardMap(_Map):
    """p' = p - k*sin(x); x' = x + p'."""

    k: float

@dataclass(frozen=True)
class DoubleKickMap(_Map):
    """Kick pairs separated by a short drift eps inside the pair, tau between pairs.

    One step is the full pair: kick, drift eps, kick, drift tau.
    """

    k: float
    eps: float
    tau: float

@dataclass(frozen=True)
class RescaledDoubleKickMap(_Map):
    """Double-kick pair in rescaled variables where cells have width 2*pi.

    Momentum and kick strength are rescaled by the intra-pair drift, leaving
    k_eps and the drift ratio tau_eps (intended regime tau_eps >> 1).
    """

    k_eps: float
    tau_eps: float

@dataclass(frozen=True)
class RandomRescaledDoubleKickMap(_Map):
    """Rescaled double-kick pair whose entry angle is redrawn uniformly each pair."""

    k_eps: float

@dataclass(frozen=True)
class DoubleWellMap(_Map):
    """Kicked map with a two-harmonic potential -k1*cos(x) - k2*cos(2x).

    p' = p - k1*sin(x) - 2*k2*sin(2x); x' = x + p'.  The factor 2 on k2 is
    the derivative of cos(2x).
    """

    k1: float
    k2: float

MapSpec = (
    StandardMap
    | DoubleKickMap
    | RescaledDoubleKickMap
    | RandomRescaledDoubleKickMap
    | DoubleWellMap
)
