"""The frozen parameter records of chains, kick schedules and classical maps.

These are the dataclasses a scenario config is built from and checked
against.  They use only the standard library, so validating a config loads
no numpy; :mod:`.chain`, :mod:`.evolution` and :mod:`.maps` import them back
and run them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum


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
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if self.kick_center is None:
            object.__setattr__(self, "kick_center", self.n_sites // 2)
        if not 0 <= self.kick_center < self.n_sites:
            raise ValueError(
                f"kick_center must lie in [0, {self.n_sites}), got {self.kick_center}"
            )
        if not (math.isfinite(self.j1) and math.isfinite(self.j2)):
            raise ValueError(f"j1 and j2 must be finite, got {self.j1}, {self.j2}")
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


@dataclass(frozen=True)
class SingleKick:
    """One parabolic kick of curvature ``b_kick`` per period."""

    b_kick: float
    period: float

    def __post_init__(self):
        _check_schedule(self.period, b_kick=self.b_kick)


@dataclass(frozen=True)
class DoubleKick:
    """Alternating weak/strong parabolic kicks, one pair per period.

    The intended regime is b_strong/b_weak >> 1, mirroring the long drift
    between kick pairs of the double-kicked rotor.
    """

    b_weak: float
    b_strong: float
    period: float

    def __post_init__(self):
        _check_schedule(self.period, b_weak=self.b_weak, b_strong=self.b_strong)


@dataclass(frozen=True)
class RandomDoubleKick:
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
        _check_schedule(self.period, b_weak=self.b_weak)
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


KickSchedule = SingleKick | DoubleKick | RandomDoubleKick


def _check_schedule(period, **strengths):
    # period 0 is allowed as the degenerate do-nothing schedule
    for name, value in {"period": period, **strengths}.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


# The map-spec fields that are drift lengths.
_MAP_DRIFTS = ("eps", "tau", "tau_eps")


def _check_map(spec):
    """Refuse a map spec with a non-finite field, or a drift that is not > 0."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.name in _MAP_DRIFTS:
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be > 0 and finite, got {value}")
        elif not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class StandardMap:
    """p' = p - k*sin(x); x' = x + p'."""

    k: float

    def __post_init__(self):
        _check_map(self)


@dataclass(frozen=True)
class DoubleKickMap:
    """Kick pairs separated by a short drift eps inside the pair, tau between pairs.

    One step is the full pair: kick, drift eps, kick, drift tau.
    """

    k: float
    eps: float
    tau: float

    def __post_init__(self):
        _check_map(self)


@dataclass(frozen=True)
class RescaledDoubleKickMap:
    """Double-kick pair in rescaled variables where cells have width 2*pi.

    Momentum and kick strength are rescaled by the intra-pair drift, leaving
    k_eps and the drift ratio tau_eps (intended regime tau_eps >> 1).
    """

    k_eps: float
    tau_eps: float

    def __post_init__(self):
        _check_map(self)


@dataclass(frozen=True)
class RandomRescaledDoubleKickMap:
    """Rescaled double-kick pair whose entry angle is redrawn uniformly each pair."""

    k_eps: float

    def __post_init__(self):
        _check_map(self)


@dataclass(frozen=True)
class DoubleWellMap:
    """Kicked map with a two-harmonic potential -k1*cos(x) - k2*cos(2x).

    p' = p - k1*sin(x) - 2*k2*sin(2x); x' = x + p'.  The factor 2 on k2 is
    the derivative of cos(2x).
    """

    k1: float
    k2: float

    def __post_init__(self):
        _check_map(self)


MapSpec = (
    StandardMap
    | DoubleKickMap
    | RescaledDoubleKickMap
    | RandomRescaledDoubleKickMap
    | DoubleWellMap
)
