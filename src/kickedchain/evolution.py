"""Floquet propagation of kicked spin chains and the image kicked rotor.

One period of the pulsed chain is free exchange evolution followed by an
instantaneous parabolic-field kick.  The exchange step is diagonal in the
magnon (wavenumber) basis and is applied by FFT; kicks are diagonal phases in
the site basis.  ``qkr_evolve`` runs the one-body image instead: a kicked
rotor in a truncated momentum basis, with the roles of the two bases swapped
(free rotation is diagonal in momentum, the cosine kick is diagonal in
angle).  Both are the same split-operator step, run by one engine.
``build_floquet`` assembles the chain's one-period operator as a dense matrix
by direct kernel summation, deliberately avoiding the FFT path, so the two
routes can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._limits import (
    MAX_TRANSFORM_SITES, PROBABILITY_TOL, LimitError, check_propagation, check_rotor, to_array,
)
from ._streams import Seed, uniform
from .chain import delta_state, dispersion, wavenumber_grid
from .specs import ChainConfig, DoubleKick, KickSchedule, RandomDoubleKick, SingleKick, check_chain_phases

__all__ = [
    "SingleKick", "DoubleKick", "RandomDoubleKick", "KickSchedule", "PropagationRecord",
    "evolve", "build_floquet", "qkr_evolve",
    "MAX_TRANSFORM_SITES", "MAX_DENSE_SITES",
]

# Resource cap of the dense oracle route.
MAX_DENSE_SITES = 4096


@dataclass
class PropagationRecord:
    """Snapshots of the site-probability distribution along one evolution.

    ``snapshots`` holds (period index, |amplitudes|**2) pairs; period 0 and
    the final period are always present.  An evolution given ``on_snapshot``
    keeps only the final one, since the callback has had every one.
    ``max_edge`` is the largest |a[0]|**2 + |a[-1]|**2 of the amplitudes
    after any period, recorded or not, and at period 0: a rotor's edge
    probability, or a chain's probability on its first and last sites.
    """

    snapshots: list[tuple[int, np.ndarray]]
    final_state: np.ndarray
    max_edge: float

    @property
    def final_distribution(self) -> np.ndarray:
        return self.snapshots[-1][1]


def _exchange_phases(config: ChainConfig, period: float) -> np.ndarray:
    """exp(-i * dispersion(k) * period) on the FFT's wavenumber order."""
    k = 2.0 * np.pi * np.fft.fftfreq(config.n_sites)
    return np.exp(-1j * dispersion(config, k) * period)


def _parabola(strength: float, n: int, center: int) -> np.ndarray:
    """Site phases exp(-i * strength/2 * (s - center)^2) of a parabolic kick."""
    d = np.arange(n) - center
    return np.exp(-0.5j * strength * d * d)


def _kick_phases(schedule: KickSchedule, n: int, center: int) -> list[np.ndarray]:
    """Per-period kick phase arrays, in order, of a schedule that check_chain_phases admits."""
    if isinstance(schedule, SingleKick):
        return [_parabola(schedule.b_kick, n, center)]
    if isinstance(schedule, DoubleKick):
        return [_parabola(schedule.b_weak, n, center), _parabola(schedule.b_strong, n, center)]
    frozen = np.exp(-1j * uniform(Seed(schedule.seed), n, (0.0, 2.0 * np.pi))[0])
    return [_parabola(schedule.b_weak, n, center), frozen]


def _split_step(amps, period, n_periods: int, snapshot_every: int, emit) -> PropagationRecord:
    """Run ``n_periods`` periods of the operations ``period`` on ``amps``, in place.

    Each operation is ``np.fft.fft`` or ``np.fft.ifft``, which transforms
    ``amps`` in place, or a phase array to multiply it by.  ``amps`` is the
    caller's to hand over; snapshots are fresh arrays, each passed to
    ``emit(period, probabilities)``, if given, as it is taken, and then only
    the last is kept.
    """
    snapshots, max_edge = [], 0.0
    for t in range(n_periods + 1):
        for op in period if t else ():  # period 0 is the initial state
            if isinstance(op, np.ndarray):
                np.multiply(amps, op, out=amps)
            else:
                op(amps, out=amps)
        max_edge = max(max_edge, float(abs(amps[0]) ** 2 + abs(amps[-1]) ** 2))
        if t % snapshot_every == 0 or t == n_periods:
            snapshot = (t, np.abs(amps) ** 2)
            if emit is not None:
                emit(*snapshot)
                snapshots.clear()
            snapshots.append(snapshot)
    return PropagationRecord(snapshots=snapshots, final_state=amps, max_edge=max_edge)


def evolve(
    state: np.ndarray,
    config: ChainConfig,
    schedule: KickSchedule,
    n_periods: int,
    snapshot_every: int = 1,
    *,
    on_snapshot=None,
) -> PropagationRecord:
    """Propagate ``state`` for ``n_periods`` periods of the kick schedule.

    Per period: exchange evolution, then the kick (for double schedules:
    exchange, weak kick, exchange, strong kick).  Site probabilities are
    recorded every ``snapshot_every`` periods, plus period 0 and the final
    period.  The state must be finite with norm**2 within
    ``PROBABILITY_TOL`` of 1; any other is refused before the first period.

    ``on_snapshot(period, probabilities)``, if given, is called on the
    calling thread as each snapshot is taken, in period order, with a fresh
    array that must not be modified.  The record then keeps only the final
    snapshot, the very array of the last call, so a run's memory does not grow
    with its snapshots.  A run refused before its first period never calls it,
    and an exception it raises ends the run and propagates with no further call.
    """
    check_chain_phases(config, schedule)
    n = config.n_sites
    if len(state) != n:
        raise ValueError(f"state length {len(state)} != n_sites {config.n_sites}")
    check_propagation(n, n_periods, snapshot_every)
    amps = to_array(state, "state", complex, copy=True)
    norm2 = float(np.vdot(amps, amps).real)
    if not abs(norm2 - 1.0) <= PROBABILITY_TOL:  # also refuses NaN and inf
        raise ValueError(f"state norm**2 is {norm2!r}; it must be 1 within {PROBABILITY_TOL}")

    exchange = _exchange_phases(config, schedule.period)
    kicks = _kick_phases(schedule, n, config.kick_center)
    period = [op for kick in kicks for op in (np.fft.fft, exchange, np.fft.ifft, kick)]
    return _split_step(amps, period, n_periods, snapshot_every, on_snapshot)


def build_floquet(config: ChainConfig, schedule: KickSchedule) -> np.ndarray:
    """Dense one-period operator by direct kernel summation (oracle route).

    The exchange block is W[r, s] = (1/N) sum_m exp(i*(r-s)*k_m) *
    exp(-i*E(k_m)*period), evaluated by explicit summation over the
    wavenumber grid; kicks multiply rows by their diagonal phases.
    """
    check_chain_phases(config, schedule)
    n = config.n_sites
    if n > MAX_DENSE_SITES:
        raise LimitError(f"n_sites {n} exceeds dense cap {MAX_DENSE_SITES}")

    ks = wavenumber_grid(n)
    weights = np.exp(-1j * dispersion(config, ks) * schedule.period) / n
    dvals = np.arange(-(n - 1), n)
    kernel = np.exp(1j * np.outer(dvals, ks)) @ weights
    r, s = np.indices((n, n))
    exchange = kernel[r - s + n - 1]

    u = np.eye(n, dtype=complex)
    for kick in _kick_phases(schedule, n, config.kick_center):
        u = kick[:, None] * (exchange @ u)
    return u


def qkr_evolve(
    initial_momentum: int,
    k: float,
    hbar: float,
    n_periods: int,
    n_basis: int,
    snapshot_every: int = 1,
    *,
    on_snapshot=None,
) -> PropagationRecord:
    """Kicked-rotor propagation in a truncated momentum basis.

    The basis holds ``n_basis`` momentum states centered on
    ``initial_momentum``; distributions are indexed by array position
    a = 0..n_basis-1, i.e. momentum l = initial_momentum + a - n_basis//2.
    Per period: free rotation exp(-i*hbar/2*l^2), then the cosine kick of
    strength k applied on the angle grid.  The record's ``max_edge`` is the
    largest edge probability after any period, which measures how much the
    truncation leaks.  ``on_snapshot`` is called, and the record then keeps
    only the final snapshot, as in :func:`evolve`.
    """
    check_rotor(initial_momentum, k, hbar, n_basis, n_periods, snapshot_every)

    l = initial_momentum + np.arange(n_basis) - n_basis // 2
    free_phases = np.exp(-0.5j * hbar * l.astype(float) ** 2)
    x = 2.0 * np.pi * np.arange(n_basis) / n_basis
    kick_phases = np.exp(1j * (k / hbar) * np.cos(x))

    period = (free_phases, np.fft.ifft, kick_phases, np.fft.fft)
    amps = delta_state(n_basis, n_basis // 2)
    return _split_step(amps, period, n_periods, snapshot_every, on_snapshot)
