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

from dataclasses import dataclass, field

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

# Edge probability above which a truncated rotor basis is considered leaky.
QKR_LEAK_THRESHOLD = 1e-6


@dataclass
class PropagationRecord:
    """Snapshots of the site-probability distribution along one evolution.

    ``snapshots`` holds (period index, |amplitudes|**2) pairs; period 0 and
    the final period are always present.  ``warnings`` collects soft
    diagnostics such as basis-truncation leakage.
    """

    snapshots: list[tuple[int, np.ndarray]]
    final_state: np.ndarray
    warnings: list[str] = field(default_factory=list)

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
    """Per-period list of diagonal kick phase arrays, in application order."""
    if isinstance(schedule, SingleKick):
        return [_parabola(schedule.b_kick, n, center)]
    if isinstance(schedule, DoubleKick):
        return [_parabola(schedule.b_weak, n, center), _parabola(schedule.b_strong, n, center)]
    if isinstance(schedule, RandomDoubleKick):
        frozen = np.exp(-1j * uniform(Seed(schedule.seed), n, (0.0, 2.0 * np.pi))[0])
        return [_parabola(schedule.b_weak, n, center), frozen]
    raise TypeError(f"unknown schedule type {type(schedule).__name__}")


def _split_step(amps, steps, forward: str, n_periods: int, snapshot_every: int, emit):
    """Run ``n_periods`` periods of split-operator ``steps`` on ``amps``.

    A period runs each step ``(before, between, after)`` in order: multiply by
    ``before`` (own basis, or None), transform by ``forward`` ("fft" or
    "ifft"), multiply by ``between`` (conjugate basis), transform back,
    multiply by ``after`` (own basis, or None).  Every period runs in place
    on ``amps``, which the caller hands over; snapshots are fresh arrays,
    each passed to ``emit(period, probabilities)``, if given, as it is taken.
    Returns the record and the largest |amps[0]|**2 + |amps[-1]|**2 of any
    period.
    """
    fwd, inv = (np.fft.fft, np.fft.ifft) if forward == "fft" else (np.fft.ifft, np.fft.fft)
    snapshots = []

    def snap(t):
        prob = np.abs(amps) ** 2
        snapshots.append((t, prob))
        if emit is not None:
            emit(t, prob)
        return prob

    prob = snap(0)
    max_edge = float(prob[0] + prob[-1])
    for t in range(1, n_periods + 1):
        for before, between, after in steps:
            if before is not None:
                np.multiply(amps, before, out=amps)
            fwd(amps, out=amps)
            np.multiply(amps, between, out=amps)
            inv(amps, out=amps)
            if after is not None:
                np.multiply(amps, after, out=amps)
        max_edge = max(max_edge, float(abs(amps[0]) ** 2 + abs(amps[-1]) ** 2))
        if t % snapshot_every == 0 or t == n_periods:
            snap(t)
    return PropagationRecord(snapshots=snapshots, final_state=amps), max_edge


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
    calling thread as each snapshot is taken, in period order, with the very
    array the record keeps, which must not be modified.  A run refused before
    its first period never calls it, and an exception it raises ends the run
    and propagates with no further call.
    """
    n = config.n_sites
    if len(state) != n:
        raise ValueError(f"state length {len(state)} != n_sites {config.n_sites}")
    check_propagation(n, n_periods, snapshot_every)
    check_chain_phases(config, schedule)
    amps = to_array(state, "state", complex, copy=True)
    norm2 = float(np.vdot(amps, amps).real)
    if not abs(norm2 - 1.0) <= PROBABILITY_TOL:  # also refuses NaN and inf
        raise ValueError(f"state norm**2 is {norm2!r}; it must be 1 within {PROBABILITY_TOL}")

    exchange = _exchange_phases(config, schedule.period)
    steps = [(None, exchange, kick) for kick in _kick_phases(schedule, n, config.kick_center)]
    return _split_step(amps, steps, "fft", n_periods, snapshot_every, on_snapshot)[0]


def build_floquet(config: ChainConfig, schedule: KickSchedule) -> np.ndarray:
    """Dense one-period operator by direct kernel summation (oracle route).

    The exchange block is W[r, s] = (1/N) sum_m exp(i*(r-s)*k_m) *
    exp(-i*E(k_m)*period), evaluated by explicit summation over the
    wavenumber grid; kicks multiply rows by their diagonal phases.
    """
    n = config.n_sites
    if n > MAX_DENSE_SITES:
        raise LimitError(f"n_sites {n} exceeds dense cap {MAX_DENSE_SITES}")
    check_chain_phases(config, schedule)

    ks = wavenumber_grid(n)
    weights = np.exp(-1j * dispersion(config, ks) * schedule.period) / n
    dvals = np.arange(-(n - 1), n)
    kernel = np.exp(1j * np.outer(dvals, ks)) @ weights
    r, s = np.indices((n, n))
    exchange = kernel[r - s + n - 1]

    kicks = _kick_phases(schedule, n, config.kick_center)
    u = np.eye(n, dtype=complex)
    for kick in kicks:
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
    strength k applied on the angle grid.  If the edge probability exceeds
    1e-6 after any period, recorded or not, a truncation-leakage warning is
    attached to the record.  ``on_snapshot`` is called as in :func:`evolve`.
    """
    check_rotor(initial_momentum, k, hbar, n_basis, n_periods, snapshot_every)

    l = initial_momentum + np.arange(n_basis) - n_basis // 2
    free_phases = np.exp(-0.5j * hbar * l.astype(float) ** 2)
    x = 2.0 * np.pi * np.arange(n_basis) / n_basis
    kick_phases = np.exp(1j * (k / hbar) * np.cos(x))

    steps = [(free_phases, kick_phases, None)]
    amps = delta_state(n_basis, n_basis // 2)
    record, max_edge = _split_step(amps, steps, "ifft", n_periods, snapshot_every, on_snapshot)
    if max_edge > QKR_LEAK_THRESHOLD:
        record.warnings.append(
            f"momentum-basis truncation leakage: edge probability {max_edge:.3e} "
            f"exceeds {QKR_LEAK_THRESHOLD:.0e}"
        )
    return record
