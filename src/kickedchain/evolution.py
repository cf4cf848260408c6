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

import math
from dataclasses import dataclass, field

import numpy as np

from ._limits import check_result_bytes, check_work
from .chain import delta_state, dispersion, wavenumber_grid
from .specs import ChainConfig, ChainModel, DoubleKick, KickSchedule, RandomDoubleKick, SingleKick

__all__ = [
    "SingleKick", "DoubleKick", "RandomDoubleKick", "KickSchedule", "PropagationRecord",
    "evolve", "build_floquet", "qkr_evolve",
    "MAX_TRANSFORM_SITES", "MAX_DENSE_SITES",
]

# Resource caps for the two propagation routes.
MAX_TRANSFORM_SITES = 2**20
MAX_DENSE_SITES = 4096

# Edge probability above which a truncated rotor basis is considered leaky.
QKR_LEAK_THRESHOLD = 1e-6

# Largest phase, in rad, that a propagation accepts.  Doubles near 2**40 are
# spaced 2**-12 rad apart, so such a phase still resolves the dynamics; near
# 2**52 the spacing is 1 rad and the phase is noise, and beyond that the
# phases overflow.  The largest bundled phase is 2**19 rad (localization,
# qkr_localization).
_MAX_PHASE = 2.0**40


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
        rng = np.random.default_rng(schedule.seed)
        frozen = np.exp(-1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
        return [_parabola(schedule.b_weak, n, center), frozen]
    raise TypeError(f"unknown schedule type {type(schedule).__name__}")


def _check_phases(**phases: float) -> None:
    """Refuse a run before any phase array is built if a largest phase is out of range.

    The phases are Python floats, so computing them raises no numpy warning;
    an overflow shows as ``inf`` and is refused like ``nan``.
    """
    for name, value in phases.items():
        if not value <= _MAX_PHASE:  # also refuses NaN
            raise ValueError(f"{name} phase reaches {value:.3g} rad; it must be finite and <= 2**40")


def _check_chain_phases(config: ChainConfig, schedule: KickSchedule) -> None:
    """Refuse a chain schedule whose exchange or kick phase is out of range."""
    # |dispersion| is at most |j1| for the antiferromagnet (which ignores j2)
    # and at most 2 * (|j1| + |j2|) otherwise
    j1, j2 = abs(float(config.j1)), abs(float(config.j2))
    energy = j1 if config.model is ChainModel.ANTIFERRO_LINEAR else 2.0 * (j1 + j2)
    d = max(config.kick_center, config.n_sites - 1 - config.kick_center)
    curvature = max(float(getattr(schedule, b, 0.0)) for b in ("b_kick", "b_weak", "b_strong"))
    _check_phases(exchange=energy * float(schedule.period), kick=0.5 * curvature * d * d)


def _check_run(n: int, n_periods: int, snapshot_every: int) -> None:
    """Check a propagation's sizes and work against the caps before anything is built."""
    if n > MAX_TRANSFORM_SITES:
        raise ValueError(f"basis size {n} exceeds transform cap {MAX_TRANSFORM_SITES}")
    if n_periods < 0:
        raise ValueError("n_periods must be >= 0")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    n_snapshots = 1 + n_periods // snapshot_every + (n_periods % snapshot_every > 0)
    check_result_bytes(8 * n * n_snapshots, f"{n_snapshots} snapshots of {n} probabilities")
    check_work(n, n_periods, f"{n_periods} periods of {n} basis states")


def _split_step(amps, steps, forward: str, n_periods: int, snapshot_every: int):
    """Run ``n_periods`` periods of split-operator ``steps`` on ``amps``.

    A period runs each step ``(before, between, after)`` in order: multiply by
    ``before`` (own basis, or None), transform by ``forward`` ("fft" or
    "ifft"), multiply by ``between`` (conjugate basis), transform back,
    multiply by ``after`` (own basis, or None).  Every period runs in place
    on ``amps``, which the caller hands over; snapshots are fresh arrays.
    Returns the record and the largest |amps[0]|**2 + |amps[-1]|**2 of any
    period.
    """
    # imported here: scipy.fft is most of the package's import time, and
    # validation and the classical maps never transform
    from scipy import fft

    fwd, inv = (fft.fft, fft.ifft) if forward == "fft" else (fft.ifft, fft.fft)
    prob = np.abs(amps) ** 2
    snapshots = [(0, prob)]
    max_edge = float(prob[0] + prob[-1])
    for t in range(1, n_periods + 1):
        for before, between, after in steps:
            if before is not None:
                np.multiply(amps, before, out=amps)
            amps = fwd(amps, overwrite_x=True)
            np.multiply(amps, between, out=amps)
            amps = inv(amps, overwrite_x=True)
            if after is not None:
                np.multiply(amps, after, out=amps)
        max_edge = max(max_edge, float(abs(amps[0]) ** 2 + abs(amps[-1]) ** 2))
        if t % snapshot_every == 0 or t == n_periods:
            snapshots.append((t, np.abs(amps) ** 2))
    return PropagationRecord(snapshots=snapshots, final_state=amps), max_edge


def evolve(
    state: np.ndarray,
    config: ChainConfig,
    schedule: KickSchedule,
    n_periods: int,
    snapshot_every: int = 1,
) -> PropagationRecord:
    """Propagate ``state`` for ``n_periods`` periods of the kick schedule.

    Per period: exchange evolution, then the kick (for double schedules:
    exchange, weak kick, exchange, strong kick).  Site probabilities are
    recorded every ``snapshot_every`` periods, plus period 0 and the final
    period.
    """
    n = config.n_sites
    if len(state) != n:
        raise ValueError(f"state length {len(state)} != n_sites {config.n_sites}")
    _check_run(n, n_periods, snapshot_every)
    _check_chain_phases(config, schedule)

    exchange = _exchange_phases(config, schedule.period)
    steps = [(None, exchange, kick) for kick in _kick_phases(schedule, n, config.kick_center)]
    amps = np.array(state, dtype=complex, copy=True)
    return _split_step(amps, steps, "fft", n_periods, snapshot_every)[0]


def build_floquet(config: ChainConfig, schedule: KickSchedule) -> np.ndarray:
    """Dense one-period operator by direct kernel summation (oracle route).

    The exchange block is W[r, s] = (1/N) sum_m exp(i*(r-s)*k_m) *
    exp(-i*E(k_m)*period), evaluated by explicit summation over the
    wavenumber grid; kicks multiply rows by their diagonal phases.
    """
    n = config.n_sites
    if n > MAX_DENSE_SITES:
        raise ValueError(f"n_sites {n} exceeds dense cap {MAX_DENSE_SITES}")
    _check_chain_phases(config, schedule)

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
) -> PropagationRecord:
    """Kicked-rotor propagation in a truncated momentum basis.

    The basis holds ``n_basis`` momentum states centered on
    ``initial_momentum``; distributions are indexed by array position
    a = 0..n_basis-1, i.e. momentum l = initial_momentum + a - n_basis//2.
    Per period: free rotation exp(-i*hbar/2*l^2), then the cosine kick of
    strength k applied on the angle grid.  If the edge probability exceeds
    1e-6 after any period, recorded or not, a truncation-leakage warning is
    attached to the record.
    """
    if n_basis < 2:
        raise ValueError("n_basis must be >= 2")
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    if not (math.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar must be finite and > 0, got {hbar}")
    _check_run(n_basis, n_periods, snapshot_every)
    lo = initial_momentum - n_basis // 2
    l_max = float(max(abs(lo), abs(lo + n_basis - 1)))
    _check_phases(free=0.5 * float(hbar) * l_max * l_max, kick=abs(float(k) / float(hbar)))

    l = initial_momentum + np.arange(n_basis) - n_basis // 2
    free_phases = np.exp(-0.5j * hbar * l.astype(float) ** 2)
    x = 2.0 * np.pi * np.arange(n_basis) / n_basis
    kick_phases = np.exp(1j * (k / hbar) * np.cos(x))

    steps = [(free_phases, kick_phases, None)]
    amps = delta_state(n_basis, n_basis // 2)
    record, max_edge = _split_step(amps, steps, "ifft", n_periods, snapshot_every)
    if max_edge > QKR_LEAK_THRESHOLD:
        record.warnings.append(
            f"momentum-basis truncation leakage: edge probability {max_edge:.3e} "
            f"exceeds {QKR_LEAK_THRESHOLD:.0e}"
        )
    return record
