"""Observables extracted from site-probability distributions.

Covers the quantities the propagation experiments are judged by: cyclic
variance and participation ratio, exponential localization-length fits,
ballistic spike tracking for accelerator modes, and trapping-cell occupancy
for double-kick schedules.  All site arithmetic is cyclic (ring topology).
"""

from __future__ import annotations

import functools
import math
import operator
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from ._limits import (
    PROBABILITY_TOL,
    check_integers,
    check_reals,
    check_result_bytes,
    check_type,
    to_array,
)
from .evolution import PropagationRecord

__all__ = [
    "LocalizationFit",
    "SpikeTrack",
    "SpikeTracker",
    "cyclic_displacements",
    "distribution_stats",
    "fit_localization_length",
    "detect_accelerator_modes",
    "cell_occupancy",
]

LOG_FLOOR = 1e-300
# Below this r-squared a ln P fit is not considered exponential decay.
EXPONENTIAL_R2_MIN = 0.5
# Spike tracking: a spike's mass is summed over +-MASS_WINDOW sites; it must
# clear THRESHOLD_FACTOR times the median of the central remnant band, and
# stand MIN_CONTRAST above its local background.  Localized distributions
# fluctuate only order-10x site to site, while a coherent ballistic spike is
# orders of magnitude above its background.
MASS_WINDOW = 10
THRESHOLD_FACTOR = 5.0
MIN_CONTRAST = 50.0


def cyclic_displacements(n_sites: int, s0: int) -> np.ndarray:
    """Minimal signed ring displacement of every site from ``s0``.

    Values lie in [-n_sites//2, (n_sites-1)//2]; for even chains the
    antipodal site is assigned -n_sites//2.
    """
    check_integers(n_sites=n_sites, s0=s0)
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    check_result_bytes(8 * n_sites, f"the displacements of {n_sites} sites")
    # reduced first, an integer identity, so that no centre overflows int64
    s0 = operator.index(s0) % operator.index(n_sites)
    s = np.arange(n_sites)
    return (s - s0 + n_sites // 2) % n_sites - n_sites // 2


def _check_probability(p) -> np.ndarray:
    p = to_array(p, "p")
    if p.ndim != 1:
        raise ValueError(f"p must be 1-D, one probability per site, got shape {p.shape}")
    with np.errstate(invalid="ignore"):  # inf and -inf sum to NaN, refused here
        total = p.sum()
    if not abs(total - 1.0) <= PROBABILITY_TOL:  # also rejects a NaN total
        raise ValueError(
            f"probabilities sum to {float(total)!r}, expected 1 within {PROBABILITY_TOL}"
        )
    if not p.min() >= 0:
        raise ValueError(f"probabilities must be >= 0, got {float(p.min())!r}")
    return p


def distribution_stats(p, s0: int) -> tuple[float, float]:
    """Cyclic variance about ``s0`` and participation ratio of a distribution."""
    p = _check_probability(p)
    d = cyclic_displacements(len(p), s0)
    variance = float(np.sum(d.astype(float) ** 2 * p))
    participation = float(1.0 / np.sum(p**2))
    return variance, participation


@dataclass(frozen=True)
class LocalizationFit:
    """Result of an exponential-profile fit ln P ~ -2|s - s0|/length."""

    length: float
    r_squared: float
    n_points: int

    @property
    def exponential(self) -> bool:
        """Whether the profile decays and the fit explains it."""
        return math.isfinite(self.length) and self.length > 0 and self.r_squared >= EXPONENTIAL_R2_MIN


def _line_fit(x, y):
    """Slope and r-squared of the least-squares line through the points ``(x, y)``.

    The slope is the closed form ``sum(dx * (y - ȳ)) / sum(dx**2)`` with
    ``dx = x - x̄`` (Björck 1996), each mean and sum a correctly rounded
    ``math.fsum`` over Python floats (Shewchuk 1997), so no LAPACK routine is
    called and the bits do not depend on the BLAS build; the intercept is
    ``ȳ - slope * x̄``.  Fewer than two distinct ``x``, or an ``x`` spread
    whose squares underflow or overflow, is a ``ValueError``.
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    xs, ys = x.tolist(), y.tolist()
    if len(set(xs)) < 2:
        raise ValueError(f"a line fit needs at least two distinct x, got {len(xs)} points")
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [v - x_mean for v in xs]
    sxx = math.fsum(d * d for d in dx)
    if not 0 < sxx < math.inf:
        raise ValueError(f"the squared x spread of a line fit is {sxx!r}, not positive and finite")
    slope = math.fsum(d * (v - y_mean) for d, v in zip(dx, ys)) / sxx
    intercept = y_mean - slope * x_mean
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return slope, r2


def fit_localization_length(p, s0: int, fit_window: tuple[float, float]) -> LocalizationFit:
    """Fit the decay length of an exponentially localized distribution.

    Regresses ln P against |s - s0| on each wing over displacements in
    ``fit_window``; the decay length is -2 / (mean wing slope).  Sites with
    probability at the floating-point floor are dropped; fewer than 10 usable
    points in total is an error, as is a ``p`` that is not a distribution.
    """
    p = _check_probability(p)
    n = len(p)
    d_min, d_max = fit_window
    if not 0 <= d_min < d_max or d_max >= n / 2:
        raise ValueError(f"fit window {fit_window} must satisfy 0 <= d_min < d_max < n/2")

    d = cyclic_displacements(n, s0)
    wings = []
    n_points = 0
    for sign in (+1, -1):
        mask = (sign * d >= d_min) & (sign * d <= d_max) & (p > LOG_FLOOR)
        if np.count_nonzero(mask) >= 2:
            wings.append(_line_fit(np.abs(d[mask]).astype(float), np.log(p[mask])))
        n_points += int(np.count_nonzero(mask))
    if n_points < 10:
        raise ValueError(f"insufficient data: {n_points} usable sites in window, need >= 10")

    slope = float(np.mean([w[0] for w in wings]))
    r2 = float(np.mean([w[1] for w in wings]))
    length = -2.0 / slope if slope < 0 else np.inf
    return LocalizationFit(length=length, r_squared=r2, n_points=n_points)


@dataclass
class SpikeTrack:
    """Positions and masses of one side's outermost qualifying spike per period.

    ``displacements`` are signed cyclic offsets from the kick center;
    ``speed`` is the least-squares growth of |displacement| per period, or
    None with fewer than two detections.
    """

    side: str
    periods: list[int] = field(default_factory=list)
    sites: list[int] = field(default_factory=list)
    displacements: list[int] = field(default_factory=list)
    masses: list[float] = field(default_factory=list)
    speed: float | None = None

    def _fit_speed(self):
        if len(self.periods) >= 2:
            self.speed = _line_fit(self.periods, [abs(d) for d in self.displacements])[0]


def _median(values) -> float:
    """``np.median`` of a non-empty 1-D array of finite values, bit for bit.

    numpy's median takes the middle value, or adds the two middle values and
    halves the sum, as here.  One partition at the middle leaves the lower
    middle value as the largest of the lower half, in time linear in the
    count, and keeps ``np.median``'s ``numpy.ma`` import out of the process.
    """
    mid = len(values) // 2
    v = np.partition(values, mid)
    upper = float(v[mid])
    return upper if len(v) % 2 else (float(v[:mid].max()) + upper) / 2


@functools.lru_cache(maxsize=1)
def _background_offsets(n):
    """Offsets mod ``n`` within ``8 * MASS_WINDOW`` of a site and outside its peak window."""
    ring = {k % n for k in range(-8 * MASS_WINDOW, 8 * MASS_WINDOW + 1)}
    peak = {k % n for k in range(-MASS_WINDOW, MASS_WINDOW + 1)}
    return np.array(sorted(ring - peak), dtype=np.intp)


def _local_contrast(p, site):
    """Peak height relative to the median background in a surrounding ring.

    The background is the median over the distinct sites within
    ``8 * MASS_WINDOW`` of ``site`` and outside its peak window.  On a ring of
    at most ``2 * MASS_WINDOW + 1`` sites the peak window covers every site,
    so there is no background to stand above: the contrast is 0.
    """
    offsets = _background_offsets(len(p))
    if not len(offsets):
        return 0.0
    background = _median(p[(int(site) + offsets) % len(p)])
    # in Python floats, whose quotient of a subnormal background is inf
    # without numpy's overflow warning
    return float(p[site]) / background if background > 0 else np.inf


def _outermost_spike(p, d, side_mask, threshold):
    """Outermost qualifying local maximum among sites in ``side_mask``.

    Candidates must clear ``threshold`` and stand ``MIN_CONTRAST`` above
    their local background.
    """
    is_max = (p > np.roll(p, 1)) & (p > np.roll(p, -1)) & (p >= threshold) & side_mask
    candidates = np.nonzero(is_max)[0]
    for site in sorted(candidates, key=lambda s: abs(d[s]), reverse=True):
        if _local_contrast(p, site) >= MIN_CONTRAST:
            return int(site)
    return None


class SpikeTracker:
    """The spike tracking of :func:`detect_accelerator_modes`, fed one snapshot at a time.

    ``step(period, p)`` checks one snapshot: it must be a distribution, as in
    :func:`distribution_stats`, of the first snapshot's length, at an integer
    period above the one before.  It then adds each side's outermost
    qualifying spike to its track, and keeps nothing of the snapshot but the
    spikes' numbers.  ``tracks()`` fits the speeds and returns the left and
    the right track; it needs at least 3 snapshots.
    """

    def __init__(self, b_kick: float, center: int):
        check_reals(0, True, b_kick=b_kick)
        check_integers(center=center)
        self._b_kick, self._center = b_kick, center
        self._left, self._right = SpikeTrack(side="left"), SpikeTrack(side="right")
        self.n_snapshots = 0
        self._period = self._d = self._band = None

    def step(self, period, p) -> None:
        p = _check_probability(p)
        if self._d is not None and len(p) != len(self._d):
            raise ValueError(f"snapshots must all have one length, the first has {len(self._d)}")
        check_integers(**{f"the period of snapshot {self.n_snapshots}": period})
        if self.n_snapshots and period <= self._period:
            raise ValueError(
                f"snapshot periods must increase strictly, got {period} after {self._period}"
            )
        n = len(p)
        if self._d is None:
            self._d = cyclic_displacements(n, self._center)
            radius = int(min(max(2.0 * np.pi / self._b_kick, 5), n // 4))
            self._band = np.abs(self._d) <= radius
        d = self._d
        threshold = THRESHOLD_FACTOR * _median(p[self._band])
        for track, mask in ((self._left, d < 0), (self._right, d > 0)):
            site = _outermost_spike(p, d, mask, threshold)
            if site is None:
                continue
            window = (np.arange(site - MASS_WINDOW, site + MASS_WINDOW + 1)) % n
            track.periods.append(period)
            track.sites.append(site)
            track.displacements.append(int(d[site]))
            track.masses.append(float(p[window].sum()))
        self._period = period
        self.n_snapshots += 1

    def tracks(self) -> tuple[SpikeTrack, SpikeTrack]:
        if self.n_snapshots < 3:
            raise ValueError("need at least 3 snapshots to track spikes")
        self._left._fit_speed()
        self._right._fit_speed()
        return self._left, self._right


def detect_accelerator_modes(
    record: PropagationRecord,
    b_kick: float,
    center: int,
) -> tuple[SpikeTrack, SpikeTrack]:
    """Track counter-propagating probability spikes across snapshots.

    For every snapshot, each side of the kick center is scanned for its
    outermost local maximum that (a) exceeds ``THRESHOLD_FACTOR`` times the
    median probability of the central remnant band (sites within one
    ballistic hop 2*pi/b_kick of the center) and (b) stands ``MIN_CONTRAST``
    above the median background around it.  Qualifying spikes are accumulated
    into a left and a right track with the per-spike mass summed over a
    +-``MASS_WINDOW`` site window; no qualifying spike is not an error, it
    just leaves the track empty.  The snapshots go through a
    :class:`SpikeTracker` in order, which checks each as it comes, so a
    record is refused at its first faulty snapshot with the tracker's
    message; it must hold at least 3 snapshots.
    """
    check_type(record, PropagationRecord, "record", "a PropagationRecord")
    tracker = SpikeTracker(b_kick, center)
    for period, p in record.snapshots:
        tracker.step(period, p)
    return tracker.tracks()


def cell_occupancy(p, b_weak: float, center: int) -> float:
    """Probability inside the central trapping cell |s - center| < pi/b_weak.

    The cell is bounded by the first trapping lines where the weak-kick phase
    gradient reaches +-pi.  A cell wider than the chain returns 1 with a
    warning.
    """
    check_reals(0, True, b_weak=b_weak)
    check_integers(center=center)
    p = _check_probability(p)
    n = len(p)
    d = cyclic_displacements(n, center)
    half_width = np.pi / b_weak
    if half_width > n // 2:
        _warnings.warn(
            f"trapping cell half-width {half_width:.1f} exceeds half the chain ({n // 2}); "
            "occupancy saturates at 1",
            stacklevel=2,
        )
        return 1.0
    return float(p[np.abs(d) < half_width].sum())
