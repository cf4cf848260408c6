"""Back-of-envelope feasibility of pulsed parabolic fields on real chains.

Given the peak field reached across the chain, the chain length, and the
exchange rate, this estimates the parabolic curvature per site, converts
fields between atomic units and Tesla, and brackets admissible pulse
durations: long enough for the kick action N^2 * b * dt to dominate, short
enough that the instantaneous-kick (split-step) picture holds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

from ._limits import LimitError, check_integers, check_reals

__all__ = ["FeasibilityReport", "feasibility", "AU_TIME_SECONDS", "FIELD_TESLA_PER_AU"]

# Atomic unit of time in seconds.
AU_TIME_SECONDS = 2.418884326585747e-17

# Conversion used for the magnetic field, chosen so that 1e-6 au = 0.47 T
# (about 2x the conventional atomic unit of field; kept as a config constant).
FIELD_TESLA_PER_AU = 0.47 / 1e-6

# Pulse-duration rules, in terms of the kick action A = N^2 * b_kick * dt and
# the exchange-per-pulse product j * dt:
#   hard floor      A >= KICK_ACTION_MIN       (kick must dominate)
#   comfortable     A in [100, 1000]           (strongly kicked regime)
#   hard ceiling    2 * j * dt <= SPLIT_STEP_MAX (kicks ~ instantaneous)
KICK_ACTION_MIN = 10.0
KICK_ACTION_STRONG = (100.0, 1000.0)
SPLIT_STEP_MAX = 0.1

# Pulse repetition period, in seconds, when none is given.
DEFAULT_T0_SECONDS = 1e-6

# The chain length enters the estimates as a float, exact up to 2**53.
_MAX_SITES = 2**53


@dataclass(frozen=True)
class FeasibilityReport:
    """Derived field/pulse scales and validity flags.

    Durations are in atomic units of time.  ``feasible`` requires a nonempty
    overlap between the kick-action floor and the split-step ceiling;
    ``strong_kick_window_au`` is the duration range giving kick action in the
    comfortably strong 100-1000 band, reported regardless of feasibility.
    Without a field (``b_range_au`` = 0) the kick-action durations are
    infinite; ``to_dict`` writes them as None (JSON null).
    """

    b_range_au: float
    n_sites: int
    j_hz: float
    b_kick_au: float
    b_range_tesla: float
    pulse_min_au: float
    pulse_max_au: float
    strong_kick_window_au: tuple[float, float]
    exchange_action: float
    exchange_action_ok: bool
    feasible: bool

    def to_dict(self) -> dict:
        out = asdict(self)
        out["pulse_min_au"] = _bound(self.pulse_min_au)
        out["pulse_max_au"] = _bound(self.pulse_max_au)
        out["strong_kick_window_au"] = [_bound(t) for t in self.strong_kick_window_au]
        return out


def _bound(duration: float) -> float | None:
    return duration if math.isfinite(duration) else None


def feasibility(
    b_range_au: float,
    n_sites: int,
    j_hz: float,
    t0_seconds: float = DEFAULT_T0_SECONDS,
) -> FeasibilityReport:
    """Estimate pulse-duration bounds for a parabolic field of given range.

    ``b_range_au`` is the field at the chain edge relative to the center (in
    atomic units), so the curvature per site is b = 2*b_range/N^2.  ``j_hz``
    is the exchange rate treated as a plain inverse time.  ``t0_seconds`` is
    the pulse repetition period used for the many-oscillations check
    2*j*T0 >> 1.  An empty duration window is reported as infeasible, not an
    error; inputs whose estimate overflows raise ``LimitError``.
    """
    check_integers(n_sites=n_sites)
    check_reals(0, b_range_au=b_range_au)
    if not 0 < n_sites <= _MAX_SITES:
        raise ValueError(f"n_sites must be > 0 and <= {_MAX_SITES}")
    check_reals(0, True, j_hz=j_hz, t0_seconds=t0_seconds)
    # in Python numbers, so that a numpy float32 or int64 argument neither overflows nor wraps
    b_range_au, n_sites, j_hz = float(b_range_au), operator.index(n_sites), float(j_hz)
    t0_seconds = float(t0_seconds)

    b_kick = 2.0 * b_range_au / n_sites**2
    j_au = j_hz * AU_TIME_SECONDS

    if b_kick > 0:
        action_scale = 1.0 / (n_sites**2 * b_kick)
        pulse_min = KICK_ACTION_MIN * action_scale
        strong = (KICK_ACTION_STRONG[0] * action_scale, KICK_ACTION_STRONG[1] * action_scale)
    else:
        pulse_min = float("inf")
        strong = (float("inf"), float("inf"))
    pulse_max = SPLIT_STEP_MAX / (2.0 * j_au)

    exchange_action = 2.0 * j_hz * t0_seconds
    b_range_tesla = b_range_au * FIELD_TESLA_PER_AU
    # a duration may be infinite (no bound, written as null); the other derived
    # values must be finite, and b_kick <= 2 * b_range_au is when the Tesla value is
    for name, value in (("b_range_tesla", b_range_tesla), ("exchange_action", exchange_action)):
        if not math.isfinite(value):
            raise LimitError(f"{name} is not finite; the inputs are out of range")
    return FeasibilityReport(
        b_range_au=b_range_au,
        n_sites=n_sites,
        j_hz=j_hz,
        b_kick_au=b_kick,
        b_range_tesla=b_range_tesla,
        pulse_min_au=pulse_min,
        pulse_max_au=pulse_max,
        strong_kick_window_au=strong,
        exchange_action=exchange_action,
        exchange_action_ok=exchange_action >= 10.0,
        feasible=pulse_min <= pulse_max,
    )
