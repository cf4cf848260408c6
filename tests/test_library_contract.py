"""The library contract: a call returns a finite, meaningful result or is refused.

The readers of a site distribution in ``kickedchain.diagnostics`` each take
an array, or a record of snapshot arrays, and a ring centre.  Each is called
with 0-D, empty, 1-D and 2-D arrays, normalized or not, holding finite,
infinite, NaN and negative entries, and with centres, ring sizes, fit windows
and kick strengths from a pool of valid and invalid values; ring sizes over
the result cap must be refused before anything is allocated.  A call must
return a finite result or raise ``ValueError`` or ``TypeError``, and must
raise no warning; it may return only if its arguments are valid, and with
valid arguments only ``fit_localization_length``, whose window or data may
not allow a fit, may refuse.  The one warning allowed is ``cell_occupancy``'s
documented notice that the trapping cell is wider than the ring.
"""

import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedchain import (
    LocalizationFit,
    PropagationRecord,
    SpikeTrack,
    cell_occupancy,
    cyclic_displacements,
    detect_accelerator_modes,
    distribution_stats,
    fit_localization_length,
)
from kickedchain._limits import MAX_RESULT_BYTES

# rings of 24 sites and more leave room for a fit window
SHAPES = [(), (0,), (1,), (2,), (7,), (24,), (32,), (40,), (48,), (64,), (0, 4), (1, 6), (8, 8), (3, 5)]
SPECIAL = [np.inf, -np.inf, np.nan, -0.25, 2.0, 0.0]
CENTRES = [0, 3, -5, 17, 10**20, -(2**63), 1.5, True, None, "3"]
RING_SIZES = [-4, 0, 1, 2, 7, 64, np.int64(8), 4.0, True, None, "4", 10**13, 2**62]
WINDOW_STARTS = [0.0, 1.0, 2.5, -1.0, np.nan]
WINDOW_ENDS = [10.0, 11.5, 2.5, np.inf, np.nan]
GOOD_STRENGTHS = [0.05, 0.5, 3.0]
STRENGTHS = GOOD_STRENGTHS + [0.0, -1.0, np.inf, np.nan, 10**400]


@st.composite
def distributions(draw):
    """A float array of one of ``SHAPES``, mostly normalized, with up to two ``SPECIAL`` entries."""
    p = draw(hnp.arrays(float, st.sampled_from(SHAPES), elements=st.floats(0.0, 1.0)))
    if draw(st.sampled_from([True, True, True, False])) and p.sum() > 0:
        p = p / p.sum()
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if p.size else 0):
        p.flat[draw(st.integers(0, p.size - 1))] = draw(st.sampled_from(SPECIAL))
    return p


@st.composite
def records(draw):
    """A record of one to five ``distributions()`` snapshots, after the first mostly
    rolls of it, else new draws, at periods 0, 1, 2, ..."""
    first = draw(distributions())
    snapshots = [first]
    for shift in range(1, draw(st.sampled_from([1, 2, 3, 3, 4, 4, 5, 5]))):
        rolled = np.roll(first, shift) if first.ndim else first
        new = draw(st.sampled_from([False, False, False, True]))
        snapshots.append(draw(distributions()) if new else rolled)
    return PropagationRecord(list(enumerate(snapshots)), final_state=snapshots[-1], max_edge=0.0)


def is_distribution(p) -> bool:
    return (
        p.ndim == 1
        and p.size > 0
        and bool(np.all(np.isfinite(p)))
        and p.min() >= 0
        and abs(p.sum() - 1.0) <= 1e-6
    )


def outcome(call):
    """The call's result, or the ``ValueError`` or ``TypeError`` it raised; a warning
    other than the saturated trapping cell, or another exception, fails the property."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", message="trapping cell half-width")
        try:
            return call()
        except (ValueError, TypeError) as exc:
            return exc


def is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(
    p=distributions(),
    s0=st.sampled_from(CENTRES),
    n_sites=st.sampled_from(RING_SIZES),
    window=st.tuples(st.sampled_from(WINDOW_STARTS), st.sampled_from(WINDOW_ENDS)),
    b_weak=st.sampled_from(STRENGTHS),
)
def test_diagnostics_readers_return_finite_or_refuse(p, s0, n_sites, window, b_weak):
    valid_p = is_distribution(p)
    valid_s0 = is_integer(s0)

    d = outcome(lambda: cyclic_displacements(n_sites, s0))
    if valid_s0 and is_integer(n_sites) and 1 <= n_sites <= MAX_RESULT_BYTES // 8:
        assert d.dtype.kind == "i" and len(d) == n_sites
        assert d.min() >= -(n_sites // 2) and d.max() <= (n_sites - 1) // 2
    else:
        assert isinstance(d, Exception), d

    stats = outcome(lambda: distribution_stats(p, s0))
    if valid_p and valid_s0:
        assert all(np.isfinite(stats)), stats
    else:
        assert isinstance(stats, Exception), stats

    occupancy = outcome(lambda: cell_occupancy(p, b_weak, s0))
    if valid_p and valid_s0 and b_weak in GOOD_STRENGTHS:
        assert 0.0 <= occupancy <= 1.0 + 1e-6, occupancy
    else:
        assert isinstance(occupancy, Exception), occupancy

    fit = outcome(lambda: fit_localization_length(p, s0, window))
    if isinstance(fit, LocalizationFit):
        assert valid_p and valid_s0, fit
        # an infinite length is the documented result of a profile that does not decay
        assert np.isfinite(fit.r_squared) and (np.isfinite(fit.length) or fit.length == np.inf)
    else:
        assert isinstance(fit, ValueError) or not (valid_p and valid_s0), fit


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(
    record=records(),
    # weighted towards valid values, so that more records are tracked
    center=st.one_of(st.sampled_from(CENTRES[:4]), st.sampled_from(CENTRES)),
    b_kick=st.one_of(st.sampled_from(GOOD_STRENGTHS), st.sampled_from(STRENGTHS)),
)
def test_spike_tracking_returns_finite_tracks_or_refuses(record, center, b_kick):
    snapshots = [p for _, p in record.snapshots]
    valid = (
        len(snapshots) >= 3
        and all(is_distribution(p) for p in snapshots)
        and len({p.shape for p in snapshots}) == 1
        and is_integer(center)
        and b_kick in GOOD_STRENGTHS
    )
    tracks = outcome(lambda: detect_accelerator_modes(record, b_kick, center))
    if not valid:
        assert isinstance(tracks, Exception), tracks
        return
    n = len(snapshots[0])
    for track, side in zip(tracks, ("left", "right")):
        assert isinstance(track, SpikeTrack) and track.side == side
        assert set(track.periods) <= set(range(len(snapshots)))
        assert all(0 <= s < n for s in track.sites)
        assert all(0.0 <= m <= 1.0 + 1e-6 for m in track.masses)
        assert track.speed is None or np.isfinite(track.speed)
