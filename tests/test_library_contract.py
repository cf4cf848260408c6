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
documented notice that the trapping cell is wider than the ring.  A record's
snapshot periods, drawn valid or not, must be integers that increase
strictly.  A ``SpikeTracker`` fed the same records one snapshot at a time
returns the same tracks as ``detect_accelerator_modes``, or refuses too.

The other public calls that take numbers or parameter records, from
``dispersion`` to ``feasibility``, are called with valid arguments, one or two
of them replaced from a pool of wrong types and extreme numbers.  The same
rule holds: a finite result or a ``ValueError`` or ``TypeError``, and no
warning.  So do the ensemble iterators, ``iterate_ensemble`` and
``surface_of_section``, whose initial conditions are also replaced from a
pool of arrays: bool and complex ones and a list holding a bool, which must
be refused, and empty, non-finite, longer, 2-D and object ones, and finite
values near 1e200, whose momentum variance overflows.
"""

import cmath
import dataclasses
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedchain import (
    ChainConfig,
    DoubleWellMap,
    FeasibilityReport,
    LocalizationFit,
    PropagationRecord,
    RandomRescaledDoubleKickMap,
    RescaledDoubleKickMap,
    SpikeTrack,
    SpikeTracker,
    StandardMap,
    cell_occupancy,
    cyclic_displacements,
    delta_state,
    detect_accelerator_modes,
    dispersion,
    distribution_stats,
    feasibility,
    fit_localization_length,
    fixed_point_stability,
    iterate_ensemble,
    magnon_state,
    map_step,
    rotor_image,
    surface_of_section,
    wavenumber_grid,
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
STRENGTHS = GOOD_STRENGTHS + [0.0, -1.0, np.inf, np.nan, 10**400, True]
# a record's snapshot periods are mostly 0, 1, 2, ..., else each drawn from
# this pool, which gives repeats, decreasing runs, NaN, a float, text and a bool
PERIODS = [0, 1, 2, 2, 3, np.int64(4), np.nan, 1.5, "1", True]


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
    rolls of it, else new draws, at periods 0, 1, 2, ... or from ``PERIODS``."""
    first = draw(distributions())
    snapshots = [first]
    for shift in range(1, draw(st.sampled_from([1, 2, 3, 3, 4, 4, 5, 5]))):
        rolled = np.roll(first, shift) if first.ndim else first
        new = draw(st.sampled_from([False, False, False, True]))
        snapshots.append(draw(distributions()) if new else rolled)
    periods = list(range(len(snapshots)))
    if draw(st.sampled_from([False, False, True])):
        periods = [draw(st.sampled_from(PERIODS)) for _ in snapshots]
    return PropagationRecord(list(zip(periods, snapshots)), final_state=snapshots[-1], max_edge=0.0)


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
    # weighted towards valid values, so that more records are tracked
    record=st.one_of(records(), st.sampled_from([None, "record"])),
    center=st.one_of(st.sampled_from(CENTRES[:4]), st.sampled_from(CENTRES)),
    b_kick=st.one_of(st.sampled_from(GOOD_STRENGTHS), st.sampled_from(STRENGTHS)),
)
def test_spike_tracking_returns_finite_tracks_or_refuses(record, center, b_kick):
    tracks = outcome(lambda: detect_accelerator_modes(record, b_kick, center))
    if not isinstance(record, PropagationRecord):
        assert isinstance(tracks, TypeError), tracks
        return
    periods = [t for t, _ in record.snapshots]
    snapshots = [p for _, p in record.snapshots]
    valid = (
        len(snapshots) >= 3
        and all(is_distribution(p) for p in snapshots)
        and len({p.shape for p in snapshots}) == 1
        and all(is_integer(t) for t in periods)
        and all(a < b for a, b in zip(periods, periods[1:]))
        and is_integer(center)
        and b_kick in GOOD_STRENGTHS
    )
    if not valid:
        assert isinstance(tracks, Exception), tracks
        return
    n = len(snapshots[0])
    for track, side in zip(tracks, ("left", "right")):
        assert isinstance(track, SpikeTrack) and track.side == side
        assert set(track.periods) <= set(periods)
        assert all(0 <= s < n for s in track.sites)
        assert all(0.0 <= m <= 1.0 + 1e-6 for m in track.masses)
        assert track.speed is None or np.isfinite(track.speed)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(
    record=records(),
    center=st.one_of(st.sampled_from(CENTRES[:4]), st.sampled_from(CENTRES)),
    b_kick=st.one_of(st.sampled_from(GOOD_STRENGTHS), st.sampled_from(STRENGTHS)),
)
def test_streamed_tracker_agrees_with_detect_accelerator_modes(record, center, b_kick):
    def streamed():
        tracker = SpikeTracker(b_kick, center)
        for period, p in record.snapshots:
            tracker.step(period, p)
        return tracker.tracks()

    whole = outcome(lambda: detect_accelerator_modes(record, b_kick, center))
    stream = outcome(streamed)
    if not isinstance(whole, Exception):
        assert stream == whole, (stream, whole)
        return
    assert isinstance(stream, Exception), stream
    # detect_accelerator_modes checks the whole record before it tracks, the
    # tracker each snapshot as it comes: they refuse for the same fault, or at
    # least one of the same type, unless the record has faults of both types
    periods = [t for t, _ in record.snapshots]
    snapshots = [p for _, p in record.snapshots]
    type_fault = not is_integer(center) or not all(is_integer(t) for t in periods)
    value_fault = (
        len(snapshots) < 3
        or not all(is_distribution(p) for p in snapshots)
        or len({p.shape for p in snapshots}) > 1
        or any(is_integer(a) and is_integer(b) and b <= a for a, b in zip(periods, periods[1:]))
    )
    if b_kick not in GOOD_STRENGTHS or not (type_fault and value_fault):
        assert type(stream) is type(whole), (stream, whole)


# Values that replace an argument: none of BAD is valid for a scalar or a
# record argument; the others are valid for some.
BAD = [None, "3", True, np.True_, np.nan, np.inf, -np.inf, 10**400, object()]
REPLACEMENTS = [(v, True) for v in BAD] + [(-3, False), (2**70, False)]
RING = ChainConfig(16, 1.0)
# Each call with valid arguments, and the positions that no value of BAD may
# take.  The one other is the rng, which a deterministic map ignores.
CALLS = {
    "dispersion": (dispersion, (RING, 0.3), {0, 1}),
    "wavenumber_grid": (wavenumber_grid, (16,), {0}),
    "magnon_state": (magnon_state, (16, 3), {0, 1}),
    "delta_state": (delta_state, (16, 3), {0, 1}),
    "rotor_image": (rotor_image, (RING, 2.0, 0.1), {0, 1, 2}),
    "map_step": (map_step, (0.1, 0.2, StandardMap(0.9), None), {0, 1, 2}),
    "map_step-random": (
        map_step, (0.1, 0.2, RandomRescaledDoubleKickMap(0.35), np.random.default_rng(1)), {0, 1, 2, 3}
    ),
    "fixed_point_stability": (fixed_point_stability, (DoubleWellMap(0.35, 0.35),), {0}),
    "feasibility": (feasibility, (1e-6, 100, 1e9, 1e-6), {0, 1, 2, 3}),
}


def numbers(result) -> list:
    """The numbers and arrays of a result, through its records and sequences;
    a duration bound of ``None`` and a stability label hold none."""
    if isinstance(result, FeasibilityReport):
        result = result.to_dict()
    elif dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, (list, tuple)):
        return [n for item in result for n in numbers(item)]
    return [] if result is None or isinstance(result, str) else [result]


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(CALLS)), data=st.data())
def test_public_calls_return_finite_or_refuse(name, data):
    call, args, strict = CALLS[name]
    args = list(args)
    refused = False
    for i in data.draw(st.sets(st.sampled_from(range(len(args))), min_size=1, max_size=2)):
        args[i], bad = data.draw(st.sampled_from(REPLACEMENTS))
        refused |= bad and i in strict
    result = outcome(lambda: call(*args))
    if isinstance(result, Exception):
        return
    assert not refused, result
    for value in numbers(result):
        assert np.all(np.isfinite(value)) if isinstance(value, np.ndarray) else cmath.isfinite(value), result


# Arrays that replace an ensemble's x0 or p0, each with whether it may never be
# valid there; a longer or 2-D array is valid where the other one matches.
ARRAYS = [
    (np.array([True, False]), True),
    (np.array([0.1, True], dtype=object), True),
    (np.array([0.1 + 1j, 0.2]), True),
    (np.array([0.1, 0.2 + 0j]), True),
    (np.array([0.1, 0.2 + 0j], dtype=object), True),
    (np.array([]), True),
    (np.array([0.1, np.nan]), True),
    (np.array([0.25, -0.5], dtype=object), False),
    (np.array([[0.3, -0.2]]), False),
    (np.array([0.1, 0.2, 0.3]), False),
    ([0.1, True], True),
    (np.array([1e200, -1e200]), False),
]
ENSEMBLE_SPECS = [StandardMap(0.9), DoubleWellMap(0.35, -0.35), RescaledDoubleKickMap(0.35, 60.0),
                  RandomRescaledDoubleKickMap(0.35)]
# Each ensemble call with valid arguments (the spec is drawn), and the
# positions that no value of BAD may take: a record_every or a seed of
# 10**400 is valid.
ENSEMBLE_CALLS = {
    "iterate_ensemble": (iterate_ensemble, ([0.1, 0.2], [0.0, 0.3], None, 5, 2, 7), {0, 1, 2, 3}),
    "surface_of_section": (surface_of_section, ([0.1, 0.2], [0.0, 0.3], None, 5, 7), {0, 1, 2, 3}),
}


@settings(max_examples=800, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(ENSEMBLE_CALLS)), spec=st.sampled_from(ENSEMBLE_SPECS), data=st.data())
def test_ensemble_calls_return_finite_or_refuse(name, spec, data):
    call, args, strict = ENSEMBLE_CALLS[name]
    args = list(args)
    args[2] = spec
    refused = False
    for i in data.draw(st.sets(st.sampled_from(range(len(args))), min_size=1, max_size=2)):
        pool = REPLACEMENTS + ARRAYS if i < 2 else REPLACEMENTS
        args[i], bad = data.draw(st.sampled_from(pool))
        refused |= bad and i in strict
    result = outcome(lambda: call(*args))
    if isinstance(result, Exception):
        return
    assert not refused, result
    for value in numbers(result):
        assert np.all(np.isfinite(value)), result
