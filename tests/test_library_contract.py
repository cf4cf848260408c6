"""The library contract: a call returns a finite, meaningful result or is refused.

The readers of a site distribution in ``kickedchain.diagnostics`` each take
an array and a ring centre.  Each is called with 0-D, empty, 1-D and 2-D
arrays, normalized or not, holding finite, infinite, NaN and negative
entries, and with centres, ring sizes, fit windows and kick strengths from a
pool of valid and invalid values.  A call must return a finite result or
raise ``ValueError`` or ``TypeError``, and must raise no warning; it may
return only if its arguments are valid, and with valid arguments only
``fit_localization_length``, whose window or data may not allow a fit, may
refuse.  The one warning allowed is ``cell_occupancy``'s documented notice
that the trapping cell is wider than the ring.
"""

import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedchain import (
    LocalizationFit,
    cell_occupancy,
    cyclic_displacements,
    distribution_stats,
    fit_localization_length,
)

# rings of 24 sites and more leave room for a fit window
SHAPES = [(), (0,), (1,), (2,), (7,), (24,), (32,), (40,), (48,), (64,), (0, 4), (1, 6), (8, 8), (3, 5)]
SPECIAL = [np.inf, -np.inf, np.nan, -0.25, 2.0, 0.0]
CENTRES = [0, 3, -5, 17, 10**20, -(2**63), 1.5, True, None, "3"]
RING_SIZES = [-4, 0, 1, 2, 7, 64, np.int64(8), 4.0, True, None, "4"]
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
    valid_p = (
        p.ndim == 1
        and p.size > 0
        and bool(np.all(np.isfinite(p)))
        and p.min() >= 0
        and abs(p.sum() - 1.0) <= 1e-6
    )
    valid_s0 = is_integer(s0)

    d = outcome(lambda: cyclic_displacements(n_sites, s0))
    if valid_s0 and is_integer(n_sites) and n_sites >= 1:
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
