"""The vectorized float formatter against ``repr``, lane by lane.

The kernel works on uint64 lanes; an int64 array mixed into that arithmetic
turns it to float64, which either raises or loses the low digits of a
17-digit value, so the comparisons below catch it.
"""

import io
import os
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedchain._floatcsv import _BLOCK, write_csv


def formatted(x):
    """The kernel's text of each float of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    fh = io.BytesIO()
    write_csv(fh, "", np.zeros(len(x), dtype=np.int64), [[(0, x)]])
    return [row[4:] for row in fh.getvalue().decode().split("\r\n")[1:-1]]


def first_difference(x):
    """The first float of ``x`` whose text is not its repr, with both texts; or None."""
    for value, text in zip(np.asarray(x, dtype=np.float64).tolist(), formatted(x)):
        if text != repr(value):
            return value, text, repr(value)
    return None


def with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def sweeps():
    """Where the digits or the layout of repr change, and the fallback's domain."""
    powers_of_two = with_neighbours([2.0**k for k in range(-1074, 1024)])
    powers_of_ten = with_neighbours([float(f"1e{k}") for k in range(-323, 309)])
    near_2_50_2_53 = np.concatenate([np.arange(2**b - 500, 2**b + 500, dtype=np.float64) for b in (50, 53)])
    # fixed point from 1e-04 to below 1e16, exponent form outside
    edges = np.array([1e-05, 1e-04, 1e15, 1e16])
    switches = np.concatenate([with_neighbours(edges)] + [edges * (1 + k * 2.0**-52) for k in range(-50, 51)])
    subnormals = np.concatenate(
        [np.arange(1, 300, dtype=np.uint64), 2**52 - np.arange(1, 300, dtype=np.uint64)]
    ).view(np.float64)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 2.2250738585072014e-308, 1.7976931348623157e308])
    swept = np.concatenate([powers_of_two, powers_of_ten, near_2_50_2_53, switches, subnormals, specials])
    return np.concatenate([swept, -swept])


def test_sweeps_match_repr():
    assert first_difference(sweeps()) is None


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_raw_bit_patterns_match_repr(patterns):
    assert first_difference(np.array(patterns, dtype=np.uint64).view(np.float64)) is None


def test_full_pass_scratch_is_bounded():
    """A full pass of one-float rows peaks at 156 bytes per value as measured
    (numpy 2.4, Python 3.11); the bound leaves 20 %."""
    x = np.random.default_rng(0).dirichlet(np.ones(_BLOCK))
    labels = np.arange(_BLOCK)
    with open(os.devnull, "wb") as fh:
        write_csv(fh, "", labels, [[(0, x)]])  # builds the kernel's tables, which are kept
        tracemalloc.start()
        try:
            write_csv(fh, "", labels, [[(0, x)]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak / _BLOCK <= 188
