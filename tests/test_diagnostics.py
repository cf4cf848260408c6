"""Distribution-observable tests with synthetic and propagated data."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kickedchain import (
    ChainConfig,
    PropagationRecord,
    SingleKick,
    cell_occupancy,
    cyclic_displacements,
    delta_state,
    detect_accelerator_modes,
    distribution_stats,
    evolve,
    fit_localization_length,
)
from kickedchain._limits import LimitError
import kickedchain.diagnostics as diagnostics
from kickedchain.diagnostics import (
    MASS_WINDOW,
    MIN_CONTRAST,
    THRESHOLD_FACTOR,
    LocalizationFit,
    SpikeTracker,
    _line_fit,
    _local_contrast,
    _median,
)


def two_sided_exponential(n, s0, length):
    d = np.abs(cyclic_displacements(n, s0))
    p = np.exp(-2.0 * d / length)
    return p / p.sum()


class TestDistributionStats:
    def test_delta(self):
        p = np.zeros(64)
        p[17] = 1.0
        assert distribution_stats(p, 17) == (0.0, pytest.approx(1.0))

    def test_uniform_participation(self):
        p = np.full(100, 0.01)
        _, pr = distribution_stats(p, 0)
        assert pr == pytest.approx(100.0)

    def test_exponential_profile_variance(self):
        # second moment of the two-sided exponential is length**2 / 2
        p = two_sided_exponential(4096, 2048, 50.0)
        var, _ = distribution_stats(p, 2048)
        assert var == pytest.approx(50.0**2 / 2, rel=0.05)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            distribution_stats(np.full(10, 0.2), 0)

    def test_rejects_non_finite(self):
        p = np.full(10, 0.1)
        p[3] = np.nan
        with pytest.raises(ValueError, match="probabilities sum to nan, expected 1"):
            distribution_stats(p, 0)

    def test_rejects_negative_entries(self):
        # sums to 1; the variance used to come out as -1.0
        p = np.zeros(10)
        p[:2] = [2.0, -1.0]
        with pytest.raises(ValueError, match="probabilities must be >= 0, got -1.0"):
            distribution_stats(p, 1)

    def test_rejects_fractional_center(self):
        # 1.5 used to return (21.25, 16.0), displacements from a site that
        # does not exist
        with pytest.raises(TypeError, match="s0 must be an integer, got float"):
            distribution_stats(np.full(16, 1 / 16), 1.5)

    def test_numpy_integer_center(self):
        p = np.full(16, 1 / 16)
        assert distribution_stats(p, np.int64(3)) == distribution_stats(p, 3)

    @pytest.mark.parametrize(
        "s0",
        [10**20, -(10**20), np.int64(2**63 - 1), np.int64(-(2**63))],
        ids=["10**20", "-10**20", "int64-max", "int64-min"],
    )
    def test_huge_center_is_its_ring_site(self, s0):
        # 10**20 used to raise OverflowError, and s - s0 wrapped silently near
        # +-2**63; a centre is its residue mod n_sites
        rng = np.random.default_rng(4)
        p = rng.random(64)
        p /= p.sum()
        site = int(s0) % 64
        np.testing.assert_array_equal(cyclic_displacements(64, s0), cyclic_displacements(64, site))
        assert distribution_stats(p, s0) == distribution_stats(p, site)

    @pytest.mark.parametrize("n_sites", [0, -4])
    def test_empty_ring_is_refused(self, n_sites):
        # 0 used to return no displacements, and -4 an empty array
        with pytest.raises(ValueError, match=f"n_sites must be >= 1, got {n_sites}"):
            cyclic_displacements(n_sites, 10**20)

    @pytest.mark.parametrize("n_sites", [4.0, True])
    def test_fractional_ring_is_refused(self, n_sites):
        # 4.0 used to return the floats [0., 1., -2., -1.]
        with pytest.raises(TypeError, match="n_sites must be an integer"):
            cyclic_displacements(n_sites, 0)

    @pytest.mark.parametrize("n_sites", [10**13, 2**62])
    def test_huge_ring_is_over_the_result_cap(self, n_sites):
        # 10**13 raised numpy's MemoryError ("72.8 TiB"), 2**62 a numpy ValueError
        with pytest.raises(LimitError, match=f"the displacements of {n_sites} sites would take"):
            cyclic_displacements(n_sites, 0)

    def test_numpy_ring_size_takes_a_huge_center(self):
        np.testing.assert_array_equal(
            cyclic_displacements(np.int64(8), 10**20), cyclic_displacements(8, 10**20 % 8)
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: distribution_stats(p, 3),
            lambda p: cell_occupancy(p, 0.5, 3),
            lambda p: fit_localization_length(p, 3, (1.0, 3.0)),
        ],
        ids=["distribution_stats", "cell_occupancy", "fit_localization_length"],
    )
    def test_rejects_two_dimensional(self, call):
        # an 8 x 8 table read as an 8-site ring: distribution_stats returned
        # (5.40, 11.63), cell_occupancy a ring's occupancy, the fit IndexError
        with pytest.raises(ValueError, match=r"p must be 1-D, .* got shape \(8, 8\)"):
            call(np.full(64, 1 / 64).reshape(8, 8))

    def test_opposite_infinities_are_refused_without_warning(self):
        # inf + -inf used to warn "invalid value encountered in reduce"
        with pytest.raises(ValueError, match="probabilities sum to nan"):
            distribution_stats([np.inf, -np.inf], 0)

    @given(shift=st.integers(min_value=0, max_value=255))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_cyclic_relabeling(self, shift):
        rng = np.random.default_rng(3)
        p = rng.random(256)
        p /= p.sum()
        base = distribution_stats(p, 40)
        moved = distribution_stats(np.roll(p, shift), (40 + shift) % 256)
        assert moved[0] == pytest.approx(base[0], rel=1e-9)
        assert moved[1] == pytest.approx(base[1], rel=1e-9)


class TestLocalizationFit:
    def test_recovers_own_model(self):
        p = two_sided_exponential(4096, 2048, 100.0)
        fit = fit_localization_length(p, 2048, (50.0, 300.0))
        assert fit.length == pytest.approx(100.0, rel=0.01)
        assert fit.exponential

    @pytest.mark.parametrize("length", [10.0, 30.0, 100.0, 300.0, 1000.0])
    def test_self_consistency_sweep(self, length):
        n = 8192
        p = two_sided_exponential(n, n // 2, length)
        window = (length / 2, min(3 * length, n / 2 - 1))
        fit = fit_localization_length(p, n // 2, window)
        assert fit.length == pytest.approx(length, rel=0.01)

    def test_uniform_flagged_non_exponential(self):
        p = np.full(1024, 1.0 / 1024)
        fit = fit_localization_length(p, 512, (10.0, 200.0))
        assert fit.r_squared == pytest.approx(0.0, abs=1e-6)
        assert not fit.exponential

    @pytest.mark.parametrize(
        "length, expected", [(np.inf, False), (np.nan, False), (5.0, True)], ids=["inf", "nan", "5"]
    )
    def test_exponential_is_a_bool(self, length, expected):
        # np.isfinite made it numpy's bool for a length that is not finite
        assert LocalizationFit(length=length, r_squared=0.9, n_points=10).exponential is expected

    def test_insufficient_data(self):
        p = np.zeros(256)
        p[128] = 1.0
        with pytest.raises(ValueError, match="insufficient"):
            fit_localization_length(p, 128, (10.0, 20.0))

    @pytest.mark.parametrize("value", [np.inf, np.nan, -0.5])
    def test_rejects_a_distribution_that_is_not_one(self, value):
        # read as a bare array, an inf used to warn "invalid value encountered
        # in subtract" from the wing fit
        p = two_sided_exponential(256, 128, 20.0)
        p[120] = value
        with pytest.raises(ValueError, match="probabilities"):
            fit_localization_length(p, 128, (5.0, 60.0))

    def test_rejects_bad_window(self):
        p = two_sided_exponential(256, 128, 20.0)
        with pytest.raises(ValueError):
            fit_localization_length(p, 128, (50.0, 400.0))


def exact_slope_and_scales(x, y):
    """The least-squares slope of ``(x, y)`` in exact arithmetic, and two
    scales against which rounding is judged: ``sum(|dx * (y - ȳ)|) / sum(dx**2)``
    (the slope itself may be a small difference of large terms) and the same
    with ``y`` in place of ``y - ȳ``, which bounds the rounding of
    ``np.polyfit``, whose solver does not subtract ``ȳ``."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    dx = [u - x_mean for u in x]
    terms = [d * (v - y_mean) for d, v in zip(dx, y)]
    sxx = sum(d * d for d in dx)
    return (
        sum(terms) / sxx,
        float(sum(abs(t) for t in terms) / sxx),
        float(sum(abs(d * v) for d, v in zip(dx, y)) / sxx),
    )


def line_r2(x, y, slope, intercept):
    """r-squared of the line ``slope * x + intercept`` as ``_line_fit`` takes it."""
    pred = slope * x + intercept
    return 1.0 - float(np.sum((y - pred) ** 2)) / float(np.sum((y - y.mean()) ** 2))


# reals of at most 1e3 in size, none of them tiny, for the float property
moderate_reals = st.floats(-1e3, 1e3).filter(lambda v: v == 0 or abs(v) >= 1e-3)


class TestLineFit:
    def test_integer_data_within_4_ulp_of_scale(self):
        rng = np.random.default_rng(1996)
        for _ in range(2000):
            n = int(rng.integers(2, 41))
            x = rng.integers(-1000, 1001, n).tolist()
            y = rng.integers(-10**6, 10**6 + 1, n).tolist()
            if len(set(x)) < 2:
                continue
            exact, scale, _ = exact_slope_and_scales(x, y)
            slope = _line_fit(x, y)[0]
            assert abs(Fraction(slope) - exact) <= 4 * Fraction(math.ulp(scale)), (x, y)

    def test_accelerator_mode_speed_is_exact(self):
        # the spikes of the bundled accelerator_modes run; 1645 / 17.5 = 94
        slope, r2 = _line_fit([1, 2, 3, 4, 5, 6], [96, 193, 282, 375, 472, 568])
        assert slope == 94.0
        assert 0.999 < r2 < 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(moderate_reals, moderate_reals), min_size=2, max_size=40))
    def test_float_data_against_exact_and_polyfit(self, points):
        x, y = (np.array(v) for v in zip(*points))
        spread = float(np.ptp(x))
        assume(spread > 0 and spread >= 1e-2 * float(np.abs(x).max()) and np.ptp(y) > 0)
        slope, r2 = _line_fit(x, y)
        exact, scale, polyfit_scale = exact_slope_and_scales(x.tolist(), y.tolist())
        assert abs(Fraction(slope) - exact) <= Fraction(1e-13 * scale)
        # np.polyfit's own error grows with |y| and with max|x| / spread, the
        # conditioning of its uncentred design: (0, -989), (1, -990) gives
        # -0.99999999999989, 1e-13 off the exact -1 on a scale of 1
        ref_slope, _ = np.polyfit(x, y, 1)
        conditioning = max(1.0, float(np.abs(x).max()) / spread)
        assert abs(slope - ref_slope) <= 1e-13 * polyfit_scale * conditioning
        x_mean, y_mean = math.fsum(x.tolist()) / len(x), math.fsum(y.tolist()) / len(y)
        assert r2 == line_r2(x, y, slope, y_mean - slope * x_mean)

    @pytest.mark.parametrize(
        "x",
        [[], [3.0], [0.1, 0.1, 0.1], [2.5] * 7, [0.0, 5e-324]],
        ids=["none", "one", "tenth-x3", "one-x-7", "underflow"],
    )
    def test_refuses_fewer_than_two_distinct_x(self, x):
        # 0.1 three times has an fsum mean of 0.10000000000000002, so its
        # deviations are not zero; two subnormal x square to zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="line fit"):
                _line_fit(x, [1.0] * len(x))


def synthetic_spike_record(n=2048, center=1024, speed=94, n_periods=6, spike_mass=0.1):
    """Broad soft-edged remnant plus counter-propagating Gaussian spikes.

    Mimics the geometry of a strongly kicked run: a chaotic remnant a couple
    of ballistic hops wide, and narrow coherent spikes separating from it at
    one hop per period.
    """
    sites = np.arange(n)
    d = cyclic_displacements(n, center)
    remnant = 1.0 / (1.0 + np.exp((np.abs(d) - 200.0) / 30.0))
    snapshots = []
    for t in range(n_periods + 1):
        p = remnant / remnant.sum() * (1 - 2 * spike_mass * min(t, 1))
        if t >= 1:
            for sign in (+1, -1):
                loc = center + sign * speed * t
                bump = np.exp(-0.5 * ((sites - loc) / 1.5) ** 2)
                p = p + spike_mass * bump / bump.sum()
        p /= p.sum()
        snapshots.append((t, p))
    max_edge = max(p[0] + p[-1] for _, p in snapshots)
    return PropagationRecord(snapshots, final_state=np.sqrt(snapshots[-1][1]), max_edge=max_edge)


class TestAcceleratorDetector:
    def test_synthetic_tracks(self):
        record = synthetic_spike_record()
        left, right = detect_accelerator_modes(record, b_kick=2 * np.pi / 94, center=1024)
        assert right.periods[-4:] == [3, 4, 5, 6]
        assert left.periods[-4:] == [3, 4, 5, 6]
        assert right.speed == pytest.approx(94.0, abs=1.0)
        assert left.speed == pytest.approx(94.0, abs=1.0)
        for mass in right.masses:
            # window mass = spike mass plus a little remnant background
            assert 0.07 <= mass <= 0.16
        for disp_l, disp_r in zip(left.displacements, right.displacements):
            assert disp_l < 0 < disp_r

    def test_mirrored_run_gives_mirrored_tracks(self):
        record = synthetic_spike_record()
        center = 1024
        mirrored = PropagationRecord(
            snapshots=[
                (t, np.roll(p[::-1], 2 * center + 1)) for t, p in record.snapshots
            ],
            final_state=record.final_state,
            max_edge=record.max_edge,
        )
        l1, r1 = detect_accelerator_modes(record, b_kick=2 * np.pi / 94, center=center)
        l2, r2 = detect_accelerator_modes(mirrored, b_kick=2 * np.pi / 94, center=center)
        assert r2.displacements == [-d for d in l1.displacements]
        assert l2.displacements == [-d for d in r1.displacements]
        np.testing.assert_allclose(r2.masses, l1.masses, atol=1e-12)
        np.testing.assert_allclose(l2.masses, r1.masses, atol=1e-12)

    def test_localized_run_yields_empty_tracks(self):
        # stochasticity 5 sits below the first transporting-island window
        # (no solution of K sin x = 2*pi), so nothing ballistic exists
        cfg = ChainConfig(n_sites=1024, j1=1.0)
        record = evolve(delta_state(1024, 512), cfg, SingleKick(0.25, 20.0), 60, 10)
        left, right = detect_accelerator_modes(record, 0.25, 512)
        assert left.periods == [] and right.periods == []
        assert left.speed is None and right.speed is None

    def test_requires_three_snapshots(self):
        record = synthetic_spike_record(n_periods=1)
        with pytest.raises(ValueError):
            detect_accelerator_modes(record, b_kick=0.3, center=512)

    @pytest.mark.parametrize("b_kick", [np.nan, np.inf])
    def test_rejects_non_finite_strength(self, b_kick):
        # NaN used to die converting the band radius to an integer
        record = synthetic_spike_record()
        with pytest.raises(ValueError, match="b_kick must be finite and > 0"):
            detect_accelerator_modes(record, b_kick=b_kick, center=1024)

    def test_rejects_ragged_snapshots(self):
        # a shorter snapshot used to raise IndexError
        record = synthetic_spike_record()
        record.snapshots[2] = (2, np.full(1024, 1 / 1024))
        with pytest.raises(ValueError, match="snapshots must all have one length, the first has 2048"):
            detect_accelerator_modes(record, b_kick=2 * np.pi / 94, center=1024)

    @pytest.mark.parametrize("fill, total", [(np.nan, "nan"), (320 / 2048, "320.0")])
    def test_rejects_snapshots_that_are_not_distributions(self, fill, total):
        # these returned two empty tracks
        record = synthetic_spike_record()
        record.snapshots[:] = [(t, np.full(2048, fill)) for t, _ in record.snapshots]
        with pytest.raises(ValueError, match=f"probabilities sum to {total}"):
            detect_accelerator_modes(record, b_kick=2 * np.pi / 94, center=1024)

    @staticmethod
    def two_spike_record(periods, n=64, center=32):
        """Snapshots of ``n`` sites, each a valid distribution with one spike per side
        that moves out by two sites a snapshot, at ``periods``."""
        snapshots = []
        for i, t in enumerate(periods):
            p = np.full(n, 1e-4)
            p[[center - 14 - 2 * i, center + 14 + 2 * i]] = 0.3
            snapshots.append((t, p / p.sum()))
        return PropagationRecord(snapshots, final_state=np.sqrt(snapshots[-1][1]), max_edge=0.0)

    def test_two_spike_record_is_tracked(self):
        left, right = detect_accelerator_modes(self.two_spike_record((0, 1, 2)), 0.3, 32)
        assert left.periods == right.periods == [0, 1, 2]
        assert left.speed == pytest.approx(2.0) and right.speed == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "periods, error, match",
        [
            ((0, 0, 0), ValueError, "periods must increase strictly, got 0 after 0"),
            ((0, np.nan, 2), TypeError, "snapshot 1 must be an integer, got float"),
            ((0, "1", 2), TypeError, "snapshot 1 must be an integer, got str"),
            ((2, 1, 0), ValueError, "periods must increase strictly, got 1 after 2"),
            ((0, 1.5, 3), TypeError, "snapshot 1 must be an integer, got float"),
            ((0, True, 2), TypeError, "snapshot 1 must be an integer, not bool"),
        ],
        ids=["repeated", "nan", "text", "decreasing", "float", "bool"],
    )
    def test_rejects_periods_that_are_not_increasing_integers(self, capfd, periods, error, match):
        # repeated and NaN periods printed six LAPACK DLASCL lines on stderr
        # and raised LinAlgError from the speed fit; the others returned
        # tracks, the text period as the string '1' in the tracks' periods
        with pytest.raises(error, match=match):
            detect_accelerator_modes(self.two_spike_record(periods), 0.3, 32)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("record", [None, "record", [(0, np.full(4, 0.25))] * 3])
    def test_rejects_a_record_of_another_type(self, record):
        # each raised AttributeError on the missing snapshots
        with pytest.raises(TypeError, match="^record must be a PropagationRecord, got "):
            detect_accelerator_modes(record, 0.3, 8)


class TestCellOccupancy:
    def test_delta_at_center(self):
        p = np.zeros(512)
        p[256] = 1.0
        assert cell_occupancy(p, 0.025, 256) == 1.0

    def test_uniform_over_exact_cell(self):
        n, center, b = 2048, 1024, 0.025
        half = np.pi / b
        d = cyclic_displacements(n, center)
        p = np.where(np.abs(d) < half, 1.0, 0.0)
        p /= p.sum()
        assert cell_occupancy(p, b, center) == pytest.approx(1.0)

    def test_wide_cell_warns_and_saturates(self):
        p = np.full(64, 1 / 64)
        with pytest.warns(UserWarning, match="cell"):
            assert cell_occupancy(p, 0.01, 32) == 1.0

    def test_rejects_nonpositive_strength(self):
        with pytest.raises(ValueError):
            cell_occupancy(np.full(64, 1 / 64), 0.0, 32)

    @pytest.mark.parametrize("b_weak", [np.nan, np.inf])
    def test_rejects_non_finite_strength(self, b_weak):
        # NaN used to return an occupancy of 0.0
        with pytest.raises(ValueError, match="b_weak must be finite and > 0"):
            cell_occupancy(np.full(64, 1 / 64), b_weak, 32)

    @pytest.mark.parametrize("b_weak", [0.1, 0.01])
    def test_rejects_unnormalized_distribution(self, b_weak):
        # used to return 63.0, or 1.0 for a cell wider than the chain
        with pytest.raises(ValueError, match="probabilities sum to 64.0, expected 1 within 1e-06"):
            cell_occupancy(np.full(64, 1.0), b_weak, 3)

    @pytest.mark.parametrize("b_weak", [0.1, 0.01])
    def test_rejects_fractional_center(self, b_weak):
        # 1.5 used to return 0.96875, or 1.0 for a cell wider than the chain
        with pytest.raises(TypeError, match="center must be an integer, got float"):
            cell_occupancy(np.full(64, 1 / 64), b_weak, 1.5)


@pytest.mark.parametrize("center", [1024.5, True])
def test_fit_and_detector_refuse_non_integer_center(center):
    p = two_sided_exponential(2048, 1024, 50.0)
    with pytest.raises(TypeError, match="s0 must be an integer"):
        fit_localization_length(p, center, (10.0, 200.0))
    with pytest.raises(TypeError, match="^center must be an integer"):
        detect_accelerator_modes(synthetic_spike_record(), 0.25, center)


@pytest.mark.parametrize(
    "center, got", [(1.5, "got float"), (True, "not bool"), (None, "got NoneType"), ("3", "got str")]
)
def test_tracker_and_occupancy_name_the_center(center, got):
    # both named s0, the argument of cyclic_displacements that no caller
    # passes, and the tracker was built and refused only at its first step
    match = f"^center must be an integer, {got}$"
    with pytest.raises(TypeError, match=match):
        SpikeTracker(0.3, center)
    with pytest.raises(TypeError, match=match):
        cell_occupancy(np.full(64, 1 / 64), 0.3, center)


def bits(x) -> str:
    return float(x).hex()


# values a median may meet: zeros, ties, subnormals, and ordinary probabilities
MEDIAN_POOL = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-17, 0.1, 0.1, 0.3, 1 / 3, 0.5, 1.0]


class TestMedianAndContrast:
    """The spike tracker's medians and contrast give numpy's bits."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.sampled_from(MEDIAN_POOL), st.floats(0.0, 1.0)), min_size=1, max_size=300
        )
    )
    def test_median_is_numpy_median(self, values):
        x = np.array(values)
        assert bits(_median(x)) == bits(np.median(x)), values

    @staticmethod
    def setdiff_contrast(p, site):
        """The contrast as numpy's set difference and median gave it."""
        n = len(p)
        ring = np.arange(site - 8 * MASS_WINDOW, site + 8 * MASS_WINDOW + 1) % n
        peak = np.arange(site - MASS_WINDOW, site + MASS_WINDOW + 1) % n
        outside = np.setdiff1d(ring, peak)
        if not len(outside):
            return 0.0
        background = np.median(p[outside])
        return p[site] / background if background > 0 else np.inf

    def test_contrast_is_the_setdiff_median_contrast(self):
        # rings of 21 sites or fewer have no background (contrast 0), and
        # rings under 161 sites wrap the index ring onto itself
        rng = np.random.default_rng(27)
        for n in range(1, 401):
            # half the sites from the pool, half uniform, one in eight zero
            p = np.where(rng.random(n) < 0.5, rng.choice(MEDIAN_POOL, n), rng.random(n))
            p[rng.random(n) < 0.125] = 0.0
            p[rng.integers(0, n)] = 1.0
            p /= p.sum()
            for site in {0, n // 2, n - 1, int(rng.integers(0, n))}:
                with np.errstate(over="ignore"):  # a subnormal background
                    got, want = _local_contrast(p, np.int64(site)), self.setdiff_contrast(p, site)
                assert bits(got) == bits(want), (n, site)
                assert n > 2 * MASS_WINDOW + 1 or got == 0.0

    def test_subnormal_background_is_an_infinite_contrast_without_warning(self):
        # the quotient overflowed in numpy, which warned
        p = np.full(24, 2.22507386e-311)
        p[1] = 1.0
        record = PropagationRecord([(t, p) for t in range(3)], final_state=p, max_edge=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _local_contrast(p, 1) == np.inf
            left, right = detect_accelerator_modes(record, 0.05, 0)
        assert left.sites == [] and right.sites == [1, 1, 1]

    def test_band_threshold_is_the_numpy_median(self, monkeypatch):
        # the band's median is a partition at the band radius; it must give
        # np.median's bits for every band, from one site to half the ring
        thresholds = []
        monkeypatch.setattr(
            diagnostics, "_outermost_spike", lambda p, d, mask, threshold: thresholds.append(threshold)
        )
        rng = np.random.default_rng(28)
        for n in [*range(1, 70), 161, 400, 4097]:
            for b_kick in (1e-6, 0.1, 0.25, 2.0):
                p = np.where(rng.random(n) < 0.5, rng.choice(MEDIAN_POOL, n), rng.random(n))
                p[rng.random(n) < 0.125] = 0.0
                p[rng.integers(0, n)] = 1.0
                p /= p.sum()
                center = int(rng.integers(0, n))
                thresholds.clear()
                SpikeTracker(b_kick, center).step(0, p)
                radius = int(min(max(2.0 * np.pi / b_kick, 5), n // 4))
                band = np.abs(cyclic_displacements(n, center)) <= radius
                want = bits(THRESHOLD_FACTOR * float(np.median(p[band])))
                assert [bits(t) for t in thresholds] == [want, want], (n, b_kick)

    def test_many_candidates_pick_the_setdiff_median_spikes(self, monkeypatch):
        # a weak kick on a wide ring: the band is a quarter of the ring, and
        # hundreds of local maxima clear its threshold on each snapshot, tried
        # from the outermost in until one stands out of its background
        n, b_kick = 16384, 1e-3
        cfg = ChainConfig(n_sites=n, j1=1.0)
        center = cfg.kick_center
        record = evolve(delta_state(n, center), cfg, SingleKick(b_kick, 20.0), 20, 10)
        calls = []
        contrast = diagnostics._local_contrast
        monkeypatch.setattr(
            diagnostics, "_local_contrast", lambda p, site: calls.append(site) or contrast(p, site)
        )
        tracks = detect_accelerator_modes(record, b_kick, center)
        assert len(calls) > 1000
        assert [track.sites[-1] for track in tracks] == [7920, 8464]

        d = cyclic_displacements(n, center)
        band = np.abs(d) <= n // 4
        for track, side in zip(tracks, (d < 0, d > 0)):
            periods, sites, masses = [], [], []
            for period, p in record.snapshots:
                threshold = THRESHOLD_FACTOR * np.median(p[band])
                is_max = (p > np.roll(p, 1)) & (p > np.roll(p, -1)) & (p >= threshold) & side
                for site in sorted(np.nonzero(is_max)[0], key=lambda s: -abs(d[s])):
                    if self.setdiff_contrast(p, site) >= MIN_CONTRAST:
                        window = np.arange(site - MASS_WINDOW, site + MASS_WINDOW + 1) % n
                        periods.append(period)
                        sites.append(int(site))
                        masses.append(bits(p[window].sum()))
                        break
            assert (track.periods, track.sites) == (periods, sites)
            assert [bits(m) for m in track.masses] == masses
