"""Basis, dispersion, and rotor-image parameter tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kickedchain._limits as limits
from kickedchain import (
    ChainConfig,
    ChainModel,
    DoubleKick,
    RandomDoubleKick,
    SingleKick,
    StandardMap,
    cell_occupancy,
    delta_state,
    detect_accelerator_modes,
    dispersion,
    distribution_stats,
    evolve,
    feasibility,
    fit_localization_length,
    iterate_ensemble,
    magnon_state,
    map_step,
    qkr_evolve,
    rotor_image,
    surface_of_section,
    wavenumber_grid,
)


class TestWavenumberGrid:
    def test_two_sites(self):
        np.testing.assert_allclose(wavenumber_grid(2), [0.0, np.pi])

    def test_four_sites(self):
        np.testing.assert_allclose(
            wavenumber_grid(4), [-np.pi / 2, 0.0, np.pi / 2, np.pi]
        )

    def test_matches_dft_frequency_enumeration(self):
        # independent oracle: integer DFT frequencies folded into (-N/2, N/2]
        for n in (6, 7, 12):
            ints = np.rint(np.fft.fftfreq(n) * n).astype(int)
            ints = np.where(ints <= -n / 2, ints + n, ints)
            expected = np.sort(ints) * 2.0 * np.pi / n
            np.testing.assert_allclose(wavenumber_grid(n), expected, atol=1e-15)

    def test_rejects_tiny_chain(self):
        with pytest.raises(ValueError):
            wavenumber_grid(1)

    @given(n=st.integers(min_value=2, max_value=257))
    def test_grid_properties(self, n):
        k = wavenumber_grid(n)
        assert len(k) == n
        assert np.all(np.diff(k) > 0)
        assert k[0] > -np.pi - 1e-12 and k[-1] <= np.pi + 1e-12
        # closed under negation except possibly k = pi
        interior = k[np.abs(k - np.pi) > 1e-12]
        for val in interior:
            assert np.min(np.abs(k + val)) < 1e-9


class TestDispersion:
    def test_ferromagnet_values(self):
        cfg = ChainConfig(n_sites=8, j1=1.0)
        assert dispersion(cfg, 0.0) == pytest.approx(0.0)
        assert dispersion(cfg, np.pi) == pytest.approx(2.0)

    def test_nnn_ladder_value(self):
        cfg = ChainConfig(n_sites=8, j1=1.0, j2=1.0, model=ChainModel.NNN_LADDER)
        assert dispersion(cfg, np.pi) == pytest.approx(2.0)

    def test_antiferro_value(self):
        cfg = ChainConfig(n_sites=8, j1=1.0, model=ChainModel.ANTIFERRO_LINEAR)
        assert dispersion(cfg, np.pi / 2) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "cfg",
        [
            ChainConfig(n_sites=8, j1=1.3),
            ChainConfig(n_sites=8, j1=1.3, j2=-0.7, model=ChainModel.NNN_LADDER),
            ChainConfig(n_sites=8, j1=1.3, model=ChainModel.ANTIFERRO_LINEAR),
        ],
    )
    @given(k=st.floats(min_value=0.0, max_value=np.pi))
    @settings(max_examples=50, deadline=None)
    def test_even_in_k(self, cfg, k):
        assert dispersion(cfg, k) == pytest.approx(dispersion(cfg, -k), abs=1e-12)

    @pytest.mark.parametrize(
        "k", [10**400, math.inf, [0.0, -math.inf], math.nan], ids=["huge", "inf", "array", "nan"]
    )
    def test_rejects_non_finite_k(self, k):
        # 10**400 used to raise OverflowError, and inf to return nan with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^k must be finite$"):
                dispersion(ChainConfig(n_sites=8, j1=1.0), k)

    def test_ferromagnet_range(self):
        cfg = ChainConfig(n_sites=8, j1=2.5)
        k = np.linspace(-np.pi, np.pi, 2001)
        e = dispersion(cfg, k)
        assert e.min() == pytest.approx(0.0, abs=1e-12)
        assert e.max() == pytest.approx(2 * 2.5, abs=1e-12)
        assert np.all(e >= -1e-12) and np.all(e <= 5.0 + 1e-12)


class TestMagnonState:
    def test_uniform_at_zero_wavenumber(self):
        np.testing.assert_allclose(magnon_state(4, 0), np.full(4, 0.5 + 0j))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_orthonormal_set(self, n):
        ms = range(-((n - 1) // 2), n // 2 + 1)
        states = {m: magnon_state(n, m) for m in ms}
        for m1 in ms:
            for m2 in ms:
                overlap = np.vdot(states[m1], states[m2])
                expected = 1.0 if m1 == m2 else 0.0
                assert abs(overlap - expected) < 1e-12

    def test_exchange_eigenstate_up_to_phase(self):
        cfg = ChainConfig(n_sites=16, j1=1.0)
        state = magnon_state(16, 3)
        # a kick of strength 0 multiplies by exactly 1, leaving the exchange step
        out = evolve(state, cfg, SingleKick(b_kick=0.0, period=2.7), 1).final_state
        phase = np.vdot(state, out)
        assert abs(abs(phase) - 1.0) < 1e-12
        np.testing.assert_allclose(out, phase * state, atol=1e-12)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            magnon_state(8, 5)
        with pytest.raises(ValueError):
            magnon_state(8, -4)


class TestDeltaState:
    def test_unit_mass_at_site(self):
        psi = delta_state(6, 2)
        assert psi[2] == 1.0 and np.sum(np.abs(psi) ** 2) == 1.0

    def test_rejects_bad_site(self):
        with pytest.raises(ValueError):
            delta_state(6, 6)

    @pytest.mark.parametrize("site", [8.0, True])
    def test_rejects_non_integer_site(self, site):
        # 8.0 used to raise numpy's IndexError
        with pytest.raises(TypeError, match="site must be an integer"):
            delta_state(16, site)

    def test_numpy_integer_site(self):
        assert delta_state(np.int64(16), np.int64(8))[8] == 1.0


BUILDERS = {
    "delta_state": lambda n: delta_state(n, 0),
    "magnon_state": lambda n: magnon_state(n, 0),
    "wavenumber_grid": wavenumber_grid,
}


class TestStateBuilderLimits:
    @pytest.mark.parametrize("name", BUILDERS)
    def test_ring_over_transform_cap_refused(self, name):
        # 2**40 sites used to escape as a MemoryError for 16 TiB
        with pytest.raises(limits.LimitError, match="basis size 1099511627776 exceeds transform cap"):
            BUILDERS[name](2**40)

    @pytest.mark.parametrize("name", BUILDERS)
    def test_cap_is_inclusive(self, name, monkeypatch):
        monkeypatch.setattr(limits, "MAX_TRANSFORM_SITES", 16)
        assert len(BUILDERS[name](16)) == 16
        with pytest.raises(limits.LimitError):
            BUILDERS[name](17)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: magnon_state(16, 1.5), "m"),
            (lambda: magnon_state(True, 0), "n_sites"),
            (lambda: magnon_state(16.0, 0), "n_sites"),
            (lambda: delta_state(16.0, 0), "n_sites"),
            (lambda: wavenumber_grid(np.True_), "n_sites"),
        ],
        ids=["magnon-m-1.5", "magnon-n-True", "magnon-n-16.0", "delta-n-16.0", "grid-n-True"],
    )
    def test_non_integer_refused(self, build, name):
        # magnon_state(16, 1.5) used to build an off-grid wave, and
        # magnon_state(True, 0) a one-site state
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            build()


class TestRotorImage:
    def test_strong_kick_regime(self):
        cfg = ChainConfig(n_sites=2048, j1=1.0)
        params = rotor_image(cfg, period=100.0, b_kick=1.0 / 15.0)
        assert params.k == pytest.approx(100.0 / 15.0)
        assert params.hbar_eff == pytest.approx(1.0 / 15.0)

    def test_weak_kick_regime(self):
        cfg = ChainConfig(n_sites=2048, j1=1.0)
        params = rotor_image(cfg, period=7.0, b_kick=0.025)
        assert params.k == pytest.approx(0.175)

    def test_zero_kick(self):
        cfg = ChainConfig(n_sites=8, j1=1.0)
        assert rotor_image(cfg, period=5.0, b_kick=0.0).k == 0.0

    @given(
        t0=st.floats(min_value=0.01, max_value=100.0),
        b=st.floats(min_value=0.0, max_value=10.0),
        c=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_bilinear_in_period_and_kick(self, t0, b, c):
        cfg = ChainConfig(n_sites=8, j1=1.0)
        base = rotor_image(cfg, period=t0, b_kick=b).k
        scaled = rotor_image(cfg, period=c * t0, b_kick=b).k
        assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(period=float("nan"), b_kick=0.1),
            dict(period=1.0, b_kick=float("nan")),
            dict(period=float("inf"), b_kick=0.1),
            dict(period=1.0, b_kick=float("inf")),
            # each finite, but k = j1 * period * b_kick is not
            dict(period=1e308, b_kick=1e308),
        ],
    )
    def test_rejects_nan(self, kwargs):
        name = next((key for key, v in kwargs.items() if not math.isfinite(v)), "k")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            rotor_image(ChainConfig(n_sites=8, j1=1.0), **kwargs)

    def test_rejects_non_ferromagnet(self):
        cfg = ChainConfig(n_sites=8, j1=1.0, model=ChainModel.ANTIFERRO_LINEAR)
        with pytest.raises(ValueError):
            rotor_image(cfg, period=1.0, b_kick=0.1)


class TestChainConfigValidation:
    def test_defaults_center_to_middle(self):
        assert ChainConfig(n_sites=10, j1=1.0).kick_center == 5

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(n_sites=16.0, j1=1.0), "n_sites"),
            (dict(n_sites=True, j1=1.0), "n_sites"),
            (dict(n_sites=16, j1=1.0, kick_center=8.0), "kick_center"),
            (dict(n_sites=16, j1=1.0, kick_center=np.float64(8.0)), "kick_center"),
        ],
    )
    def test_rejects_non_integer_sizes(self, kwargs, name):
        # ChainConfig(16.0, 1.0) used to build, and evolve then failed in fftfreq
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            ChainConfig(**kwargs)

    def test_numpy_integer_sizes(self):
        cfg = ChainConfig(n_sites=np.int64(16), j1=1.0, kick_center=np.int32(3))
        assert (cfg.n_sites, cfg.kick_center) == (16, 3)
        assert ChainConfig(n_sites=np.int64(16), j1=1.0).kick_center == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sites=1, j1=1.0),
            dict(n_sites=8, j1=-1.0),
            dict(n_sites=8, j1=1.0, j2=0.5),
            dict(n_sites=8, j1=1.0, kick_center=8),
            dict(n_sites=8, j1=1.0, j2=0.0, model=ChainModel.NNN_LADDER),
            dict(n_sites=8, j1=-1.0, j2=0.5, model=ChainModel.NNN_LADDER),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ChainConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sites=8, j1=float("nan")),
            dict(n_sites=8, j1=1.0, j2=float("nan"), model=ChainModel.NNN_LADDER),
            dict(n_sites=8, j1=float("nan"), model=ChainModel.ANTIFERRO_LINEAR),
            dict(n_sites=8, j1=float("inf")),
        ],
    )
    def test_rejects_non_finite_couplings(self, kwargs):
        with pytest.raises(ValueError):
            ChainConfig(**kwargs)


def _record():
    return evolve(delta_state(8, 4), ChainConfig(8, 1.0), SingleKick(0.1, 1.0), 3)


# Each used to raise OverflowError, from math.isfinite or, for an array
# argument, from numpy's conversion to float.
HUGE = 10**400


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: ChainConfig(8, j1=HUGE), "j1"),
        (lambda: SingleKick(b_kick=HUGE, period=1.0), "b_kick"),
        (lambda: DoubleKick(b_weak=0.1, b_strong=HUGE, period=1.0), "b_strong"),
        (lambda: RandomDoubleKick(b_weak=0.1, period=HUGE, seed=0), "period"),
        (lambda: qkr_evolve(0, HUGE, 1.0, 1, 4), "k"),
        (lambda: qkr_evolve(0, 1.0, HUGE, 1, 4), "hbar"),
        (lambda: detect_accelerator_modes(_record(), HUGE, 4), "b_kick"),
        (lambda: cell_occupancy([0.25] * 4, HUGE, 2), "b_weak"),
        (lambda: feasibility(1e-6, 100, HUGE), "j_hz"),
        (lambda: iterate_ensemble([HUGE], [0.0], StandardMap(1.0), 2, 1), "x0"),
        (lambda: iterate_ensemble([0.0], [0.0, HUGE], StandardMap(1.0), 2, 1), "p0"),
        (lambda: surface_of_section([HUGE], [0.0], StandardMap(1.0), 2), "x0"),
        (lambda: surface_of_section([0.0], [-HUGE], StandardMap(1.0), 2), "p0"),
        (lambda: evolve([HUGE, 0, 0, 0], ChainConfig(4, 1.0), SingleKick(0.1, 1.0), 2), "state"),
        (lambda: distribution_stats([HUGE, 0], 0), "p"),
        (lambda: cell_occupancy([HUGE, 0], 0.1, 0), "p"),
        (lambda: fit_localization_length([HUGE] * 40, 0, (1, 5)), "p"),
        (lambda: map_step(0.0, HUGE, StandardMap(1.0)), "p"),
    ],
    ids=[
        "ChainConfig-j1", "SingleKick-b_kick", "DoubleKick-b_strong", "RandomDoubleKick-period",
        "qkr_evolve-k", "qkr_evolve-hbar", "detect_accelerator_modes-b_kick",
        "cell_occupancy-b_weak", "feasibility-j_hz", "iterate_ensemble-x0", "iterate_ensemble-p0",
        "surface_of_section-x0", "surface_of_section-p0", "evolve-state", "distribution_stats-p",
        "cell_occupancy-p", "fit_localization_length-p", "map_step-p",
    ],
)
def test_int_beyond_float_range_is_not_finite(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ChainConfig(8, j1="1.0"),
        lambda: SingleKick(b_kick="0.1", period=1.0),
        lambda: map_step("0.5", 0.0, StandardMap(1.0)),
    ],
)
def test_string_real_is_a_type_error(call):
    # float() would parse the string; math.isfinite, the old check, refused it
    with pytest.raises(TypeError, match="must be a real number, got str"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: ChainConfig(16, True), "j1"),
        (lambda: SingleKick(True, 1.0), "b_kick"),
        (lambda: StandardMap(True), "k"),
        (lambda: feasibility(True, 100, 1e9), "b_range_au"),
        (lambda: map_step(0.5, False, StandardMap(1.0)), "p"),
        (lambda: cell_occupancy(np.full(4, 0.25), True, 0), "b_weak"),
        (lambda: ChainConfig(16, np.True_), "j1"),
    ],
    ids=["ChainConfig-j1", "SingleKick-b_kick", "StandardMap-k", "feasibility-b_range_au",
         "map_step-p", "cell_occupancy-b_weak", "ChainConfig-j1-numpy"],
)
def test_bool_real_is_a_type_error(call, name):
    # each read the bool as 1.0 or 0.0, and feasibility(True, ...).to_dict()
    # held "b_range_au": true, though check_integers and the validator refuse bools
    with pytest.raises(TypeError, match=f"^{name} must be a real number, got bool"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: dispersion(ChainConfig(8, 1.0), "1"), "k"),
        (lambda: dispersion(ChainConfig(8, 1.0), np.array([b"1", b"2"])), "k"),
        (lambda: distribution_stats(["0.5", "0.5"], 0), "p"),
        (lambda: distribution_stats(np.array(["0.5", 0.5], dtype=object), 0), "p"),
        (lambda: iterate_ensemble(["1"], ["0"], StandardMap(1.0), 2, 1), "x0"),
        (lambda: evolve(["1", "0", "0", "0"], ChainConfig(4, 1.0), SingleKick(0.1, 1.0), 2), "state"),
    ],
    ids=["dispersion-str", "dispersion-bytes", "distribution_stats", "distribution_stats-object",
         "iterate_ensemble", "evolve"],
)
def test_text_array_is_a_type_error(call, name):
    # numpy parses digit strings: dispersion(cfg, "1") returned 0.4597
    with pytest.raises(TypeError, match=f"^{name} must hold numbers, not text"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        # dispersion(cfg, True) returned 0.4597, the value at k = 1
        (lambda: dispersion(ChainConfig(8, 1.0), True), "k"),
        (lambda: dispersion(ChainConfig(8, 1.0), np.True_), "k"),
        # distribution_stats([True, False], 0) returned (0.0, 1.0)
        (lambda: distribution_stats([True, False], 0), "p"),
        (lambda: distribution_stats(np.array([0.5, np.True_], dtype=object), 0), "p"),
        (lambda: iterate_ensemble(np.array([True]), [0.0], StandardMap(1.0), 2), "x0"),
        (lambda: evolve(np.array([True, False, False, False]), ChainConfig(4, 1.0), SingleKick(0.1, 1.0), 2),
         "state"),
        # iterate_ensemble([0.1, True], ...) ran as if x0 were [0.1, 1.0]: numpy cast the list to float
        (lambda: iterate_ensemble([0.1, True], [0.0, 0.0], StandardMap(1.0), 1, 1), "x0"),
        (lambda: surface_of_section([0.1, 0.2], (0.0, np.True_), StandardMap(1.0), 1), "p0"),
        (lambda: distribution_stats([[0.5, False]], 0), "p"),
    ],
    ids=["dispersion", "dispersion-numpy", "distribution_stats", "distribution_stats-object",
         "iterate_ensemble", "evolve", "list", "tuple", "nested-list"],
)
def test_bool_array_is_a_type_error(call, name):
    with pytest.raises(TypeError, match=f"^{name} must hold numbers, not bool"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: dispersion(ChainConfig(8, 1.0), 0.3 + 0.1j), "k"),
        # distribution_stats(np.array([1+2j, 0j]), 0) returned (0.0, 1.0) with a ComplexWarning
        (lambda: distribution_stats(np.array([1 + 2j, 0j]), 0), "p"),
        (lambda: distribution_stats(np.array([0.5, 0.5 + 0j], dtype=object), 0), "p"),
        # iterate_ensemble([0.1+1j], ...) ran on 0.1
        (lambda: iterate_ensemble([0.1 + 1j], [0.0], StandardMap(1.0), 2), "x0"),
        (lambda: surface_of_section([0.1], np.array([0.2 + 0j]), StandardMap(1.0), 2), "p0"),
    ],
    ids=["dispersion", "distribution_stats", "distribution_stats-object", "iterate_ensemble",
         "surface_of_section"],
)
def test_complex_array_for_a_real_argument_is_a_type_error(call, name):
    with pytest.raises(TypeError, match=f"^{name} must hold real numbers, not complex"):
        call()


def test_object_array_of_numbers_is_read():
    p = np.array([0.25, 0.75], dtype=object)
    assert distribution_stats(p, 0) == distribution_stats(p.astype(float), 0)
    k = np.array([1, 0.5], dtype=object)
    np.testing.assert_array_equal(dispersion(ChainConfig(8, 1.0), k), 1.0 - np.cos([1.0, 0.5]))
    # the evolve state is the one argument that may be complex, inside an object array too
    state = np.array([0, 0, 0, 1j], dtype=object)
    runs = [evolve(s, ChainConfig(4, 1.0), SingleKick(0.1, 1.0), 2) for s in (state, state.astype(complex))]
    np.testing.assert_array_equal(runs[0].final_state, runs[1].final_state)
