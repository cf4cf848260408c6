"""Classical map tests: stepping, ensembles, sections, fixed points."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kickedchain._limits as limits
import kickedchain._streams as _streams
import kickedchain.maps as maps_module
from kickedchain import (
    DoubleKickMap,
    DoubleWellMap,
    RandomDoubleKick,
    RandomRescaledDoubleKickMap,
    RescaledDoubleKickMap,
    StandardMap,
    fixed_point_stability,
    iterate_ensemble,
    map_step,
    surface_of_section,
)

DETERMINISTIC_SPECS = [
    StandardMap(k=1.7),
    DoubleKickMap(k=0.8, eps=0.05, tau=2.0),
    RescaledDoubleKickMap(k_eps=0.35, tau_eps=60.0),
    DoubleWellMap(k1=0.35, k2=-0.35),
]


class TestMapStep:
    @given(p=st.floats(min_value=-10, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_standard_zero_angle_leaves_momentum(self, p):
        x1, p1 = map_step(0.0, p, StandardMap(k=2.3))
        assert p1 == p and x1 == pytest.approx(p)

    def test_standard_zero_kick_is_free_rotation(self):
        x, p = 1.0, 0.7
        for _ in range(5):
            x, p = map_step(x, p, StandardMap(k=0.0))
        assert p == 0.7 and x == pytest.approx(1.0 + 5 * 0.7)

    def test_standard_momentum_lattice_symmetry(self):
        # dynamics of (x mod 2pi, p mod 2pi) invariant under p -> p + 2pi
        spec = StandardMap(k=1.3)
        x1, p1 = map_step(0.8, 0.4, spec)
        x2, p2 = map_step(0.8, 0.4 + 2 * np.pi, spec)
        assert (x2 - x1) % (2 * np.pi) == pytest.approx(0.0, abs=1e-12)
        assert p2 - p1 == pytest.approx(2 * np.pi)

    def test_double_kick_matches_manual_substeps(self):
        spec = DoubleKickMap(k=0.8, eps=0.05, tau=2.0)
        x0, p0 = 1.1, -0.3
        p1 = p0 - 0.8 * np.sin(x0)
        x1 = x0 + p1 * 0.05
        p2 = p1 - 0.8 * np.sin(x1)
        x2 = x1 + p2 * 2.0
        assert map_step(x0, p0, spec) == (pytest.approx(x2), pytest.approx(p2))

    def test_random_variant_requires_rng(self):
        with pytest.raises(ValueError):
            map_step(0.0, 0.0, RandomRescaledDoubleKickMap(k_eps=0.35))

    def test_random_variant_refuses_an_rng_of_another_type_without_numpy_random(self):
        # "rng" raised AttributeError; the check must not load numpy.random,
        # as isinstance(rng, np.random.Generator) would
        code = (
            "import sys\n"
            "from kickedchain import RandomRescaledDoubleKickMap, map_step\n"
            "try:\n"
            "    map_step(0.1, 0.2, RandomRescaledDoubleKickMap(0.35), 'rng')\n"
            "except TypeError as exc:\n"
            "    print(exc)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(maps_module.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "rng must be a random generator, got str\nFalse\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x, p, name", [(np.nan, 0.0, "x"), (np.inf, 0.0, "x"), (0.0, -np.inf, "p")]
    )
    def test_rejects_non_finite_point(self, x, p, name):
        # NaN used to step to NaN, and inf to warn "invalid value encountered in sin"
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            map_step(x, p, StandardMap(k=1.0))

    @pytest.mark.parametrize("spec", DETERMINISTIC_SPECS)
    def test_area_preserving(self, spec):
        # finite-difference Jacobian determinant of one step
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(20):
            x, p = rng.uniform(0, 2 * np.pi), rng.uniform(-3, 3)
            xp, pp = map_step(x + h, p, spec)
            xm, pm = map_step(x - h, p, spec)
            dxdx, dpdx = (xp - xm) / (2 * h), (pp - pm) / (2 * h)
            xp, pp = map_step(x, p + h, spec)
            xm, pm = map_step(x, p - h, spec)
            dxdp, dpdp = (xp - xm) / (2 * h), (pp - pm) / (2 * h)
            det = dxdx * dpdp - dxdp * dpdx
            assert det == pytest.approx(1.0, abs=1e-6)

    def test_double_well_orbit_bounded_in_stable_island(self):
        # linear stability at the origin: |2 - V''(0)| = |2 - 1.75| < 2
        spec = DoubleWellMap(k1=0.35, k2=0.35)
        x, p = 0.1, 0.0
        for _ in range(10000):
            x, p = map_step(x, p, spec)
            assert abs(p) < 0.5


class TestAcceleratorTransport:
    def test_ballistic_orbit_near_transporting_island(self):
        # K sin(x*) = 2*pi with stable residue: momentum advances ~2*pi/step
        k = 6.67
        x_star = np.arcsin(2 * np.pi / k)
        spec = StandardMap(k=k)
        x, p = x_star, 0.0
        for _ in range(200):
            x, p = map_step(x, p, spec)
        assert abs(p) == pytest.approx(200 * 2 * np.pi, rel=0.01)

    def test_no_transporting_island_at_weak_kick(self):
        # K sin x = 2*pi has no solution for K = 5
        assert 2 * np.pi / 5.0 > 1.0


class TestIterateEnsemble:
    def test_zero_kick_variance_constant(self):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(0, 2 * np.pi, 100)
        p0 = rng.normal(size=100)
        stats = iterate_ensemble(x0, p0, StandardMap(k=0.0), 50, 10)
        np.testing.assert_allclose(stats.var_p, stats.var_p[0], rtol=1e-12)

    def test_chaotic_diffusion_slope_order_of_magnitude(self):
        # K = 6.67 sits near transporting islands, so early growth exceeds
        # the quasilinear K^2/2 estimate; order-of-magnitude check only
        k = 6.67
        rng = np.random.default_rng(1)
        x0 = rng.uniform(0, 2 * np.pi, 4000)
        stats = iterate_ensemble(x0, np.zeros(4000), StandardMap(k=k), 20, 1)
        slope = np.polyfit(stats.steps[1:], stats.var_p[1:], 1)[0]
        assert k**2 / 2 / 10 < slope < 10 * k**2 / 2

    def test_records_include_start_and_end(self):
        stats = iterate_ensemble([0.3], [0.1], StandardMap(k=1.0), 7, 3)
        assert list(stats.steps) == [0, 3, 6, 7]

    def test_reproducible_given_seed(self):
        spec = RandomRescaledDoubleKickMap(k_eps=0.35)
        a = iterate_ensemble(np.zeros(10), np.zeros(10), spec, 100, 100, seed=5)
        b = iterate_ensemble(np.zeros(10), np.zeros(10), spec, 100, 100, seed=5)
        np.testing.assert_array_equal(a.momenta, b.momenta)

    def test_random_variant_matches_per_trajectory_streams(self):
        # batched iteration must equal stepping each trajectory on its own
        # stream spawned from the master seed
        spec = RandomRescaledDoubleKickMap(k_eps=0.35)
        n_traj, n_steps, seed = 5, 37, 123
        stats = iterate_ensemble(np.zeros(n_traj), np.zeros(n_traj), spec, n_steps, n_steps, seed=seed)
        children = np.random.SeedSequence(seed).spawn(n_traj)
        for i in range(n_traj):
            rng = np.random.default_rng(children[i])
            x, p = 0.0, 0.0
            for _ in range(n_steps):
                x, p = map_step(x, p, spec, rng)
            assert stats.momenta[-1, i] == pytest.approx(p, abs=1e-12)

    def test_random_variant_requires_seed(self):
        with pytest.raises(ValueError):
            iterate_ensemble([0.0], [0.0], RandomRescaledDoubleKickMap(k_eps=0.1), 10)

    def test_seed_sequence_reused_gives_same_streams(self):
        # trajectory i uses child i of the seed, without advancing its spawn counter
        spec = RandomRescaledDoubleKickMap(k_eps=0.35)
        ss = np.random.SeedSequence(17)
        a = iterate_ensemble(np.zeros(6), np.zeros(6), spec, 20, 20, seed=ss)
        b = iterate_ensemble(np.zeros(6), np.zeros(6), spec, 20, 20, seed=ss)
        c = iterate_ensemble(np.zeros(6), np.zeros(6), spec, 20, 20, seed=17)
        np.testing.assert_array_equal(a.momenta, b.momenta)
        np.testing.assert_array_equal(a.momenta, c.momenta)
        assert ss.n_children_spawned == 0

    def test_rejects_non_finite_initial_conditions(self):
        with pytest.raises(ValueError, match="initial conditions must be finite"):
            iterate_ensemble([0.0, np.nan], [0.0, 0.0], StandardMap(k=1.0), 10)

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            iterate_ensemble([], [], StandardMap(k=1.0), 10)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="x0 and p0 must have the same length"):
            iterate_ensemble([0.0, 1.0], [0.0], StandardMap(k=1.0), 10)

    def test_deterministic_and_random_double_kick_statistically_close(self):
        # with long inter-pair drift the deterministic pair map and the
        # random-angle pair map produce matching variance curves
        n = 2000
        rng = np.random.default_rng(5)
        x0 = rng.uniform(0, 2 * np.pi, n)
        p0 = np.zeros(n)
        det = iterate_ensemble(x0, p0, RescaledDoubleKickMap(k_eps=0.35, tau_eps=100.0), 200, 50)
        ran = iterate_ensemble(x0, p0, RandomRescaledDoubleKickMap(k_eps=0.35), 200, 50, seed=6)
        for vd, vr in zip(det.var_p[1:], ran.var_p[1:]):
            assert 0.7 < vd / vr < 1.4


class TestIntegerArguments:
    """Step counts must be integers: a bool or a float is a TypeError."""

    def test_iterate_refuses_bool_record_every(self):
        # True used to record every step, as if it were 1
        with pytest.raises(TypeError, match="record_every must be an integer, not bool"):
            iterate_ensemble([0.5], [0.1], StandardMap(1.0), 3, True)

    def test_iterate_refuses_float_n_steps(self):
        # 2.5 used to die in numpy with a message that named no argument
        with pytest.raises(TypeError, match="n_steps must be an integer, got float"):
            iterate_ensemble([0.5], [0.1], StandardMap(1.0), 2.5)

    def test_section_refuses_float_n_steps(self):
        with pytest.raises(TypeError, match="n_steps must be an integer, got float"):
            surface_of_section([0.5], [0.1], StandardMap(1.0), 2.5)

    def test_refused_before_the_ensemble_is_read(self):
        # mismatched initial conditions would raise ValueError once read
        with pytest.raises(TypeError, match="n_steps"):
            iterate_ensemble([0.5, 1.0], [0.1], StandardMap(1.0), 2.0)
        with pytest.raises(TypeError, match="n_steps"):
            surface_of_section([0.5, 1.0], [0.1], StandardMap(1.0), 2.0)

    def test_numpy_integers_are_accepted(self):
        stats = iterate_ensemble([0.5], [0.1], StandardMap(1.0), np.int64(3), np.int32(2))
        assert stats.steps.tolist() == [0, 2, 3]
        assert surface_of_section([0.5], [0.1], StandardMap(1.0), np.int64(3)).shape == (1, 3, 2)


class TestSurfaceOfSection:
    def test_free_rotation_traces_horizontal_lines(self):
        x0 = [0.1, 0.2]
        p0 = [0.5, -1.5]
        pts = surface_of_section(x0, p0, StandardMap(k=0.0), 100)
        assert pts.shape == (2, 100, 2)
        np.testing.assert_allclose(pts[0, :, 1], 0.5)
        np.testing.assert_allclose(pts[1, :, 1], -1.5)

    def test_angles_are_wrapped(self):
        pts = surface_of_section([0.3], [2.9], StandardMap(k=1.5), 500)
        assert np.all(pts[..., 0] >= 0) and np.all(pts[..., 0] < 2 * np.pi)

    def test_random_variant_matches_per_trajectory_streams(self):
        spec = RandomRescaledDoubleKickMap(k_eps=0.35)
        n_traj, n_steps, seed = 5, 37, 123
        pts = surface_of_section(np.zeros(n_traj), np.zeros(n_traj), spec, n_steps, seed=seed)
        children = np.random.SeedSequence(seed).spawn(n_traj)
        # bit for bit: the whole ensemble stepped on column-stacked uniform draws
        draws = np.column_stack(
            [np.random.default_rng(c).uniform(0.0, 2 * np.pi, size=n_steps) for c in children]
        )
        x, p = np.zeros(n_traj), np.zeros(n_traj)
        for t in range(n_steps):
            x, p = maps_module._step(x, p, spec, draws[t])
            np.testing.assert_array_equal(pts[:, t, 0], np.mod(x, 2 * np.pi))
            np.testing.assert_array_equal(pts[:, t, 1], p)
        for i in range(n_traj):
            rng = np.random.default_rng(children[i])
            x, p = 0.0, 0.0
            for _ in range(n_steps):
                x, p = map_step(x, p, spec, rng)
            assert pts[i, -1, 1] == pytest.approx(p, abs=1e-12)

    def test_double_well_island_chains(self):
        # ferromagnetic pairing confines orbits near x = 0; the mixed-sign
        # case has its stable points near arccos(1/4)
        near_zero = surface_of_section([0.15], [0.0], DoubleWellMap(k1=0.35, k2=0.35), 4000)
        x = near_zero[0, :, 0]
        x_centered = np.minimum(x, 2 * np.pi - x)
        assert np.max(x_centered) < 1.0

        mixed = surface_of_section(
            [np.arccos(0.25) + 0.05], [0.0], DoubleWellMap(k1=0.35, k2=-0.35), 4000
        )
        x = mixed[0, :, 0]
        assert np.all(np.abs(x - np.arccos(0.25)) < 0.6)


class TestFixedPointStability:
    def test_standard_map_half_kick(self):
        points = fixed_point_stability(StandardMap(k=0.5))
        assert len(points) == 2
        origin, saddle = points
        assert origin.x == pytest.approx(0.0, abs=1e-9)
        assert origin.stability == "stable"
        assert origin.trace == pytest.approx(2.0 - 0.5)
        assert saddle.x == pytest.approx(np.pi, abs=1e-9)
        assert saddle.stability == "unstable"

    def test_double_well_ferro_pairing(self):
        points = fixed_point_stability(DoubleWellMap(k1=0.35, k2=0.35))
        by_x = {round(fp.x, 6): fp for fp in points}
        origin = by_x[0.0]
        assert origin.stability == "stable"
        assert origin.trace == pytest.approx(2.0 - 1.75)

    def test_double_well_mixed_pairing(self):
        points = fixed_point_stability(DoubleWellMap(k1=0.35, k2=-0.35))
        origin = min(points, key=lambda fp: fp.x)
        assert origin.x == pytest.approx(0.0, abs=1e-9)
        assert origin.stability == "unstable"
        assert origin.trace == pytest.approx(2.0 + 1.05)
        off_axis = [fp for fp in points if fp.stability == "stable"]
        xs = sorted(fp.x for fp in off_axis)
        assert xs == pytest.approx([np.arccos(0.25), 2 * np.pi - np.arccos(0.25)], abs=1e-9)
        for fp in off_axis:
            assert fp.trace == pytest.approx(2.0 - 1.3125)

    def test_marginal_root_flagged(self):
        # k1 = -4*k2 makes the curvature vanish exactly at x = 0
        points = fixed_point_stability(DoubleWellMap(k1=0.4, k2=-0.1))
        origin = min(points, key=lambda fp: abs(fp.x))
        assert origin.stability == "marginal"

    @pytest.mark.parametrize(
        "k1, expected",
        [
            # a 4096-cell sign scan saw neither pi nor the root at 3.143007 here
            (-0.4, [(0.0, "unstable"), (3.140178, "stable"),
                    (np.pi, "unstable"), (3.143007, "stable")]),
            # ... nor the mirror 0.001414 of the root at 6.281771
            (0.4, [(0.0, "unstable"), (0.001414, "stable"),
                   (np.pi, "unstable"), (6.281771, "stable")]),
        ],
    )
    def test_pitchfork_pair_in_one_scan_cell(self, k1, expected):
        points = fixed_point_stability(DoubleWellMap(k1=k1, k2=-0.1000001))
        assert [fp.x for fp in points] == pytest.approx([x for x, _ in expected], abs=1e-6)
        assert [fp.stability for fp in points] == [label for _, label in expected]

    @given(
        pitchfork=st.booleans(),
        standard=st.booleans(),
        a=st.floats(min_value=-10, max_value=10),
        b=st.floats(min_value=-3, max_value=3),
        log_delta=st.floats(min_value=-12, max_value=-6),
        signs=st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_closed_form_roots(self, pitchfork, standard, a, b, log_delta, signs):
        # half the draws lie within 1e-6 of the pitchfork k1 = +-4*k2
        if pitchfork:
            k1, k2 = signs[0] * 4 * b * (1 + signs[1] * 10**log_delta), b
            spec = DoubleWellMap(k1=k1, k2=k2)
        elif standard:
            spec, k1, k2 = StandardMap(k=a), a, 0.0
        else:
            spec, k1, k2 = DoubleWellMap(k1=a, k2=b), a, b
        if k1 == 0 and k2 == 0:
            with pytest.raises(ValueError):
                fixed_point_stability(spec)
            return
        points = fixed_point_stability(spec)
        xs = [fp.x for fp in points]
        assert len(points) in (2, 4)
        assert xs == sorted(xs) and 0.0 in xs and np.pi in xs
        scale = abs(k1) + 4 * abs(k2)
        for fp in points:
            assert 0.0 <= fp.x < 2 * np.pi and fp.p == 0.0
            assert abs(k1 * np.sin(fp.x) + 2 * k2 * np.sin(2 * fp.x)) <= 1e-12 * scale
            mirror = (2 * np.pi - fp.x) % (2 * np.pi)
            gaps = np.abs(np.asarray(xs) - mirror)
            assert np.min(np.minimum(gaps, 2 * np.pi - gaps)) <= 1e-12
            curvature = k1 * math.cos(fp.x) + 4 * k2 * math.cos(2 * fp.x)
            assert fp.trace == pytest.approx(2.0 - curvature, rel=1e-12, abs=1e-12)
            if abs(curvature) < maps_module.MARGINAL_TOL:
                assert fp.stability == "marginal"
            elif 0.0 < curvature < 4.0:  # |trace| < 2
                assert fp.stability == "stable"
            else:
                assert fp.stability == "unstable"

    def test_rejects_zero_kick(self):
        with pytest.raises(ValueError):
            fixed_point_stability(StandardMap(k=0.0))

    def test_rejects_multi_drift_variants(self):
        with pytest.raises(ValueError):
            fixed_point_stability(RescaledDoubleKickMap(k_eps=0.35, tau_eps=50.0))


class TestChildStates:
    """The vectorized SeedSequence hash behind the random variant's streams."""

    SEEDS = {
        "0": np.random.SeedSequence(0),
        "1": np.random.SeedSequence(1),
        "2**32": np.random.SeedSequence(2**32),
        "2**64-1": np.random.SeedSequence(2**64 - 1),
        "2**127+5": np.random.SeedSequence(2**127 + 5),
        "list": np.random.SeedSequence([0, 7, 2**33, 2**32 - 1, 5]),
        "uint32-array": np.random.SeedSequence(np.array([9, 0, 2**32 - 1], dtype=np.uint32)),
        # what _run_classical passes: a spawned child of the run's seed
        "spawned": np.random.SeedSequence(11).spawn(2)[1],
        "pool_size-8": np.random.SeedSequence(12, pool_size=8),
    }

    @pytest.mark.parametrize("name", SEEDS)
    @pytest.mark.parametrize("i", [0, 1, 4095, 4096, 2**16, maps_module.MAX_ENSEMBLE - 1])
    def test_row_equals_numpy_child(self, name, i):
        seq = self.SEEDS[name]
        child = np.random.SeedSequence(
            seq.entropy, spawn_key=seq.spawn_key + (i,), pool_size=seq.pool_size
        )
        rows = _streams.child_states(seq, i, i + 1)
        assert rows.dtype == np.uint64 and rows.shape == (1, 4)
        np.testing.assert_array_equal(rows[0], child.generate_state(4, np.uint64))

    def test_rows_equal_spawned_children(self):
        seq = self.SEEDS["spawned"]
        expected = [c.generate_state(4, np.uint64) for c in seq.spawn(40)[30:]]
        np.testing.assert_array_equal(_streams.child_states(seq, 30, 40), expected)


class TestLanes:
    """The PCG64 lanes the random variant draws its angles from."""

    @staticmethod
    def _check(seq, a, lanes, n_steps):
        drawn = np.array([row.copy() for row in _streams.angles(seq, a, a + lanes, n_steps)])
        expected = np.column_stack([
            np.random.default_rng(
                np.random.SeedSequence(
                    seq.entropy, spawn_key=seq.spawn_key + (i,), pool_size=seq.pool_size
                )
            ).random(n_steps) * (2 * np.pi)
            for i in range(a, a + lanes)
        ])
        np.testing.assert_array_equal(drawn, expected)

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("n_steps", [1, 7, 8, 9, 37])
    @pytest.mark.parametrize("i", [0, 4095, 4096, maps_module.MAX_ENSEMBLE - 1])
    @pytest.mark.parametrize("name", TestChildStates.SEEDS)
    def test_lanes_equal_numpy_draws(self, name, i, n_steps, lanes):
        # the tile holds child i and stays below the ensemble cap
        self._check(TestChildStates.SEEDS[name], min(i, maps_module.MAX_ENSEMBLE - lanes), lanes, n_steps)

    @pytest.mark.parametrize("steps", [1, 3, 16])
    def test_other_refill_sizes(self, steps, monkeypatch):
        monkeypatch.setattr(_streams, "_STEPS", steps)
        for i in (0, maps_module.MAX_ENSEMBLE - 3):
            self._check(TestChildStates.SEEDS["spawned"], i, 3, 37)


class TestMulhi:
    """The 32-bit-limb multiply that the PCG64 lanes and the CSV float kernel share,
    against Python integers, in the call shapes of both."""

    EDGES = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)

    @staticmethod
    def _random(n, seed):
        return np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64)

    @staticmethod
    def _limbs(words):
        return words & _streams._MASK, words >> 32

    def test_column_times_lanes(self):
        # _lcg's call: a (k, 1) column of multipliers times (lanes,)
        a = np.concatenate([self.EDGES, self._random(30, 1)])[:, None]
        b = np.concatenate([self.EDGES, self._random(40, 2)])
        out, t, u = np.empty((3, len(a), len(b)), np.uint64)
        _streams._mulhi(*self._limbs(a), *self._limbs(b), out, t, u)
        assert out.tolist() == [[x * y >> 64 for y in b.tolist()] for x in a[:, 0].tolist()]

    def test_lanes_times_rows_in_place(self):
        # _product's call: (n,) times (2, n), with u aliasing b0; every pair of edges meets in row 0
        n = len(self.EDGES)
        a = np.concatenate([np.repeat(self.EDGES, n), self._random(200, 3)])
        b = np.stack([np.concatenate([np.tile(self.EDGES, n), self._random(200, 4)]), self._random(len(a), 5)])
        b0, b1 = self._limbs(b)
        out, t = np.empty((2, *b.shape), np.uint64)
        _streams._mulhi(*self._limbs(a), b0, b1, out, t, b0)
        assert out.tolist() == [[x * y >> 64 for x, y in zip(a.tolist(), row)] for row in b.tolist()]


class TestStream:
    """The one-stream draws behind the uniform_x initial conditions and the frozen field."""

    SEEDS = {
        "0": _streams.Seed(0),
        "2**64-1": _streams.Seed(2**64 - 1),
        "2**100+3": _streams.Seed(2**100 + 3),
        "pool_size-8": _streams.Seed(12, pool_size=8),
        # what _run_classical passes: child 0 of the run's seed
        "spawned-0": _streams.Seed(0, (0,)),
        "spawned-2**64-1": _streams.Seed(2**64 - 1, (0,)),
        "spawned-2**100+3": _streams.Seed(2**100 + 3, (1,)),
        "spawned-pool_size-8": _streams.Seed(12, (0,), 8),
    }
    SIZES = [1, _streams._POSITIONS - 1, _streams._POSITIONS, _streams._POSITIONS + 1, 20000]

    @staticmethod
    def _rng(seed):
        return np.random.default_rng(
            np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size)
        )

    @pytest.mark.parametrize("name", SEEDS)
    def test_state_equals_numpy(self, name):
        seed = self.SEEDS[name]
        seq = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size)
        np.testing.assert_array_equal(_streams.child_states(seed), [seq.generate_state(4, np.uint64)])

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", SEEDS)
    def test_uniform_equals_numpy(self, name, n):
        seed = self.SEEDS[name]
        (drawn,) = _streams.uniform(seed, n, (0.0, 2 * np.pi))
        np.testing.assert_array_equal(drawn, self._rng(seed).uniform(0.0, 2 * np.pi, n))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", ["0", "spawned-2**64-1", "spawned-pool_size-8"])
    def test_later_draws_continue_the_stream(self, name, n):
        # the uniform_x angles, then the p_jitter draws, then one more
        seed = self.SEEDS[name]
        bounds = [(0.0, 2 * np.pi), (-1.5, 1.5), (-0.7, 3.1)]
        rng = self._rng(seed)
        for drawn, (low, high) in zip(_streams.uniform(seed, n, *bounds), bounds, strict=True):
            np.testing.assert_array_equal(drawn, rng.uniform(low, high, n))

    @pytest.mark.parametrize("positions", [1, 3, 16])
    def test_other_refill_sizes(self, positions, monkeypatch):
        monkeypatch.setattr(_streams, "_POSITIONS", positions)
        seed = self.SEEDS["spawned-2**100+3"]
        rng = self._rng(seed)
        for drawn in _streams.uniform(seed, 37, (-1.5, 1.5), (-1.5, 1.5)):
            np.testing.assert_array_equal(drawn, rng.uniform(-1.5, 1.5, 37))

    def test_numpy_seed_sequence_reads_alike(self):
        seq = np.random.SeedSequence(2**64 - 1).spawn(2)[0]
        expected = _streams.uniform(self.SEEDS["spawned-2**64-1"], 600, (0.0, 1.0))
        np.testing.assert_array_equal(_streams.uniform(seq, 600, (0.0, 1.0)), expected)

    @pytest.mark.parametrize("p_jitter", [0.0, 1.5])
    def test_classical_initials_equal_numpy(self, p_jitter):
        from kickedchain.scenario import _classical_initials

        n = 20000
        initial = {"uniform_x": {"n_trajectories": n, "p0": 0.5, "p_jitter": p_jitter}}
        x0, p0 = _classical_initials(initial, _streams.Seed(2014, (0,)))
        rng = np.random.default_rng(np.random.SeedSequence(2014).spawn(2)[0])
        np.testing.assert_array_equal(x0, rng.uniform(0.0, 2.0 * np.pi, size=n))
        expected = np.full(n, 0.5)
        if p_jitter:
            expected = expected + rng.uniform(-p_jitter, p_jitter, size=n)
        np.testing.assert_array_equal(p0, expected)

    def test_frozen_field_equals_numpy(self):
        from kickedchain.evolution import _kick_phases

        n = _streams._POSITIONS + 1
        frozen = _kick_phases(RandomDoubleKick(b_weak=0.05, period=3.0, seed=2**64 - 1), n, n // 2)[1]
        angles = np.random.default_rng(2**64 - 1).uniform(0.0, 2.0 * np.pi, size=n)
        np.testing.assert_array_equal(frozen, np.exp(-1j * angles))


SEED_ENTRY_POINTS = {
    "RandomDoubleKick": lambda seed: RandomDoubleKick(b_weak=0.1, period=1.0, seed=seed),
    "iterate_ensemble": lambda seed: iterate_ensemble(
        [0.0], [0.0], RandomRescaledDoubleKickMap(k_eps=0.35), 1, seed=seed
    ),
    "surface_of_section": lambda seed: surface_of_section(
        [0.0], [0.0], RandomRescaledDoubleKickMap(k_eps=0.35), 1, seed=seed
    ),
}


@pytest.mark.parametrize(
    "seed, error",
    [(1.5, TypeError), (True, TypeError), ("3", TypeError), (-1, ValueError)],
    ids=["1.5", "True", "str-3", "-1"],
)
@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
def test_seed_must_be_a_non_negative_integer(entry, seed, error):
    # the streams hash a seed's words, so a seed that is not one is refused before any work
    with pytest.raises(error, match="seed"):
        SEED_ENTRY_POINTS[entry](seed)


class TestEnsembleCap:
    def test_rejects_oversized_ensemble(self):
        from kickedchain.maps import MAX_ENSEMBLE

        n = MAX_ENSEMBLE + 1
        with pytest.raises(ValueError, match="cap"):
            iterate_ensemble(np.zeros(n), np.zeros(n), StandardMap(k=1.0), 1)

    def test_section_rejects_oversized_ensemble(self):
        # checked before the (n, n_steps, 2) output is allocated
        from kickedchain.maps import MAX_ENSEMBLE

        n = MAX_ENSEMBLE + 1
        with pytest.raises(ValueError, match="cap"):
            surface_of_section(np.zeros(n), np.zeros(n), StandardMap(k=1.0), 10**9)

    def test_section_rejects_zero_steps(self):
        with pytest.raises(ValueError, match="n_steps"):
            surface_of_section([0.0], [0.0], StandardMap(k=1.0), 0)


class TestResultCap:
    # each result is allowed at exactly its size and refused one byte below it
    def test_section_points(self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_RESULT_BYTES", 3 * 10 * 16)
        assert surface_of_section(np.zeros(3), np.zeros(3), StandardMap(k=1.0), 10).shape == (3, 10, 2)
        monkeypatch.setattr(limits, "MAX_RESULT_BYTES", 3 * 10 * 16 - 1)
        with pytest.raises(ValueError, match="section of 3 x 10 points.*result cap"):
            surface_of_section(np.zeros(3), np.zeros(3), StandardMap(k=1.0), 10)

    def test_record_array(self, monkeypatch):
        # 10 steps every 4 record steps 0, 4, 8 and 10
        monkeypatch.setattr(limits, "MAX_RESULT_BYTES", 4 * 3 * 8)
        stats = iterate_ensemble(np.zeros(3), np.zeros(3), StandardMap(k=1.0), 10, 4)
        assert stats.steps.tolist() == [0, 4, 8, 10]
        monkeypatch.setattr(limits, "MAX_RESULT_BYTES", 4 * 3 * 8 - 1)
        with pytest.raises(ValueError, match="4 records of 3 momenta.*result cap"):
            iterate_ensemble(np.zeros(3), np.zeros(3), StandardMap(k=1.0), 10, 4)


class TestWorkCap:
    # each run is allowed at exactly its work and refused one element-step
    # below it; a step counts at least 1024 element-steps
    @pytest.mark.parametrize(
        "run, work",
        [
            (lambda: iterate_ensemble(np.zeros(3), np.zeros(3), StandardMap(k=1.0), 10, 4), 1024 * 10),
            (lambda: surface_of_section(np.zeros(2048), np.zeros(2048), StandardMap(k=1.0), 3), 2048 * 3),
        ],
        ids=["ensemble-floor", "section"],
    )
    def test_bound_is_inclusive(self, run, work, monkeypatch):
        monkeypatch.setattr(limits, "MAX_WORK", work)
        run()
        monkeypatch.setattr(limits, "MAX_WORK", work - 1)
        with pytest.raises(ValueError, match=f"would take {work} element-steps, over the work cap"):
            run()


class TestMapValidation:
    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: DoubleKickMap(k=0.8, eps=float("nan"), tau=2.0),
            lambda: DoubleKickMap(k=0.8, eps=0.05, tau=float("nan")),
            lambda: RescaledDoubleKickMap(k_eps=0.35, tau_eps=float("nan")),
        ],
    )
    def test_rejects_nan_drifts(self, ctor):
        with pytest.raises(ValueError, match="must be finite and > 0, got nan"):
            ctor()

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
    )
    @pytest.mark.parametrize(
        "cls, fields",
        [
            (StandardMap, {"k": 1.7}),
            (DoubleKickMap, {"k": 0.8, "eps": 0.05, "tau": 2.0}),
            (RescaledDoubleKickMap, {"k_eps": 0.35, "tau_eps": 60.0}),
            (RandomRescaledDoubleKickMap, {"k_eps": 0.35}),
            (DoubleWellMap, {"k1": 0.35, "k2": -0.35}),
        ],
        ids=["standard", "double_kick", "rescaled", "random_rescaled", "double_well"],
    )
    def test_rejects_non_finite_coefficients(self, cls, fields, bad):
        # DoubleWellMap(nan, 1.0) used to give fixed points with trace nan,
        # StandardMap(inf) traces of +-inf, and eps = inf passed the eps > 0 check;
        # an int beyond the float range reads as inf, not as an OverflowError
        for name in fields:
            shown = limits.to_float(bad)
            with pytest.raises(ValueError, match=rf"^{name} must be finite( and > 0)?, got {shown}$"):
                cls(**{**fields, name: bad})


ALL_SPECS = DETERMINISTIC_SPECS + [RandomRescaledDoubleKickMap(k_eps=0.35)]


def _use_small_tiles(monkeypatch):
    """Cut 10 trajectories into four tiles of 2-3 on a two-thread pool, with
    angles drawn 2 steps per refill (37 steps end in a ragged refill of 1);
    return the list of tiles stepped."""
    tiles = []
    advance_tile = maps_module._advance_tile

    def spy(x, p, spec, n_steps, seq, a, b, emit):
        tiles.append((a, b))
        return advance_tile(x, p, spec, n_steps, seq, a, b, emit)

    monkeypatch.setattr(maps_module, "_TILE", 3)
    monkeypatch.setattr(_streams, "_STEPS", 2)
    monkeypatch.setattr(maps_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(maps_module, "_advance_tile", spy)
    return tiles


class TestEngine:
    """The tiled, threaded stepping engine behind both ensemble front-ends."""

    @staticmethod
    def _initials():
        rng = np.random.default_rng(4)
        return rng.uniform(0, 2 * np.pi, 10), rng.normal(size=10)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_tiling_is_bit_identical(self, spec, monkeypatch):
        x0, p0 = self._initials()
        ens = iterate_ensemble(x0, p0, spec, 37, 5, seed=9)
        sos = surface_of_section(x0, p0, spec, 37, seed=9)
        tiles = _use_small_tiles(monkeypatch)
        tiled_ens = iterate_ensemble(x0, p0, spec, 37, 5, seed=9)
        tiled_sos = surface_of_section(x0, p0, spec, 37, seed=9)
        assert sorted(set(tiles)) == [(0, 2), (2, 5), (5, 7), (7, 10)]
        for field in ("steps", "mean_p", "var_p", "momenta"):
            np.testing.assert_array_equal(getattr(tiled_ens, field), getattr(ens, field))
        np.testing.assert_array_equal(tiled_sos, sos)

    def test_draw_buffers_stay_within_two_budgets(self, monkeypatch):
        # one thread steps one 4096-trajectory tile: its (8, 4096) buffer of
        # angles and its (4, 8, 4096) work array are the largest arrays it holds
        monkeypatch.setattr(maps_module, "_usable_cpus", lambda: 1)
        x0, p0 = np.zeros(4096), np.linspace(-1.0, 1.0, 4096)
        tracemalloc.start()
        try:
            iterate_ensemble(x0, p0, RandomRescaledDoubleKickMap(k_eps=0.35), 600, 600, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_more_threads_than_cores_lose_no_writes(self, monkeypatch):
        # 32 tiles on 16 threads, switching every microsecond: every tile must
        # land in its own slice of the shared outputs
        spec = RandomRescaledDoubleKickMap(k_eps=0.35)
        x0, p0 = np.zeros(50), np.linspace(-1.0, 1.0, 50)
        ens = iterate_ensemble(x0, p0, spec, 200, 7, seed=3)
        sos = surface_of_section(x0, p0, spec, 200, seed=3)
        monkeypatch.setattr(maps_module, "_TILE", 3)
        monkeypatch.setattr(maps_module, "_usable_cpus", lambda: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tiled_ens = iterate_ensemble(x0, p0, spec, 200, 7, seed=3)
            tiled_sos = surface_of_section(x0, p0, spec, 200, seed=3)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(tiled_ens.momenta, ens.momenta)
        np.testing.assert_array_equal(tiled_sos, sos)

    def test_overflow_raises_without_warnings(self, monkeypatch):
        # numpy's error state is per thread, so every tile must set its own
        tiles = _use_small_tiles(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="10 of 10 trajectories became non-finite"):
                iterate_ensemble(np.zeros(10), np.full(10, 1e308), StandardMap(k=1e308), 5)
        assert len(tiles) == 4

    @pytest.mark.parametrize(
        "seed",
        [
            9,
            np.uint64(9),
            np.random.SeedSequence(5).spawn(2)[1],
            np.random.SeedSequence([3, 2**40], pool_size=8),
        ],
        ids=["int", "numpy-int", "spawned", "pool_size-8"],
    )
    def test_tiled_streams_equal_seed_sequence_children(self, seed, monkeypatch):
        # reference: trajectory i drawn from numpy's own child i of the seed,
        # the whole ensemble stepped on the column-stacked draws
        spec = RandomRescaledDoubleKickMap(k_eps=0.35)
        x0, p0 = self._initials()
        n_steps, every = 37, 5
        tiles = _use_small_tiles(monkeypatch)
        stats = iterate_ensemble(x0, p0, spec, n_steps, every, seed=seed)
        assert len(tiles) == 4
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        draws = np.column_stack([
            np.random.default_rng(
                np.random.SeedSequence(
                    seq.entropy, spawn_key=seq.spawn_key + (i,), pool_size=seq.pool_size
                )
            ).uniform(0.0, 2 * np.pi, size=n_steps)
            for i in range(x0.size)
        ])
        x, p = x0, p0
        expected = [p0]
        for t in range(1, n_steps + 1):
            x, p = maps_module._step(x, p, spec, draws[t - 1])
            if t % every == 0 or t == n_steps:
                expected.append(p)
        np.testing.assert_array_equal(stats.momenta, np.array(expected))

    @pytest.mark.parametrize("p0", [[1e200, -1e200], [1.5e308, 1.5e308]], ids=["variance", "mean"])
    def test_overflowed_statistics_are_refused_without_warnings(self, p0):
        # [1e200, -1e200] warned "overflow encountered in square" and returned var_p = inf;
        # k = 0 and one step keep every momentum and angle finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="momentum mean or variance overflowed"):
                iterate_ensemble([0.0, 0.0], p0, StandardMap(0.0), 1, 1)

    def test_partial_overflow_counts_trajectories(self):
        p0 = np.zeros(6)
        p0[[1, 4]] = 1e308
        with pytest.raises(ValueError, match="2 of 6 trajectories"):
            surface_of_section(np.zeros(6), p0, StandardMap(k=1e308), 3)
