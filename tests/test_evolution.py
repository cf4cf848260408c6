"""Propagation tests: split-step path against independent dense oracles."""

import threading
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import jv

import kickedchain._limits as limits
import kickedchain.evolution as evolution
from kickedchain import (
    ChainConfig,
    ChainModel,
    DoubleKick,
    RandomDoubleKick,
    SingleKick,
    StandardMap,
    build_floquet,
    delta_state,
    dispersion,
    evolve,
    magnon_state,
    qkr_evolve,
    rotor_image,
)
from kickedchain.evolution import _parabola


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def exchange(psi, cfg, period):
    """One period of free exchange: ``evolve`` with a kick of strength 0,
    whose phases are exactly 1."""
    return evolve(psi, cfg, SingleKick(b_kick=0.0, period=period), 1).final_state


def dense_exchange_kernel(n, j1_t0):
    """Direct summation of the one-period exchange kernel (no FFT):
    M[r, s] = (1/n) sum_m exp(i*(r-s)*k_m + i*j1_t0*cos(k_m))."""
    m = np.arange(-((n - 1) // 2), n // 2 + 1)
    km = 2.0 * np.pi * m / n
    out = np.empty((n, n), dtype=complex)
    for r in range(n):
        for s in range(n):
            out[r, s] = np.sum(np.exp(1j * ((r - s) * km + j1_t0 * np.cos(km)))) / n
    return out


class TestApplyExchange:
    """The exchange half of a period, applied in the magnon basis by ``evolve``."""

    def test_zero_period_is_identity(self):
        cfg = ChainConfig(n_sites=16, j1=1.0)
        psi = random_state(16)
        np.testing.assert_allclose(exchange(psi, cfg, 0.0), psi, atol=1e-14)

    def test_matches_dense_kernel(self):
        # global phase exp(-i*j1*t0) separates the dispersion convention
        # from the bare cos-kernel; remove it before comparing
        n, j1_t0 = 16, 3.0
        cfg = ChainConfig(n_sites=n, j1=1.0)
        psi = random_state(n, seed=3)
        got = exchange(psi, cfg, j1_t0) * np.exp(1j * j1_t0)
        expected = dense_exchange_kernel(n, j1_t0) @ psi
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_unitary(self):
        cfg = ChainConfig(n_sites=64, j1=1.0)
        psi = exchange(random_state(64), cfg, 17.3)
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_length_mismatch(self):
        cfg = ChainConfig(n_sites=16, j1=1.0)
        with pytest.raises(ValueError):
            exchange(random_state(8), cfg, 1.0)


class TestApplyParabolicKick:
    """The site phases of a parabolic kick, as ``evolve`` multiplies them in."""

    def test_zero_strength_is_identity(self):
        psi = random_state(32)
        np.testing.assert_allclose(psi * _parabola(0.0, len(psi), 16), psi)

    def test_center_site_untouched(self):
        psi = np.ones(32, dtype=complex) / np.sqrt(32)
        out = psi * _parabola(0.7, len(psi), 10)
        assert out[10] == psi[10]

    def test_phase_against_high_precision_oracle(self):
        # site 94 past the center at strength 1/15: angle -94**2/30 mod 2*pi
        n, center, strength = 256, 64, 1.0 / 15.0
        psi = np.ones(n, dtype=complex)
        out = psi * _parabola(strength, len(psi), center)
        mpmath.mp.dps = 50
        angle = -mpmath.mpf(94) ** 2 * mpmath.mpf(strength) / 2
        expected = mpmath.exp(1j * angle)
        got = out[center + 94]
        assert abs(got - complex(expected.real, expected.imag)) < 1e-11

    def test_preserves_moduli(self):
        psi = random_state(64, seed=9)
        out = psi * _parabola(2.3, len(psi), 31)
        np.testing.assert_allclose(np.abs(out), np.abs(psi), rtol=0, atol=1e-15)


class TestEvolve:
    def test_zero_periods(self):
        cfg = ChainConfig(n_sites=16, j1=1.0)
        psi = random_state(16)
        rec = evolve(psi, cfg, SingleKick(b_kick=0.1, period=1.0), 0)
        assert len(rec.snapshots) == 1 and rec.snapshots[0][0] == 0
        np.testing.assert_allclose(rec.final_state, psi)

    def test_snapshot_cadence_includes_endpoints(self):
        cfg = ChainConfig(n_sites=16, j1=1.0)
        rec = evolve(delta_state(16, 8), cfg, SingleKick(0.1, 1.0), 10, snapshot_every=4)
        assert [p for p, _ in rec.snapshots] == [0, 4, 8, 10]

    def test_norm_budget_over_thousand_periods(self):
        cfg = ChainConfig(n_sites=512, j1=1.0)
        rec = evolve(delta_state(512, 256), cfg, SingleKick(0.2, 10.0), 1000, 1000)
        assert abs(np.sum(np.abs(rec.final_state) ** 2) - 1.0) < 1e-10

    def test_translation_covariance_without_kick(self):
        cfg = ChainConfig(n_sites=64, j1=1.0)
        free = SingleKick(b_kick=0.0, period=4.0)
        base = evolve(delta_state(64, 20), cfg, free, 7, 7).final_distribution
        shifted = evolve(delta_state(64, 29), cfg, free, 7, 7).final_distribution
        np.testing.assert_allclose(shifted, np.roll(base, 9), atol=1e-12)

    def test_parity_about_centered_kick(self):
        n = 256
        cfg = ChainConfig(n_sites=n, j1=1.0)
        rec = evolve(delta_state(n, n // 2), cfg, SingleKick(0.25, 20.0), 50, 50)
        p = rec.final_distribution
        d = np.arange(1, n // 2)
        np.testing.assert_allclose(
            p[(n // 2 + d) % n], p[(n // 2 - d) % n], atol=1e-9
        )

    def test_random_schedule_bit_reproducible(self):
        cfg = ChainConfig(n_sites=64, j1=1.0)
        sched = RandomDoubleKick(b_weak=0.05, period=3.0, seed=99)
        a = evolve(delta_state(64, 32), cfg, sched, 20, 20)
        b = evolve(delta_state(64, 32), cfg, sched, 20, 20)
        np.testing.assert_array_equal(a.final_state, b.final_state)

    def test_snapshots_are_normalized(self):
        cfg = ChainConfig(n_sites=64, j1=1.0)
        sched = DoubleKick(b_weak=0.05, b_strong=1.0, period=3.0)
        rec = evolve(delta_state(64, 32), cfg, sched, 16, 4)
        for _, dist in rec.snapshots:
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(dist >= 0)

    @pytest.mark.parametrize(
        "state, norm2",
        [(np.full(64, np.nan), "nan"), (np.ones(64), "64.0"), (np.zeros(64), "0.0")],
        ids=["nan", "ones", "zero"],
    )
    def test_refuses_state_that_is_not_normalized(self, state, norm2, monkeypatch):
        # each used to run every period; now refused before any phase array is built
        def built(*args):
            raise AssertionError("a phase array was built")

        monkeypatch.setattr(evolution, "_exchange_phases", built)
        with pytest.raises(ValueError, match=rf"state norm\*\*2 is {norm2}; it must be 1 within 1e-06"):
            evolve(state, ChainConfig(64, 1.0), SingleKick(0.1, 1.0), 4)

    @pytest.mark.parametrize("norm2, ok", [(1 + 0.9e-6, True), (1 - 0.9e-6, True), (1 + 1.1e-6, False)])
    def test_state_norm_tolerance(self, norm2, ok):
        state = delta_state(64, 32) * np.sqrt(norm2)
        run = lambda: evolve(state, ChainConfig(64, 1.0), SingleKick(0.1, 1.0), 4)
        if ok:
            assert len(run().snapshots) == 5
        else:
            with pytest.raises(ValueError, match="state norm"):
                run()

    def test_transform_cap(self):
        cfg = ChainConfig(n_sites=2**20 + 2, j1=1.0)
        with pytest.raises(ValueError, match="cap"):
            evolve(
                delta_state(2**20 + 2, 0), cfg, SingleKick(0.1, 1.0), 1
            )


class TestBuildFloquet:
    def test_trivial_schedule_is_identity(self):
        cfg = ChainConfig(n_sites=8, j1=1.0)
        u = build_floquet(cfg, SingleKick(b_kick=0.0, period=0.0))
        np.testing.assert_allclose(u, np.eye(8), atol=1e-13)

    @pytest.mark.parametrize(
        "schedule",
        [
            SingleKick(b_kick=1 / 15, period=100.0),
            DoubleKick(b_weak=0.025, b_strong=1.3, period=7.0),
            RandomDoubleKick(b_weak=0.025, period=7.0, seed=4),
        ],
    )
    def test_unitary_columns(self, schedule):
        cfg = ChainConfig(n_sites=32, j1=1.0)
        u = build_floquet(cfg, schedule)
        np.testing.assert_allclose(
            np.abs(u.conj().T @ u - np.eye(32)).max(), 0.0, atol=1e-10
        )

    def test_diagonal_matches_bessel_sum(self):
        # zero-kick diagonal equals exp(-i*z) * sum over n = 0 mod N of
        # (i**n) * J_n(z); orders beyond +-N are negligible at z = 3
        n, z = 32, 3.0
        cfg = ChainConfig(n_sites=n, j1=1.0)
        u = build_floquet(cfg, SingleKick(b_kick=0.0, period=z))
        bessel = jv(0, z) + (1j**n) * jv(n, z) + (1j ** (-n)) * jv(-n, z)
        expected = np.exp(-1j * z) * bessel
        np.testing.assert_allclose(np.diag(u), np.full(n, expected), atol=1e-12)

    def test_rejects_oversize(self, monkeypatch):
        monkeypatch.setattr(evolution, "MAX_DENSE_SITES", 32)
        cfg = ChainConfig(n_sites=64, j1=1.0)
        with pytest.raises(ValueError, match="cap"):
            build_floquet(cfg, SingleKick(0.1, 1.0))

    @pytest.mark.parametrize(
        "schedule",
        [
            SingleKick(b_kick=0.31, period=14.0),
            DoubleKick(b_weak=0.05, b_strong=0.9, period=5.0),
            RandomDoubleKick(b_weak=0.05, period=5.0, seed=7),
        ],
    )
    def test_evolve_matches_dense_powers(self, schedule):
        cfg = ChainConfig(n_sites=48, j1=1.0)
        psi0 = random_state(48, seed=11)
        rec = evolve(psi0, cfg, schedule, 100, 100)
        u = build_floquet(cfg, schedule)
        psi = psi0.copy()
        for _ in range(100):
            psi = u @ psi
        assert np.abs(psi - rec.final_state).max() < 1e-8


class TestDoubleKickOrder:
    """A double-kick period is a weak single-kick period, then a strong one."""

    CFG = ChainConfig(n_sites=64, j1=1.0)
    SCHEDULE = DoubleKick(b_weak=0.05, b_strong=0.5, period=2.0)

    def product(self):
        weak, strong = (build_floquet(self.CFG, SingleKick(b, 2.0)) for b in (0.05, 0.5))
        return strong @ weak

    def test_floquet_is_strong_after_weak(self):
        # the swapped product differs by about 1.26
        u = build_floquet(self.CFG, self.SCHEDULE)
        np.testing.assert_allclose(u, self.product(), rtol=0, atol=1e-12)

    def test_evolve_period_is_strong_after_weak(self):
        # one period from a delta at site 32 is column 32 of the product; swapped, it is off by 0.54
        rec = evolve(delta_state(64, 32), self.CFG, self.SCHEDULE, 1)
        np.testing.assert_allclose(rec.final_state, self.product()[:, 32], rtol=0, atol=1e-12)


class TestQkrEvolve:
    def test_free_rotor_keeps_delta(self):
        rec = qkr_evolve(0, k=0.0, hbar=0.5, n_periods=20, n_basis=64)
        expected = np.zeros(64)
        expected[32] = 1.0
        np.testing.assert_allclose(rec.final_distribution, expected, atol=1e-12)

    def test_one_kick_matches_bessel_weights(self):
        z = 100.0
        rec = qkr_evolve(0, k=z, hbar=1.0, n_periods=1, n_basis=512)
        dist = rec.final_distribution
        orders = np.arange(512) - 256
        expected = jv(orders, z) ** 2
        np.testing.assert_allclose(dist, expected, atol=1e-10)

    def test_image_correspondence_with_spin_chain(self):
        b, j1_t0 = 1.0 / 15.0, 100.0
        cfg = ChainConfig(n_sites=64, j1=1.0)
        spin = evolve(delta_state(64, 32), cfg, SingleKick(b, j1_t0), 10, 1)
        rotor = qkr_evolve(0, k=j1_t0 * b, hbar=b, n_periods=10, n_basis=64)
        for (tp, ps), (tq, pq) in zip(spin.snapshots, rotor.snapshots):
            assert tp == tq
            assert np.abs(ps - pq).max() < 1e-8

    def test_truncation_leakage_flagged(self):
        rec = qkr_evolve(0, k=4.0, hbar=0.2, n_periods=10, n_basis=16)
        assert rec.max_edge > 1e-6

    def test_no_leakage_warning_when_contained(self):
        rec = qkr_evolve(0, k=1.0, hbar=1.0, n_periods=5, n_basis=256)
        assert rec.max_edge <= 1e-6

    def test_leak_between_snapshots_flagged(self):
        # hbar = 2*pi is the antiresonance: free rotation shifts the angle by
        # pi, so the second kick undoes the first.  Period 1 spreads the state
        # to the basis edge and period 2 refocuses it, so both recorded
        # snapshots look contained; only the per-period check sees the leak.
        rec = qkr_evolve(
            0, k=12 * np.pi, hbar=2 * np.pi, n_periods=2, n_basis=16, snapshot_every=2
        )
        assert [t for t, _ in rec.snapshots] == [0, 2]
        assert max(p[0] + p[-1] for _, p in rec.snapshots) < 1e-6
        assert rec.max_edge > 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "k, hbar",
        [
            (np.nan, 1.0),
            (np.inf, 1.0),
            (-np.inf, 1.0),
            (0.0, np.nan),
            (0.0, np.inf),
            (0.0, -np.inf),
        ],
    )
    def test_rejects_non_finite_parameters(self, k, hbar):
        with pytest.raises(ValueError, match="must be finite"):
            qkr_evolve(0, k, hbar, 3, 16)

    def test_rejects_one_state_basis(self):
        with pytest.raises(ValueError, match="n_basis must be >= 2"):
            qkr_evolve(0, 1.0, 1.0, 3, n_basis=1)


class TestResultCap:
    # 10 periods every 4 record periods 0, 4, 8 and 10: 4 snapshots
    def test_evolve_snapshots_checked_before_propagating(self, monkeypatch):
        cfg = ChainConfig(n_sites=16, j1=1.0)
        monkeypatch.setattr(limits, "MAX_RESULT_BYTES", 4 * 16 * 8)
        assert len(evolve(delta_state(16, 8), cfg, SingleKick(0.1, 1.0), 10, 4).snapshots) == 4
        monkeypatch.setattr(limits, "MAX_RESULT_BYTES", 4 * 16 * 8 - 1)
        with pytest.raises(ValueError, match="4 snapshots of 16 probabilities.*result cap"):
            evolve(delta_state(16, 8), cfg, SingleKick(0.1, 1.0), 10, 4)

    def test_qkr_snapshots_checked_before_propagating(self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_RESULT_BYTES", 4 * 32 * 8)
        assert len(qkr_evolve(0, 1.0, 1.0, 10, 32, 4).snapshots) == 4
        monkeypatch.setattr(limits, "MAX_RESULT_BYTES", 4 * 32 * 8 - 1)
        with pytest.raises(ValueError, match="result cap"):
            qkr_evolve(0, 1.0, 1.0, 10, 32, 4)

    def test_qkr_transform_cap(self):
        with pytest.raises(ValueError, match="transform cap"):
            qkr_evolve(0, 1.0, 1.0, 1, 2**20 + 2)


class TestWorkCap:
    # each run is allowed at exactly its work and refused one element-step
    # below it; a period counts at least 1024 element-steps
    def test_evolve(self, monkeypatch):
        run = lambda: evolve(delta_state(2048, 0), ChainConfig(2048, 1.0), SingleKick(0.1, 1.0), 3)
        monkeypatch.setattr(limits, "MAX_WORK", 2048 * 3)
        run()
        monkeypatch.setattr(limits, "MAX_WORK", 2048 * 3 - 1)
        with pytest.raises(ValueError, match="3 periods of 2048 basis states would take 6144 element-steps"):
            run()

    def test_small_basis_counts_the_floor(self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_WORK", 1024 * 10)
        qkr_evolve(0, 1.0, 1.0, 10, 32)
        monkeypatch.setattr(limits, "MAX_WORK", 1024 * 10 - 1)
        with pytest.raises(ValueError, match="10 periods of 32 basis states would take 10240 element-steps"):
            qkr_evolve(0, 1.0, 1.0, 10, 32)


class TestIntegerArguments:
    """Counts and labels must be integers: a bool or a float is a TypeError."""

    @staticmethod
    def chain(n_periods=5, snapshot_every=1):
        cfg = ChainConfig(n_sites=16, j1=1.0)
        return evolve(delta_state(16, 8), cfg, SingleKick(0.1, 1.0), n_periods, snapshot_every)

    def test_evolve_refuses_float_snapshot_every(self):
        # a float modulo used to pick the snapshots at periods [0, 3, 5]
        with pytest.raises(TypeError, match="snapshot_every must be an integer, got float"):
            self.chain(snapshot_every=1.5)

    def test_evolve_refuses_bool_n_periods(self):
        # True used to run one period
        with pytest.raises(TypeError, match="n_periods must be an integer, not bool"):
            self.chain(n_periods=True)

    def test_qkr_refuses_float_initial_momentum(self):
        # 1.5 used to run, with momentum labels that are not integers
        with pytest.raises(TypeError, match="initial_momentum must be an integer, got float"):
            qkr_evolve(1.5, 1.0, 0.5, 2, 16)

    @pytest.mark.parametrize("name", ["n_periods", "snapshot_every", "n_basis", "initial_momentum"])
    @pytest.mark.parametrize("value", [2.0, True, np.True_])
    def test_qkr_refuses_each_argument(self, name, value):
        kwargs = dict(initial_momentum=0, k=1.0, hbar=0.5, n_periods=2, n_basis=16, snapshot_every=1)
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            qkr_evolve(**{**kwargs, name: value})

    def test_numpy_integers_are_accepted(self):
        assert [p for p, _ in self.chain(np.int64(5), np.int32(2)).snapshots] == [0, 2, 4, 5]
        rec = qkr_evolve(np.int64(-3), 1.0, 0.5, np.int64(2), np.int64(16), np.int64(1))
        assert len(rec.snapshots) == 3


def _chain_run(schedule, model=ChainModel.FERROMAGNET, j2=0.0):
    # 4 sites centred on site 2: the farthest site is 2 away, so the largest
    # kick phase is 2 * b; a ferromagnet's largest exchange phase is 2 * period
    cfg = ChainConfig(n_sites=4, j1=1.0, j2=j2, model=model)
    return evolve(delta_state(4, 0), cfg, schedule, 1)


class TestPhasePreflight:
    """Each largest phase must be finite and at most 2**40 rad."""

    # (run, the argument at which that phase is exactly 2**40)
    CASES = {
        "exchange": (lambda t: _chain_run(SingleKick(b_kick=0.0, period=t)), 2.0**39),
        "kick": (lambda b: _chain_run(SingleKick(b_kick=b, period=0.0)), 2.0**39),
        "strong kick": (lambda b: _chain_run(DoubleKick(0.1, b, period=0.0)), 2.0**39),
        "random weak kick": (lambda b: _chain_run(RandomDoubleKick(b, 0.0, seed=1)), 2.0**39),
        # two basis states hold momenta -1 and 0, so the free phase is hbar / 2
        "free": (lambda hbar: qkr_evolve(0, 0.0, hbar, 1, 2), 2.0**41),
        "rotor kick": (lambda k: qkr_evolve(0, k, 1.0, 1, 2), 2.0**40),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_bound_is_inclusive(self, name):
        run, edge = self.CASES[name]
        run(edge)
        with pytest.raises(ValueError, match="phase reaches 1.1e\\+12 rad; it must be finite and <= 2\\*\\*40"):
            run(np.nextafter(edge, np.inf))

    @pytest.mark.parametrize("momentum", [10**400, -(10**400)], ids=["+10**400", "-10**400"])
    def test_momentum_beyond_float_range(self, momentum):
        # the largest |momentum| reads as inf, not as an OverflowError
        with pytest.raises(ValueError, match="free phase reaches inf rad; it must be finite"):
            qkr_evolve(momentum, 1.0, 1.0, 1, 4)

    def test_antiferromagnet_ignores_j2(self):
        _chain_run(SingleKick(0.1, 1.0), model=ChainModel.ANTIFERRO_LINEAR, j2=1e300)
        with pytest.raises(ValueError, match="exchange phase reaches"):
            _chain_run(SingleKick(0.1, 1.0), model=ChainModel.NNN_LADDER, j2=1e300)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: evolve(delta_state(64, 32), ChainConfig(64, 1.0), SingleKick(1e308, 10.0), 12),
            lambda: evolve(delta_state(64, 32), ChainConfig(64, 1e300), SingleKick(0.2, 1e300), 12),
            lambda: qkr_evolve(0, 5.0, 1e300, 6, 16),
        ],
        ids=["b_kick-1e308", "j1-period-1e300", "hbar-1e300"],
    )
    def test_refused_before_phases_are_built(self, run, monkeypatch):
        def built(*args):
            raise AssertionError("a phase array was built")

        monkeypatch.setattr(evolution, "_parabola", built)
        monkeypatch.setattr(evolution, "_exchange_phases", built)
        monkeypatch.setattr(evolution, "delta_state", built)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="phase reaches"):
                run()

    @pytest.mark.parametrize(
        "schedule",
        [SingleKick(1e308, 1.0), DoubleKick(0.1, 1e308, 1.0), SingleKick(0.1, 1e300)],
        ids=["b_kick-1e308", "b_strong-1e308", "period-1e300"],
    )
    def test_build_floquet_refused_before_phases_are_built(self, schedule, monkeypatch):
        def built(*args):
            raise AssertionError("a phase array was built")

        monkeypatch.setattr(evolution, "_parabola", built)
        monkeypatch.setattr(evolution, "wavenumber_grid", built)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="phase reaches"):
                build_floquet(ChainConfig(4, 1.0), schedule)


def _out_of_place(amps, steps, forward, n_periods):
    """The final state and the site probabilities of every period, stepped by
    the out-of-place split-step formula: every product and transform makes a
    new array."""
    from scipy import fft

    fwd, inv = (fft.fft, fft.ifft) if forward == "fft" else (fft.ifft, fft.fft)
    probs = [np.abs(amps) ** 2]
    for _ in range(n_periods):
        for before, between, after in steps:
            if before is not None:
                amps = amps * before
            amps = inv(fwd(amps) * between)
            if after is not None:
                amps = amps * after
        probs.append(np.abs(amps) ** 2)
    return amps, probs


class TestInPlaceEngine:
    """The in-place engine gives the bits of the out-of-place formula."""

    @pytest.mark.parametrize(
        "n, schedule",
        [
            (4096, SingleKick(b_kick=0.25, period=20.0)),
            (1000, DoubleKick(b_weak=0.02, b_strong=0.7, period=1.5)),
            (97, RandomDoubleKick(b_weak=0.025, period=7.0, seed=4)),
        ],
        ids=["single", "double", "random"],
    )
    def test_chain_matches_out_of_place(self, n, schedule):
        cfg = ChainConfig(n_sites=n, j1=1.0)
        state = random_state(n, seed=n)
        kept = state.copy()
        record = evolve(state, cfg, schedule, 200)
        np.testing.assert_array_equal(state, kept)
        exchange = evolution._exchange_phases(cfg, schedule.period)
        kicks = evolution._kick_phases(schedule, n, cfg.kick_center)
        final, probs = _out_of_place(kept, [(None, exchange, k) for k in kicks], "fft", 200)
        np.testing.assert_array_equal(record.final_state, final)
        for (t, prob), expected in zip(record.snapshots, probs, strict=True):
            np.testing.assert_array_equal(prob, expected, err_msg=f"period {t}")

    def test_rotor_matches_out_of_place(self):
        m, k, hbar, n = 3, 5.0, 0.25, 128
        record = qkr_evolve(m, k, hbar, 200, n)
        l = m + np.arange(n) - n // 2
        free = np.exp(-0.5j * hbar * l.astype(float) ** 2)
        kick = np.exp(1j * (k / hbar) * np.cos(2.0 * np.pi * np.arange(n) / n))
        final, probs = _out_of_place(delta_state(n, n // 2), [(free, kick, None)], "ifft", 200)
        np.testing.assert_array_equal(record.final_state, final)
        for (t, prob), expected in zip(record.snapshots, probs, strict=True):
            np.testing.assert_array_equal(prob, expected, err_msg=f"period {t}")


# A chain and a rotor run of 10 periods with a snapshot every 3, called with
# the keyword arguments given.
HOOKED_RUNS = {
    "chain": lambda **kw: evolve(
        delta_state(64, 32), ChainConfig(64, 1.0), DoubleKick(0.05, 0.7, 3.0), 10, 3, **kw
    ),
    "rotor": lambda **kw: qkr_evolve(2, 5.0, 0.25, 10, 64, 3, **kw),
}


class TestSnapshotHook:
    """``on_snapshot(period, probabilities)`` sees each snapshot as it is taken."""

    @pytest.mark.parametrize("run", HOOKED_RUNS.values(), ids=HOOKED_RUNS)
    def test_sees_the_record_on_the_calling_thread(self, run):
        calls = []
        record = run(on_snapshot=lambda t, p: calls.append((t, p, p.copy(), threading.get_ident())))
        assert [c[0] for c in calls] == [0, 3, 6, 9, 10]
        # each snapshot of a run without the hook, unchanged after the call
        for (_, p, seen, thread), (_, expected) in zip(calls, run().snapshots, strict=True):
            np.testing.assert_array_equal(p, expected)
            np.testing.assert_array_equal(seen, expected)
            assert thread == threading.get_ident()
        # the hook has had every snapshot, so the record keeps only the last one
        [(period, kept)] = record.snapshots
        assert period == 10 and kept is calls[-1][1]
        assert record.final_distribution is kept

    @pytest.mark.parametrize("run", HOOKED_RUNS.values(), ids=HOOKED_RUNS)
    def test_exception_ends_the_run(self, run):
        periods = []

        def hook(t, p):
            periods.append(t)
            if len(periods) == 2:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="^stop$"):
            run(on_snapshot=hook)
        assert periods == [0, 3]

    @pytest.mark.parametrize(
        "run",
        [
            lambda **kw: evolve(delta_state(64, 32), ChainConfig(64, 1.0), SingleKick(1e308, 10.0), 12, **kw),
            lambda **kw: evolve(delta_state(64, 32), ChainConfig(64, 1.0), SingleKick(0.2, 10.0), 2**63, 2**63, **kw),
            lambda **kw: qkr_evolve(0, 5.0, 1e300, 6, 16, **kw),
            lambda **kw: qkr_evolve(0, 5.0, 1.0, 2**63, 16, 2**63, **kw),
        ],
        ids=["chain-phase", "chain-work", "rotor-phase", "rotor-work"],
    )
    def test_refused_run_never_calls_it(self, run):
        calls = []
        with pytest.raises(ValueError, match="phase reaches|over the work cap"):
            run(on_snapshot=lambda *args: calls.append(args))
        assert calls == []


class TestScheduleValidation:
    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: SingleKick(b_kick=-0.1, period=1.0),
            lambda: SingleKick(b_kick=0.1, period=-1.0),
            lambda: DoubleKick(b_weak=-1.0, b_strong=1.0, period=1.0),
            lambda: RandomDoubleKick(b_weak=0.1, period=1.0, seed=-1),
        ],
    )
    def test_rejects_invalid(self, ctor):
        with pytest.raises(ValueError):
            ctor()


    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: SingleKick(b_kick=float("nan"), period=float("nan")),
            lambda: SingleKick(b_kick=0.1, period=float("inf")),
            lambda: DoubleKick(b_weak=0.1, b_strong=float("nan"), period=1.0),
            lambda: RandomDoubleKick(b_weak=float("nan"), period=1.0, seed=1),
        ],
    )
    def test_rejects_non_finite(self, ctor):
        with pytest.raises(ValueError, match="must be finite"):
            ctor()


RING8, KICK8 = ChainConfig(8, 1.0), SingleKick(0.1, 1.0)


class TestChainArgumentTypes:
    # each used to raise AttributeError on a missing field
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda s: evolve(s, RING8, StandardMap(1.0), 1), "schedule .* got StandardMap"),
            (lambda s: build_floquet(RING8, None), "schedule must be a kick schedule, got NoneType"),
            (lambda s: evolve(s, "cfg", KICK8, 1), "config must be a ChainConfig, got str"),
            (lambda s: build_floquet(ChainModel.FERROMAGNET, KICK8), "config .* got ChainModel"),
            (lambda s: dispersion(None, 0.3), "config must be a ChainConfig, got NoneType"),
            (lambda s: rotor_image("x", 2.0, 0.1), "config must be a ChainConfig, got str"),
        ],
        ids=["evolve-schedule", "build_floquet-schedule", "evolve-config", "build_floquet-config",
             "dispersion-config", "rotor_image-config"],
    )
    def test_wrong_type_is_a_type_error(self, call, match):
        with pytest.raises(TypeError, match=match):
            call(delta_state(8, 4))


class TestEigenstateConsistency:
    def test_magnon_state_acquires_dispersion_phase(self):
        cfg = ChainConfig(n_sites=32, j1=1.0)
        state = magnon_state(32, 5)
        k = 2.0 * np.pi * 5 / 32
        t0 = 3.7
        out = exchange(state, cfg, t0)
        expected = np.exp(-1j * (1.0 - np.cos(k)) * t0) * state
        np.testing.assert_allclose(out, expected, atol=1e-12)
