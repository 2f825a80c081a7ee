"""Closed-form and RK4 time evolution, observables, and revival metrics."""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import i0

from unihop import (
    EvolveConfig,
    Geometry,
    FluxDrive,
    LaserParams,
    LatticeSpec,
    OverflowAbort,
    StateVector,
    ValidationError,
    build_hamiltonian,
    center_of_mass,
    evolve_closed_form,
    evolve_rk4,
    gaussian_state,
    laser_evolve,
    monodromy,
    propagator_entry_unidirectional,
    revival_error,
    single_site_state,
)


def chain(sites, kappa1=1.0, kappa2=0j, force=0.0):
    return LatticeSpec(
        geometry=Geometry.FiniteChain, kappa1=kappa1, kappa2=kappa2, force=force, sites=sites
    )


def ring(sites, kappa1=1.0):
    return LatticeSpec(geometry=Geometry.Ring, kappa1=kappa1, sites=sites)


class TestPropagatorEntry:
    def test_reference_values(self):
        assert propagator_entry_unidirectional(1.0, 1.0, 0, 0) == 1.0
        assert propagator_entry_unidirectional(1.0, 1.0, 0, 1) == pytest.approx(-1j)
        assert propagator_entry_unidirectional(1.0, 1.0, 0, 2) == pytest.approx(-0.5)
        assert propagator_entry_unidirectional(2.0, 1.0, 0, 3) == pytest.approx(4j / 3)

    def test_identity_at_t_zero(self):
        assert propagator_entry_unidirectional(1.3 - 0.2j, 0.0, 2, 2) == 1.0
        assert propagator_entry_unidirectional(1.3 - 0.2j, 0.0, 0, 5) == 0j

    def test_strictly_causal(self):
        assert propagator_entry_unidirectional(1.0, 2.0, 3, 1) == 0j

    def test_large_separation_is_finite(self):
        u = propagator_entry_unidirectional(1.0, 1.0, 0, 300)
        assert np.isfinite(u.real) and np.isfinite(u.imag)
        assert abs(u) < 1e-300 or abs(u) == 0.0

    def test_matches_matrix_exponential(self):
        spec = chain(30, kappa1=0.9 - 0.4j)
        t = 2.0
        h = build_hamiltonian(spec).entries
        dense = expm(-1j * h * t)
        entrywise = np.array(
            [
                [propagator_entry_unidirectional(spec.kappa1, t, n, l) for l in range(30)]
                for n in range(30)
            ]
        )
        assert np.max(np.abs(dense - entrywise)) <= 1e-12


class TestClosedForm:
    def test_chain_reference_amplitudes(self):
        spec = chain(4)
        traj = evolve_closed_form(spec, single_site_state(spec, 3), [1.0])
        assert np.allclose(traj.amps[0], [1j / 6, -0.5, -1j, 1.0], atol=1e-15)

    def test_top_site_is_stationary(self):
        spec = chain(5, kappa1=1.7 - 0.9j)
        traj = evolve_closed_form(spec, single_site_state(spec, 0), [0.0, 0.7, 2.3])
        want = np.zeros(5, dtype=complex)
        want[0] = 1.0
        for row in traj.amps:
            assert np.array_equal(row, want)

    def test_two_site_ring(self):
        spec = ring(2)
        times = np.linspace(0.0, 3.0, 7)
        traj = evolve_closed_form(spec, single_site_state(spec, 0), times)
        assert np.allclose(traj.amps[:, 0], np.cos(times), atol=1e-14)
        assert np.allclose(traj.amps[:, 1], -1j * np.sin(times), atol=1e-14)

    def test_matches_matrix_exponential_random_state(self):
        rng = np.random.default_rng(11)
        spec = chain(9, kappa1=1.3 * np.exp(0.4j))
        c0 = StateVector(offset=0, amps=rng.normal(size=9) + 1j * rng.normal(size=9))
        t = 1.7
        traj = evolve_closed_form(spec, c0, [t])
        h = build_hamiltonian(spec).entries
        want = expm(-1j * h * t) @ np.asarray(c0.amps)
        assert np.max(np.abs(traj.amps[0] - want)) <= 1e-12

    def test_ring_matches_matrix_exponential(self):
        rng = np.random.default_rng(12)
        spec = ring(7, kappa1=0.8 + 0.5j)
        c0 = StateVector(offset=0, amps=rng.normal(size=7) + 1j * rng.normal(size=7))
        t = 2.4
        traj = evolve_closed_form(spec, c0, [t])
        h = build_hamiltonian(spec).entries
        want = expm(-1j * h * t) @ np.asarray(c0.amps)
        assert np.max(np.abs(traj.amps[0] - want)) <= 1e-12

    def test_causality_on_infinite_window(self):
        spec = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=1.0, window=(-3, 5))
        traj = evolve_closed_form(spec, single_site_state(spec, 0), [0.5, 1.0, 4.0])
        upstream = traj.amps[:, traj.site_indices > 0]
        assert np.array_equal(upstream, np.zeros_like(upstream))
        assert np.array_equal(traj.amps[:, traj.site_indices == 0], np.ones((3, 1)))

    def test_weight_growth_follows_bessel(self):
        spec = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=1.0, window=(-40, 2))
        traj = evolve_closed_form(spec, single_site_state(spec, 0), [1.0, 2.0])
        for t, w in zip(traj.times, traj.weight):
            assert w == pytest.approx(float(i0(2.0 * t)), rel=1e-10)

    def test_validations(self):
        spec = chain(4)
        c0 = single_site_state(spec, 3)
        with pytest.raises(ValidationError):
            evolve_closed_form(chain(4, kappa2=0.2), c0, [1.0])
        with pytest.raises(ValidationError):
            evolve_closed_form(chain(4, force=0.5), c0, [1.0])
        with pytest.raises(ValidationError):
            evolve_closed_form(spec, c0, [1.0, 0.5])
        with pytest.raises(ValidationError):
            evolve_closed_form(spec, StateVector(offset=1, amps=np.ones(4)), [1.0])
        with pytest.raises(ValidationError):
            evolve_closed_form(spec, StateVector(offset=0, amps=np.zeros(4)), [1.0])
        with pytest.raises(ValidationError):
            evolve_closed_form(spec, c0, [np.inf])


class TestEvolveConfig:
    def test_validations(self):
        with pytest.raises(ValidationError):
            EvolveConfig(t_end=-1.0, dt=0.1)
        with pytest.raises(ValidationError):
            EvolveConfig(t_end=1.0, dt=0.0)
        with pytest.raises(ValidationError):
            EvolveConfig(t_end=1.0, dt=2.0)
        with pytest.raises(ValidationError):
            EvolveConfig(t_end=1.0, dt=0.1, record_every=0)
        with pytest.raises(ValidationError):
            EvolveConfig(t_end=np.inf, dt=0.1)

    def test_zero_t_end_allows_any_dt(self):
        cfg = EvolveConfig(t_end=0.0, dt=1.0)
        assert cfg.t_end == 0.0


class TestRk4:
    def test_matches_closed_form(self):
        spec = chain(8)
        c0 = gaussian_state(spec, 3.5, 1.5)
        cfg = EvolveConfig(t_end=3.0, dt=0.01, record_every=50)
        traj = evolve_rk4(spec, c0, cfg)
        exact = evolve_closed_form(spec, c0, traj.times)
        assert np.max(np.abs(traj.amps - exact.amps)) <= 1e-8

    def test_fourth_order_convergence(self):
        spec = chain(5, force=0.3)
        c0 = gaussian_state(spec, 2.0, 1.2)
        h = build_hamiltonian(spec).entries
        t_end = 1.0
        want = expm(-1j * h * t_end) @ np.asarray(c0.amps)
        errs = []
        for dt in (0.02, 0.01):
            traj = evolve_rk4(spec, c0, EvolveConfig(t_end=t_end, dt=dt))
            errs.append(np.linalg.norm(traj.amps[-1] - want))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_hermitian_norm_conservation(self):
        kappa = 0.8 + 0.3j
        spec = chain(6, kappa1=kappa, kappa2=np.conj(kappa))
        c0 = gaussian_state(spec, 2.5, 1.5)
        cfg = EvolveConfig(t_end=20.0, dt=0.005, record_every=400)
        traj = evolve_rk4(spec, c0, cfg)
        w0 = traj.weight[0]
        assert np.max(np.abs(traj.weight - w0)) <= 1e-8 * w0

    def test_flux_ring_revival(self):
        sites = 6
        spec = ring(sites)
        force = 2.0 * np.pi / sites
        t_b = 2.0 * np.pi / force
        c0 = single_site_state(spec, 0)
        cfg = EvolveConfig(t_end=t_b, dt=t_b / 2000.0, record_every=10)
        traj = evolve_rk4(spec, c0, cfg, flux_rate=force)
        assert revival_error(traj, t_b) <= 1e-8

    def test_overflow_abort_and_renormalized_rescue(self):
        spec = ring(4, kappa1=2j)
        c0 = single_site_state(spec, 0)
        cfg = EvolveConfig(t_end=200.0, dt=0.02, record_every=500)
        with pytest.raises(OverflowAbort):
            evolve_rk4(spec, c0, cfg)
        cfg_renorm = EvolveConfig(t_end=200.0, dt=0.02, record_every=500, renormalize=True)
        traj = evolve_rk4(spec, c0, cfg_renorm)
        assert traj.renormalized
        # dominant mode grows like exp(2t); the initial state carries 1/4 of it
        assert traj.log_scale[-1] == pytest.approx(400.0, abs=3.0)
        assert np.allclose(traj.weight, 1.0, atol=1e-12)
        assert np.all(traj.revival >= 0.0)

    def test_dt_rule_enforced(self):
        spec = chain(4, kappa1=3.0)
        c0 = single_site_state(spec, 3)
        with pytest.raises(ValidationError):
            evolve_rk4(spec, c0, EvolveConfig(t_end=1.0, dt=0.05))

    def test_dt_rule_accounts_for_force_extent(self):
        spec = LatticeSpec(
            geometry=Geometry.InfiniteChain, kappa1=0.1, force=1.0, window=(0, 99)
        )
        c0 = single_site_state(spec, 0)
        with pytest.raises(ValidationError):
            evolve_rk4(spec, c0, EvolveConfig(t_end=1.0, dt=0.01))

    def test_t_end_zero_records_initial_state_only(self):
        spec = chain(4)
        c0 = single_site_state(spec, 2)
        traj = evolve_rk4(spec, c0, EvolveConfig(t_end=0.0, dt=1.0))
        assert len(traj) == 1
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.amps[0], np.asarray(c0.amps))

    def test_record_every_keeps_endpoints(self):
        spec = chain(3)
        c0 = single_site_state(spec, 2)
        traj = evolve_rk4(spec, c0, EvolveConfig(t_end=0.5, dt=0.05, record_every=3))
        assert np.allclose(traj.times, [0.0, 0.15, 0.3, 0.45, 0.5], atol=1e-12)

    def test_flux_requires_ring(self):
        spec = chain(4)
        c0 = single_site_state(spec, 0)
        with pytest.raises(ValidationError):
            evolve_rk4(spec, c0, EvolveConfig(t_end=1.0, dt=0.01), flux_rate=0.5)


def _run_rk4(dt):
    spec = chain(4, kappa1=2.0)  # fastest scale |kappa1| = 2
    evolve_rk4(spec, single_site_state(spec, 3), EvolveConfig(t_end=0.5, dt=dt))


def _run_monodromy(dt):
    spec = ring(4, kappa1=3.0)  # |kappa1| = 3 beats the drive rate F = pi/2
    monodromy(spec, FluxDrive(phi0_rate=1.0, sites=4), dt)


def _run_laser(dt):
    # |gain - loss| = 2 beats the hopping |forward| = 1 (backward cancels)
    params = LaserParams(
        gain=2.0, loss=0.0, dg=0.0, delta_am=0.5, delta_fm=0.5,
        phi=-np.pi / 2, detuning=0.0,
    )
    window = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=0j, window=(-10, 10))
    laser_evolve(params, gaussian_state(window, 0.0, 2.0), EvolveConfig(t_end=0.5, dt=dt))


@pytest.mark.parametrize(
    "run, scale",
    [(_run_rk4, 2.0), (_run_monodromy, 3.0), (_run_laser, 2.0)],
    ids=["evolve_rk4", "monodromy", "laser_evolve"],
)
def test_step_rule_boundary(run, scale):
    # every integrator shares one rule: dt <= 0.05 / scale, sharp at the bound
    bound = 0.05 / scale
    run(bound)
    with pytest.raises(ValidationError, match="does not resolve"):
        run(bound * (1.0 + 1e-9))


class TestObservables:
    def test_center_of_mass_examples(self):
        spec = chain(8)
        assert center_of_mass(single_site_state(spec, 5)) == 5.0
        assert center_of_mass(StateVector(offset=0, amps=[1.0, 1.0])) == 0.5
        assert center_of_mass(StateVector(offset=0, amps=[1.0, 2.0, 1.0])) == pytest.approx(1.0)

    def test_center_of_mass_uses_absolute_sites(self):
        assert center_of_mass(StateVector(offset=-3, amps=[1.0, 1.0])) == -2.5

    def test_center_of_mass_zero_state(self):
        with pytest.raises(ValidationError):
            center_of_mass(StateVector(offset=0, amps=[0.0, 0.0]))

    def test_revival_error_exact_zero_and_interp(self):
        spec = chain(4)
        c0 = single_site_state(spec, 3)
        traj = evolve_closed_form(spec, c0, [0.0, 1.0, 2.0])
        ref = np.asarray(c0.amps)
        want = np.linalg.norm(traj.amps[1] - ref)
        assert revival_error(traj, 1.0) == pytest.approx(want, rel=1e-12)
        mid = 0.5 * (traj.amps[1] + traj.amps[2])
        assert revival_error(traj, 1.5) == pytest.approx(np.linalg.norm(mid - ref), rel=1e-12)

    def test_revival_error_validations(self):
        spec = chain(4)
        traj = evolve_closed_form(spec, single_site_state(spec, 3), [0.0, 1.0])
        with pytest.raises(ValidationError):
            revival_error(traj, 0.0)
        with pytest.raises(ValidationError):
            revival_error(traj, 5.0)

    def test_trajectory_revival_column_matches_function(self):
        spec = chain(5)
        c0 = gaussian_state(spec, 2.0, 1.0)
        traj = evolve_closed_form(spec, c0, [0.0, 0.5, 1.0])
        assert traj.revival[0] == 0.0
        assert traj.revival[2] == pytest.approx(revival_error(traj, 1.0), rel=1e-12)


class TestStateBuilders:
    def test_gaussian_literal_values(self):
        spec = chain(5)
        state = gaussian_state(spec, 2.0, 2.0)
        n = np.arange(5.0)
        assert np.allclose(state.amps, np.exp(-((n - 2.0) ** 2) / 4.0), atol=1e-15)

    def test_single_site_bounds(self):
        spec = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=1.0, window=(-2, 2))
        state = single_site_state(spec, -2)
        assert state.amplitude(-2) == 1.0
        with pytest.raises(ValidationError):
            single_site_state(spec, 3)

    def test_gaussian_validations(self):
        spec = chain(5)
        with pytest.raises(ValidationError):
            gaussian_state(spec, 2.0, 0.0)
        with pytest.raises(ValidationError):
            gaussian_state(spec, np.nan, 1.0)
