"""Flux-driven ring: quasi-energy collapse and monodromy integration."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from unihop import (
    EvolveConfig,
    FluxDrive,
    Geometry,
    LatticeSpec,
    OverflowAbort,
    ValidationError,
    StateVector,
    bloch_dispersion,
    evolve_rk4,
    fold_quasi_energy,
    hop_parts,
    monodromy,
    quasi_energies_analytic,
    revival_error,
    rhs,
    single_site_state,
)
from unihop.dynamics import _dt_scale, _increment, _rk4_plan
from unihop.floquet import _bloch_products
from unihop.lattice import _spec_bands


def ring(sites, kappa1=1.0, kappa2=0j):
    return LatticeSpec(geometry=Geometry.Ring, kappa1=kappa1, kappa2=kappa2, sites=sites)


class TestFluxDrive:
    def test_force_and_period(self):
        drive = FluxDrive(phi0_rate=1.0, sites=6)
        assert drive.force == pytest.approx(np.pi / 3)
        assert drive.period == pytest.approx(6.0)

    def test_negative_rate_keeps_period_positive(self):
        drive = FluxDrive(phi0_rate=-0.5, sites=4)
        assert drive.force == pytest.approx(-np.pi / 4)
        assert drive.period == pytest.approx(8.0)

    def test_validations(self):
        with pytest.raises(ValidationError):
            FluxDrive(phi0_rate=0.0, sites=4)
        with pytest.raises(ValidationError):
            FluxDrive(phi0_rate=np.inf, sites=4)
        with pytest.raises(ValidationError):
            FluxDrive(phi0_rate=1.0, sites=1)

    @pytest.mark.parametrize(
        "phi0_rate, sites", [(1e308, 2), (-1e308, 2), (1e-310, 2), (5e-324, 100)],
        ids=["force-inf", "force-minus-inf", "period-inf", "force-underflows"],
    )
    def test_force_or_period_out_of_range_names_phi0_rate(self, phi0_rate, sites):
        # the force 2 pi phi0_rate / sites overflows (period 0) or underflows
        # to 0, or the period 2 pi / |F| overflows
        with pytest.raises(ValidationError, match=r"^phi0_rate = .* gives the force"):
            FluxDrive(phi0_rate=phi0_rate, sites=sites)


class TestFoldQuasiEnergy:
    def test_examples(self):
        assert fold_quasi_energy(0.75, 1.0) == pytest.approx(-0.25)
        assert fold_quasi_energy(2.5 + 0.3j, 1.0) == pytest.approx(0.5 + 0.3j)
        assert fold_quasi_energy(-0.5, 1.0) == pytest.approx(0.5)

    def test_idempotent_and_in_range(self):
        rng = np.random.default_rng(5)
        mu = rng.normal(size=40) * 10 + 1j * rng.normal(size=40)
        force = 0.7
        folded = fold_quasi_energy(mu, force)
        assert np.all(folded.real > -force / 2 - 1e-12)
        assert np.all(folded.real <= force / 2 + 1e-12)
        again = fold_quasi_energy(folded, force)
        assert np.allclose(folded, again, atol=1e-12)

    def test_periodicity_and_imag_preserved(self):
        mu = 0.13 + 0.9j
        force = 0.5
        for k in (-3, -1, 0, 2, 7):
            shifted = fold_quasi_energy(mu + k * force, force)
            assert shifted == pytest.approx(fold_quasi_energy(mu, force))
            assert shifted.imag == pytest.approx(0.9)

    def test_zero_force_rejected(self):
        with pytest.raises(ValidationError):
            fold_quasi_energy(0.3, 0.0)


class TestAnalyticQuasiEnergies:
    def test_collapse_for_any_hopping(self):
        drive = FluxDrive(phi0_rate=1.0, sites=8)
        report = quasi_energies_analytic(1.3 * np.exp(0.7j), drive)
        assert report.mu.shape == (8,)
        assert np.max(np.abs(report.mu)) <= 1e-12 * abs(drive.force)
        assert report.monodromy is None
        assert report.monodromy_defect is None

    def test_modes_follow_the_bloch_dispersion(self):
        drive = FluxDrive(phi0_rate=1.0, sites=8)
        kappa1 = 1.3 * np.exp(0.7j)
        force = drive.force
        integral = (np.exp(1j * force * drive.period) - 1.0) / (1j * force)
        assert integral != 0  # roundoff leaves a phase integral that shows the order
        q = 2.0 * np.pi * np.arange(8) / 8
        want = [integral / drive.period * s.energy for s in bloch_dispersion(kappa1, q)]
        got = quasi_energies_analytic(kappa1, drive).mu
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_hopping_is_exactly_zero(self):
        drive = FluxDrive(phi0_rate=2.0, sites=5)
        report = quasi_energies_analytic(0.0, drive)
        assert np.array_equal(report.mu, np.zeros(5))

    def test_kappa_validation(self):
        drive = FluxDrive(phi0_rate=1.0, sites=4)
        with pytest.raises(ValidationError):
            quasi_energies_analytic(complex("nan"), drive)


class TestMonodromy:
    def test_unidirectional_collapse(self):
        drive = FluxDrive(phi0_rate=1.0, sites=4)
        spec = ring(4)
        report = monodromy(spec, drive, dt=drive.period / 10000)
        assert report.monodromy.shape == (4, 4)
        assert report.monodromy_defect <= 1e-6
        assert np.max(np.abs(report.mu)) <= 1e-6 * abs(drive.force)

    def test_complex_hopping_and_negative_rate(self):
        drive = FluxDrive(phi0_rate=-1.0, sites=5)
        spec = ring(5, kappa1=0.9 - 0.7j)
        report = monodromy(spec, drive, dt=abs(drive.period) / 20000)
        assert report.monodromy_defect <= 1e-6
        assert np.max(np.abs(report.mu)) <= 1e-6 * abs(drive.force)

    def test_zero_hopping_gives_exact_identity(self):
        drive = FluxDrive(phi0_rate=1.0, sites=4)
        report = monodromy(ring(4, kappa1=0.0), drive, dt=drive.period / 1000)
        assert report.monodromy_defect == 0.0
        assert np.array_equal(report.monodromy, np.eye(4))

    def test_hermitian_drive_is_unitary_and_also_collapses(self):
        # circulant H(t) commute at all times, so both hopping directions
        # integrate to zero over one period: M = identity for the Hermitian
        # ring too, and unitarity survives the integration
        drive = FluxDrive(phi0_rate=1.0, sites=4)
        spec = ring(4, kappa1=1.0, kappa2=1.0)
        report = monodromy(spec, drive, dt=drive.period / 20000)
        m = report.monodromy
        assert np.max(np.abs(m.conj().T @ m - np.eye(4))) <= 1e-10
        assert report.monodromy_defect <= 1e-6
        assert np.max(np.abs(report.mu.imag)) <= 1e-8

    def test_overflow_names_a_remedy_monodromy_has(self):
        # |kappa1| = 1e3 grows the columns past 1e150 well inside the period;
        # monodromy has no renormalize option, so the message must not offer it
        drive = FluxDrive(phi0_rate=1.0, sites=6)
        with pytest.raises(OverflowAbort) as info:
            monodromy(ring(6, kappa1=1e3), drive, dt=0.05 / 1e3)
        assert "renormalize" not in str(info.value)
        assert "quasi_energies_analytic" in str(info.value)

    @pytest.mark.parametrize(
        "sites, kappa1, kappa2, phi0_rate",
        [(6, 1e3, 0j, 1.0), (5, 300 * np.exp(0.7j), 40 - 25j, -1.0)],
        ids=["unidirectional", "complex-two-way-reversed"],
    )
    def test_overflow_abort_is_at_the_first_step_past_the_limit(
        self, sites, kappa1, kappa2, phi0_rate
    ):
        # reference: one cumprod over all steps of the per-step Bloch factors,
        # each step's max|Lambda_l| scanned
        drive = FluxDrive(phi0_rate=phi0_rate, sites=sites)
        spec = ring(sites, kappa1=kappa1, kappa2=kappa2)
        dt = 0.05 / max(abs(kappa1), abs(kappa2))
        n_steps = _rk4_plan(
            _spec_bands(spec), drive.force, drive.period, dt, _dt_scale(spec, drive.force), "it"
        )[0]
        h = drive.period / n_steps
        delta = _increment(_spec_bands(spec), drive.force, h)
        q = 2.0 * np.pi * np.arange(sites) / sites
        ft = drive.force * h * np.arange(n_steps)[:, None]
        factors = 1.0 + sum(d[0] * np.exp(1j * m * (ft + q)) for m, d in delta.items())
        with np.errstate(over="ignore", invalid="ignore"):
            peaks = np.abs(np.cumprod(factors, axis=0)).max(axis=1)
        first = int(np.flatnonzero(~(peaks <= 1e150))[0])
        with pytest.raises(OverflowAbort) as info:
            monodromy(spec, drive, dt=dt)
        assert f"at t = {(first + 1) * h:.6g};" in str(info.value)
        assert 0 < first < n_steps - 1

    def test_collapse_is_a_full_period_effect(self):
        drive = FluxDrive(phi0_rate=1.0, sites=4)
        spec = ring(4)
        c0 = single_site_state(spec, 0)
        tb = drive.period
        cfg = EvolveConfig(t_end=tb, dt=tb / 8000, record_every=40)
        traj = evolve_rk4(spec, c0, cfg, flux_rate=drive.force)
        assert revival_error(traj, tb) <= 1e-8
        assert revival_error(traj, tb / 2) > 0.5

    def test_validations(self):
        drive = FluxDrive(phi0_rate=1.0, sites=4)
        good = ring(4)
        with pytest.raises(ValidationError):
            monodromy(
                LatticeSpec(geometry=Geometry.FiniteChain, kappa1=1.0, sites=4),
                drive,
                dt=0.01,
            )
        with pytest.raises(ValidationError):
            monodromy(ring(5), drive, dt=0.01)
        with pytest.raises(ValidationError):
            monodromy(
                LatticeSpec(geometry=Geometry.Ring, kappa1=1.0, sites=4, force=0.3),
                drive,
                dt=0.01,
            )
        with pytest.raises(ValidationError):
            monodromy(good, drive, dt=0.2)
        with pytest.raises(ValidationError):
            monodromy(good, drive, dt=0.0)
        with pytest.raises(ValidationError, match="too many steps"):
            monodromy(good, drive, dt=1e-320)

    @pytest.mark.parametrize("kappa1", [1.0, 1.3 * np.exp(0.9j), 2.0])
    @pytest.mark.parametrize("sites", [2, 5, 12])
    def test_mu_matches_analytic_in_q_order(self, sites, kappa1):
        drive = FluxDrive(phi0_rate=-1.0, sites=sites)
        report = monodromy(ring(sites, kappa1=kappa1), drive, dt=drive.period / 10**4)
        want = quasi_energies_analytic(kappa1, drive).mu
        assert np.max(np.abs(report.mu - want)) <= 1e-12 * abs(drive.force)

    @pytest.mark.parametrize("sites", [2, 3, 7, 12])
    def test_eigenphases_match_dense_eigensolve(self, sites):
        # the coarsest admissible step moves the eigenvalues off 1 by far
        # more than the tolerance, so the match sees the RK4 error
        drive = FluxDrive(phi0_rate=0.6, sites=sites)
        spec = ring(sites, kappa1=1.4 - 0.9j, kappa2=0.4 + 0.3j)
        report = monodromy(spec, drive, dt=0.05 / max(abs(spec.kappa1), abs(drive.force)))
        assert report.monodromy_defect > 1e-9
        phases = np.exp(-1j * report.mu * drive.period)
        eigenvalues = np.linalg.eigvals(report.monodromy)
        cost = np.abs(phases[:, None] - eigenvalues[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert np.max(cost[rows, cols]) <= 1e-12

    def test_traced_peak_is_bounded(self):
        # the running product works in fixed-size blocks, so memory does not
        # grow with the step count
        drive = FluxDrive(phi0_rate=1.0, sites=4)
        tracemalloc.start()
        try:
            report = monodromy(ring(4), drive, dt=drive.period / 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.monodromy_defect <= 1e-12
        assert peak < 8 * 2**20


class TestCirculantMonodromy:
    """The driven ring commutes with the lattice shift, so one column gives M."""

    @pytest.mark.parametrize("sites", [2, 3, 7])
    @pytest.mark.parametrize("phi0_rate", [0.7, -0.7])
    def test_flux_propagator_commutes_with_shift(self, sites, phi0_rate):
        drive = FluxDrive(phi0_rate=phi0_rate, sites=sites)
        spec = ring(sites, kappa1=0.8 - 0.6j, kappa2=0.3 + 0.2j)
        t_end = drive.period / 3.0  # M is far from the identity here
        cfg = EvolveConfig(t_end=t_end, dt=t_end / 600, record_every=50)
        base = evolve_rk4(spec, single_site_state(spec, 0), cfg, flux_rate=drive.force)
        assert np.max(np.abs(base.amps[-1] - base.amps[0])) > 0.1
        for j in range(1, sites):
            moved = evolve_rk4(spec, single_site_state(spec, j), cfg, flux_rate=drive.force)
            assert np.array_equal(moved.amps, np.roll(base.amps, j, axis=1))

    @pytest.mark.parametrize(
        "sites, phi0_rate", [(2, 1.0), (3, -1.0), (6, 0.5), (12, -1.5)]
    )
    def test_matches_full_column_reference(self, sites, phi0_rate):
        # the 2-site ring aliases its wrap bonds onto the chain bond; steps
        # near the step-rule bound leave an RK4 defect far above the tolerance
        drive = FluxDrive(phi0_rate=phi0_rate, sites=sites)
        spec = ring(sites, kappa1=0.9 - 0.4j, kappa2=0.35 + 0.1j)
        n_steps = math.ceil(drive.period * max(abs(drive.force), 1.0) / 0.05)
        report = monodromy(spec, drive, dt=drive.period / n_steps)
        assert report.monodromy_defect > 1e-11
        want = _dense_flux_monodromy(spec, drive, n_steps)
        assert np.max(np.abs(report.monodromy - want)) <= 1e-12

    @pytest.mark.parametrize("sites", [2, 3, 7, 12])
    @pytest.mark.parametrize("phi0_rate", [0.9, -0.9])
    def test_bloch_product_matches_staged_route(self, sites, phi0_rate):
        # a third of a period, where M is far from the identity
        drive = FluxDrive(phi0_rate=phi0_rate, sites=sites)
        spec = ring(sites, kappa1=1.6 - 1.2j, kappa2=0.5 + 0.4j)
        t_end, dt = drive.period / 3.0, 0.01
        column = np.fft.ifft(_bloch_products(spec, drive.force, t_end, dt))
        want = _staged_column(spec, drive.force, t_end, math.ceil(t_end / dt))
        scale = np.max(np.abs(want))
        assert np.max(np.abs(column - want)) <= 1e-12 * scale
        assert np.max(np.abs(scipy.linalg.circulant(column) - np.eye(sites))) > 0.5


def _staged_column(spec, rate, t_end, n_steps):
    """Reference: the four RK4 stages over the public ``rhs``, from site 0."""

    def deriv(t, y):
        return np.asarray(rhs(spec, t, StateVector(offset=0, amps=y), flux_rate=rate).amps)

    h = t_end / n_steps
    y = np.asarray(single_site_state(spec, 0).amps)
    for step in range(n_steps):
        t = step * h
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _dense_flux_monodromy(spec, drive, n_steps):
    """Reference: RK4 on all N columns of Y with the dense Peierls-phased H(t)."""
    fwd, bwd, _ = hop_parts(spec)

    def deriv(t, y):
        phase = np.exp(1j * drive.force * t)
        return -1j * (phase * (fwd @ y) + np.conj(phase) * (bwd @ y))

    h = drive.period / n_steps
    y = np.eye(spec.dim, dtype=complex)
    for step in range(n_steps):
        t = step * h
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y
