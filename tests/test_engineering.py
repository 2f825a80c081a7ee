"""Modulation protocol, effective hopping synthesis, RWA checks, laser map."""

import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import unihop.engineering as engineering
from unihop import (
    ComputationError,
    EdgeLeakError,
    EffectiveHopping,
    EvolveConfig,
    Geometry,
    LaserParams,
    LatticeSpec,
    ModulationProtocol,
    OverflowAbort,
    RootNotFoundError,
    StalledIterationError,
    StateVector,
    ValidationError,
    effective_hopping,
    effective_hopping_quadrature,
    evolve_rk4,
    gaussian_state,
    kick_events,
    laser_effective_couplings,
    laser_evolve,
    laser_hamiltonian,
    modulation_envelope,
    potential,
    revival_error,
    rwa_validate,
    single_site_state,
    solve_unidirectional,
)
from unihop.engineering import _csinc, _csinc_deriv, _expm

# sigma = 0 root at theta = pi/2, x = 0.8 (frozen from an independent
# grid-scan + Newton run; rho there is exactly -2i(1-x) sin(theta) = -0.4i)
GAMMA_STAR = 3.0017822918018364 + 0.6994075768635631j


class TestCsinc:
    def test_values(self):
        assert _csinc(0.0) == 1.0
        assert _csinc(np.pi) == pytest.approx(0.0, abs=1e-15)
        assert _csinc_deriv(0.0) == 0.0

    def test_series_matches_direct_at_the_switch(self):
        for z in (1e-4 * 1.0000001, 1e-4 * 0.9999999, (0.7 + 0.7j) * 1e-4):
            direct = cmath.sin(z) / z
            assert _csinc(z) == pytest.approx(direct, abs=1e-16)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for z in (0.3 + 0.2j, 2.0 - 1.0j, 1.5):
            fd = (_csinc(z + h) - _csinc(z - h)) / (2 * h)
            assert _csinc_deriv(z) == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("routine", [_csinc, _csinc_deriv])
    @pytest.mark.parametrize("z", [3 + 800j, -2 - 711j])
    def test_overflow_is_a_computation_error(self, routine, z):
        # cmath.sin raises OverflowError past |Im z| of about 710
        with pytest.raises(ComputationError, match=rf"\|Im Gamma\| = {abs(z.imag):g}"):
            routine(z)


class TestModulationProtocol:
    def test_shape_invariants(self):
        p = ModulationProtocol(theta=0.5, alpha=2.0, beta=1.0, t1=0.4, period=1.0)
        assert p.x == pytest.approx(0.4)
        assert p.drive_amplitude == 2.0 + 1.0j
        assert p.gamma == pytest.approx((2.0 + 1.0j) * 0.1)

    def test_with_shape_round_trip(self):
        p = ModulationProtocol.with_shape(0.9, 0.8, 3.0 + 0.7j, period=2.5)
        assert p.x == pytest.approx(0.8)
        assert p.gamma == pytest.approx(3.0 + 0.7j)
        assert p.period == 2.5
        assert p.t1 == pytest.approx(2.0)

    def test_validations(self):
        with pytest.raises(ValidationError):
            ModulationProtocol(theta=0.5, alpha=1.0, beta=0.0, t1=1.0, period=1.0)
        with pytest.raises(ValidationError):
            ModulationProtocol(theta=0.5, alpha=1.0, beta=0.0, t1=0.0, period=1.0)
        with pytest.raises(ValidationError):
            ModulationProtocol(theta=np.inf, alpha=1.0, beta=0.0, t1=0.5, period=1.0)
        with pytest.raises(ValidationError):
            ModulationProtocol.with_shape(0.5, 1.0, 1.0)
        with pytest.raises(ValidationError):
            ModulationProtocol.with_shape(0.5, 0.5, 1.0, period=0.0)

    def test_envelope_quarters(self):
        p = ModulationProtocol(theta=0.0, alpha=1.0, beta=0.0, t1=0.8, period=2.0)
        assert modulation_envelope(p, 0.1) == 1.0
        assert modulation_envelope(p, 0.4) == -1.0
        assert modulation_envelope(p, 0.7) == 1.0
        assert modulation_envelope(p, 1.5) == 0.0

    def test_envelope_is_periodic(self):
        p = ModulationProtocol(theta=0.0, alpha=1.0, beta=0.0, t1=0.8, period=2.0)
        for t in (0.1, 0.4, 0.7, 1.5):
            assert modulation_envelope(p, t + 2.0) == modulation_envelope(p, t)
            assert modulation_envelope(p, t - 2.0) == modulation_envelope(p, t)

    def test_envelope_integrates_to_zero_over_active_window(self):
        p = ModulationProtocol(theta=0.0, alpha=1.0, beta=0.0, t1=0.8, period=2.0)
        ts = np.linspace(0.0, 0.8, 160001)
        vals = [modulation_envelope(p, t) for t in ts]
        assert np.trapezoid(vals, ts) == pytest.approx(0.0, abs=1e-5)

    def test_potential_parity_and_value(self):
        p = ModulationProtocol(theta=0.3, alpha=2.0, beta=-1.0, t1=0.8, period=2.0)
        assert potential(p, 3, 0.1) == 0j
        assert potential(p, 2, 0.4) == -(2.0 - 1.0j)
        assert potential(p, 0, 1.5) == 0j

    def test_kick_events(self):
        p = ModulationProtocol(theta=0.3, alpha=1.0, beta=0.0, t1=0.8, period=2.0)
        assert kick_events(p) == ((0.8, 0.3), (2.0, -0.3))

    @pytest.mark.parametrize("theta,t1,period", [(0.3, 0.8, 2.0), (-2.1, 0.37, 0.5)])
    def test_schedule_holds_the_gradient_between_the_kick_events(self, theta, t1, period):
        p = ModulationProtocol(theta=theta, alpha=1.0, beta=0.0, t1=t1, period=period)
        (kick, phase), (unwind, _) = kick_events(p)
        start, held = 0.0, []
        for duration, _, gradient in p._schedule:
            if gradient != 0.0:
                held.append((start, start + duration, gradient))
            start += duration
        assert len(held) == 1
        begin, end, gradient = held[0]
        assert begin == pytest.approx(kick, rel=1e-15)
        assert end == pytest.approx(unwind, rel=1e-15)
        assert end == pytest.approx(p.period, rel=1e-15)
        assert gradient == phase == p.theta


class TestEffectiveHopping:
    def test_zero_theta_makes_directions_equal(self):
        p = ModulationProtocol.with_shape(0.0, 0.6, 1.0 + 0.4j)
        eh = effective_hopping(p)
        assert eh.rho == eh.sigma

    def test_theta_reversal_swaps_directions(self):
        pa = ModulationProtocol.with_shape(0.7, 0.6, 1.0 + 0.4j)
        pb = ModulationProtocol.with_shape(-0.7, 0.6, 1.0 + 0.4j)
        a, b = effective_hopping(pa), effective_hopping(pb)
        assert a.rho == pytest.approx(b.sigma, abs=1e-15)
        assert a.sigma == pytest.approx(b.rho, abs=1e-15)

    def test_zero_drive_area(self):
        theta, x = 0.9, 0.3
        p = ModulationProtocol.with_shape(theta, x, 0j)
        eh = effective_hopping(p)
        assert eh.rho == pytest.approx(x + (1 - x) * cmath.exp(-1j * theta), abs=1e-12)
        assert eh.sigma == pytest.approx(x + (1 - x) * cmath.exp(1j * theta), abs=1e-12)

    def test_rounded_design_point(self):
        p = ModulationProtocol.with_shape(np.pi / 2, 0.8, 3.0 + 0.7j)
        eh = effective_hopping(p)
        assert 6.10e-4 < abs(eh.sigma) < 6.11e-4
        assert abs(eh.rho - (-0.4j)) < 5e-3

    def test_exact_design_point(self):
        p = ModulationProtocol.with_shape(np.pi / 2, 0.8, GAMMA_STAR)
        eh = effective_hopping(p)
        assert abs(eh.sigma) <= 1e-12
        assert eh.rho == pytest.approx(-0.4j, abs=1e-12)

    def test_kappa_scales_linearly(self):
        p = ModulationProtocol.with_shape(0.5, 0.4, 0.8 - 0.3j)
        unit = effective_hopping(p, kappa=1.0)
        scaled = effective_hopping(p, kappa=2.7)
        assert scaled.rho == pytest.approx(2.7 * unit.rho, rel=1e-13)
        assert scaled.sigma == pytest.approx(2.7 * unit.sigma, rel=1e-13)

    def test_quadrature_agrees_on_random_protocols(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            theta = rng.uniform(-np.pi, np.pi)
            x = rng.uniform(0.05, 0.95)
            gamma = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
            period = rng.uniform(0.2, 3.0)
            p = ModulationProtocol.with_shape(theta, x, gamma, period=period)
            closed = effective_hopping(p)
            quad = effective_hopping_quadrature(p)
            assert abs(closed.rho - quad.rho) <= 1e-8
            assert abs(closed.sigma - quad.sigma) <= 1e-8

    def test_simpson_sum_matches_scipy_on_the_readme_protocol(self, monkeypatch):
        from scipy.integrate import simpson

        protocol = ModulationProtocol.with_shape(np.pi / 2, 0.8, GAMMA_STAR)
        ours = effective_hopping_quadrature(protocol)
        monkeypatch.setattr(
            engineering,
            "_simpson",
            lambda values, a, b: simpson(values, x=np.linspace(a, b, values.size)),
        )
        reference = effective_hopping_quadrature(protocol)
        assert abs(ours.rho - reference.rho) <= 1e-14
        assert abs(ours.sigma - reference.sigma) <= 1e-14

    def test_quadrature_is_period_invariant(self):
        a = ModulationProtocol.with_shape(0.9, 0.7, 1.2 + 0.5j, period=0.25)
        b = ModulationProtocol.with_shape(0.9, 0.7, 1.2 + 0.5j, period=4.0)
        qa, qb = effective_hopping_quadrature(a), effective_hopping_quadrature(b)
        assert qa.rho == pytest.approx(qb.rho, abs=1e-10)
        assert qa.sigma == pytest.approx(qb.sigma, abs=1e-10)

    def test_exp_ramp_matches_direct_exponentials(self):
        for start, step in ((0.3 - 1.2j, 2e-3 + 1e-3j), (-4.0 + 0.5j, -1.5e-3 - 2e-3j)):
            direct = np.exp(start + step * np.arange(4097))
            ramp = engineering._exp_ramp(start, step)
            assert ramp.shape == (4097,)
            assert np.max(np.abs(ramp - direct) / np.abs(direct)) <= 1e-14

    @pytest.mark.parametrize("kappa", [1.0, -2.5])
    def test_quadrature_overflow_is_a_computation_error(self, kappa):
        # e^{|Im Gamma|} passes the largest float: no raw overflow, no warning
        p = ModulationProtocol.with_shape(np.pi / 2, 0.8, 3 + 800j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ComputationError, match=r"\|Im Gamma\| = 800"):
                effective_hopping_quadrature(p, kappa)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    @pytest.mark.parametrize("route", [effective_hopping, effective_hopping_quadrature])
    def test_non_finite_kappa_is_a_validation_error(self, route, kappa):
        # |Im Gamma| = 0.7 is harmless: the cause is kappa, not the time average
        p = ModulationProtocol.with_shape(1.5, 0.8, 3 + 0.7j)
        with pytest.raises(ValidationError, match=f"kappa must be finite, got {kappa!r}"):
            route(p, kappa)

    @pytest.mark.parametrize("b", [12.0, 15.0, 20.0, 30.0])
    def test_gates_are_relative_at_large_im_gamma(self, b):
        # rho grows like e^{|Im Gamma|} (|rho| = 1.4e11 at b = 30): absolute
        # gates refused these valid protocols
        p = ModulationProtocol.with_shape(np.pi / 2, 0.8, 3.0 + b * 1j)
        closed = effective_hopping(p)
        quad = effective_hopping_quadrature(p)
        assert abs(closed.rho) > 5e3
        assert abs(quad.rho - closed.rho) <= 1e-9 * abs(closed.rho)

    def test_parity_gate_fires_on_a_planted_branch_error(self, monkeypatch):
        # eight Simpson sums per call: the four branches for the even sites,
        # then the same for the odd ones; the sixth is an odd-site sum
        protocol = ModulationProtocol.with_shape(0.9, 0.7, 1.2 + 0.5j)
        effective_hopping_quadrature(protocol)
        simpson = engineering._simpson
        calls = []

        def planted(values, a, b):
            calls.append(a)
            total = simpson(values, a, b)
            return total * (1.0 + 1e-6) if len(calls) == 6 else total

        monkeypatch.setattr(engineering, "_simpson", planted)
        with pytest.raises(ComputationError, match="site-parity averages"):
            effective_hopping_quadrature(protocol)
        assert len(calls) == 8

    def test_closed_form_gate_fires_on_a_planted_error(self, monkeypatch):
        closed_form = engineering._closed_form_hopping

        def planted(*args):
            exact = closed_form(*args)
            return EffectiveHopping(rho=exact.rho * (1.0 + 1e-6), sigma=exact.sigma)

        monkeypatch.setattr(engineering, "_closed_form_hopping", planted)
        with pytest.raises(ComputationError, match="closed-form hopping disagrees"):
            effective_hopping(ModulationProtocol.with_shape(0.9, 0.7, 1.2 + 0.5j))

    def test_quadrature_matches_plain_reference(self, monkeypatch):
        # one Simpson sum over np.exp on the 4097 np.linspace samples of each
        # branch, for each parity and kick sign: sixteen in all, none shared
        def reference(protocol, kappa=1.0):
            results = {}
            for parity in (1.0, -1.0):
                for kick_sign in (-1.0, 1.0):
                    total, w_start, a = 0j, 0.0, 0.0
                    for duration, h, _ in protocol._schedule:
                        b = a + duration
                        ts = np.linspace(a, b, 4097)
                        kick = kick_sign * protocol.theta * (h == 0.0)
                        phase = parity * protocol.drive_amplitude * (w_start + h * (ts - a))
                        total += engineering._simpson(np.exp(1j * (phase + kick)), a, b)
                        w_start += h * (b - a)
                        a = b
                    results[parity, kick_sign] = kappa * total / protocol.period
            even = EffectiveHopping(rho=results[1.0, -1.0], sigma=results[1.0, 1.0])
            scale = max(1.0, abs(kappa), abs(even.rho), abs(even.sigma))
            for kick_sign in (-1.0, 1.0):
                if not abs(results[1.0, kick_sign] - results[-1.0, kick_sign]) <= 1e-10 * scale:
                    raise ComputationError("site-parity averages disagree")
            return even

        def outcome(protocol, kappa):
            try:
                return effective_hopping(protocol, kappa)
            except ComputationError:
                return None

        rng = np.random.default_rng(29)
        refused = 0
        for i in range(200):
            large = i % 10 == 0  # |Im Gamma| from 60 to 160, where the closed-form gate bites
            im = rng.uniform(60.0, 160.0) if large else rng.uniform(-6.0, 6.0)
            gamma = complex(rng.uniform(-8.0, 8.0), im)
            p = ModulationProtocol.with_shape(
                rng.uniform(-10.0, 10.0), rng.uniform(0.01, 0.99), gamma,
                period=10.0 ** rng.uniform(-3.0, 2.0),
            )
            kappa = (1.0, -2.5, 1e3, -0.3)[i % 4]
            ours, plain = effective_hopping_quadrature(p, kappa), reference(p, kappa)
            if not large:
                size = max(abs(plain.rho), abs(plain.sigma))
                assert abs(ours.rho - plain.rho) <= 1e-14 * size
                assert abs(ours.sigma - plain.sigma) <= 1e-14 * size
            accepted = outcome(p, kappa)
            with monkeypatch.context() as m:
                m.setattr(engineering, "effective_hopping_quadrature", reference)
                assert (outcome(p, kappa) is None) == (accepted is None)
            refused += accepted is None
        assert 0 < refused < 20


class TestSolveUnidirectional:
    def test_worked_point_matches_frozen_root(self):
        root = solve_unidirectional(np.pi / 2, 0.8, 3.0 + 0.7j)
        assert abs(root.gamma - GAMMA_STAR) <= 1e-9
        assert root.residual < 1e-12
        assert root.rho == pytest.approx(-0.4j, abs=1e-10)
        assert root.iterations <= 10

    def test_substitution_certificate(self):
        # independent evaluation of the defining condition, no library code
        root = solve_unidirectional(np.pi / 2, 0.8, 3.0 + 0.7j)
        g = root.gamma
        value = 0.8 * cmath.sin(g) / g + 0.2 * cmath.exp(1j * np.pi / 2)
        assert abs(value) < 1e-10

    def test_rho_identity_at_the_root(self):
        theta, x = 1.1, 0.65
        root = solve_unidirectional(theta, x, 3.0 + 0.7j)
        assert root.rho == pytest.approx(-2j * (1 - x) * np.sin(theta), abs=1e-10)

    def test_grid_scan_finds_the_same_root(self):
        def condition(g):
            return 0.8 * _csinc(g) + 0.2 * cmath.exp(1j * np.pi / 2)

        best = min(
            (complex(a, b) for a in np.linspace(0.5, 6.0, 45) for b in np.linspace(-2, 2, 33)),
            key=lambda g: abs(condition(g)),
        )
        root = solve_unidirectional(np.pi / 2, 0.8, best)
        assert abs(root.gamma - GAMMA_STAR) <= 1e-9

    def test_second_duty_cycle_branch(self):
        root = solve_unidirectional(np.pi / 2, 0.5, 2.5 + 1.875j)
        assert _csinc(root.gamma) == pytest.approx(-1j, abs=1e-10)
        assert root.residual < 1e-12

    def test_validations(self):
        with pytest.raises(ValidationError):
            solve_unidirectional(np.pi / 2, 0.0, 1.0)
        with pytest.raises(ValidationError):
            solve_unidirectional(0.0, 0.5, 1.0)
        with pytest.raises(ValidationError):
            solve_unidirectional(np.pi, 0.5, 1.0)
        with pytest.raises(ValidationError):
            solve_unidirectional(np.pi / 2, 0.5, complex("nan"))

    @pytest.mark.parametrize("setting", [{"tol": 1e-12}, {"max_iterations": 100}])
    def test_newton_settings_are_fixed(self, setting):
        with pytest.raises(TypeError, match=next(iter(setting))):
            solve_unidirectional(np.pi / 2, 0.8, 3.0 + 0.7j, **setting)

    def test_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(engineering, "_NEWTON_ITERATIONS", 1)
        with pytest.raises(RootNotFoundError, match="within 1 iterations") as err:
            solve_unidirectional(np.pi / 2, 0.8, 3.0 + 0.7j)
        assert err.value.residual > 0

    def test_stall_at_sinc_extremum(self):
        with pytest.raises(StalledIterationError):
            solve_unidirectional(np.pi / 2, 0.8, 0j)


def _rwa_rk4_reference(protocol, kappa, ratio, sites, c0, t_end):
    """Stroboscopic state of the exact drive by RK4 within each branch of h(t)
    at dt = 0.005 / max(|kappa|, |drive|), with the kick before the quiet
    tail and the unwind at each period end."""
    period = 2 * np.pi / (ratio * kappa)
    scaled = ModulationProtocol.with_shape(
        protocol.theta, protocol.x, protocol.gamma, period=period
    )
    n = np.arange(sites)
    off = np.full(sites - 1, complex(kappa))
    hop = np.diag(off, 1) + np.diag(off, -1)
    dt = 0.005 / max(abs(kappa), abs(scaled.drive_amplitude))
    durations = [scaled.t1 / 4, scaled.t1 / 2, scaled.t1 / 4, period - scaled.t1]
    y = np.asarray(c0.amps, dtype=complex)
    for _ in range(round(t_end / period)):
        for span, h in zip(durations, [1.0, -1.0, 1.0, 0.0]):
            if h == 0.0:
                y = np.exp(-1j * protocol.theta * n) * y
            gen = -1j * (hop + np.diag(scaled.drive_amplitude * h * (n % 2 == 0)))
            steps = int(np.ceil(span / dt))
            step = span / steps
            for _ in range(steps):
                k1 = gen @ y
                k2 = gen @ (y + 0.5 * step * k1)
                k3 = gen @ (y + 0.5 * step * k2)
                k4 = gen @ (y + step * k3)
                y = y + (step / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        y = np.exp(1j * protocol.theta * n) * y
    return y


class TestExpm:
    def test_matches_scipy_on_random_matrices(self):
        # sizes 2-30, 1-norms from 1e-6 to 30 (up to three squarings), a
        # third of them upper-triangular and so far from normal
        rng = np.random.default_rng(14)
        worst = 0.0
        for k in range(500):
            n = int(rng.integers(2, 31))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if k % 3 == 0:
                a = np.triu(a)
            a *= 10 ** rng.uniform(-6, np.log10(30)) / np.linalg.norm(a, 1)
            want = scipy.linalg.expm(a)
            worst = max(worst, np.linalg.norm(_expm(a) - want) / np.linalg.norm(want))
        assert worst <= 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_gives_the_identity_exactly(self, dtype):
        assert np.array_equal(_expm(np.zeros((5, 5), dtype=dtype)), np.eye(5))

    def test_nilpotent_jordan_block(self):
        n = np.diag([1.0, 1.0], 1)
        want = np.eye(3) + n + n @ n / 2
        assert np.max(np.abs(_expm(n) - want)) <= 1e-15

    def test_long_hermitian_step_stays_unitary(self):
        # ||t H||_1 = 1e3 takes eight squarings
        rng = np.random.default_rng(3)
        h = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        h = h + h.conj().T
        u = _expm(-1j * (1e3 / np.linalg.norm(h, 1)) * h)
        assert np.max(np.abs(u @ u.conj().T - np.eye(10))) <= 1e-11


class TestRwaValidate:
    def test_matches_scipy_expm_at_the_readme_point(self, monkeypatch):
        # the command-line defaults: 10 sites, c0 on site 5, one 2 pi, ratios 5, 10, 20
        p = ModulationProtocol.with_shape(np.pi / 2, 0.8, GAMMA_STAR)
        c0 = StateVector(offset=0, amps=np.eye(10, dtype=complex)[5])
        ours = rwa_validate(p, 1.0, [5.0, 10.0, 20.0], sites=10, c0=c0, t_end=2 * np.pi)
        monkeypatch.setattr(engineering, "_expm", scipy.linalg.expm)
        want = rwa_validate(p, 1.0, [5.0, 10.0, 20.0], sites=10, c0=c0, t_end=2 * np.pi)
        for a, b in zip(ours, want):
            assert a.discrepancy == pytest.approx(b.discrepancy, rel=1e-12)

    def test_peierls_tail_matches_kick_and_unwind(self):
        # the exact drive as it is written in the paper: kick K = e^{-i theta n}
        # before the quiet tail, bare hopping over it, and K^-1 after it
        rng = np.random.default_rng(16)
        for _ in range(40):
            sites = int(rng.integers(2, 13))
            theta = rng.uniform(-np.pi, np.pi)
            x = rng.uniform(0.2, 0.9)
            gamma = complex(rng.uniform(-4.0, 4.0), rng.uniform(-1.0, 1.0))
            kappa = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
            ratios = [1.0, 2.0, 3.0]
            t_end = 2 * np.pi / abs(kappa)
            p = ModulationProtocol.with_shape(theta, x, gamma)
            c0 = StateVector(offset=0, amps=rng.normal(size=sites) + 1j * rng.normal(size=sites))
            samples = rwa_validate(p, kappa, ratios, sites=sites, c0=c0, t_end=t_end)
            n = np.arange(sites)
            k = np.diag(np.exp(-1j * theta * n))
            k_inv = np.diag(np.exp(1j * theta * n))
            off = np.full(sites - 1, kappa)
            hop = np.diag(off, 1) + np.diag(off, -1)
            hop_eff = effective_hopping(p, kappa)
            h_eff = (np.diag(np.full(sites - 1, hop_eff.rho), 1)
                     + np.diag(np.full(sites - 1, hop_eff.sigma), -1))
            reference = scipy.linalg.expm(-1j * t_end * h_eff) @ c0.amps
            for ratio, sample in zip(ratios, samples):
                period = 2 * np.pi / (ratio * abs(kappa))
                scaled = ModulationProtocol.with_shape(theta, x, gamma, period=period)
                drive = np.diag(scaled.drive_amplitude * (n % 2 == 0))
                t1 = scaled.t1
                one_period = (
                    k_inv @ scipy.linalg.expm(-1j * (period - t1) * hop) @ k
                    @ scipy.linalg.expm(-1j * (t1 / 4) * (hop + drive))
                    @ scipy.linalg.expm(-1j * (t1 / 2) * (hop - drive))
                    @ scipy.linalg.expm(-1j * (t1 / 4) * (hop + drive))
                )
                y = np.linalg.matrix_power(one_period, round(ratio)) @ c0.amps
                want = np.linalg.norm(y - reference) / np.linalg.norm(reference)
                assert sample.periods == round(ratio)
                assert sample.discrepancy == pytest.approx(want, rel=1e-12)

    def test_one_expm_per_distinct_branch(self, monkeypatch):
        # the first and third branch are both exp(-i (t1/4) H_+): three
        # propagators per ratio and the reference once, 10 for three ratios
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return _expm(matrix)

        monkeypatch.setattr(engineering, "_expm", counted)
        p = ModulationProtocol.with_shape(np.pi / 2, 0.8, GAMMA_STAR)
        c0 = StateVector(offset=0, amps=np.eye(10, dtype=complex)[5])
        rwa_validate(p, 1.0, [5.0, 10.0, 20.0], sites=10, c0=c0, t_end=2 * np.pi)
        assert len(calls) == 10

    @pytest.mark.parametrize("theta,x", [(np.pi / 2, 0.8), (1.1, 0.65)])
    def test_matches_branchwise_rk4(self, theta, x):
        gamma = solve_unidirectional(theta, x, 3.0 + 0.7j).gamma
        p = ModulationProtocol.with_shape(theta, x, gamma)
        c0 = StateVector(offset=0, amps=np.eye(8, dtype=complex)[3])
        t_end = 2 * np.pi
        samples = rwa_validate(p, 1.0, [5.0, 10.0], sites=8, c0=c0, t_end=t_end)
        hop = effective_hopping(p)
        h_eff = np.diag(np.full(7, hop.rho), 1) + np.diag(np.full(7, hop.sigma), -1)
        reference = scipy.linalg.expm(-1j * t_end * h_eff) @ c0.amps
        for sample in samples:
            y = _rwa_rk4_reference(p, 1.0, sample.ratio, 8, c0, t_end)
            want = np.linalg.norm(y - reference) / np.linalg.norm(reference)
            assert sample.discrepancy == pytest.approx(want, rel=1e-8)

    def test_worked_point_discrepancies(self):
        p = ModulationProtocol.with_shape(np.pi / 2, 0.8, GAMMA_STAR)
        spec = LatticeSpec(geometry=Geometry.FiniteChain, kappa1=1.0, sites=10)
        c0 = single_site_state(spec, 5)
        samples = rwa_validate(p, 1.0, [5.0, 10.0], sites=10, c0=c0, t_end=2 * np.pi)
        assert samples[0].discrepancy == pytest.approx(0.55542, abs=1e-3)
        assert samples[1].discrepancy == pytest.approx(0.26351, abs=1e-3)
        assert samples[1].discrepancy < samples[0].discrepancy
        assert samples[0].period == pytest.approx(2 * np.pi / 5.0)
        assert samples[0].periods == 5
        assert samples[1].periods == 10

    def test_zero_hopping_is_exact(self):
        # no hopping: the drive phases cancel exactly over each period, so
        # the only discrepancy is roundoff
        p = ModulationProtocol.with_shape(np.pi / 2, 0.5, 0.3 + 0.2j, period=1.0)
        c0 = StateVector(offset=0, amps=np.array([0, 0, 1, 0, 0, 0], dtype=complex))
        samples = rwa_validate(p, 0.0, [5.0], sites=6, c0=c0, t_end=2.0)
        assert samples[0].period == 1.0
        assert samples[0].periods == 2
        assert samples[0].discrepancy <= 1e-10

    def test_overflow_guard_checks_every_branch(self):
        # Gamma = 360i grows the even sites by e^360 over the first branch and
        # the later branches undo it, so only a per-branch guard sees it
        p = ModulationProtocol.with_shape(np.pi / 2, 0.5, 360j, period=1.0)
        c0 = StateVector(offset=0, amps=np.ones(4, dtype=complex))
        with pytest.raises(OverflowAbort):
            rwa_validate(p, 0.0, [5.0], sites=4, c0=c0, t_end=1.0)

    @pytest.mark.parametrize("theta", [np.pi / 2, 1.3])
    def test_negative_kappa_is_the_staggered_gauge(self, theta):
        # c_n -> (-1)^n c_n maps kappa to -kappa and fixes a single-site state
        p = ModulationProtocol.with_shape(theta, 0.8, GAMMA_STAR)
        c0 = StateVector(offset=0, amps=np.eye(8, dtype=complex)[3])
        t_end = 2 * np.pi / 1.3
        plus = rwa_validate(p, 1.3, [5.0, 10.0], sites=8, c0=c0, t_end=t_end)
        minus = rwa_validate(p, -1.3, [5.0, 10.0], sites=8, c0=c0, t_end=t_end)
        for a, b in zip(plus, minus):
            assert b.period == a.period > 0
            assert b.periods == a.periods
            assert b.discrepancy == pytest.approx(a.discrepancy, rel=1e-12, abs=0)

    def test_trivial_protocol_reduces_to_bare_hopping(self):
        p = ModulationProtocol.with_shape(0.0, 0.5, 0j, period=1.0)
        c0 = StateVector(offset=0, amps=np.array([0, 0, 1, 0, 0, 0], dtype=complex))
        samples = rwa_validate(p, 1.0, [5.0], sites=6, c0=c0, t_end=2 * np.pi)
        assert samples[0].discrepancy <= 1e-8

    def test_validations(self):
        p = ModulationProtocol.with_shape(np.pi / 2, 0.8, GAMMA_STAR)
        c0 = StateVector(offset=0, amps=np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(ValidationError):
            rwa_validate(p, 1.0, [5.0], sites=1, c0=c0, t_end=2 * np.pi)
        with pytest.raises(ValidationError):
            rwa_validate(p, 1.0, [5.0], sites=5, c0=c0, t_end=2 * np.pi)
        with pytest.raises(ValidationError):
            rwa_validate(p, 1.0, [-5.0], sites=4, c0=c0, t_end=2 * np.pi)
        with pytest.raises(ValidationError):
            rwa_validate(p, 1.0, [5.0], sites=4, c0=c0, t_end=2 * np.pi * 1.3)
        zero = StateVector(offset=0, amps=np.zeros(4, dtype=complex))
        with pytest.raises(ValidationError):
            rwa_validate(p, 1.0, [5.0], sites=4, c0=zero, t_end=2 * np.pi)
        for t_end in (math.inf, math.nan):  # the input is at fault: no RuntimeWarning or exit 3
            with pytest.raises(ValidationError, match=f"t_end must be finite, got {t_end!r}"):
                rwa_validate(p, 1.0, [5.0], sites=4, c0=c0, t_end=t_end)


class TestLaserMapping:
    def test_unidirectional_reduction(self):
        params = LaserParams(
            gain=0.0, loss=0.0, dg=0.0, delta_am=0.5, delta_fm=0.5,
            phi=-np.pi / 2, detuning=0.0,
        )
        c = laser_effective_couplings(params)
        assert abs(c.forward - 1.0) <= 1e-15
        assert abs(c.backward) <= 1e-15

    def test_am_only_off_makes_it_hermitian(self):
        params = LaserParams(
            gain=0.0, loss=0.0, dg=0.0, delta_am=0.0, delta_fm=0.7,
            phi=1.3, detuning=0.0,
        )
        c = laser_effective_couplings(params)
        assert c.forward == 0.7
        assert c.backward == 0.7

    def test_phase_mirror(self):
        base = dict(gain=0.1, loss=0.2, dg=0.05, delta_am=0.4, delta_fm=0.3, detuning=0.6)
        a = laser_effective_couplings(LaserParams(phi=np.pi / 2, **base))
        b = laser_effective_couplings(LaserParams(phi=-np.pi / 2, **base))
        assert a.forward == pytest.approx(b.backward, abs=1e-15)
        assert a.backward == pytest.approx(b.forward, abs=1e-15)

    def test_onsite_decomposition(self):
        params = LaserParams(
            gain=0.4, loss=0.1, dg=0.05, delta_am=0.2, delta_fm=0.3,
            phi=0.7, detuning=-0.6,
        )
        c = laser_effective_couplings(params)
        assert c.onsite_force == -0.6
        assert c.onsite_uniform == pytest.approx(0.3j, abs=1e-15)
        assert c.onsite_curvature == -0.05j

    def test_generator_matches_lattice_build(self):
        params = LaserParams(
            gain=0.0, loss=0.0, dg=0.0, delta_am=0.5, delta_fm=0.5,
            phi=-np.pi / 2, detuning=-0.6,
        )
        h_laser = laser_hamiltonian(params, (0, 7))
        forward = laser_effective_couplings(params).forward
        from unihop import build_hamiltonian

        spec = LatticeSpec(
            geometry=Geometry.InfiniteChain, kappa1=forward, force=-0.6, window=(0, 7)
        )
        assert h_laser.offset == 0
        assert np.max(np.abs(h_laser.entries - build_hamiltonian(spec).entries)) <= 1e-12

    def test_generator_diagonal_formula(self):
        params = LaserParams(
            gain=0.4, loss=0.1, dg=0.05, delta_am=0.2, delta_fm=0.3,
            phi=0.7, detuning=-0.6,
        )
        h = laser_hamiltonian(params, (-2, 2))
        n = np.arange(-2, 3, dtype=float)
        want = -0.6 * n + 0.3j - 0.05j * n**2
        assert np.allclose(np.diag(h.entries), want, atol=1e-15)
        assert h.offset == -2

    def test_evolution_matches_lattice_rk4(self):
        params = LaserParams(
            gain=0.0, loss=0.0, dg=0.0, delta_am=0.5, delta_fm=0.5,
            phi=-np.pi / 2, detuning=-0.6,
        )
        forward = laser_effective_couplings(params).forward
        spec = LatticeSpec(
            geometry=Geometry.InfiniteChain, kappa1=forward, force=-0.6, window=(-12, 12)
        )
        c0 = gaussian_state(spec, 0.0, 2.0)
        cfg = EvolveConfig(t_end=2.0, dt=0.003, record_every=40)
        traj_laser = laser_evolve(params, c0, cfg)
        traj_lattice = evolve_rk4(spec, c0, cfg)
        assert np.max(np.abs(traj_laser.amps - traj_lattice.amps)) <= 1e-12

    def test_hermitian_modulation_revives_at_the_bloch_period(self):
        params = LaserParams(
            gain=0.0, loss=0.0, dg=0.0, delta_am=0.0, delta_fm=0.5,
            phi=0.0, detuning=-0.6,
        )
        spec = LatticeSpec(
            geometry=Geometry.InfiniteChain, kappa1=0.5, kappa2=0.5, force=-0.6,
            window=(-25, 25),
        )
        c0 = gaussian_state(spec, 0.0, 3.0)
        t_b = 2 * np.pi / 0.6
        traj = laser_evolve(params, c0, EvolveConfig(t_end=t_b, dt=0.0016, record_every=100))
        assert revival_error(traj, t_b) <= 1e-4

    def test_pure_gain_loss_decay(self):
        spec = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=0.0, window=(-3, 3))
        c0 = gaussian_state(spec, 0.0, 1.0)
        params = LaserParams(
            gain=0.1, loss=0.4, dg=0.0, delta_am=0.0, delta_fm=0.0,
            phi=0.0, detuning=0.0,
        )
        traj = laser_evolve(params, c0, EvolveConfig(t_end=1.0, dt=0.01))
        want = np.exp(-0.3) * np.asarray(c0.amps)
        assert np.max(np.abs(traj.amps[-1] - want)) <= 1e-10

    def test_gain_curvature_decay(self):
        spec = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=0.0, window=(-3, 3))
        c0 = gaussian_state(spec, 0.0, 1.0)
        params = LaserParams(
            gain=0.2, loss=0.2, dg=0.1, delta_am=0.0, delta_fm=0.0,
            phi=0.0, detuning=0.0,
        )
        traj = laser_evolve(params, c0, EvolveConfig(t_end=1.0, dt=0.005))
        n = np.arange(-3, 4)
        want = np.exp(-0.1 * n**2) * np.asarray(c0.amps)
        assert np.max(np.abs(traj.amps[-1] - want)) <= 1e-10

    def test_edge_leak_aborts(self):
        params = LaserParams(
            gain=0.0, loss=0.0, dg=0.0, delta_am=0.5, delta_fm=0.5,
            phi=-np.pi / 2, detuning=0.0,
        )
        spec = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=1.0, window=(-2, 2))
        c0 = single_site_state(spec, 0)
        with pytest.raises(EdgeLeakError, match=r"\(limit 1e-06\)"):
            laser_evolve(params, c0, EvolveConfig(t_end=3.0, dt=0.01))

    def test_edge_limit_is_fixed(self):
        params = LaserParams(
            gain=0.0, loss=0.0, dg=0.0, delta_am=0.5, delta_fm=0.5,
            phi=-np.pi / 2, detuning=-0.6,
        )
        spec = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=1.0, window=(-3, 3))
        c0 = gaussian_state(spec, 0.0, 3.0)
        with pytest.raises(TypeError, match="edge_tol"):
            laser_evolve(params, c0, EvolveConfig(t_end=5.0, dt=0.002), edge_tol=1e-6)

    def test_validations(self):
        with pytest.raises(ValidationError):
            LaserParams(
                gain=0.0, loss=0.0, dg=-0.1, delta_am=0.0, delta_fm=0.0,
                phi=0.0, detuning=0.0,
            )
        params = LaserParams(
            gain=0.0, loss=0.0, dg=0.0, delta_am=0.5, delta_fm=0.5,
            phi=-np.pi / 2, detuning=0.0,
        )
        with pytest.raises(ValidationError):
            laser_hamiltonian(params, (3, 3))
        single = StateVector(offset=0, amps=np.ones(1, dtype=complex))
        with pytest.raises(ValidationError):
            laser_evolve(params, single, EvolveConfig(t_end=1.0, dt=0.01))
        with pytest.raises(ValidationError):
            laser_evolve(
                params,
                StateVector(offset=0, amps=np.zeros(2, dtype=complex)),
                EvolveConfig(t_end=1.0, dt=0.01),
            )

    def test_dt_rule_uses_laser_scales(self):
        params = LaserParams(
            gain=0.0, loss=0.0, dg=0.0, delta_am=0.0, delta_fm=0.1,
            phi=0.0, detuning=1.0,
        )
        spec = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=0.1, window=(0, 99))
        c0 = gaussian_state(spec, 50.0, 3.0)
        with pytest.raises(ValidationError):
            laser_evolve(params, c0, EvolveConfig(t_end=1.0, dt=0.01))
