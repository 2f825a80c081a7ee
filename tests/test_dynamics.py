"""Closed-form and RK4 time evolution, observables, and revival metrics."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import i0

import unihop.dynamics as dynamics
import unihop.engineering as engineering
from unihop import (
    EvolveConfig,
    Geometry,
    FluxDrive,
    LaserParams,
    LatticeSpec,
    OverflowAbort,
    EdgeLeakError,
    StateVector,
    ValidationError,
    build_hamiltonian,
    evolve_closed_form,
    evolve_rk4,
    gaussian_state,
    laser_effective_couplings,
    laser_evolve,
    monodromy,
    revival_error,
    rhs,
    single_site_state,
)
from unihop.lattice import _band_apply, _dense, _spec_bands


def chain(sites, kappa1=1.0, kappa2=0j, force=0.0):
    return LatticeSpec(
        geometry=Geometry.FiniteChain, kappa1=kappa1, kappa2=kappa2, force=force, sites=sites
    )


def ring(sites, kappa1=1.0):
    return LatticeSpec(geometry=Geometry.Ring, kappa1=kappa1, sites=sites)


def _window(window, kappa1=1.0, kappa2=0j, force=0.0):
    return LatticeSpec(
        geometry=Geometry.InfiniteChain, kappa1=kappa1, kappa2=kappa2, force=force,
        window=window,
    )


def _random_state(offset, dim, seed):
    rng = np.random.default_rng(seed)
    return StateVector(offset=offset, amps=rng.normal(size=dim) + 1j * rng.normal(size=dim))


def _column(kappa1, t, l, sites=None):
    """Column l of U(t) on a chain: the closed form from a unit excitation at l."""
    spec = chain(sites or l + 1, kappa1=kappa1)
    return evolve_closed_form(spec, single_site_state(spec, l), [t]).amps[0]


class TestPropagatorEntry:
    """Entries U_{n,l}(t) = (-i kappa1 t)^{l-n} / (l-n)!, read off closed-form columns."""

    def test_reference_values(self):
        u = _column(1.0, 1.0, 2)
        assert u[2] == 1.0
        assert u[1] == pytest.approx(-1j)
        assert u[0] == pytest.approx(-0.5)
        assert _column(2.0, 1.0, 3)[0] == pytest.approx(4j / 3)

    def test_identity_at_t_zero(self):
        assert np.array_equal(_column(1.3 - 0.2j, 0.0, 5, sites=8), np.eye(8)[5])

    def test_strictly_causal(self):
        u = _column(1.0, 2.0, 1, sites=5)
        assert np.all(u[2:] == 0.0) and np.all(u[:2] != 0.0)

    def test_overflowing_entry_aborts(self):
        with pytest.raises(OverflowAbort):
            _column(1e6, 1.0, 100)

    def test_large_separation_is_finite(self):
        u = _column(1.0, 1.0, 300)
        assert np.all(np.isfinite(u))
        assert abs(u[0]) < 1e-300 or abs(u[0]) == 0.0

    def test_matches_matrix_exponential(self):
        spec = chain(30, kappa1=0.9 - 0.4j)
        t = 2.0
        h = build_hamiltonian(spec).entries
        dense = expm(-1j * h * t)
        columns = np.array([_column(spec.kappa1, t, l, sites=30) for l in range(30)]).T
        assert np.max(np.abs(dense - columns)) <= 1e-12


class TestLogFactorials:
    def test_agrees_with_gammaln_as_the_table_grows_and_shrinks(self, monkeypatch):
        from scipy.special import gammaln

        monkeypatch.setattr(dynamics, "_log_factorial_table", np.zeros(1))
        for count in (3, 5001, 10, 4097, 1):  # smaller orders after larger ones
            got = dynamics._log_factorials(count)
            want = gammaln(np.arange(count) + 1.0)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            dynamics._log_factorials(8)[3] = 0.0


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

    def test_interior_support_matches_matrix_exponential(self):
        # the kernel is convolved over the initial support only
        rng = np.random.default_rng(13)
        spec = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=0.9 - 0.7j, window=(-6, 4))
        amps = np.zeros(spec.dim, dtype=complex)
        amps[3:7] = rng.normal(size=4) + 1j * rng.normal(size=4)
        c0 = StateVector(offset=-6, amps=amps)
        traj = evolve_closed_form(spec, c0, [0.4, 2.2])
        h = build_hamiltonian(spec).entries
        for t, row in zip(traj.times, traj.amps):
            want = expm(-1j * h * t) @ amps
            assert np.max(np.abs(row - want)) <= 1e-12
            assert np.all(row[7:] == 0.0)

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
        forced_ring = LatticeSpec(geometry=Geometry.Ring, kappa1=1.0, force=0.5, sites=4)
        with pytest.raises(ValidationError, match="ring requires F = 0"):
            evolve_closed_form(forced_ring, c0, [1.0])
        with pytest.raises(ValidationError):
            evolve_closed_form(spec, c0, [1.0, 0.5])
        with pytest.raises(ValidationError):
            evolve_closed_form(spec, StateVector(offset=1, amps=np.ones(4)), [1.0])
        with pytest.raises(ValidationError):
            evolve_closed_form(spec, StateVector(offset=0, amps=np.zeros(4)), [1.0])
        with pytest.raises(ValidationError):
            evolve_closed_form(spec, c0, [np.inf])

    @pytest.mark.parametrize("force", [0.7, -1.3, 1e-9])
    @pytest.mark.parametrize("geometry", ["chain", "window"])
    def test_forced_matches_matrix_exponential(self, geometry, force):
        # F = 1e-9 guards the half-angle form of Phi: (1 - e^{-iFt}) / (iF)
        # loses about 1e-9 of relative accuracy there
        kappa1 = 0.8 - 0.5j
        if geometry == "chain":
            spec = chain(14, kappa1=kappa1, force=force)
        else:
            spec = _window((-12, 5), kappa1=kappa1, force=force)
        c0 = _random_state(spec.offset, spec.dim, seed=spec.dim)
        times = [0.0, 0.3, 1.7, 4.0]
        traj = evolve_closed_form(spec, c0, times)
        h = build_hamiltonian(spec).entries
        for t, row in zip(times, traj.amps):
            want = expm(-1j * h * t) @ np.asarray(c0.amps)
            assert np.linalg.norm(row - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "spec, center",
        [(chain(16, kappa1=np.exp(0.3j), force=-0.6), 7.5),
         (_window((-40, 20), kappa1=np.exp(0.3j), force=-0.6), 0.0)],
        ids=["chain", "window"],
    )
    def test_forced_revival_matches_rk4(self, spec, center):
        # the README forced point: one Bloch period at dt = T_B / 10^4
        t_b = 2.0 * np.pi / 0.6
        c0 = gaussian_state(spec, center=center, width=3.0)
        rk4 = evolve_rk4(spec, c0, EvolveConfig(t_end=t_b, dt=t_b / 10_000, record_every=500))
        exact = evolve_closed_form(spec, c0, rk4.times)
        assert exact.revival[-1] <= 1e-13
        dev = np.linalg.norm(rk4.amps - exact.amps, axis=1) / np.linalg.norm(exact.amps, axis=1)
        assert np.max(dev) <= 1e-9

    @pytest.mark.parametrize("spec", [chain(400), ring(400)], ids=["chain", "ring"])
    def test_overflow_aborts(self, spec):
        # |kappa1 t|^j / j! passes 1e150 on the chain and e^{|kappa1| t} on the
        # ring overflows outright; both must abort as RK4 does, not emit NaN
        c0 = single_site_state(spec, 200)
        assert np.isfinite(evolve_closed_form(spec, c0, [1.0]).amps).all()
        with pytest.raises(OverflowAbort):
            evolve_closed_form(spec, c0, [0.0, 500.0, 1000.0])


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

    @pytest.mark.parametrize("flux_rate", [None, 1e-3], ids=["static", "flux"])
    def test_overflow_guard_aborts_where_a_per_step_check_does(self, monkeypatch, flux_rate):
        # the guard measures max|c| only when the running bound could pass
        # 1e150; a check after every step must abort at the very same step.
        # The bound grows at rate |kappa1| + |kappa2| = 3.5, the state at 2.
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=2j, kappa2=1.5, sites=4)
        c0 = single_site_state(spec, 0)
        cfg = EvolveConfig(t_end=200.0, dt=0.02)
        checked_at = []
        guard = dynamics._guard_overflow

        def counted_guard(amps, t, remedy):
            checked_at.append(t)
            return guard(amps, t, remedy)

        monkeypatch.setattr(dynamics, "_guard_overflow", counted_guard)
        with pytest.raises(OverflowAbort) as guarded:
            evolve_rk4(spec, c0, cfg, flux_rate=flux_rate)

        class PerStepAbort(Exception):
            pass

        def per_step(t, y):
            if not float(np.abs(y).max()) <= 1e150:
                raise PerStepAbort(t)

        # the reference: a guard that never aborts, and the check in a step hook
        monkeypatch.setattr(
            dynamics, "_guard_overflow", lambda amps, t, remedy: float(np.abs(amps).max())
        )
        with pytest.raises(PerStepAbort) as reference:
            dynamics._evolve(
                _spec_bands(spec), flux_rate, c0, cfg, dynamics._dt_scale(spec, flux_rate),
                "the fastest scale", step_hook=per_step,
            )
        t_abort = reference.value.args[0]
        assert checked_at[-1] == t_abort
        assert len(checked_at) < 0.01 * 200.0 / 0.02  # under 1 % of the 10,000 steps
        assert str(guarded.value) == (
            f"amplitude overflow (max|c| > 1e150) at t = {t_abort:.6g}; "
            f"{dynamics._RENORMALIZE}"
        )

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


def _tridiagonal_reference(dim, upper, lower, diag=0, wrap=False):
    """The dense generator filled entry by entry, independent of the band form."""
    h = np.zeros((dim, dim), dtype=complex)
    n = np.arange(dim - 1)
    h[n, n + 1] += upper
    h[n + 1, n] += lower
    h[np.diag_indices(dim)] += diag
    if wrap:
        h[dim - 1, 0] += upper
        h[0, dim - 1] += lower
    return h


def _staged_dense_step(h_dense, t, h, y):
    """Reference: one four-stage RK4 step from t of dc/dt = -i H(t) c with
    the dense H(t) = h_dense(t)."""
    def deriv(s, v):
        return -1j * (h_dense(s) @ v)

    k1 = deriv(t, y)
    k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = deriv(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_LASER = LaserParams(
    gain=0.3, loss=0.1, dg=0.02, delta_am=0.4, delta_fm=0.7, phi=0.9, detuning=-0.5
)


def _flux_ring(sites, force=0.0):
    return LatticeSpec(
        geometry=Geometry.Ring, kappa1=0.8 - 0.6j, kappa2=0.3 + 0.2j, force=force, sites=sites
    )


class TestBandedStep:
    """Every RK4 step is one product by the banded step matrix I + Delta."""

    @pytest.mark.parametrize(
        "spec, rate",
        [
            (chain(9, kappa1=1.3), None),
            (_window((-7, 5), kappa1=0.8 - 0.6j, force=0.6), None),
            (_window((-7, 5), kappa1=0.8 - 0.6j, force=-0.6), None),
            (LatticeSpec(geometry=Geometry.Ring, kappa1=1 - 2j, kappa2=0.3, force=-0.5, sites=2),
             None),
            (LatticeSpec(geometry=Geometry.Ring, kappa1=0.7j, kappa2=1.1, force=0.2, sites=3),
             None),
            (chain(7, kappa1=0.9 + 0.4j, kappa2=-0.3 + 0.5j, force=0.25), None),
            (_flux_ring(2), 0.9),
            (_flux_ring(3), -0.7),
            (_flux_ring(7), 1.1),
            (_flux_ring(7), -1.1),
            (_flux_ring(7, force=0.3), -0.8),
        ],
        ids=[
            "chain", "window-F+", "window-F-", "ring2", "ring3", "complex-kappa2",
            "flux-ring2-F+", "flux-ring3-F-", "flux-ring7-F+", "flux-ring7-F-",
            "flux-ring7-stark",
        ],
    )
    def test_one_step_matches_staged_dense_step(self, spec, rate):
        # a static H is checked on one step; a flux ring on three, so the
        # steps at t > 0 carry their Peierls phases
        ring_ = spec.geometry is Geometry.Ring
        stark = spec.force * spec.site_indices

        def h_dense(t):
            phase = np.exp(1j * (rate or 0.0) * t)
            return _tridiagonal_reference(
                spec.dim, spec.kappa1 * phase, spec.kappa2 / phase, diag=stark, wrap=ring_
            )

        c0 = _random_state(spec.offset, spec.dim, seed=spec.dim)
        extent = max(spec.dim, np.abs(spec.site_indices).max())
        scale = max(abs(spec.kappa1), abs(spec.kappa2), abs(spec.force) * extent)
        h = 0.04 / max(scale, abs(rate or 0.0))
        steps = 1 if rate is None else 3
        cfg = EvolveConfig(t_end=steps * h, dt=h)
        got = evolve_rk4(spec, c0, cfg, flux_rate=rate).amps[-1]
        want = np.asarray(c0.amps)
        for n in range(steps):
            want = _staged_dense_step(h_dense, n * h, h, want)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_laser_step_matches_staged_dense_step(self, monkeypatch):
        window = (-6, 8)
        couplings = laser_effective_couplings(_LASER)
        n = np.arange(window[0], window[1] + 1, dtype=float)
        onsite = (
            couplings.onsite_force * n
            + couplings.onsite_uniform
            + couplings.onsite_curvature * n**2
        )
        h_dense = _tridiagonal_reference(n.size, couplings.forward, couplings.backward, diag=onsite)
        c0 = _random_state(window[0], n.size, seed=3)
        h = 0.04 / max(abs(couplings.forward), abs(_LASER.detuning) * n.size, _LASER.dg * 8**2)
        # a random state holds weight on the edge modes, so the monitor is set loose
        monkeypatch.setattr(engineering, "_EDGE_TOL", 0.5)
        got = laser_evolve(_LASER, c0, EvolveConfig(t_end=h, dt=h)).amps[-1]
        want = _staged_dense_step(lambda t: h_dense, 0.0, h, np.asarray(c0.amps))
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("case", ["chain", "window", "flux-ring", "laser"])
    def test_rk4_plan_lands_on_t_end_and_bounds_every_step(self, case):
        # n * h is t_end, and max|(I + Delta(t)) y| <= growth max|y| at any
        # t; a unit vector phased against the largest row reaches the bound
        rate = -1.1 if case == "flux-ring" else None
        if case == "laser":
            bands = engineering._laser_lattice(_FORCED_LASER, (-6, 8))[1]
            scale = _laser_scale(_FORCED_LASER, -6, 8)
        else:
            spec = {
                "chain": chain(12, kappa1=0.9 + 0.4j, kappa2=-0.3 + 0.5j, force=0.25),
                "window": _window((-7, 5), kappa1=0.8 - 0.6j, kappa2=0.2j, force=-0.6),
                "flux-ring": _flux_ring(10),
            }[case]
            bands, scale = _spec_bands(spec), dynamics._dt_scale(spec, rate)
        rng = np.random.default_rng(20)
        for _ in range(25):
            t_end, dt = rng.uniform(0.1, 5.0), 0.05 / scale * rng.uniform(0.05, 1.0)
            n, h, delta, growth = dynamics._rk4_plan(bands, rate, t_end, dt, scale, "it")
            assert abs(n * h - t_end) <= 2 * np.finfo(float).eps * t_end
            assert (n - 1) * dt < t_end and h <= dt * (1.0 + 1e-12)
            step = _band_apply({**delta, 0: delta[0] + 1.0}, rate)
            t = rng.uniform(0.0, t_end)
            y = rng.normal(size=bands[0].size) + 1j * rng.normal(size=bands[0].size)
            assert np.abs(step(t, y)).max() <= growth * np.abs(y).max()
            phased = {k: np.exp(1j * k * (rate or 0.0) * t) * d for k, d in delta.items()}
            matrix = _dense({**phased, 0: phased[0] + 1.0})
            row = np.abs(matrix).sum(1).argmax()
            worst = np.abs(step(t, np.exp(-1j * np.angle(matrix[row])))).max()
            assert growth / (1.0 + 2e-12) <= worst <= growth

    def test_sites_above_support_stay_exactly_zero(self):
        # kappa2 = 0 moves amplitude only toward lower n, and the cyclic gather
        # must not wrap the low sites onto the top of the window
        spec = _window((-20, 30), kappa1=1.1 * np.exp(0.7j), force=0.4)
        amps = np.asarray(_random_state(-20, spec.dim, seed=5).amps).copy()
        amps[26:] = 0.0  # support is sites -20..5
        c0 = StateVector(offset=-20, amps=amps)
        traj = evolve_rk4(spec, c0, EvolveConfig(t_end=2.0, dt=0.002, record_every=100))
        assert np.all(traj.amps[:, 26:] == 0.0)
        assert np.all(traj.amps[-1, :26] != 0.0)


class TestWideWindows:
    def test_hundred_thousand_site_window_matches_closed_form(self):
        # a dense generator of this window would take 160 GB
        spec = _window((-50_000, 50_000), kappa1=np.exp(0.4j))
        c0 = gaussian_state(spec, center=2.5, width=3.0)
        traj = evolve_rk4(spec, c0, EvolveConfig(t_end=0.2, dt=0.05))
        exact = evolve_closed_form(spec, c0, traj.times)
        dev = np.linalg.norm(traj.amps - exact.amps, axis=1) / np.linalg.norm(exact.amps, axis=1)
        assert len(traj) == 5
        assert np.max(dev) <= 1e-6

    def _laser_run(self, center):
        params = LaserParams(
            gain=0.1, loss=0.0, dg=0.0, delta_am=0.5, delta_fm=0.5,
            phi=-np.pi / 2, detuning=-0.6,
        )
        window = _window((-10_000, 10_000))
        dt = 0.05 / (0.6 * window.dim)  # the step rule's bound
        c0 = gaussian_state(window, center=center, width=3.0)
        return laser_evolve(params, c0, EvolveConfig(t_end=20 * dt, dt=dt, record_every=5))

    def test_laser_on_twenty_thousand_modes(self):
        traj = self._laser_run(center=0.0)
        assert len(traj) == 5
        assert np.all(np.isfinite(traj.weight)) and traj.weight[-1] > traj.weight[0]

    def test_laser_edge_monitor_acts_on_twenty_thousand_modes(self):
        with pytest.raises(EdgeLeakError):
            self._laser_run(center=9_998.0)


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_N = 2048
_CHAIN = chain(_N, kappa1=np.exp(0.2j), force=1e-4)
_FREE_WINDOW = _window((-_N // 2, _N // 2 - 1), kappa1=np.exp(0.2j))
_FREE_CHAIN = chain(_N, kappa1=np.exp(0.2j))
_FLUX_RING = LatticeSpec(
    geometry=Geometry.Ring, kappa1=np.exp(0.2j), kappa2=0.3 - 0.1j, sites=_N
)
_FLUX_RATE = 2.0 * np.pi / _N


@pytest.mark.parametrize(
    "run",
    [
        lambda: evolve_rk4(
            _CHAIN, gaussian_state(_CHAIN, 1000.0, 3.0), EvolveConfig(t_end=0.2, dt=0.02)
        ),
        lambda: laser_evolve(
            _LASER, gaussian_state(_FREE_WINDOW, 0.0, 3.0),
            EvolveConfig(t_end=1e-7, dt=1e-7 / 4),
        ),
        lambda: evolve_closed_form(
            _FREE_CHAIN, gaussian_state(_FREE_CHAIN, 1000.0, 3.0), [0.0, 0.5, 1.0]
        ),
        lambda: evolve_closed_form(
            _FREE_WINDOW, gaussian_state(_FREE_WINDOW, 0.0, 3.0), [0.0, 0.5, 1.0]
        ),
        lambda: rhs(_CHAIN, 0.0, gaussian_state(_CHAIN, 1000.0, 3.0)),
        lambda: evolve_rk4(
            _FLUX_RING, gaussian_state(_FLUX_RING, 1000.0, 3.0),
            EvolveConfig(t_end=0.2, dt=0.02), flux_rate=_FLUX_RATE,
        ),
        lambda: rhs(
            _FLUX_RING, 0.7, gaussian_state(_FLUX_RING, 1000.0, 3.0), flux_rate=_FLUX_RATE
        ),
    ],
    ids=[
        "evolve_rk4", "laser_evolve", "closed-chain", "closed-window", "rhs",
        "flux-evolve_rk4", "flux-rhs",
    ],
)
def test_static_paths_allocate_no_dense_matrix(run):
    dense = _N * _N * 16
    assert _peak_bytes(run) < dense / 16


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


_FORCED_LASER = LaserParams(
    gain=0.5, loss=2.0, dg=0.02, delta_am=0.5, delta_fm=0.5, phi=-np.pi / 2, detuning=-0.1
)


def _run_forced_laser(dt):
    window = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=0j, window=(-10, 10))
    laser_evolve(_FORCED_LASER, gaussian_state(window, 0.0, 2.0), EvolveConfig(t_end=0.5, dt=dt))


def _laser_scale(params, n_min, n_max):
    """The laser step scale written out term by term over the modes n_min..n_max."""
    couplings = laser_effective_couplings(params)
    extent = max(abs(n_min), abs(n_max))
    return max(
        abs(couplings.forward),
        abs(couplings.backward),
        abs(params.detuning) * max(extent, n_max - n_min + 1),
        abs(params.gain - params.loss),
        params.dg * extent**2,
    )


@pytest.mark.parametrize(
    "run, scale",
    [
        (_run_rk4, 2.0),
        (_run_monodromy, 3.0),
        (_run_laser, 2.0),
        (_run_forced_laser, _laser_scale(_FORCED_LASER, -10, 10)),  # |F| * 21 modes = 2.1
    ],
    ids=["evolve_rk4", "monodromy", "laser_evolve", "forced-curved-laser"],
)
def test_step_rule_boundary(run, scale):
    # every integrator shares one rule: dt <= 0.05 / scale, sharp at the bound
    bound = 0.05 / scale
    run(bound)
    with pytest.raises(ValidationError, match="does not resolve"):
        run(bound * (1.0 + 1e-9))


class TestObservables:
    @staticmethod
    def _com(offset, amps):
        """The ``com`` observable of a t_end = 0 trajectory from the state."""
        spec = _window((offset, offset + len(amps) - 1))
        c0 = StateVector(offset=offset, amps=amps)
        return evolve_rk4(spec, c0, EvolveConfig(t_end=0.0, dt=1.0)).com[0]

    def test_center_of_mass_examples(self):
        assert self._com(0, np.eye(8)[5]) == 5.0
        assert self._com(0, [1.0, 1.0]) == 0.5
        assert self._com(0, [1.0, 2.0, 1.0]) == pytest.approx(1.0)

    def test_center_of_mass_uses_absolute_sites(self):
        assert self._com(-3, [1.0, 1.0]) == -2.5

    def test_center_of_mass_zero_state(self):
        with pytest.raises(ValidationError, match="nonzero"):
            self._com(0, [0.0, 0.0])

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

    @pytest.mark.parametrize("width", [1e-154, 1e-200, 5e-324])
    def test_narrow_gaussian_on_a_site_is_the_point_mass(self, width):
        # ((n - c) / w)^2 overflows to inf off the center without a warning
        # (warnings are errors here), and is exactly 0 on it
        state = gaussian_state(chain(8), 3.0, width)
        assert state.amps.tolist() == [0j, 0j, 0j, 1 + 0j, 0j, 0j, 0j, 0j]

    @pytest.mark.parametrize("center", [3.5, -2.0, 1e300])
    def test_gaussian_whose_amplitudes_all_underflow_names_width(self, center):
        with pytest.raises(ValidationError, match=r"^width = 1e-200 is too narrow"):
            gaussian_state(chain(8), center, 1e-200)
