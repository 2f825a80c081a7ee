"""Synthesis of unidirectional hopping from modulated complex site potentials,
and the mode-locked-laser realization of the same dynamics.

The starting point is a reciprocal lattice with a period-T complex on-site
drive,

    i dc_n/dt = kappa (c_{n+1} + c_{n-1}) + V_n(t) c_n,
    V_n(t) = theta n delta(t - T1) + [(1 + (-1)^n)/2] (alpha + i beta) h(t),

where h(t) is +1 on (0, T1/4), -1 on (T1/4, 3T1/4), +1 on (3T1/4, T1) and 0
on (T1, T): a zero-mean square wave acting on even sites only, followed by a
lumped phase gradient at t = T1.  In the fast-modulation regime
omega = 2 pi / T >> kappa, averaging the interaction-picture hopping phases
over one period renormalizes the two hopping directions independently:

    rho   = kappa [ x sinc(Gamma) + (1 - x) e^{-i theta} ]   -> coefficient of c_{n+1}
    sigma = kappa [ x sinc(Gamma) + (1 - x) e^{+i theta} ]   -> coefficient of c_{n-1}

with x = T1/T, Gamma = (alpha + i beta) T1/4, sinc z = sin z / z.  Solving
x sinc(Gamma) = -(1 - x) e^{i theta} cancels sigma exactly while
rho = -2i kappa (1 - x) sin(theta) stays finite: unidirectional hopping from
a fully reciprocal lattice.

Frame convention: the lumped gradient is applied at t = T1 + mT and unwound
at each period boundary (a zig-zag axis profile returns to the axis), so the
accumulated drive phase is strictly T-periodic.  Without the unwind the
interaction-picture hopping of period m carries an extra factor e^{-i m
theta} -- the periods average to different Hamiltonians and no static
effective model exists; with it, the one-period average above describes the
stroboscopic dynamics at every multiple of T, which is what
:func:`rwa_validate` checks by exact propagation of the drive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dynamics import EvolveConfig, StateTrajectory, _evolve, _guard_overflow
from .errors import (
    ComputationError,
    EdgeLeakError,
    RootNotFoundError,
    StalledIterationError,
    ValidationError,
    _checked,
)
from .lattice import HamiltonianMatrix, StateVector, _bands, _dense

__all__ = [
    "ModulationProtocol",
    "EffectiveHopping",
    "UnidirectionalRoot",
    "RwaSample",
    "LaserParams",
    "LaserCouplings",
    "modulation_envelope",
    "potential",
    "kick_events",
    "effective_hopping",
    "effective_hopping_quadrature",
    "solve_unidirectional",
    "rwa_validate",
    "laser_effective_couplings",
    "laser_hamiltonian",
    "laser_evolve",
]


def _csinc(z: complex) -> complex:
    """sin(z)/z with the removable singularity filled by its Taylor series."""
    z = complex(z)
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return cmath.sin(z) / z


def _csinc_deriv(z: complex) -> complex:
    """d/dz [sin(z)/z] = cos(z)/z - sin(z)/z^2, series-expanded near 0."""
    z = complex(z)
    if abs(z) < 1e-4:
        z2 = z * z
        return z * (-1.0 / 3.0 + z2 / 30.0)
    return cmath.cos(z) / z - cmath.sin(z) / (z * z)


@dataclass(frozen=True)
class ModulationProtocol:
    """Period-T drive parameters: kick amplitude theta, even-site drive
    alpha + i beta over the active window [0, T1], quiet tail (T1, T).

    Derived shape invariants: duty cycle x = t1/period and complex area
    Gamma = (alpha + i beta) t1 / 4; the effective hopping depends on the
    protocol only through (theta, x, Gamma).
    """

    theta: float
    alpha: float
    beta: float
    t1: float
    period: float

    def __post_init__(self) -> None:
        for name in ("theta", "alpha", "beta", "t1", "period"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not 0.0 < self.t1 < self.period:
            raise ValidationError(
                f"need 0 < t1 < period, got t1={self.t1!r}, period={self.period!r}"
            )

    @property
    def x(self) -> float:
        return self.t1 / self.period

    @property
    def drive_amplitude(self) -> complex:
        return complex(self.alpha, self.beta)

    @property
    def gamma(self) -> complex:
        return complex(self.alpha, self.beta) * self.t1 / 4.0

    @property
    def _schedule(self) -> tuple[tuple[float, float], ...]:
        """One period of h(t) as (duration, h) pairs: +1 on the first quarter
        of [0, t1], -1 on its middle half, +1 on its last quarter, 0 after."""
        quarter = self.t1 / 4.0
        return (
            (quarter, 1.0),
            (2.0 * quarter, -1.0),
            (quarter, 1.0),
            (self.period - self.t1, 0.0),
        )

    @classmethod
    def with_shape(
        cls, theta: float, x: float, gamma: complex, period: float = 1.0
    ) -> "ModulationProtocol":
        """Build a protocol from shape invariants (theta, x, Gamma) at a period."""
        if not 0.0 < x < 1.0:
            raise ValidationError(f"duty cycle x must lie in (0, 1), got {x!r}")
        if not (math.isfinite(period) and period > 0):
            raise ValidationError("period must be positive and finite")
        t1 = x * period
        amplitude = 4.0 * complex(gamma) / t1
        return cls(
            theta=theta, alpha=amplitude.real, beta=amplitude.imag, t1=t1, period=period
        )


def modulation_envelope(protocol: ModulationProtocol, t: float) -> float:
    """Square-wave envelope h(t): +1, -1, +1 over quarters of [0, t1], else 0.

    Evaluated on t folded into [0, period); the integral of h over a full
    active window vanishes, so the smooth drive imprints no net phase.
    """
    tau = math.fmod(t, protocol.period)
    if tau < 0:
        tau += protocol.period
    end = 0.0
    for duration, h in protocol._schedule:
        end += duration
        if tau < end:
            return h
    return 0.0


def potential(protocol: ModulationProtocol, n: int, t: float) -> complex:
    """Smooth part of V_n(t): (alpha + i beta) h(t) on even sites, 0 on odd.

    The delta-kick part is not representable as a function value; it is
    carried separately by :func:`kick_events` and applied multiplicatively by
    the simulators (c_n -> e^{-i phase n} c_n at each event).
    """
    if n % 2 != 0:
        return 0j
    return protocol.drive_amplitude * modulation_envelope(protocol, t)


def kick_events(protocol: ModulationProtocol) -> tuple[tuple[float, float], ...]:
    """Phase-gradient events per period: (time, phase_per_site).

    The gradient theta is impressed at t1 and unwound at the period boundary,
    keeping the accumulated drive phase strictly T-periodic (the zig-zag
    realization).  Each event acts as c_n -> e^{-i phase n} c_n.
    """
    return ((protocol.t1, protocol.theta), (protocol.period, -protocol.theta))


@dataclass(frozen=True)
class EffectiveHopping:
    """Renormalized hopping pair: rho multiplies c_{n+1}, sigma multiplies
    c_{n-1} (in the same units as the bare kappa fed in)."""

    rho: complex
    sigma: complex


def _closed_form_hopping(
    theta: float, x: float, gamma: complex, kappa: float
) -> EffectiveHopping:
    common = x * _csinc(gamma)
    rho = kappa * (common + (1.0 - x) * cmath.exp(-1j * theta))
    sigma = kappa * (common + (1.0 - x) * cmath.exp(1j * theta))
    return EffectiveHopping(rho=rho, sigma=sigma)


def effective_hopping_quadrature(
    protocol: ModulationProtocol, kappa: float = 1.0
) -> EffectiveHopping:
    """Effective hopping by direct numerical time-averaging.

    Averages kappa exp[i int_0^t dt' (V_n - V_{n+/-1})] over one period, with
    the inner phase integral accumulated numerically branch by branch (the
    envelope is constant on each branch, so the trapezoid accumulation is
    exact) and the outer average done by composite Simpson on 4097 samples
    per branch; the kick phase acts on the quiet tail (h = 0).  Both site
    parities are averaged and must agree (the closed forms are parity-free
    because sinc is even); disagreement flags a quadrature fault.

    This is an independent evaluation route used to cross-check the closed
    forms in :func:`effective_hopping`.
    """
    from scipy.integrate import simpson  # deferred: slow to import, used only here

    amplitude = protocol.drive_amplitude
    results = {}
    for parity_sign in (1.0, -1.0):  # even / odd site n
        for kick_sign, key in ((-1.0, "rho"), (1.0, "sigma")):
            total = 0j
            w_start = 0.0
            a = 0.0
            for duration, h in protocol._schedule:
                b = a + duration
                ts = np.linspace(a, b, 4097)
                w = w_start + h * (ts - a)
                kick = kick_sign * protocol.theta * (h == 0.0)
                phase = parity_sign * amplitude * w + kick
                total += simpson(np.exp(1j * phase), x=ts)
                w_start = w_start + h * (b - a)
                a = b
            results[(parity_sign, key)] = kappa * total / protocol.period
    for key in ("rho", "sigma"):
        gap = abs(results[(1.0, key)] - results[(-1.0, key)])
        if gap > 1e-10 * max(1.0, abs(kappa)):
            raise ComputationError(
                f"site-parity averages of {key} disagree by {gap:.3e}; "
                "quadrature is inconsistent"
            )
    return EffectiveHopping(rho=results[(1.0, "rho")], sigma=results[(1.0, "sigma")])


def effective_hopping(protocol: ModulationProtocol, kappa: float = 1.0) -> EffectiveHopping:
    """Closed-form effective hopping (rho, sigma) of the modulated lattice.

    rho = kappa [x sinc(Gamma) + (1-x) e^{-i theta}] and sigma the same with
    e^{+i theta}; sinc(0) = 1 fills the removable singularity.  The
    independent time-average of :func:`effective_hopping_quadrature` is
    always evaluated as a self-oracle and must agree to
    1e-8 * max(1, |kappa|).
    """
    closed = _closed_form_hopping(protocol.theta, protocol.x, protocol.gamma, kappa)
    quad = effective_hopping_quadrature(protocol, kappa)
    tol = 1e-8 * max(1.0, abs(kappa))
    gap = max(abs(closed.rho - quad.rho), abs(closed.sigma - quad.sigma))
    if gap > tol:
        raise ComputationError(
            f"closed-form hopping disagrees with the time average by {gap:.3e} "
            f"(tolerance {tol:.3e})"
        )
    return closed


@dataclass(frozen=True)
class UnidirectionalRoot:
    """Result of the sigma = 0 root search: the root Gamma*, the resulting
    forward hopping rho (per unit kappa), the final residual |sigma|/kappa,
    and the Newton iteration count."""

    gamma: complex
    rho: complex
    residual: float
    iterations: int


def solve_unidirectional(
    theta: float,
    x: float,
    gamma_guess: complex,
    tol: float = 1e-12,
    max_iterations: int = 100,
) -> UnidirectionalRoot:
    """Newton search for Gamma with sigma(Gamma) = 0 at fixed theta, x.

    Solves x sinc(Gamma) + (1 - x) e^{i theta} = 0 in the complex plane from
    ``gamma_guess``, with step halving (up to 8 times) whenever a full step
    fails to reduce the residual -- sinc has nearby zeros and extrema that a
    raw Newton step can overshoot.  Requires sin(theta) != 0: at theta = 0 or
    pi the same condition would cancel rho as well (the two closed forms then
    coincide), leaving no hopping at all.
    """
    if not 0.0 < x < 1.0:
        raise ValidationError(f"duty cycle x must lie in (0, 1), got {x!r}")
    if not math.isfinite(theta) or abs(math.sin(theta)) < 1e-12:
        raise ValidationError(
            "sin(theta) must be nonzero: cancelling sigma at sin(theta) = 0 "
            "would cancel rho too"
        )
    gamma = complex(gamma_guess)
    if not (math.isfinite(gamma.real) and math.isfinite(gamma.imag)):
        raise ValidationError("gamma_guess must be finite")

    def f(g: complex) -> complex:
        return _closed_form_hopping(theta, x, g, 1.0).sigma

    residual = abs(f(gamma))
    for iteration in range(1, max_iterations + 1):
        if residual < tol:
            rho = _closed_form_hopping(theta, x, gamma, 1.0).rho
            return UnidirectionalRoot(
                gamma=gamma, rho=rho, residual=residual, iterations=iteration - 1
            )
        derivative = x * _csinc_deriv(gamma)
        if abs(derivative) < 1e-30:
            raise StalledIterationError(
                f"Newton stalled at Gamma = {gamma!r}: sinc'(Gamma) ~ 0"
            )
        step = -f(gamma) / derivative
        candidate = gamma + step
        cand_residual = abs(f(candidate))
        halvings = 0
        while cand_residual >= residual and halvings < 8:
            step /= 2.0
            candidate = gamma + step
            cand_residual = abs(f(candidate))
            halvings += 1
        if cand_residual >= residual:
            raise StalledIterationError(
                f"Newton made no progress at Gamma = {gamma!r} "
                f"(residual {residual:.3e} after 8 halvings)"
            )
        gamma, residual = candidate, cand_residual
    raise RootNotFoundError(
        f"no sigma = 0 root within {max_iterations} iterations "
        f"(final residual {residual:.3e})",
        residual=residual,
    )


@dataclass(frozen=True)
class RwaSample:
    """One row of the RWA validation table at drive rate omega = ratio * |kappa|."""

    ratio: float
    period: float
    periods: int
    discrepancy: float


def rwa_validate(
    protocol: ModulationProtocol,
    kappa: float,
    omega_ratios,
    sites: int,
    c0: StateVector,
    t_end: float,
) -> list[RwaSample]:
    """Stroboscopic comparison of the exact drive against the effective model.

    For each ratio r the protocol is rescaled to period T = 2 pi / (r |kappa|)
    keeping (theta, x, Gamma) fixed (so alpha, beta grow as 1/T1), and the
    full equations are propagated to t_end, which must be an integer number
    of periods at every ratio.  The generator is constant on each of the four
    branches of h(t), so each branch is the exact propagator
    exp(-i span H_branch), built once per ratio; the multiplicative kick
    e^{-i theta n} opens the quiet tail at t1 + mT and e^{+i theta n} unwinds
    it at each period boundary.  The overflow guard checks the state after
    every branch.  The result is compared against exp(-i H_eff t_end) c0
    built from :func:`effective_hopping`; the relative discrepancy decreases
    with the drive rate as the rotating-wave limit is approached.  The gauge
    c_n -> (-1)^n c_n maps kappa to -kappa, so either sign is admissible.
    With kappa = 0 the ratios set no scale and the protocol's own period is
    used unscaled.
    """
    if int(sites) != sites or sites < 2:
        raise ValidationError("need an integer sites >= 2")
    sites = int(sites)
    if len(c0) != sites or c0.offset != 0:
        raise ValidationError("c0 must cover sites 0..sites-1 at offset 0")
    if c0.norm() == 0.0:
        raise ValidationError("c0 must be nonzero")
    ratios = [float(r) for r in np.atleast_1d(np.asarray(omega_ratios, dtype=float))]
    if any(not math.isfinite(r) or r <= 0 for r in ratios):
        raise ValidationError("omega ratios must be positive (fast drive means >= 5)")
    kappa = float(kappa)

    hopping = effective_hopping(protocol, kappa)
    n_idx = np.arange(sites)
    kick = np.exp(-1j * protocol.theta * n_idx)
    unwind = np.exp(1j * protocol.theta * n_idx)
    even = (n_idx % 2 == 0).astype(float)
    h_eff = _dense(_bands(sites, hopping.rho, hopping.sigma))
    samples: list[RwaSample] = []
    for ratio in ratios:
        if kappa != 0.0:
            period = 2.0 * math.pi / (ratio * abs(kappa))
            scaled = ModulationProtocol.with_shape(
                protocol.theta, protocol.x, protocol.gamma, period=period
            )
        else:
            period = protocol.period
            scaled = protocol
        cycles = t_end / period
        m_periods = round(cycles)
        if m_periods < 1 or abs(cycles - m_periods) > 1e-9 * max(1.0, cycles):
            raise ValidationError(
                f"t_end = {t_end:.6g} is not an integer number of drive periods "
                f"at ratio {ratio:g} (T = {period:.6g})"
            )
        branches = []
        for span, h_val in scaled._schedule:
            diag = scaled.drive_amplitude * h_val * even
            generator = _dense(_bands(sites, kappa, kappa, diag=diag))
            propagator = _checked(
                "branch propagator", scipy.linalg.expm, -1j * span * generator
            )
            branches.append((span, h_val == 0.0, propagator))
        y = np.asarray(c0.amps, dtype=complex)
        t = 0.0
        for _ in range(m_periods):
            for span, quiet, propagator in branches:
                if quiet:  # the gradient kick opens the quiet tail
                    y = kick * y
                y = propagator @ y
                t += span
                _guard_overflow(y, t, "shorten t_end or reduce |Im Gamma|")
            y = unwind * y
        reference = _checked(
            "effective propagator", scipy.linalg.expm, -1j * h_eff * t_end
        ) @ np.asarray(c0.amps)
        scale = float(np.linalg.norm(reference))
        if scale == 0.0:
            raise ComputationError("effective evolution annihilated the state")
        discrepancy = float(np.linalg.norm(y - reference) / scale)
        samples.append(
            RwaSample(
                ratio=ratio, period=period, periods=m_periods, discrepancy=discrepancy
            )
        )
    return samples


@dataclass(frozen=True)
class LaserParams:
    """Modal parameters of an actively mode-locked ring laser.

    Mode amplitudes c_n (n indexes cavity axial modes) obey

        i dc_n/dt = [F n + i(gain - loss) - i dg n^2] c_n
                    + delta_fm (c_{n+1} + c_{n-1})
                    + i delta_am (e^{i phi} c_{n+1} + e^{-i phi} c_{n-1}),

    with F = detuning (modulator vs axial-frequency mismatch per mode),
    delta_am / delta_fm the AM / FM modulation depths, phi their relative
    phase, and dg the gain-bandwidth curvature.
    """

    gain: float
    loss: float
    dg: float
    delta_am: float
    delta_fm: float
    phi: float
    detuning: float

    def __post_init__(self) -> None:
        for name in ("gain", "loss", "dg", "delta_am", "delta_fm", "phi", "detuning"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.dg < 0:
            raise ValidationError("dg (gain curvature) must be >= 0")


@dataclass(frozen=True)
class LaserCouplings:
    """Structural decomposition of the laser generator: hopping pair plus the
    three on-site contributions (force per mode, uniform gain/loss, curvature
    coefficient of n^2)."""

    forward: complex
    backward: complex
    onsite_force: float
    onsite_uniform: complex
    onsite_curvature: complex


def laser_effective_couplings(params: LaserParams) -> LaserCouplings:
    """Map laser parameters onto tight-binding couplings.

    forward = delta_fm + i delta_am e^{i phi} multiplies c_{n+1}; backward is
    the same with e^{-i phi}.  At delta_am = delta_fm = Delta and
    phi = -pi/2 the backward coupling cancels and forward = 2 Delta: the
    laser emulates the forced unidirectional lattice with kappa1 = 2 Delta.
    """
    forward = params.delta_fm + 1j * params.delta_am * cmath.exp(1j * params.phi)
    backward = params.delta_fm + 1j * params.delta_am * cmath.exp(-1j * params.phi)
    return LaserCouplings(
        forward=forward,
        backward=backward,
        onsite_force=params.detuning,
        onsite_uniform=1j * (params.gain - params.loss),
        onsite_curvature=-1j * params.dg,
    )


def _laser_bands(params: LaserParams, n_min: int, n_max: int) -> dict[int, np.ndarray]:
    """Cyclic diagonals of the laser generator over the modes n_min..n_max."""
    couplings = laser_effective_couplings(params)
    n = np.arange(n_min, n_max + 1, dtype=float)
    onsite = (
        couplings.onsite_force * n
        + couplings.onsite_uniform
        + couplings.onsite_curvature * n**2
    )
    return _bands(n.size, couplings.forward, couplings.backward, diag=onsite)


def laser_hamiltonian(params: LaserParams, window: tuple[int, int]) -> HamiltonianMatrix:
    """Dense laser generator over the mode window [n_min, n_max]."""
    n_min, n_max = int(window[0]), int(window[1])
    if not n_min < n_max:
        raise ValidationError("window must satisfy n_min < n_max")
    return HamiltonianMatrix(entries=_dense(_laser_bands(params, n_min, n_max)), offset=n_min)


def laser_evolve(
    params: LaserParams,
    c0: StateVector,
    cfg: EvolveConfig,
    edge_tol: float = 1e-6,
) -> StateTrajectory:
    """RK4 integration of the laser modal equations on c0's mode window.

    The generator is static, so each step is one product by the banded RK4
    step matrix.  The window has open boundaries, so results are
    trustworthy only while the wavepacket stays inside: an edge monitor
    aborts (computation error) after any step that leaves more than
    ``edge_tol`` of the total weight on the two boundary modes; it must lie
    in (0, 1).  Pass a wider initial window rather than loosening the monitor.
    """
    if not 0.0 < edge_tol < 1.0:  # NaN fails too, and would switch the monitor off
        raise ValidationError(f"edge_tol must lie in (0, 1), got {edge_tol!r}")
    if len(c0) < 2:
        raise ValidationError("the mode window must span at least 2 modes")
    window = (c0.offset, c0.offset + len(c0) - 1)
    extent = float(max(abs(window[0]), abs(window[1])))
    couplings = laser_effective_couplings(params)
    scale = max(
        abs(couplings.forward),
        abs(couplings.backward),
        abs(params.detuning) * max(extent, len(c0)),
        abs(params.gain - params.loss),
        params.dg * extent**2,
    )

    def edge_monitor(t: float, y: np.ndarray) -> None:
        total = float(np.sum(np.abs(y) ** 2))
        if total == 0.0:
            return
        boundary = float(abs(y[0]) ** 2 + abs(y[-1]) ** 2)
        if boundary > edge_tol * total:
            raise EdgeLeakError(
                f"boundary modes hold {boundary / total:.3e} of the weight at "
                f"t = {t:.6g} (limit {edge_tol:g}); widen the mode window"
            )

    bands = _laser_bands(params, *window)
    return _evolve(bands, None, c0, cfg, scale, "the laser scales", step_hook=edge_monitor)
