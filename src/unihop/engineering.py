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

Peierls convention: the kick c_n -> e^{-i theta n} c_n at t = T1 + mT is
unwound at each period boundary, so the drive is strictly T-periodic and one
static effective model exists.  With K = diag(e^{-i theta n}),
K^-1 e^{-i tau H} K = e^{-i tau K^-1 H K}, and K^-1 H K carries e^{-i theta} on
each forward bond and e^{+i theta} on each backward one: the kick-unwind pair
is the gradient theta held over the quiet tail as a Peierls phase (Goldman
and Dalibard, PRX 4, 031027, 2014).  :attr:`ModulationProtocol._schedule`
states it so, and the time average and :func:`rwa_validate` read it there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import EvolveConfig, StateTrajectory, _dt_scale, _evolve, _guard_overflow
from .errors import (
    ComputationError,
    EdgeLeakError,
    RootNotFoundError,
    StalledIterationError,
    ValidationError,
    _checked,
)
from .lattice import (
    Geometry, HamiltonianMatrix, LatticeSpec, StateVector, _bands, _dense, _require_finite_real,
    _require_memory, _spec_bands,
)

__all__ = [
    "ModulationProtocol",
    "EffectiveHopping",
    "UnidirectionalRoot",
    "RwaSample",
    "LaserParams",
    "LaserCouplings",
    "effective_hopping",
    "effective_hopping_quadrature",
    "solve_unidirectional",
    "rwa_validate",
    "laser_effective_couplings",
    "laser_hamiltonian",
    "laser_evolve",
]


def _sin_cos(z: complex) -> tuple[complex, complex]:
    """sin z and cos z, which pass the largest float once |Im z| passes about 710."""
    try:
        return cmath.sin(z), cmath.cos(z)
    except OverflowError:
        raise ComputationError(f"sinc(Gamma) overflows at |Im Gamma| = {abs(z.imag):.6g}") from None


def _csinc(z: complex) -> complex:
    """sin(z)/z with the removable singularity filled by its Taylor series."""
    z = complex(z)
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return _sin_cos(z)[0] / z


def _csinc_deriv(z: complex) -> complex:
    """d/dz [sin(z)/z] = cos(z)/z - sin(z)/z^2, series-expanded near 0."""
    z = complex(z)
    if abs(z) < 1e-4:
        z2 = z * z
        return z * (-1.0 / 3.0 + z2 / 30.0)
    sin, cos = _sin_cos(z)
    return cos / z - sin / (z * z)


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
    def _schedule(self) -> tuple[tuple[float, float, float], ...]:
        """One period of the drive as (duration, h, gradient) branches: h is +1
        on the first quarter of [0, t1], -1 on its middle half, +1 on its last
        quarter and 0 after, where the gradient theta is held."""
        quarter = self.t1 / 4.0
        return (
            (quarter, 1.0, 0.0),
            (2.0 * quarter, -1.0, 0.0),
            (quarter, 1.0, 0.0),
            (self.period - self.t1, 0.0, self.theta),
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


_SIMPSON_WEIGHTS = np.ones(4097)  # 1, 4, 2, 4, ..., 2, 4, 1
_SIMPSON_WEIGHTS[1:-1:2] = 4.0
_SIMPSON_WEIGHTS[2:-1:2] = 2.0
_FINE = 64  # the 4096 steps of a branch as 64 coarse steps of 64 fine ones
_FINE_INDEX = np.arange(_FINE)


def _simpson(values: np.ndarray, a: float, b: float) -> complex:
    """Composite Simpson rule over [a, b] for ``values`` sampled at the 4097
    uniform points of ``np.linspace(a, b, 4097)``: h/3 times the weighted sum,
    summed pairwise (a BLAS dot product loses up to 0.06 digits here)."""
    return (b - a) / (3.0 * (values.size - 1)) * (_SIMPSON_WEIGHTS * values).sum()


def _exp_ramp(start: complex, step: complex) -> np.ndarray:
    """exp(start + k step), k = 0..4096, from 129 exponentials in one buffer: k = 64 i + j is
    e^{start + 64 i step} e^{j step} (i, j = 0..63), and the end point k = 4096 is one more."""
    ramp = np.empty(_FINE * _FINE + 1, dtype=complex)
    coarse = np.exp(start + (_FINE * step) * _FINE_INDEX)
    np.multiply(coarse[:, None], np.exp(step * _FINE_INDEX), out=ramp[:-1].reshape(_FINE, _FINE))
    ramp[-1] = np.exp(start + (_FINE * _FINE) * step)
    return ramp


def effective_hopping_quadrature(
    protocol: ModulationProtocol, kappa: float = 1.0
) -> EffectiveHopping:
    """Effective hopping by direct numerical time-averaging.

    Averages kappa exp[i int_0^t dt' (V_n - V_{n+/-1})] over one period, with
    the outer average done by composite Simpson on 4097 samples per branch of
    :attr:`ModulationProtocol._schedule`.  The inner phase integral
    w(t) = int h is linear on each branch, so the integrand there is
    exp(start + k step) in the sample index k, formed from 129 exponentials by
    :func:`_exp_ramp`.  Each branch is summed once and added to rho times its
    Peierls phase e^{-i gradient} and to sigma times e^{+i gradient}.  Both
    site parities are averaged on their own and must agree to
    1e-10 * max(1, |kappa|, |rho|, |sigma|) (the closed forms are parity-free
    because sinc is even); disagreement flags a quadrature fault.  Once the samples or their sums pass the largest float
    (near |Im Gamma| = 709 at kappa = 1), a :class:`ComputationError` says so.

    This is an independent evaluation route used to cross-check the closed
    forms in :func:`effective_hopping`.
    """
    kappa = _require_finite_real("kappa", kappa)
    steps = _SIMPSON_WEIGHTS.size - 1
    results = {}
    with np.errstate(over="ignore", invalid="ignore"):  # the check below decides
        for parity_sign in (1.0, -1.0):  # even / odd site n
            rate = 1j * parity_sign * protocol.drive_amplitude  # exponent per unit w
            rho = sigma = 0j
            w_start = 0.0
            a = 0.0
            for duration, h, gradient in protocol._schedule:
                b = a + duration
                branch = _simpson(_exp_ramp(rate * w_start, rate * h * (b - a) / steps), a, b)
                peierls = cmath.exp(-1j * gradient)
                rho += branch * peierls
                sigma += branch * peierls.conjugate()
                w_start = w_start + h * (b - a)
                a = b
            results[(parity_sign, "rho")] = kappa * rho / protocol.period
            results[(parity_sign, "sigma")] = kappa * sigma / protocol.period
    if not all(cmath.isfinite(z) for z in results.values()):
        gamma = protocol.gamma
        raise ComputationError(f"the time average overflows at |Im Gamma| = {abs(gamma.imag):.6g}")
    even = EffectiveHopping(rho=results[(1.0, "rho")], sigma=results[(1.0, "sigma")])
    scale = max(1.0, abs(kappa), abs(even.rho), abs(even.sigma))
    for key in ("rho", "sigma"):
        gap = abs(results[(1.0, key)] - results[(-1.0, key)])
        if not gap <= 1e-10 * scale:  # NaN fails too
            raise ComputationError(
                f"site-parity averages of {key} disagree by {gap:.3e}; "
                "quadrature is inconsistent"
            )
    return even


def effective_hopping(protocol: ModulationProtocol, kappa: float = 1.0) -> EffectiveHopping:
    """Closed-form effective hopping (rho, sigma) of the modulated lattice.

    rho = kappa [x sinc(Gamma) + (1-x) e^{-i theta}] and sigma the same with
    e^{+i theta}; sinc(0) = 1 fills the removable singularity.  The
    independent time-average of :func:`effective_hopping_quadrature` is
    always evaluated as a self-oracle and must agree to
    1e-8 * max(1, |kappa|, |rho|, |sigma|): rho grows like e^{|Im Gamma|}, so
    the gate is relative to the size of the result.
    """
    kappa = _require_finite_real("kappa", kappa)
    closed = _closed_form_hopping(protocol.theta, protocol.x, protocol.gamma, kappa)
    quad = effective_hopping_quadrature(protocol, kappa)
    tol = 1e-8 * max(1.0, abs(kappa), abs(closed.rho), abs(closed.sigma))
    gap = max(abs(closed.rho - quad.rho), abs(closed.sigma - quad.sigma))
    if not gap <= tol:  # NaN fails too
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


_NEWTON_TOL = 1e-12  # residual |sigma| / kappa that counts as a root
_NEWTON_ITERATIONS = 100


def _require_sin_theta(theta: float) -> None:
    """Refuse sin(theta) = 0, where cancelling sigma would cancel rho too."""
    if not math.isfinite(theta) or abs(math.sin(theta)) < 1e-12:
        raise ValidationError(
            "sin(theta) must be nonzero: cancelling sigma at sin(theta) = 0 "
            "would cancel rho too"
        )


def solve_unidirectional(theta: float, x: float, gamma_guess: complex) -> UnidirectionalRoot:
    """Newton search for Gamma with sigma(Gamma) = 0 at fixed theta, x.

    Solves x sinc(Gamma) + (1 - x) e^{i theta} = 0 in the complex plane from
    ``gamma_guess`` until |sigma| / kappa < 1e-12, within 100 iterations
    (else :class:`RootNotFoundError`), with step halving (up to 8 times)
    whenever a full step fails to reduce the residual -- sinc has nearby
    zeros and extrema that a raw Newton step can overshoot.  Requires
    sin(theta) != 0: at theta = 0 or pi the same condition would cancel rho
    as well (the two closed forms then coincide), leaving no hopping at all.
    """
    if not 0.0 < x < 1.0:
        raise ValidationError(f"duty cycle x must lie in (0, 1), got {x!r}")
    _require_sin_theta(theta)
    gamma = complex(gamma_guess)
    if not (math.isfinite(gamma.real) and math.isfinite(gamma.imag)):
        raise ValidationError("gamma_guess must be finite")

    def f(g: complex) -> complex:
        return _closed_form_hopping(theta, x, g, 1.0).sigma

    residual = abs(f(gamma))
    for iteration in range(1, _NEWTON_ITERATIONS + 1):
        if residual < _NEWTON_TOL:
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
        f"no sigma = 0 root within {_NEWTON_ITERATIONS} iterations "
        f"(final residual {residual:.3e})",
        residual=residual,
    )


_THETA_13 = 5.371920351148152  # 1-norm up to which Pade-13 needs no scaling
_PADE_13 = np.array([  # divided by the first below, so that exp(0) = I exactly
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
]) / 64764752532480000.0


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with the degree-13 diagonal Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005): a is
    scaled by 2^-s until its 1-norm is at most theta_13, r = (V - U)^-1 (V + U)
    is formed from a^2, a^4 and a^6, and r is squared s times."""
    norm = np.linalg.norm(a, 1)
    s = max(0, math.ceil(math.log2(norm / _THETA_13))) if 0.0 < norm < math.inf else 0
    a = a * 2.0**-s
    b = _PADE_13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    ident = np.eye(a.shape[0])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
             + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
         + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


@dataclass(frozen=True)
class RwaSample:
    """One row of the RWA validation table at drive rate omega = ratio * |kappa|."""

    ratio: float
    period: float
    periods: int
    discrepancy: float


def _rwa_plan(
    protocol: ModulationProtocol, kappa: float, omega_ratios, sites: int, c0: StateVector, t_end: float
) -> list[tuple[float, float, ModulationProtocol, int]]:
    """The refusals of :func:`rwa_validate`, in its order, and for each ratio
    the (ratio, period, rescaled protocol, whole periods) that it propagates."""
    t_end = _require_finite_real("t_end", t_end)
    if int(sites) != sites or sites < 2:
        raise ValidationError("need an integer sites >= 2")
    sites = int(sites)
    _require_memory(16 * sites**2, f"a dense {sites} x {sites} generator")
    if len(c0) != sites or c0.offset != 0:
        raise ValidationError("c0 must cover sites 0..sites-1 at offset 0")
    if c0.norm() == 0.0:
        raise ValidationError("c0 must be nonzero")
    ratios = [float(r) for r in np.atleast_1d(np.asarray(omega_ratios, dtype=float))]
    if any(not math.isfinite(r) or r <= 0 for r in ratios):
        raise ValidationError("omega ratios must be positive (fast drive means >= 5)")
    kappa = float(kappa)
    plan = []
    for ratio in ratios:
        if kappa != 0.0:
            if ratio * abs(kappa) == 0.0:  # a positive finite ratio: only by underflow
                raise ValidationError(f"drive rate ratio * |kappa| = {ratio:g} * {abs(kappa):g} underflows to 0")
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
        plan.append((ratio, period, scaled, m_periods))
    return plan


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
    branches of :attr:`ModulationProtocol._schedule`, with hoppings
    kappa e^{-i g} forward and kappa e^{+i g} backward for the branch's
    gradient g (exact, see the module docstring), so one period is the
    product of the branch propagators exp(-i span H_branch), built once per
    ratio and distinct branch by Pade-13 scaling and squaring (Higham 2005,
    :func:`_expm`).  The overflow guard checks the state after every branch.
    The result is compared against exp(-i H_eff t_end) c0 built once from
    :func:`effective_hopping`; the relative discrepancy decreases with the
    drive rate as the rotating-wave limit is approached.  The gauge
    c_n -> (-1)^n c_n maps kappa to -kappa, so either sign is admissible.
    With kappa = 0 the ratios set no scale and the protocol's own period is
    used unscaled.
    """
    plan = _rwa_plan(protocol, kappa, omega_ratios, sites, c0, t_end)
    t_end, sites, kappa = float(t_end), int(sites), float(kappa)
    hopping = effective_hopping(protocol, kappa)
    h_eff = _dense(_bands(sites, hopping.rho, hopping.sigma))
    reference = _checked("effective propagator", _expm, -1j * h_eff * t_end) @ c0.amps
    scale = float(np.linalg.norm(reference))
    if scale == 0.0:
        raise ComputationError("effective evolution annihilated the state")
    even = (np.arange(sites) % 2 == 0).astype(float)
    samples: list[RwaSample] = []
    for ratio, period, scaled, m_periods in plan:
        propagators = {}  # one per distinct branch: the first and third coincide
        for span, h, gradient in dict.fromkeys(scaled._schedule):
            forward = kappa * cmath.exp(-1j * gradient)
            diag = scaled.drive_amplitude * h * even
            generator = _dense(_bands(sites, forward, forward.conjugate(), diag=diag))
            propagators[span, h, gradient] = _checked(
                "branch propagator", _expm, -1j * span * generator
            )
        y = np.asarray(c0.amps, dtype=complex)
        t = 0.0
        for _ in range(m_periods):
            for span, h, gradient in scaled._schedule:
                y = propagators[span, h, gradient] @ y
                t += span
                _guard_overflow(y, t, "shorten t_end or reduce |Im Gamma|")
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


def _laser_lattice(params: LaserParams, window: tuple[int, int]) -> tuple[LatticeSpec, dict]:
    """The forced lattice the laser emulates on the mode window, and the laser
    generator's cyclic diagonals: the lattice's bands with the gain profile
    i(gain - loss) - i dg n^2 added to the diagonal."""
    couplings = laser_effective_couplings(params)
    lattice = LatticeSpec(
        Geometry.InfiniteChain, kappa1=couplings.forward, kappa2=couplings.backward,
        force=params.detuning, window=window,
    )
    bands = _spec_bands(lattice)
    n = lattice.site_indices.astype(float)
    bands[0] = bands[0] + couplings.onsite_uniform + couplings.onsite_curvature * n**2
    return lattice, bands


def _laser_scale(params: LaserParams, lattice: LatticeSpec) -> float:
    """The fastest rate of the laser on ``lattice``, the forced lattice it
    emulates: the lattice's own, |gain - loss| and dg n^2 at the largest |n|."""
    extent = float(max(abs(lattice.offset), abs(lattice.offset + lattice.dim - 1)))
    return max(_dt_scale(lattice, None), abs(params.gain - params.loss), params.dg * extent**2)


def laser_hamiltonian(params: LaserParams, window: tuple[int, int]) -> HamiltonianMatrix:
    """Dense laser generator over the mode window [n_min, n_max]."""
    lattice, bands = _laser_lattice(params, window)
    return HamiltonianMatrix(entries=_dense(bands), offset=lattice.offset)


_EDGE_TOL = 1e-6  # largest share of the weight the two boundary modes may hold


def laser_evolve(params: LaserParams, c0: StateVector, cfg: EvolveConfig) -> StateTrajectory:
    """RK4 integration of the laser modal equations on c0's mode window.

    The generator is static, so each step is one product by the banded RK4
    step matrix.  The window has open boundaries, so results are
    trustworthy only while the wavepacket stays inside: an edge monitor
    aborts (:class:`EdgeLeakError`, a computation error) after any step that
    leaves more than 1e-6 of the total weight on the two boundary modes.
    The limit is fixed: pass a wider initial window instead.
    """
    lattice, bands = _laser_lattice(params, (c0.offset, c0.offset + len(c0) - 1))
    scale = _laser_scale(params, lattice)

    def edge_monitor(t: float, y: np.ndarray) -> None:
        boundary = float(abs(y[0]) ** 2 + abs(y[-1]) ** 2)
        if boundary == 0.0:  # no leak, whatever the total: skip its O(N) sum
            return
        flat = y.view(float)  # sum |c|^2 as one dot product: einsum wakes no BLAS thread
        total = float(np.einsum("i,i", flat, flat))
        if total == 0.0:
            return
        if boundary > _EDGE_TOL * total:
            raise EdgeLeakError(
                f"boundary modes hold {boundary / total:.3e} of the weight at "
                f"t = {t:.6g} (limit {_EDGE_TOL:g}); widen the mode window"
            )

    return _evolve(bands, None, c0, cfg, scale, "the laser scales", step_hook=edge_monitor)
