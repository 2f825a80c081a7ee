"""Time evolution: exact kernels for the unidirectional lattice, fixed-step
RK4 for everything else, and Bloch-oscillation observables.

For kappa2 = 0 and F = 0 the propagator is known in closed form,

    U_{n,l}(t) = (-i kappa1 t)^{l-n} / (l-n)!   for l >= n,  0 otherwise,

an upper-triangular Toeplitz kernel: amplitude injected at site l spreads
only toward decreasing n, with secular growth |kappa1 t|^j / j! instead of
the dispersive decay of a Hermitian lattice.  On a ring the kernel is the
discrete Bloch sum U_{n,l}(t) = (N+1)^{-1} sum_k exp[i q_k (n-l) - i E(q_k) t]
with E(q) = kappa1 e^{iq}, evaluated here by FFT.

The RK4 path integrates dc/dt = -i H(t) c with a uniform step chosen to land
exactly on t_end (and hence exactly on Bloch-period multiples when dt divides
the period), so revival diagnostics carry no sampling error.  For a static
generator one RK4 step of size h is exactly multiplication by the stability
polynomial P = sum_{k<=4} (-i h H)^k / k!, which for tridiagonal H has nine
cyclic diagonals: static runs build P once in band form and take each step as
one O(N) gather-and-sum.  The time-dependent flux ring takes the staged
four-stage step, each stage one O(N) gather-and-sum of the phased diagonals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import OverflowAbort, ValidationError
from .lattice import (
    Geometry,
    LatticeSpec,
    StateVector,
    _band_apply,
    _band_product,
    _check_state,
    _lattice_deriv,
    _spec_bands,
)

__all__ = [
    "EvolveConfig",
    "StateTrajectory",
    "propagator_entry_unidirectional",
    "evolve_closed_form",
    "evolve_rk4",
    "center_of_mass",
    "revival_error",
    "single_site_state",
    "gaussian_state",
]

_OVERFLOW_LIMIT = 1e150
_RENORMALIZE = "secular growth can be followed by RK4 with renormalize=True"


@dataclass(frozen=True)
class EvolveConfig:
    """Integration control parameters.

    ``t_end`` may be 0, in which case only the initial state is recorded.
    ``dt`` is an upper bound on the step; the actual step is t_end/n_steps
    with n_steps = ceil(t_end/dt), uniform over the run.  ``record_every``
    thins the stored trajectory to every k-th step (step 0 and the final
    step are always kept).  With ``renormalize`` the state is rescaled to
    unit norm after every step and the accumulated log-scale factor is
    recorded, which sidesteps the overflow guard during secular growth.
    """

    t_end: float
    dt: float
    record_every: int = 1
    renormalize: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValidationError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError(f"dt must be finite and positive, got {self.dt!r}")
        if self.t_end > 0.0 and self.dt > self.t_end * (1.0 + 1e-12):
            raise ValidationError("dt must not exceed t_end")
        if int(self.record_every) != self.record_every or self.record_every < 1:
            raise ValidationError("record_every must be a positive integer")
        object.__setattr__(self, "record_every", int(self.record_every))


@dataclass(frozen=True)
class StateTrajectory:
    """Recorded states plus derived observables.

    Row i of ``amps`` is the state at ``times[i]``; column j is absolute site
    ``offset + j``.  Observables per record: ``com`` (center of mass
    <n> = sum n|c_n|^2 / sum |c_n|^2, NaN for an all-zero record), ``weight``
    (sum |c_n|^2), and ``revival`` (distance to the initial state; see
    :func:`revival_error`).  When produced with renormalization, ``amps``
    holds unit-norm states, ``log_scale`` the accumulated log of the removed
    amplitude factor, and ``revival`` the projective infidelity
    1 - |<c(0)|c(t)>| / (|c(0)||c(t)|), which is scale- and phase-invariant.
    """

    times: np.ndarray
    amps: np.ndarray
    offset: int
    com: np.ndarray
    weight: np.ndarray
    revival: np.ndarray
    log_scale: np.ndarray
    renormalized: bool = False

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        amps = np.asarray(self.amps, dtype=complex)
        if times.ndim != 1 or amps.ndim != 2 or amps.shape[0] != times.size:
            raise ValidationError("trajectory arrays are inconsistent")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValidationError("trajectory times must be strictly increasing")
        for name in ("times", "amps", "com", "weight", "revival", "log_scale"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.times.size

    @property
    def states(self) -> list[StateVector]:
        return [StateVector(offset=self.offset, amps=row) for row in self.amps]

    def state(self, i: int) -> StateVector:
        return StateVector(offset=self.offset, amps=self.amps[i])

    @property
    def site_indices(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.amps.shape[1])


def single_site_state(spec: LatticeSpec, n0: int) -> StateVector:
    """Unit excitation at absolute site n0."""
    amps = np.zeros(spec.dim, dtype=complex)
    i = n0 - spec.offset
    if not 0 <= i < spec.dim:
        raise ValidationError(f"site {n0} is outside the lattice")
    amps[i] = 1.0
    return StateVector(offset=spec.offset, amps=amps)


def gaussian_state(spec: LatticeSpec, center: float, width: float) -> StateVector:
    """Gaussian wavepacket c_n = exp[-(n-center)^2 / width^2] (unnormalized).

    The width convention divides by width^2 (not 2 width^2); the center may
    fall between sites.
    """
    if not (math.isfinite(center) and math.isfinite(width)) or width <= 0:
        raise ValidationError("gaussian needs finite center and positive width")
    n = spec.site_indices.astype(float)
    amps = np.exp(-((n - center) ** 2) / width**2).astype(complex)
    return StateVector(offset=spec.offset, amps=amps)


def _factorial_powers(z: complex, j) -> np.ndarray:
    """The kernel z^j / j! for integers j >= 0 (the indicator of j = 0 at z = 0).

    Evaluated through exp(j log z - lgamma(j+1)) so large j neither overflow
    nor lose the factorial cancellation.  It is the closed-form propagator
    with z = -i kappa1 t and the Wannier-Stark amplitude with z = kappa1/F.
    """
    j = np.asarray(j, dtype=float)
    if z == 0:
        return (j == 0).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
        return np.exp(j * cmath.log(z) - gammaln(j + 1.0))


def _guard_overflow(amps: np.ndarray, t: float, remedy: str) -> None:
    """The overflow guard: abort once max|c| exceeds 1e150 or is not finite.

    ``remedy`` is the caller's way out, appended to the message.
    """
    peak = float(np.abs(amps).max())
    if not math.isfinite(peak) or peak > _OVERFLOW_LIMIT:
        raise OverflowAbort(f"amplitude overflow (max|c| > 1e150) at t = {t:.6g}; {remedy}")


def propagator_entry_unidirectional(kappa1: complex, t: float, n: int, l: int) -> complex:
    """Matrix element U_{n,l}(t) = (-i kappa1 t)^{l-n} / (l-n)! (0 for l < n).

    An entry beyond the floating-point range raises :class:`OverflowAbort`.
    """
    if l < n:
        return 0j
    if l == n:
        return 1.0 + 0j  # the diagonal is exactly 1, as in the chain kernel
    value = complex(_factorial_powers(-1j * complex(kappa1) * t, l - n))
    if not cmath.isfinite(value):
        raise OverflowAbort(f"propagator entry U_{{{n},{l}}}({t:.6g}) overflows")
    return value


def _observables(
    times: np.ndarray,
    amps: np.ndarray,
    offset: int,
    reference: np.ndarray,
    log_scale: np.ndarray | None,
    renormalized: bool,
) -> StateTrajectory:
    sites = np.arange(offset, offset + amps.shape[1], dtype=float)
    weight = np.sum(np.abs(amps) ** 2, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        com = np.where(weight > 0, (np.abs(amps) ** 2) @ sites / weight, np.nan)
    ref_norm = float(np.linalg.norm(reference))
    if renormalized:
        overlaps = np.abs(amps @ reference.conj())
        norms = np.sqrt(weight) * ref_norm
        revival = 1.0 - np.where(norms > 0, overlaps / norms, 0.0)
    else:
        revival = np.linalg.norm(amps - reference[None, :], axis=1) / ref_norm
    if log_scale is None:
        log_scale = np.zeros(times.size)
    return StateTrajectory(
        times=times,
        amps=amps,
        offset=offset,
        com=com,
        weight=weight,
        revival=revival,
        log_scale=log_scale,
        renormalized=renormalized,
    )


def evolve_closed_form(spec: LatticeSpec, c0: StateVector, times) -> StateTrajectory:
    """Exact evolution of the free unidirectional lattice (kappa2 = 0, F = 0).

    Chain geometries apply the triangular factorial kernel as a convolution
    over the initial support and the kernel's nonzero terms, so no N x N
    matrix is formed (site 0 truncates the flow; sites above the initial
    support stay exactly zero).  The ring applies the discrete Bloch kernel
    via FFT.  As for RK4, growth beyond max|c| > 1e150 at any requested time
    aborts with :class:`OverflowAbort`.
    """
    if spec.kappa2 != 0j:
        raise ValidationError("closed form requires kappa2 = 0; use evolve_rk4")
    if spec.force != 0.0:
        raise ValidationError("closed form requires F = 0; use evolve_rk4")
    _check_state(spec, c0)
    if c0.norm() == 0.0:
        raise ValidationError("initial state must be nonzero")
    t_arr = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(t_arr)):
        raise ValidationError("times must be finite")
    if t_arr.size > 1 and not np.all(np.diff(t_arr) > 0):
        raise ValidationError("times must be strictly increasing")

    dim = spec.dim
    out = np.zeros((t_arr.size, dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow guard decides
        if spec.geometry is Geometry.Ring:
            q = 2.0 * np.pi * np.arange(dim) / dim
            energies = spec.kappa1 * np.exp(1j * q)
            spectrum = np.fft.fft(c0.amps)
            for i, t in enumerate(t_arr):
                out[i] = np.fft.ifft(spectrum * np.exp(-1j * energies * t))
        else:
            # c_n(t) = sum_j u_j c0_{n+j} with u_j = (-i kappa1 t)^j / j!; only
            # sites up to the top of the initial support [lo, hi] are reached
            support = np.flatnonzero(c0.amps)
            lo, hi = int(support[0]), int(support[-1])
            reversed_support = c0.amps[lo : hi + 1][::-1]
            for i, t in enumerate(t_arr):
                u = _factorial_powers(-1j * spec.kappa1 * float(t), np.arange(hi + 1))
                u = u[: np.flatnonzero(u)[-1] + 1]
                row = np.convolve(reversed_support, u)[: hi + 1]  # row[s] is site hi - s
                out[i, hi + 1 - row.size : hi + 1] = row[::-1]
    for t, row in zip(t_arr, out):
        _guard_overflow(row, t, _RENORMALIZE)
    return _observables(t_arr, out, spec.offset, np.asarray(c0.amps), None, False)


def _dt_scale(spec: LatticeSpec, flux_rate: float | None) -> float:
    extent = max(spec.dim, int(np.abs(spec.site_indices).max()))
    scale = max(abs(spec.kappa1), abs(spec.kappa2), abs(spec.force) * extent)
    if flux_rate is not None:
        scale = max(scale, abs(flux_rate))
    return scale


def _require_resolved(dt: float, scale: float, what: str) -> None:
    """The RK4 step rule: dt <= 0.05 / scale, with ``scale`` the fastest rate."""
    if scale > 0 and dt > 0.05 / scale * (1.0 + 1e-12):
        raise ValidationError(
            f"dt = {dt:.3g} does not resolve {what} (need dt <= {0.05 / scale:.3g})"
        )


def _step_count(t_end: float, dt: float) -> int:
    """The RK4 step count n = ceil(t_end / dt): h = t_end / n <= dt lands on t_end."""
    steps = t_end / dt * (1.0 - 1e-12)
    if not math.isfinite(steps):
        raise ValidationError(f"t_end / dt = {t_end:.6g} / {dt:.6g} is too many steps to take")
    return max(1, math.ceil(steps))


def _staged(deriv):
    """The four-stage RK4 step of deriv(t, y), as a stepper h -> step(t, y)."""

    def stepper(h: float):
        def step(t: float, y: np.ndarray) -> np.ndarray:
            k1 = deriv(t, y)
            k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = deriv(t + h, y + h * k3)
            return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        return step

    return stepper


def _polynomial(bands: dict):
    """The RK4 step of the static generator with cyclic diagonals ``bands``,
    as a stepper h -> step(t, y) = P y.

    P = sum_{k<=4} A^k / k! with A = -i h H is RK4's stability polynomial, so
    one product by P is exactly one four-stage step.  P is built once from
    band products and has at most nine diagonals.
    """

    def stepper(h: float):
        a = {k: -1j * h * d for k, d in bands.items()}
        p = term = {0: np.ones(bands[0].size, dtype=complex)}
        for order in range(1, 5):
            term = {k: d / order for k, d in _band_product(term, a).items()}
            p = {k: p.get(k, 0.0) + term.get(k, 0.0) for k in p.keys() | term.keys()}
        return _band_apply(p)

    return stepper


def _integrate_rk4(
    stepper,
    y0: np.ndarray,
    t_end: float,
    dt: float,
    record_every: int,
    renormalize: bool,
    step_hook=None,
):
    """Fixed-step RK4 with exact landing on t_end.

    ``stepper`` maps the uniform step h to step(t, y), the state one RK4 step
    after (t, y): :func:`_polynomial` for a static generator, :func:`_staged`
    for a time-dependent one.  Returns (times, states, log_scale) arrays of
    the recorded steps.  Without ``renormalize`` the overflow guard aborts
    once max|c| exceeds 1e150 (secular non-Hermitian growth is physical) and
    names that option.  ``step_hook``, when given, is called with (t, y)
    after every step.
    """
    if t_end == 0.0:
        return (
            np.zeros(1),
            y0[None, :].astype(complex),
            np.zeros(1),
        )
    n_steps = _step_count(t_end, dt)
    h = t_end / n_steps
    advance = stepper(h)
    y = y0.astype(complex)
    log_scale = 0.0
    rec_times = [0.0]
    rec_states = [y.copy()]
    rec_logs = [0.0]
    for step in range(n_steps):
        y = advance(step * h, y)
        t_next = (step + 1) * h
        if renormalize:
            scale = float(np.linalg.norm(y))
            if scale == 0.0 or not math.isfinite(scale):
                raise OverflowAbort(f"state norm degenerate at t = {t_next:.6g}")
            y = y / scale
            log_scale += math.log(scale)
        else:
            _guard_overflow(y, t_next, _RENORMALIZE)
        if step_hook is not None:
            step_hook(t_next, y)
        if (step + 1) % record_every == 0 or step + 1 == n_steps:
            rec_times.append(t_next)
            rec_states.append(y.copy())
            rec_logs.append(log_scale)
    return np.asarray(rec_times), np.asarray(rec_states), np.asarray(rec_logs)


def _evolve(
    stepper, c0: StateVector, cfg: EvolveConfig, scale: float, what: str, step_hook=None
) -> StateTrajectory:
    """The RK4 front end: nonzero state, step rule, integration, observables."""
    if c0.norm() == 0.0:
        raise ValidationError("initial state must be nonzero")
    if cfg.t_end > 0.0:
        _require_resolved(cfg.dt, scale, what)
    y0 = np.asarray(c0.amps)
    times, states, logs = _integrate_rk4(
        stepper, y0, cfg.t_end, cfg.dt, cfg.record_every, cfg.renormalize, step_hook
    )
    return _observables(times, states, c0.offset, y0, logs, cfg.renormalize)


def evolve_rk4(
    spec: LatticeSpec,
    c0: StateVector,
    cfg: EvolveConfig,
    flux_rate: float | None = None,
) -> StateTrajectory:
    """Fixed-step RK4 integration of dc/dt = -i H(t) c.

    The step must resolve the fastest scale present:
    dt <= 0.05 / max(|kappa1|, |kappa2|, |F|*extent, |flux_rate|) with extent
    the largest |site index| (or the dimension, if larger).  A uniform step
    t_end/n_steps <= dt is then used so the final time is hit exactly.
    Without ``flux_rate`` H is static and each step is one product by RK4's
    stability polynomial in band form, O(N); the flux ring takes the staged
    four-stage step of its phased diagonals, also O(N).
    """
    _check_state(spec, c0)
    if flux_rate is None:
        stepper = _polynomial(_spec_bands(spec))
    else:
        stepper = _staged(_lattice_deriv(spec, flux_rate))
    return _evolve(stepper, c0, cfg, _dt_scale(spec, flux_rate), "the fastest scale")


def center_of_mass(state: StateVector) -> float:
    """Wavepacket center <n> = sum_n n |c_n|^2 / sum_n |c_n|^2 (absolute sites)."""
    weights = np.abs(state.amps) ** 2
    total = float(weights.sum())
    if total == 0.0:
        raise ValidationError("center of mass undefined for a zero-norm state")
    return float(weights @ state.site_indices.astype(float) / total)


def _interp_state(traj: StateTrajectory, t: float) -> np.ndarray:
    times = traj.times
    if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
        raise ValidationError(
            f"trajectory covers [{times[0]:.6g}, {times[-1]:.6g}], cannot sample t={t:.6g}"
        )
    i = int(np.searchsorted(times, t))
    if i < times.size and abs(times[i] - t) <= 1e-12 * max(1.0, abs(t)):
        return traj.amps[i]
    if i > 0 and abs(times[i - 1] - t) <= 1e-12 * max(1.0, abs(t)):
        return traj.amps[i - 1]
    lo = min(max(i - 1, 0), times.size - 2)
    frac = (t - times[lo]) / (times[lo + 1] - times[lo])
    return (1.0 - frac) * traj.amps[lo] + frac * traj.amps[lo + 1]


def revival_error(traj: StateTrajectory, period: float) -> float:
    """Distance between the state at t = period and at t = 0.

    Returns ||c(period) - c(0)|| / ||c(0)|| from the nearest recorded states
    (linear interpolation between records when the period falls between
    them).  For a renormalized trajectory the projective infidelity
    1 - |<c(0)|c(period)>|/(|c(0)||c(period)|) is returned instead, since raw
    amplitudes are no longer comparable across times.
    """
    if not (math.isfinite(period) and period > 0):
        raise ValidationError("period must be positive and finite")
    start = _interp_state(traj, 0.0)
    end = _interp_state(traj, period)
    n0 = float(np.linalg.norm(start))
    if n0 == 0.0:
        raise ValidationError("revival undefined for a zero initial state")
    if traj.renormalized:
        n1 = float(np.linalg.norm(end))
        if n1 == 0.0:
            raise ValidationError("revival undefined for a zero final state")
        return 1.0 - abs(np.vdot(start, end)) / (n0 * n1)
    return float(np.linalg.norm(end - start) / n0)
