"""Time evolution: exact kernels for the unidirectional lattice, fixed-step
RK4 for everything else, and Bloch-oscillation observables.

For kappa2 = 0 the chain propagator is known in closed form at any force F,

    U_{n,l}(t) = e^{-iFnt} z^{l-n} / (l-n)!   for l >= n,  0 otherwise,

with z = -i kappa1 Phi(t) and Phi(t) = int_0^t e^{-iFs} ds (Phi = t at F = 0):
the gauge c_n = e^{-iFnt} a_n leaves the hopping kappa1 e^{-iFt}, whose values
commute, so the first Magnus term is exact.  Amplitude injected at site l
spreads only toward decreasing n, and Phi(T_B) = 0 revives it exactly.  On a
ring (F = 0 only: a Stark term is not circulant) the kernel is the discrete
Bloch sum U_{n,l}(t) = (N+1)^{-1} sum_k exp[i q_k (n-l) - i E(q_k) t] with the
circulant symbol E(q) = kappa1 e^{iq} + kappa2 e^{-iq}, evaluated here by
FFT, so the F = 0 ring takes any kappa2.

The RK4 path integrates dc/dt = -i H(t) c with a uniform step chosen to land
exactly on t_end (and hence exactly on Bloch-period multiples when dt divides
the period), so revival diagnostics carry no sampling error.  One RK4 step of
size h from t is multiplication by a matrix P(t) = I + Delta(t).  H is
tridiagonal, and on the flux ring its diagonal k carries e^{ikFt}, so Delta
has at most nine cyclic diagonals and diagonal m of Delta(t) is a constant
band times e^{imFt} (a static H is the case F = 0).  Every RK4 path, the
static and flux evolutions, the laser and the flux-ring monodromy, takes its
step rule, step count, bands and growth bound from one :func:`_rk4_plan` and
each step as one gather-and-sum, over only the rows that the state's nonzero
range can reach where no band wraps, so a wavepacket pays for its support:
100 steps from a width-3 Gaussian on a two-way 10^5-site window take 0.09 s,
against 0.58 s with every step full (2-vCPU VM).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OverflowAbort, ValidationError
from .lattice import (
    Geometry,
    LatticeSpec,
    StateVector,
    _band_apply,
    _band_product,
    _band_reach,
    _check_state,
    _live,
    _require_memory,
    _ring_symbol,
    _spec_bands,
)

__all__ = [
    "EvolveConfig",
    "StateTrajectory",
    "evolve_closed_form",
    "evolve_rk4",
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
    def site_indices(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.amps.shape[1])


def single_site_state(spec: LatticeSpec, n0: int) -> StateVector:
    """Unit excitation at absolute site n0."""
    _require_memory(16 * spec.dim, f"a {spec.dim}-site state")
    amps = np.zeros(spec.dim, dtype=complex)
    i = n0 - spec.offset
    if not 0 <= i < spec.dim:
        raise ValidationError(f"site {n0} is outside the lattice")
    amps[i] = 1.0
    return StateVector(offset=spec.offset, amps=amps)


def gaussian_state(spec: LatticeSpec, center: float, width: float) -> StateVector:
    """Gaussian wavepacket c_n = exp[-(n-center)^2 / width^2] (unnormalized).

    The width convention divides by width^2 (not 2 width^2); the center may
    fall between sites.  The exponent is ((n - center) / width)^2, so a
    width whose square underflows still peaks at 1 on a site at the center;
    a width so narrow that every amplitude underflows to 0 is refused.
    """
    if not (math.isfinite(center) and math.isfinite(width)) or width <= 0:
        raise ValidationError("gaussian needs finite center and positive width")
    _require_memory(16 * spec.dim, f"a {spec.dim}-site state")
    n = spec.site_indices.astype(float)
    with np.errstate(over="ignore"):  # an overflowing ratio gives amplitude exp(-inf) = 0
        amps = np.exp(-(((n - center) / width) ** 2)).astype(complex)
    if not amps.any():
        raise ValidationError(
            f"width = {width!r} is too narrow for the gaussian at center {center!r}: "
            "every amplitude underflows to 0"
        )
    return StateVector(offset=spec.offset, amps=amps)


_log_factorial_table = np.zeros(1)


def _log_factorials(count: int) -> np.ndarray:
    """log j! for j = 0..count-1 from ``math.lgamma``, sliced from a table
    that at least doubles whenever a larger count is asked for."""
    global _log_factorial_table
    if count > _log_factorial_table.size:
        size = max(count, 2 * _log_factorial_table.size)
        _log_factorial_table = np.array([math.lgamma(j + 1.0) for j in range(size)])
        _log_factorial_table.setflags(write=False)
    return _log_factorial_table[:count]


def _factorial_powers(z: complex, count: int) -> np.ndarray:
    """The kernel z^j / j! for j = 0..count-1 (the indicator of j = 0 at z = 0).

    Evaluated through exp(j log z - log j!) so large j neither overflow nor
    lose the factorial cancellation.  It is the closed-form propagator with
    z = -i kappa1 Phi(t) and the Wannier-Stark amplitude with z = kappa1/F.
    """
    j = np.arange(count)
    if z == 0:
        return (j == 0).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
        return np.exp(j * cmath.log(z) - _log_factorials(count))


def _guard_overflow(amps: np.ndarray, t: float, remedy: str) -> float:
    """The overflow guard: abort once max|c| exceeds 1e150 or is not finite,
    and return max|c| otherwise.

    ``remedy`` is the caller's way out, appended to the message.
    """
    peak = float(np.abs(amps).max())
    if not math.isfinite(peak) or peak > _OVERFLOW_LIMIT:
        raise OverflowAbort(f"amplitude overflow (max|c| > 1e150) at t = {t:.6g}; {remedy}")
    return peak


def _distance(amps: np.ndarray, reference: np.ndarray, renormalized: bool) -> np.ndarray:
    """The ``revival`` distance of each row c of ``amps`` from c0 = ``reference``:
    ||c - c0|| / ||c0||, or with ``renormalized`` the projective infidelity
    1 - |<c0|c>| / (|c0||c|), taken as 1 for a zero row."""
    ref_norm = float(np.linalg.norm(reference))
    if renormalized:
        overlaps = np.abs(amps @ reference.conj())
        norms = np.sqrt(np.sum(np.abs(amps) ** 2, axis=1)) * ref_norm
        return 1.0 - np.where(norms > 0, overlaps / norms, 0.0)
    return np.linalg.norm(amps - reference[None, :], axis=1) / ref_norm


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
    if log_scale is None:
        log_scale = np.zeros(times.size)
    return StateTrajectory(
        times=times,
        amps=amps,
        offset=offset,
        com=com,
        weight=weight,
        revival=_distance(amps, reference, renormalized),
        log_scale=log_scale,
        renormalized=renormalized,
    )


def _require_records(records: int, dim: int) -> None:
    """Refuse a trajectory of ``records`` states of ``dim`` sites before it is
    allocated when it exceeds physical memory: 48 bytes per recorded amplitude,
    16 for the record and 32 for the work arrays of its ``revival`` distance
    (the tracemalloc peak grows by 48.0 bytes per record and site for the
    closed form and RK4 alike)."""
    _require_memory(48 * records * dim, f"{records} recorded states of {dim} sites")


def _rk4_records(n_steps: int, record_every: int, dim: int) -> int:
    """The records of an RK4 run (step 0, every ``record_every``-th step and
    the last), checked by :func:`_require_records`; the CLI check steps call it."""
    records = 1 + n_steps // record_every + (n_steps % record_every != 0)
    _require_records(records, dim)
    return records


def _closed_form_refusals(spec: LatticeSpec, c0: StateVector) -> None:
    """The refusals of :func:`evolve_closed_form` that need no sample times."""
    if spec.kappa2 != 0j and spec.geometry is not Geometry.Ring:
        raise ValidationError("closed form requires kappa2 = 0; use evolve_rk4")
    if spec.force != 0.0 and spec.geometry is Geometry.Ring:
        raise ValidationError("closed form on a ring requires F = 0; use evolve_rk4")
    _check_state(spec, c0)
    if c0.norm() == 0.0:
        raise ValidationError("initial state must be nonzero")


def evolve_closed_form(spec: LatticeSpec, c0: StateVector, times) -> StateTrajectory:
    """Exact evolution of the unidirectional chain (kappa2 = 0) and the free ring.

    Chains and windows take any force F.  They apply the triangular factorial
    kernel at z = -i kappa1 Phi(t) as a convolution over the initial support
    and the kernel's nonzero terms, so no N x N matrix is formed (site 0
    truncates the flow; sites above the initial support stay exactly zero),
    then the gauge e^{-iFnt} on absolute sites n.  Phi is evaluated as
    (2/F) sin(Ft/2) e^{-iFt/2}, accurate as F -> 0, and is exactly t at F = 0.
    The ring (F = 0 only, any kappa2) applies the Bloch kernel of its symbol
    via FFT.  As for RK4, growth beyond max|c| > 1e150 at any requested time
    aborts with :class:`OverflowAbort`, and a trajectory larger than physical
    memory is refused before it is allocated.
    """
    _closed_form_refusals(spec, c0)
    force = spec.force
    t_arr = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(t_arr)):
        raise ValidationError("times must be finite")
    if t_arr.size > 1 and not np.all(np.diff(t_arr) > 0):
        raise ValidationError("times must be strictly increasing")

    dim = spec.dim
    _require_records(t_arr.size, dim)
    out = np.zeros((t_arr.size, dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow guard decides
        if spec.geometry is Geometry.Ring:
            _, energies = _ring_symbol(spec)
            spectrum = np.fft.fft(c0.amps)
            for i, t in enumerate(t_arr):
                out[i] = np.fft.ifft(spectrum * np.exp(-1j * energies * t))
        else:
            # c_n(t) = e^{-iFnt} sum_j u_j c0_{n+j} with u_j = z^j / j!; only
            # sites up to the top of the initial support [lo, hi] are reached
            support = np.flatnonzero(c0.amps)
            lo, hi = int(support[0]), int(support[-1])
            reversed_support = c0.amps[lo : hi + 1][::-1]
            phis = t_arr  # Phi(t), in the half-angle form for F != 0
            if force != 0.0:
                phis = 2.0 / force * np.sin(0.5 * force * t_arr) * np.exp(-0.5j * force * t_arr)
            for i, (t, phi) in enumerate(zip(t_arr, phis)):
                u = _factorial_powers(-1j * spec.kappa1 * phi, hi + 1)
                u = u[: np.flatnonzero(u)[-1] + 1]
                row = np.convolve(reversed_support, u)[: hi + 1][::-1]  # sites hi+1-size..hi
                reached = slice(hi + 1 - row.size, hi + 1)
                if force != 0.0:
                    row = row * np.exp(-1j * force * t * spec.site_indices[reached])
                out[i, reached] = row
    for t, row in zip(t_arr, out):
        _guard_overflow(row, t, _RENORMALIZE)
    return _observables(t_arr, out, spec.offset, np.asarray(c0.amps), None, False)


def _dt_scale(spec: LatticeSpec, flux_rate: float | None) -> float:
    extent = max(spec.dim, abs(spec.offset), abs(spec.offset + spec.dim - 1))
    scale = max(abs(spec.kappa1), abs(spec.kappa2), abs(spec.force) * extent)
    if flux_rate is not None:
        scale = max(scale, abs(flux_rate))
    return scale


def _increment(bands: dict, rate: float | None, h: float) -> dict[int, np.ndarray]:
    """Cyclic diagonals of one RK4 step's increment Delta = P - I, the
    single place the four stages are written out.

    With A(s) = -i h H(s), the stages g1 = A(t), g2 = A(t+h/2)(1 + g1/2),
    g3 = A(t+h/2)(1 + g2/2) and g4 = A(t+h)(1 + g3) give
    Delta = (g1 + 2 g2 + 2 g3 + g4) / 6.  With ``rate`` = F diagonal k of H(s)
    carries e^{ikFs}, so every term on diagonal m carries e^{imFt}: the bands
    returned are those at t = 0, and diagonal m of the step at t is theirs
    times e^{imFt}.  Offsets stay unreduced (at most nine, -4..4), so each
    keeps its own phase even where two of them reach the same site.  For a
    static H (``rate`` None) Delta = A + A^2/2 + A^3/6 + A^4/24.
    """

    def generator(s: float) -> dict[int, np.ndarray]:
        return {k: -1j * h * cmath.exp(1j * k * (rate or 0.0) * s) * d for k, d in bands.items()}

    def stage(a: dict, g: dict, c: float) -> dict[int, np.ndarray]:
        """a (1 + c g) in band form."""
        out = {k: c * d for k, d in _band_product(a, g).items()}
        for k, d in a.items():
            out[k] = out[k] + d if k in out else d
        return out

    a_mid = generator(0.5 * h)
    g1 = generator(0.0)
    g2 = stage(a_mid, g1, 0.5)
    g3 = stage(a_mid, g2, 0.5)
    g4 = stage(generator(h), g3, 1.0)
    return {  # g4 holds every offset of the others
        k: (g1.get(k, 0.0) + 2.0 * g2.get(k, 0.0) + 2.0 * g3.get(k, 0.0) + g4[k]) / 6.0
        for k in g4
    }


def _step_count(t_end: float, dt: float, scale: float, what: str) -> int:
    """The RK4 step count n_steps = ceil(t_end / dt) under the step rule
    dt <= 0.05 / ``scale``, the fastest rate (``what`` names it); a run to
    t_end = 0 takes no step and meets no rule.  The CLI check steps call it too."""
    if t_end == 0.0:
        return 0
    if scale > 0 and dt > 0.05 / scale * (1.0 + 1e-12):
        raise ValidationError(
            f"dt = {dt:.3g} does not resolve {what} (need dt <= {0.05 / scale:.3g})"
        )
    steps = t_end / dt * (1.0 - 1e-12)
    if not math.isfinite(steps):
        raise ValidationError(f"t_end / dt = {t_end:.6g} / {dt:.6g} is too many steps to take")
    return max(1, math.ceil(steps))


def _rk4_plan(bands: dict, rate: float | None, t_end: float, dt: float, scale: float, what: str):
    """The plan of every RK4 run: (n_steps, h, Delta, growth).

    n_steps comes from :func:`_step_count`, and the uniform steps
    h = t_end / n_steps <= dt land on t_end; Delta are the bands of
    :func:`_increment` at h, built from the live diagonals of H
    (:func:`_live`), so a one-way lattice takes no product of its all-zero
    band.  Peierls phases have modulus 1, so
    max|(I + Delta(t)) y| <= growth max|y| at every t, with growth (a numpy
    float: a huge power is inf) the largest row sum
    |1 + Delta_0| + sum_{m != 0} |Delta_m| times 1 + 1e-12 for rounding.
    """
    n_steps = _step_count(t_end, dt, scale, what)
    h = t_end / n_steps
    delta = _increment(_live(bands), rate, h)
    rows = sum(np.abs(d) for m, d in delta.items() if m != 0) + np.abs(delta[0] + 1.0)
    return n_steps, h, delta, (1.0 + 1e-12) * rows.max()


def _evolve(
    bands: dict, rate: float | None, c0: StateVector, cfg: EvolveConfig,
    scale: float, what: str, step_hook=None,
) -> StateTrajectory:
    """Fixed-step RK4 of dc/dt = -i H(t) c from c0, landing exactly on t_end.

    H(t) has the cyclic diagonals ``bands``, diagonal k phased by e^{ikFt}
    with ``rate`` = F (static for None).  The state must be nonzero; the step
    rule (``scale``, ``what``), steps, increment and growth bound come from
    :func:`_rk4_plan`, and I + Delta is built once, with I folded into offset
    0 (phase 1), so each step is one gather-and-sum at t_n.  Unless I + Delta
    wraps (a ring), a step computes only the rows that its live offsets reach
    from the state's nonzero range, and the rows outside stay exact zeros;
    once those rows span the lattice, every later step is the full one.  A
    trajectory larger than physical memory is refused before the first
    step.  Without ``renormalize`` the overflow guard aborts once max|c|
    exceeds 1e150 (secular non-Hermitian growth is physical) and names that
    option.  ``step_hook``, when given, is called with (t, y) after every step.
    """
    if c0.norm() == 0.0:
        raise ValidationError("initial state must be nonzero")
    y0 = np.asarray(c0.amps)
    if cfg.t_end == 0.0:
        return _observables(np.zeros(1), y0[None, :], c0.offset, y0, None, cfg.renormalize)
    n_steps, h, delta, growth = _rk4_plan(bands, rate, cfg.t_end, cfg.dt, scale, what)
    dim = y0.size
    records = _rk4_records(n_steps, cfg.record_every, dim)
    step_bands = {**delta, 0: delta[0] + 1.0}
    advance = _band_apply(step_bands, rate)
    # y is zero outside [first, last], and row i of a step reads
    # y[i + reach[0] .. i + reach[1]]; reach None means full steps
    reach = _band_reach(step_bands)
    support = np.flatnonzero(y0)
    first, last = int(support[0]), int(support[-1])
    # The guard measures max|c| only once the running bound growth^n on it
    # could pass the limit (a finite bound rules out inf and NaN too) and
    # restarts the bound from that peak.
    bound = float(np.abs(y0).max())
    y, log_scale = y0, 0.0
    amps = np.empty((records, dim), dtype=complex)
    amps[0] = y0
    times, logs, r = np.zeros(records), np.zeros(records), 1
    for step in range(n_steps):
        if reach is not None:
            lo, hi = max(first - reach[1], 0), min(last - reach[0], dim - 1)
            if lo == 0 and hi == dim - 1:
                reach = None
        if reach is None:
            y = advance(step * h, y)
        else:
            y = advance(step * h, y, slice(lo, hi + 1))
            nonzero = y[lo : hi + 1].nonzero()[0]
            if nonzero.size:
                first, last = lo + int(nonzero[0]), lo + int(nonzero[-1])
        t_next = (step + 1) * h
        if cfg.renormalize:
            norm = float(np.linalg.norm(y))
            if norm == 0.0 or not math.isfinite(norm):
                raise OverflowAbort(f"state norm degenerate at t = {t_next:.6g}")
            y = y / norm
            log_scale += math.log(norm)
        else:
            bound *= growth
            if not bound <= _OVERFLOW_LIMIT:
                bound = _guard_overflow(y, t_next, _RENORMALIZE)
        if step_hook is not None:
            step_hook(t_next, y)
        if (step + 1) % cfg.record_every == 0 or step + 1 == n_steps:
            amps[r], times[r], logs[r] = y, t_next, log_scale
            r += 1
    return _observables(times, amps, c0.offset, y0, logs, cfg.renormalize)


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
    t_end/n_steps <= dt is then used so the final time is hit exactly.  Each
    step, with or without ``flux_rate``, is one product by the banded step
    matrix of :func:`_increment`, over the rows the state's nonzero range can
    reach (all N of them on a ring); see :func:`_evolve`.
    """
    _check_state(spec, c0, flux_rate)
    return _evolve(
        _spec_bands(spec), flux_rate, c0, cfg, _dt_scale(spec, flux_rate), "the fastest scale"
    )


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
    """The ``revival`` observable at t = period: ||c(period) - c(0)|| / ||c(0)||,
    or for a renormalized trajectory, whose raw amplitudes are not comparable
    across times, the projective infidelity 1 - |<c(0)|c(period)>| /
    (|c(0)||c(period)|).  Between records the states are interpolated linearly.
    """
    if not (math.isfinite(period) and period > 0):
        raise ValidationError("period must be positive and finite")
    start = _interp_state(traj, 0.0)
    if not np.any(start):
        raise ValidationError("revival undefined for a zero initial state")
    end = _interp_state(traj, period)
    return float(_distance(end[None, :], start, traj.renormalized)[0])
