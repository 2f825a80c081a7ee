"""Floquet analysis of the flux-threaded unidirectional ring.

A magnetic flux ramped linearly in time through an (N+1)-site ring enters as
a global Peierls phase on the hopping, i dc_n/dt = kappa1 e^{iFt} c_{n+1}
(cyclic), with F = 2 pi Phi0 / (N+1) for a ramp rate of Phi0 flux quanta per
unit time.  The drive is periodic with the Bloch period T_B = 2 pi / |F|.  For
the unidirectional ring all H(t) are scalar multiples of one matrix, so the
one-period propagator is

    M = exp( -i kappa1 C int_0^{T_B} e^{iFt} dt ) = exp(0) = identity:

every quasi-energy collapses to mu = 0 and any initial state revives exactly
once per period.  This module computes that collapse both analytically (the
phase integral in closed form) and by RK4.  Every H(t) is circulant, so each
banded RK4 step (:mod:`unihop.dynamics`) multiplies each Bloch mode by a scalar
factor, one contraction gives a block of them, and M follows from their products.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _OVERFLOW_LIMIT, _dt_scale, _guard_overflow, _rk4_plan, _step_count
from .errors import ComputationError, ValidationError
from .lattice import Geometry, LatticeSpec, _require_finite_complex, _require_memory, _spec_bands

__all__ = [
    "FluxDrive",
    "QuasiEnergyReport",
    "fold_quasi_energy",
    "quasi_energies_analytic",
    "monodromy",
]

_REMEDY = "quasi_energies_analytic gives the unidirectional ring's monodromy exactly"


@dataclass(frozen=True)
class FluxDrive:
    """Linear flux ramp through an (N+1)-site ring.

    ``phi0_rate`` is the ramp rate in flux quanta per unit time; the induced
    force is F = 2 pi phi0_rate / sites and the Bloch period T_B = 2 pi / |F|
    (a duration, so it stays positive for a reversed ramp).
    """

    phi0_rate: float
    sites: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi0_rate) or self.phi0_rate == 0.0:
            raise ValidationError("phi0_rate must be finite and nonzero")
        if int(self.sites) != self.sites or self.sites < 2:
            raise ValidationError("a ring needs an integer sites >= 2")
        object.__setattr__(self, "sites", int(self.sites))
        if not (math.isfinite(self.force) and self.force != 0.0 and math.isfinite(self.period)):
            raise ValidationError(
                f"phi0_rate = {self.phi0_rate!r} gives the force 2 pi phi0_rate / sites = "
                f"{self.force!r}; it and the Bloch period must be finite and nonzero"
            )

    @property
    def force(self) -> float:
        return 2.0 * math.pi * self.phi0_rate / self.sites

    @property
    def period(self) -> float:
        return 2.0 * math.pi / abs(self.force)


@dataclass(frozen=True)
class QuasiEnergyReport:
    """Quasi-energies, optional monodromy matrix, and its defect from identity.

    ``mu`` is folded so Re mu lies in (-|F|/2, |F|/2]; the imaginary part
    (growth/decay per period) is reported as computed.  ``monodromy`` and
    ``monodromy_defect`` (max-norm of M - identity) are present only when the
    monodromy was actually integrated.
    """

    mu: np.ndarray
    monodromy: np.ndarray | None = None
    monodromy_defect: float | None = None

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=complex)
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


def fold_quasi_energy(mu, force: float):
    """Fold Re mu into the principal strip (-|F|/2, |F|/2] (idempotent)."""
    if force == 0.0:
        raise ValidationError("folding needs a nonzero force")
    width = abs(force)
    mu = np.asarray(mu, dtype=complex)
    re = mu.real - width * np.round(mu.real / width)
    re = np.where(re <= -width / 2.0, re + width, re)
    re = np.where(re > width / 2.0, re - width, re)
    return re + 1j * mu.imag


def quasi_energies_analytic(kappa1: complex, drive: FluxDrive) -> QuasiEnergyReport:
    """Quasi-energies from the one-period average of the driven dispersion.

    mu_l = (E(q_l) / T_B) int_0^{T_B} e^{iFt} dt with q_l = 2 pi l / (N+1)
    and the Bloch dispersion E(q) = kappa1 e^{iq}, so the modes come in the
    order of :func:`monodromy`.  The phase integral (e^{iF T_B} - 1)/(iF)
    vanishes identically at T_B = 2 pi / F, so every mu_l collapses to 0; the
    integral is evaluated, not assumed.
    """
    kappa1 = _require_finite_complex("kappa1", kappa1)
    t_b = drive.period
    force = drive.force
    integral = (cmath.exp(1j * force * t_b) - 1.0) / (1j * force)
    q = 2.0 * np.pi * np.arange(drive.sites) / drive.sites
    mu = (kappa1 / t_b) * integral * np.exp(1j * q)
    return QuasiEnergyReport(mu=fold_quasi_energy(mu, force))


def _bloch_products(spec: LatticeSpec, rate: float, t_end: float, dt: float) -> np.ndarray:
    """RK4 on each Bloch mode q_l = 2 pi l / N of the flux ring, from 1: Lambda_l(t_end).

    The ring's cyclic diagonals are constant, so the RK4 step at t_n multiplies mode q_l by
    1 + sum_m Delta_m e^{imF t_n} e^{im q_l}, with the step rule, steps, Delta_m and growth
    bound from :func:`_rk4_plan`; per block of steps, sized so that neither the step-order
    phase table nor the step-mode factor table passes 2^14 entries: phases from cos and sin
    (half a complex exp's cost), factors from one ``einsum`` (no BLAS threads), Lambda_l
    from one ``cumprod``.
    Delta_0 carries no phase, so |factor| <= growth, and the guard scans a block only once
    growth^n could pass 1e150; it checks the final product.
    """
    n_steps, h, delta, growth = _rk4_plan(
        _spec_bands(spec), rate, t_end, dt, _dt_scale(spec, rate), "the drive"
    )
    orders = np.array([m for m in sorted(delta) if np.any(delta[m])])
    weights = np.array([delta[m][0] for m in orders])
    waves = np.exp(1j * orders[:, None] * (2.0 * np.pi * np.arange(spec.dim) / spec.dim))
    block = max(1, 2**14 // max(spec.dim, orders.size))
    product, bound = np.ones(spec.dim, dtype=complex), 1.0
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        angles = orders * (rate * h * np.arange(start, stop)[:, None])
        phases = weights * np.stack((np.cos(angles), np.sin(angles)), -1).view(complex)[..., 0]
        factors = 1.0 + np.einsum("nk,kl->nl", phases, waves)
        factors[0] *= product
        with np.errstate(over="ignore", invalid="ignore"):  # the guard decides
            running = np.cumprod(factors, axis=0)
            bound = bound * growth ** (stop - start)
            if not bound <= _OVERFLOW_LIMIT:
                over = np.flatnonzero(~(np.abs(running).max(axis=1) <= _OVERFLOW_LIMIT))
                n = over[0] if over.size else stop - start - 1
                bound = _guard_overflow(running[n], (start + n + 1) * h, _REMEDY)
        product = running[-1]
    _guard_overflow(product, n_steps * h, _REMEDY)
    return product


def _monodromy_refusals(spec: LatticeSpec, drive: FluxDrive, dt: float) -> None:
    """The refusals of :func:`monodromy`: the physical-memory check of M comes
    before the step rule of :func:`_bloch_products`."""
    if spec.geometry is not Geometry.Ring:
        raise ValidationError("monodromy requires Ring geometry")
    if spec.dim != drive.sites:
        raise ValidationError("drive.sites must match the ring size")
    if spec.force != 0.0:
        raise ValidationError("the ring flux supplies the force; set spec.force = 0")
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError("dt must be positive and finite")
    _require_memory(16 * spec.dim**2, f"a dense {spec.dim} x {spec.dim} monodromy")
    _step_count(drive.period, dt, _dt_scale(spec, drive.force), "the drive")


def monodromy(spec: LatticeSpec, drive: FluxDrive, dt: float) -> QuasiEnergyReport:
    """One-period propagator M of the flux-driven ring, from its Bloch modes.

    H(t) = kappa1 e^{iFt} (forward bonds) + kappa2 e^{-iFt} (backward bonds);
    kappa2 = conj(kappa1) is the unitary Hermitian comparison.  Without a
    Stark term every H(t) is circulant, so one period of RK4 multiplies Bloch
    mode q_l by Lambda_l (:func:`_bloch_products`, with the step rule for the
    drive).  M is the circulant matrix of ifft(Lambda), and mu_l = i
    log(Lambda_l) / T_B on the principal branch, folded into (-|F|/2, |F|/2],
    in the q order of :func:`quasi_energies_analytic`.
    """
    _monodromy_refusals(spec, drive, dt)
    products = _bloch_products(spec, drive.force, drive.period, dt)
    if np.any(np.abs(products) < 1e-300):
        raise ComputationError("monodromy is numerically singular")
    i = np.arange(spec.dim)
    m = np.fft.ifft(products)[(i[:, None] - i) % spec.dim]  # circulant: M[i, j] = col[i - j]
    return QuasiEnergyReport(
        mu=fold_quasi_energy(1j * np.log(products) / drive.period, drive.force),
        monodromy=m,
        monodromy_defect=float(np.max(np.abs(m - np.eye(spec.dim)))),
    )
