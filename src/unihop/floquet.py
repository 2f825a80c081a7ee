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
phase integral in closed form) and by integrating the monodromy matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _dt_scale, _integrate_rk4, _require_resolved
from .errors import ComputationError, ValidationError
from .lattice import Geometry, LatticeSpec, _lattice_deriv

__all__ = [
    "FluxDrive",
    "QuasiEnergyReport",
    "fold_quasi_energy",
    "quasi_energies_analytic",
    "monodromy",
]


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


def quasi_energies_analytic(
    kappa1: complex, drive: FluxDrive, constant_phase: bool = False
) -> QuasiEnergyReport:
    """Quasi-energies from the one-period average of the driven dispersion.

    mu_l = (kappa1 / T_B) e^{-i q_l} int_0^{T_B} e^{iFt} dt with
    q_l = 2 pi l / (N+1).  The phase integral (e^{iF T_B} - 1)/(iF) vanishes
    identically at T_B = 2 pi / F, so every mu_l collapses to 0; the integral
    is evaluated, not assumed.  ``constant_phase`` replaces e^{iFt} by 1 (the
    undriven limit), recovering the static ring spectrum kappa1 e^{-i q_l} --
    a testing hook for the integral plumbing.
    """
    kappa1 = complex(kappa1)
    if not (math.isfinite(kappa1.real) and math.isfinite(kappa1.imag)):
        raise ValidationError("kappa1 must be finite")
    t_b = drive.period
    force = drive.force
    if constant_phase:
        integral = complex(t_b)
    else:
        integral = (cmath.exp(1j * force * t_b) - 1.0) / (1j * force)
    q = 2.0 * np.pi * np.arange(drive.sites) / drive.sites
    mu = (kappa1 / t_b) * integral * np.exp(-1j * q)
    return QuasiEnergyReport(mu=fold_quasi_energy(mu, force))


def monodromy(spec: LatticeSpec, drive: FluxDrive, dt: float) -> QuasiEnergyReport:
    """One-period propagator of the flux-driven ring, integrated column-wise.

    The fundamental matrix Y(t) obeys dY/dt = -i H(t) Y with Y(0) = identity
    and H(t) = kappa1 e^{iFt} (forward bonds) + kappa2 e^{-iFt} (backward
    bonds); the Hermitian comparison mode kappa2 = conj(kappa1) phases the
    two directions oppositely and yields a unitary monodromy.  Quasi-energies
    are mu = i log(eig M) / T_B on the principal branch, folded into
    (-|F|/2, |F|/2].
    """
    if spec.geometry is not Geometry.Ring:
        raise ValidationError("monodromy requires Ring geometry")
    if spec.dim != drive.sites:
        raise ValidationError("drive.sites must match the ring size")
    if spec.force != 0.0:
        raise ValidationError("the ring flux supplies the force; set spec.force = 0")
    rate = drive.force
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError("dt must be positive and finite")
    _require_resolved(dt, _dt_scale(spec, rate), "the drive")
    dim = spec.dim

    _, states, _ = _integrate_rk4(
        _lattice_deriv(spec, rate),
        np.eye(dim, dtype=complex),
        drive.period,
        dt,
        record_every=10**9,
        renormalize=False,
    )
    m = states[-1]
    defect = float(np.max(np.abs(m - np.eye(dim))))
    eigenvalues = np.linalg.eigvals(m)
    if np.any(np.abs(eigenvalues) < 1e-300):
        raise ComputationError("monodromy is numerically singular")
    mu = 1j * np.log(eigenvalues) / drive.period
    return QuasiEnergyReport(
        mu=fold_quasi_energy(mu, rate),
        monodromy=m,
        monodromy_defect=defect,
    )
