"""Lattice geometry definitions, Hamiltonian construction, and equations of motion.

The model is a one-dimensional tight-binding lattice with independent left and
right hopping amplitudes,

    H = sum_n ( kappa1 |n><n+1| + kappa2 |n+1><n| + F n |n><n| ),

so the amplitude equations read i dc_n/dt = kappa1 c_{n+1} + kappa2 c_{n-1}
+ F n c_n.  Unidirectional hopping is the kappa2 = 0 case: site n is driven
only by site n+1.  Three geometries are supported:

* ``FiniteChain`` -- sites 0..N with open ends (truncation makes the last
  amplitude obey i dc_N/dt = F N c_N only).
* ``Ring`` -- cyclic boundary, extra wrap entries H[N][0] = kappa1 and
  H[0][N] = kappa2.
* ``InfiniteChain`` -- represented on a finite window [n_min, n_max] with
  open (zero) amplitude outside.  For kappa2 = 0 amplitude flows only toward
  decreasing n, so a window whose upper edge sits above the initial support
  is exact; the Stark diagonal uses absolute site indices.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "Geometry",
    "LatticeSpec",
    "HamiltonianMatrix",
    "StateVector",
    "build_hamiltonian",
    "rhs",
]


class Geometry(enum.Enum):
    """Lattice geometry selector."""

    InfiniteChain = "infinite"
    FiniteChain = "chain"
    Ring = "ring"


def _require_finite_complex(name: str, value: complex) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _require_finite_real(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class LatticeSpec:
    """Immutable description of a lattice; single source of truth for H.

    Parameters
    ----------
    geometry:
        One of :class:`Geometry`.
    kappa1:
        Coefficient of c_{n+1} in the equation of motion (right-to-left
        hopping, H[n][n+1]).
    kappa2:
        Reverse hopping (H[n+1][n]); 0 selects the unidirectional case.
    force:
        dc force F per site; adds the Stark diagonal F*n.
    sites:
        Number of sites N+1 for FiniteChain/Ring; ignored for InfiniteChain.
    window:
        (n_min, n_max) inclusive site window for InfiniteChain.
    """

    geometry: Geometry
    kappa1: complex
    kappa2: complex = 0j
    force: float = 0.0
    sites: int | None = None
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa1", _require_finite_complex("kappa1", self.kappa1))
        object.__setattr__(self, "kappa2", _require_finite_complex("kappa2", self.kappa2))
        object.__setattr__(self, "force", _require_finite_real("force", self.force))
        if self.geometry is Geometry.InfiniteChain:
            if self.window is None:
                raise ValidationError("InfiniteChain requires a (n_min, n_max) window")
            n_min, n_max = self.window
            if int(n_min) != n_min or int(n_max) != n_max:
                raise ValidationError("window bounds must be integers")
            if not n_min < n_max:
                raise ValidationError(
                    f"window must satisfy n_min < n_max, got ({n_min}, {n_max})"
                )
            object.__setattr__(self, "window", (int(n_min), int(n_max)))
        else:
            if self.sites is None:
                raise ValidationError(f"{self.geometry.name} requires a site count")
            minimum = 2 if self.geometry is Geometry.Ring else 1
            if int(self.sites) != self.sites or self.sites < minimum:
                raise ValidationError(
                    f"{self.geometry.name} needs an integer sites >= {minimum}, "
                    f"got {self.sites!r}"
                )
            object.__setattr__(self, "sites", int(self.sites))

    @property
    def dim(self) -> int:
        """Matrix dimension: sites, or the window width for InfiniteChain."""
        if self.geometry is Geometry.InfiniteChain:
            n_min, n_max = self.window  # type: ignore[misc]
            return n_max - n_min + 1
        return self.sites  # type: ignore[return-value]

    @property
    def offset(self) -> int:
        """Absolute site index of matrix row/column 0."""
        if self.geometry is Geometry.InfiniteChain:
            return self.window[0]  # type: ignore[index]
        return 0

    @property
    def site_indices(self) -> np.ndarray:
        """Absolute site indices carried by the matrix basis."""
        return np.arange(self.offset, self.offset + self.dim)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense Hamiltonian over the Wannier basis, H[n][m] = <n|H|m>.

    Row/column i corresponds to absolute site index ``offset + i`` (offset is
    nonzero only for windowed infinite chains).
    """

    entries: np.ndarray
    offset: int = 0

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValidationError(f"entries must be square, got shape {entries.shape}")
        if not np.all(np.isfinite(entries.view(float))):
            raise ValidationError("Hamiltonian entries must be finite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes c_n over consecutive sites starting at ``offset``."""

    offset: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValidationError("state needs a 1-d amplitude array of length >= 1")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValidationError("state amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "offset", int(self.offset))

    def __len__(self) -> int:
        return self.amps.size

    @property
    def site_indices(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.amps.size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def amplitude(self, n: int) -> complex:
        """Amplitude at absolute site n (0 outside the stored range)."""
        i = n - self.offset
        if 0 <= i < self.amps.size:
            return complex(self.amps[i])
        return 0j


def _tridiagonal(dim: int, upper, lower, diag=0, wrap: bool = False) -> np.ndarray:
    """Dense dim x dim matrix with ``upper`` on H[n][n+1], ``lower`` on
    H[n+1][n] and ``diag`` on the diagonal; ``wrap`` adds the ring corners
    H[dim-1][0] = upper and H[0][dim-1] = lower.

    Entries accumulate into a zero matrix, so on a 2-site ring the chain bond
    and the wrap bond, which connect the same pair of sites, are summed.
    """
    h = np.zeros((dim, dim), dtype=complex)
    n = np.arange(dim - 1)
    h[n, n + 1] += upper
    h[n + 1, n] += lower
    h[np.diag_indices(dim)] += diag
    if wrap:
        h[dim - 1, 0] += upper
        h[0, dim - 1] += lower
    return h


def _stark_diagonal(spec: LatticeSpec) -> np.ndarray:
    return spec.force * spec.site_indices.astype(float)


def hop_parts(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split H into (forward kappa1 part, backward kappa2 part, Stark diagonal).

    The split exists so time-dependent Peierls phases can multiply the two
    hopping directions independently (flux-threaded ring: kappa1 -> kappa1
    e^{iFt}, kappa2 -> kappa2 e^{-iFt}).
    """
    dim, ring = spec.dim, spec.geometry is Geometry.Ring
    fwd = _tridiagonal(dim, spec.kappa1, 0, wrap=ring)
    bwd = _tridiagonal(dim, 0, spec.kappa2, wrap=ring)
    return fwd, bwd, np.diag(_stark_diagonal(spec)).astype(complex)


def build_hamiltonian(spec: LatticeSpec) -> HamiltonianMatrix:
    """Construct the dense Hamiltonian matrix for ``spec``.

    H[n][n+1] = kappa1, H[n+1][n] = kappa2, H[n][n] = F*n with n the absolute
    site index (window indices for InfiniteChain); Ring adds the cyclic wrap
    entries H[N][0] = kappa1 and H[0][N] = kappa2.
    """
    entries = _tridiagonal(
        spec.dim,
        spec.kappa1,
        spec.kappa2,
        diag=_stark_diagonal(spec),
        wrap=spec.geometry is Geometry.Ring,
    )
    return HamiltonianMatrix(entries=entries, offset=spec.offset)


def _check_state(spec: LatticeSpec, state: StateVector) -> None:
    if len(state) != spec.dim:
        raise ValidationError(
            f"state length {len(state)} does not match lattice dimension {spec.dim}"
        )
    if state.offset != spec.offset:
        raise ValidationError(
            f"state offset {state.offset} does not match lattice offset {spec.offset}"
        )


def _lattice_deriv(spec: LatticeSpec, flux_rate: float | None = None):
    """The equation of motion as a function deriv(t, y) = -i H(t) y.

    ``y`` is a state vector or a matrix whose columns are state vectors.
    Without ``flux_rate`` H is static.  With ``flux_rate`` = F (Ring only)
    the hopping acquires a global Peierls phase, kappa1 -> kappa1 e^{iFt} and
    kappa2 -> kappa2 e^{-iFt}; the on-site term is skipped when the lattice
    has no force.
    """
    if flux_rate is None:
        h = build_hamiltonian(spec).entries

        def deriv(t: float, y: np.ndarray) -> np.ndarray:
            return -1j * (h @ y)

        return deriv

    if spec.geometry is not Geometry.Ring:
        raise ValidationError("flux_rate is only defined for Ring geometry")
    fwd, bwd, _ = hop_parts(spec)
    onsite = _stark_diagonal(spec) if spec.force != 0.0 else None
    rate = float(flux_rate)

    def deriv(t: float, y: np.ndarray) -> np.ndarray:
        phase = cmath.exp(1j * rate * t)
        hop = phase * (fwd @ y) + np.conj(phase) * (bwd @ y)
        if onsite is None:
            return -1j * hop
        return -1j * (hop + (onsite * y.T).T)

    return deriv


def rhs(
    spec: LatticeSpec,
    t: float,
    state: StateVector,
    flux_rate: float | None = None,
) -> StateVector:
    """Equation-of-motion right-hand side dc/dt = -i H(t) c.

    With ``flux_rate`` = F (Ring only) the hopping acquires a global Peierls
    phase, i dc_n/dt = kappa1 e^{iFt} c_{n+1} + kappa2 e^{-iFt} c_{n-1}: the
    gauge representation of a magnetic flux ramped linearly in time through
    the ring.  The integrators step the same derivative.
    """
    _check_state(spec, state)
    deriv = _lattice_deriv(spec, flux_rate)
    return StateVector(offset=state.offset, amps=deriv(t, state.amps))
