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

H is held as its three cyclic diagonals.  On the flux-threaded ring the
Peierls phase is a factor e^{ikFt} on diagonal k, so one gather-and-sum of
phased diagonals applies H(t) in O(N): :func:`rhs` applies H itself and the
RK4 step applies its banded step matrix.  The dense matrix is formed only for
the callers that need the whole of it.
"""

from __future__ import annotations

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
        Number of sites N+1 for FiniteChain/Ring; refused for InfiniteChain.
    window:
        (n_min, n_max) inclusive site window for InfiniteChain only.
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
            if self.sites is not None:
                raise ValidationError("InfiniteChain takes a window, not a site count")
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
            if self.window is not None:
                raise ValidationError(f"{self.geometry.name} takes a site count, not a window")
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
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or not entries.size:
            raise ValidationError(f"entries must be square and nonempty, got {entries.shape}")
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


def _bands(dim: int, upper, lower, diag=0, wrap: bool = False) -> dict[int, np.ndarray]:
    """The tridiagonal generator by its cyclic diagonals.

    Offset k holds a length-``dim`` array d_k with (H y)[i] = sum_k
    d_k[i] y[(i + k) % dim]: ``upper`` on offset +1 (H[n][n+1]), ``lower`` on
    offset -1 (H[n+1][n]) and ``diag`` on offset 0.  The wrap entries
    d_{+1}[dim-1] and d_{-1}[0] are the ring corners H[dim-1][0] = upper and
    H[0][dim-1] = lower with ``wrap`` and 0 otherwise.  On a 2-site ring both
    offsets reach the same site, so the chain bond and the wrap bond are
    summed.
    """
    up = np.full(dim, upper, dtype=complex)
    low = np.full(dim, lower, dtype=complex)
    if not wrap:
        up[-1] = 0.0
        low[0] = 0.0
    return {-1: low, 0: np.broadcast_to(diag, (dim,)).astype(complex), 1: up}


def _band_product(a: dict, b: dict) -> dict[int, np.ndarray]:
    """Cyclic diagonals of the product AB: (AB)_{j+k}[i] += A_j[i] B_k[(i+j) % dim].

    Each product is a cyclic shift (two slices) and a multiply, no dense matrix.
    """
    out: dict[int, np.ndarray] = {}
    for j, da in a.items():
        for k, db in b.items():
            s = j % da.size
            term = da * np.concatenate((db[s:], db[:s]))
            out[j + k] = out[j + k] + term if j + k in out else term
    return out


def _band_apply(bands: dict, rate: float | None = None):
    """The operator (t, y) -> H(t) y on state vectors, as one gather-and-sum
    over the cyclic diagonals.  All-zero diagonals are dropped; offset 0 is
    kept.

    With ``rate`` = F, diagonal k carries the Peierls factor e^{ikFt}; without
    it H is static and ``t`` is ignored.
    """
    offsets = [k for k in sorted(bands) if k == 0 or np.any(bands[k])]
    coef = np.stack([bands[k] for k in offsets])
    dim = coef.shape[1]
    idx = (np.arange(dim) + np.array(offsets)[:, None]) % dim
    if rate is None:
        return lambda t, y: (coef * y[idx]).sum(0)
    phase_rates = 1j * rate * np.array(offsets)[:, None]
    return lambda t, y: (np.exp(phase_rates * t) * (coef * y[idx])).sum(0)


def _dense(bands: dict) -> np.ndarray:
    """The dense matrix of cyclic diagonals, for the callers that need the
    whole matrix (spectra, matrix exponentials, ``dump-h``)."""
    dim = bands[0].size
    h = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for k, d in bands.items():
        h[rows, (rows + k) % dim] += d
    return h


def _stark_diagonal(spec: LatticeSpec) -> np.ndarray:
    return spec.force * spec.site_indices.astype(float)


def hop_parts(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split H into dense (forward kappa1 part, backward kappa2 part, Stark
    diagonal) matrices.

    On the flux-threaded ring the Peierls phase multiplies the two hopping
    directions independently (kappa1 -> kappa1 e^{iFt}, kappa2 -> kappa2
    e^{-iFt}).  The integrators apply that phase per cyclic diagonal and no
    longer use this split; it is kept as a public dense reference.
    """
    dim, ring = spec.dim, spec.geometry is Geometry.Ring
    fwd = _dense(_bands(dim, spec.kappa1, 0, wrap=ring))
    bwd = _dense(_bands(dim, 0, spec.kappa2, wrap=ring))
    return fwd, bwd, np.diag(_stark_diagonal(spec)).astype(complex)


def _spec_bands(spec: LatticeSpec) -> dict[int, np.ndarray]:
    """The cyclic diagonals of the static H of ``spec`` (see :func:`_bands`)."""
    ring = spec.geometry is Geometry.Ring
    return _bands(spec.dim, spec.kappa1, spec.kappa2, diag=_stark_diagonal(spec), wrap=ring)


def build_hamiltonian(spec: LatticeSpec) -> HamiltonianMatrix:
    """Construct the dense Hamiltonian matrix for ``spec``.

    H[n][n+1] = kappa1, H[n+1][n] = kappa2, H[n][n] = F*n with n the absolute
    site index (window indices for InfiniteChain); Ring adds the cyclic wrap
    entries H[N][0] = kappa1 and H[0][N] = kappa2.
    """
    return HamiltonianMatrix(entries=_dense(_spec_bands(spec)), offset=spec.offset)


def _check_state(spec: LatticeSpec, state: StateVector, flux_rate: float | None = None) -> None:
    """Check that ``state`` lives on the lattice of ``spec`` and that a
    ``flux_rate`` comes with a ring."""
    if len(state) != spec.dim:
        raise ValidationError(
            f"state length {len(state)} does not match lattice dimension {spec.dim}"
        )
    if state.offset != spec.offset:
        raise ValidationError(
            f"state offset {state.offset} does not match lattice offset {spec.offset}"
        )
    if flux_rate is not None and spec.geometry is not Geometry.Ring:
        raise ValidationError("flux_rate is only defined for Ring geometry")


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
    the ring, so cyclic diagonal k of H is multiplied by e^{ikFt}.  H(t) is
    applied in band form, with or without flux, so a call is O(N).
    """
    _check_state(spec, state, flux_rate)
    h_y = _band_apply(_spec_bands(spec), flux_rate)(t, state.amps)
    return StateVector(offset=state.offset, amps=-1j * h_y)
