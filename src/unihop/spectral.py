"""Dispersion, point spectra, Jordan structure, and Wannier-Stark ladders.

For the unidirectional chain (kappa2 = 0) truncation makes the free
Hamiltonian a single nilpotent Jordan block: E = 0 is an exceptional point
whose order equals the site count, and no eigenbasis exists.  Switching on a
dc force F lifts the degeneracy into the real equidistant Wannier-Stark
ladder E_l = l F with explicitly known one-sided eigenvectors

    a_n = (kappa1/F)^{l-n} / (l-n)!   for n <= l,   a_n = 0 for n > l.

This module computes those objects and, for arbitrary dense matrices, detects
degenerate clusters and recovers their Jordan block sizes from the rank
sequence of (H - lambda I)^k.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components
from scipy.special import i0

from .dynamics import _factorial_powers
from .errors import ComputationError, ValidationError
from .lattice import (
    Geometry,
    HamiltonianMatrix,
    LatticeSpec,
    StateVector,
    build_hamiltonian,
)

__all__ = [
    "DispersionSample",
    "SpectrumCluster",
    "SpectrumReport",
    "WannierStarkState",
    "bloch_dispersion",
    "ring_spectrum",
    "analyze_spectrum",
    "wannier_stark_states",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DispersionSample:
    """One point of the Bloch dispersion E(q) = kappa1 e^{iq}."""

    q: float
    energy: complex


@dataclass(frozen=True)
class SpectrumCluster:
    """A degenerate eigenvalue cluster with its Jordan structure.

    ``jordan_blocks`` lists the block sizes (descending); ``multiplicity`` is
    their sum and ``ep_order`` the largest block, i.e. the order of the
    exceptional point sitting at ``value`` (1 for a diagonalizable cluster).
    ``perturbation_radius`` is the heuristic scatter radius
    scale * eps^(1/ep_order) within which machine-precision perturbations
    smear the degenerate eigenvalues; use it to judge whether a clustering
    tolerance was adequate.  ``rank_flagged``
    marks rank decisions where singular values fell within a factor 10 of
    the truncation threshold.
    """

    value: complex
    jordan_blocks: tuple[int, ...]
    perturbation_radius: float
    rank_flagged: bool = False

    @property
    def multiplicity(self) -> int:
        return sum(self.jordan_blocks)

    @property
    def ep_order(self) -> int:
        return max(self.jordan_blocks)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues, optional eigenvectors, and degeneracy clusters.

    ``eigenvectors`` (columns) are present only when the matrix is
    diagonalizable; a defective matrix has no eigenbasis to report.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    clusters: tuple[SpectrumCluster, ...]

    def __post_init__(self) -> None:
        eigenvalues = np.asarray(self.eigenvalues, dtype=complex)
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        if sum(c.multiplicity for c in self.clusters) != eigenvalues.size:
            raise ValidationError("cluster multiplicities must sum to the dimension")

    @property
    def is_defective(self) -> bool:
        """True when some cluster is an exceptional point (a block of size > 1)."""
        return any(c.ep_order > 1 for c in self.clusters)

    @property
    def rank_flagged(self) -> bool:
        """True when any cluster's rank decision was numerically marginal."""
        return any(c.rank_flagged for c in self.clusters)


@dataclass(frozen=True)
class WannierStarkState:
    """One Wannier-Stark eigenstate: energy l*F and one-sided amplitudes.

    Amplitudes are stored densely (``amplitudes.offset`` is the first site);
    ``amplitude(n)`` reads the coefficient at absolute site n.  For windowed
    infinite chains ``tail_mass`` is the fraction of the exact squared norm
    (total = I_0(2|kappa1/F|)) lost below the window edge; it is 0.0 for the
    truncated chain, whose states terminate exactly at site 0.
    """

    ladder_index: int
    energy: complex
    amplitudes: StateVector
    tail_mass: float = 0.0

    def amplitude(self, n: int) -> complex:
        return self.amplitudes.amplitude(n)


def bloch_dispersion(kappa1: complex, q_values) -> list[DispersionSample]:
    """Evaluate E(q) = kappa1 e^{iq} = kappa1 cos q + i kappa1 sin q.

    The dispersion of the unidirectional lattice traces a circle of radius
    |kappa1| in the complex energy plane; q is conventionally taken in
    [-pi, pi).
    """
    kappa1 = complex(kappa1)
    if not (math.isfinite(kappa1.real) and math.isfinite(kappa1.imag)):
        raise ValidationError("kappa1 must be finite")
    q_arr = np.asarray(q_values, dtype=float)
    if not np.all(np.isfinite(q_arr)):
        raise ValidationError("q values must be finite")
    return [
        DispersionSample(q=float(q), energy=kappa1 * cmath.exp(1j * q))
        for q in np.atleast_1d(q_arr)
    ]


def _cluster(
    value: complex, blocks: tuple[int, ...], scale: float, flagged: bool = False
) -> SpectrumCluster:
    """A cluster whose radius is scale * eps^(1/ep_order), eps = machine epsilon."""
    return SpectrumCluster(
        value=complex(value),
        jordan_blocks=blocks,
        perturbation_radius=scale * _EPS ** (1.0 / max(blocks)),
        rank_flagged=flagged,
    )


def ring_spectrum(spec: LatticeSpec) -> SpectrumReport:
    """Closed-form spectrum of the free ring: E_k = kappa1 e^{i q_k}.

    The Bloch wave numbers are quantized as q_k = 2 pi k / (N+1), giving N+1
    distinct complex energies on the circle |E| = |kappa1| (all coalescing at
    0 when kappa1 = 0, but with a complete plane-wave eigenbasis either way).
    The formula is cross-checked against a dense eigensolve of the ring
    matrix; disagreement raises a computation error.
    """
    if spec.geometry is not Geometry.Ring:
        raise ValidationError("ring_spectrum requires Ring geometry")
    if spec.force != 0.0:
        raise ValidationError("ring_spectrum is defined for F = 0 only")
    if spec.kappa2 != 0j:
        raise ValidationError("ring_spectrum covers the unidirectional ring (kappa2 = 0)")
    dim = spec.dim
    k = np.arange(dim)
    q = 2.0 * np.pi * k / dim
    eigenvalues = spec.kappa1 * np.exp(1j * q)
    # plane-wave eigenbasis, columns e^{i q_k n} / sqrt(N+1)
    n = np.arange(dim)
    vectors = np.exp(1j * np.outer(n, q)) / math.sqrt(dim)

    dense = np.linalg.eigvals(build_hamiltonian(spec).entries)
    cost = np.abs(eigenvalues[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(cost)
    tol = 1e-10 * max(1.0, abs(spec.kappa1))
    worst = float(cost[rows, cols].max())
    if worst > tol:
        raise ComputationError(
            f"ring spectrum formula disagrees with dense eigensolve by {worst:.3e}"
        )

    scale = max(abs(spec.kappa1), _EPS)
    if spec.kappa1 == 0:
        clusters = (_cluster(0j, (1,) * dim, scale),)
    else:
        clusters = tuple(_cluster(ev, (1,), scale) for ev in eigenvalues)
    return SpectrumReport(eigenvalues=eigenvalues, eigenvectors=vectors, clusters=clusters)


def _numerical_rank(matrix: np.ndarray) -> tuple[int, bool]:
    """Rank by SVD with threshold tau = dim * eps * sigma_max.

    Returns (rank, flagged); flagged is True when any singular value lands
    within a factor 10 of tau, i.e. the rank decision is marginal.  A matrix
    the SVD cannot take (non-finite entries from an overflowing power, or a
    failed convergence) raises :class:`ComputationError`.
    """
    try:
        sv = scipy.linalg.svdvals(matrix)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ComputationError(f"singular value decomposition failed: {exc}") from exc
    if sv.size == 0:
        return 0, False
    tau = matrix.shape[0] * _EPS * sv[0]
    rank = int(np.count_nonzero(sv > tau))
    flagged = bool(np.any((sv > tau / 10.0) & (sv < tau * 10.0)))
    return rank, flagged


def _jordan_blocks(shifted: np.ndarray, multiplicity: int) -> tuple[tuple[int, ...], bool]:
    """Block sizes for one eigenvalue from the rank sequence of powers.

    With r_k = rank((H - lambda I)^k), the count of blocks of size >= k is
    d_k = r_{k-1} - r_k, so the number of blocks of size exactly k is
    d_k - d_{k+1} (Weyr characteristic).
    """
    dim = shifted.shape[0]
    ranks = [dim]
    flagged = False
    power = np.eye(dim, dtype=complex)
    for _ in range(multiplicity):
        power = power @ shifted
        rank, flag = _numerical_rank(power)
        flagged = flagged or flag
        ranks.append(rank)
        if rank == ranks[-2]:  # rank stabilized: largest block reached
            break
    deficits = [ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1)]
    deficits.append(0)
    blocks: list[int] = []
    for k in range(1, len(deficits)):
        blocks.extend([k] * (deficits[k - 1] - deficits[k]))
    blocks.sort(reverse=True)
    if sum(blocks) != multiplicity:
        raise ComputationError(
            "Jordan structure inconsistent with cluster multiplicity "
            f"(rank sequence {ranks}, multiplicity {multiplicity}); "
            "the cluster tolerance likely merged unrelated eigenvalues"
        )
    return tuple(blocks), flagged


def _cluster_indices(eigenvalues: np.ndarray, tol: float) -> list[list[int]]:
    """Group eigenvalues into connected clusters of pairwise distance <= tol."""
    close = np.abs(eigenvalues[:, None] - eigenvalues[None, :]) <= tol
    _, labels = connected_components(close, directed=False)
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return sorted(groups.values(), key=lambda g: (eigenvalues[g[0]].real, eigenvalues[g[0]].imag))


def analyze_spectrum(h: HamiltonianMatrix, cluster_tol: float = 1e-8) -> SpectrumReport:
    """Eigenvalues plus Jordan-structure analysis of degenerate clusters.

    Eigenvalues whose mutual distance is below ``cluster_tol`` (in units of
    the largest matrix entry) are merged; each cluster's Jordan block sizes
    are recovered from the rank sequence of (H - lambda I)^k with numerical
    ranks from singular value decompositions, after dividing H - lambda I by
    its largest entry so that the powers neither underflow nor overflow.
    Near an exceptional point of order m, backward errors of size eps scatter
    the eigenvalues over a disk of radius ~ eps^(1/m); the reported ``perturbation_radius`` quantifies
    this, and ``cluster_tol`` must sit above it for the merge to be reliable
    (the default 1e-8 is safe for matrices whose degeneracy is exact in the
    entries, like the truncated unidirectional chain).
    """
    if not cluster_tol > 0:
        raise ValidationError("cluster_tol must be positive")
    entries = np.asarray(h.entries, dtype=complex)
    dim = entries.shape[0]
    scale = float(np.abs(entries).max())
    try:
        eigenvalues, vectors = np.linalg.eig(entries)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"eigensolver failed: {exc}") from exc

    clusters: list[SpectrumCluster] = []
    for group in _cluster_indices(eigenvalues, cluster_tol * scale):
        value = complex(eigenvalues[group].mean())
        if len(group) == 1:
            clusters.append(_cluster(value, (1,), scale))
            continue
        shifted = entries - value * np.eye(dim)
        peak = float(np.abs(shifted).max())
        if peak > 0.0:  # unit scale keeps the powers (H - lambda)^k representable
            shifted = shifted / peak
        blocks, flagged = _jordan_blocks(shifted, len(group))
        clusters.append(_cluster(value, blocks, scale, flagged))
    report = SpectrumReport(eigenvalues, vectors, tuple(clusters))
    return replace(report, eigenvectors=None) if report.is_defective else report


def wannier_stark_states(spec: LatticeSpec, l_range) -> list[WannierStarkState]:
    """Closed-form Wannier-Stark eigenstates of the forced unidirectional lattice.

    For each ladder index l the state has energy E_l = l F and one-sided
    amplitudes a_n = (kappa1/F)^{l-n}/(l-n)! for n <= l (a_l = 1, zero above).
    On the truncated chain the ladder is l = 0..N and the vector stops at
    site 0 exactly; on a windowed infinite chain the factorial tail below the
    window is cut and reported as ``tail_mass`` relative to the exact squared
    norm I_0(2|kappa1/F|).
    """
    if spec.force == 0.0:
        raise ValidationError(
            "Wannier-Stark ladder undefined for F = 0; use analyze_spectrum"
        )
    if spec.kappa2 != 0j:
        raise ValidationError("Wannier-Stark closed forms require kappa2 = 0")
    if spec.geometry is Geometry.Ring:
        raise ValidationError("Wannier-Stark states are defined for chain geometries")
    z = spec.kappa1 / spec.force
    if abs(z) > 300.0:
        raise ValidationError(
            f"|kappa1/F| = {abs(z):.3g} too large for stable amplitude evaluation"
        )
    dim = spec.dim
    offset = spec.offset
    states: list[WannierStarkState] = []
    for l in np.atleast_1d(np.asarray(l_range, dtype=int)):
        l = int(l)
        if spec.geometry is Geometry.FiniteChain and not 0 <= l < dim:
            raise ValidationError(f"ladder index {l} outside the chain 0..{dim - 1}")
        if spec.geometry is Geometry.InfiniteChain and not offset <= l <= offset + dim - 1:
            raise ValidationError(f"ladder index {l} outside the window")
        amps = np.zeros(dim, dtype=complex)
        count = l - offset + 1  # sites offset..l carry weight
        amps[:count] = _factorial_powers(z, np.arange(count))[::-1]
        tail_mass = 0.0
        if spec.geometry is Geometry.InfiniteChain:
            r = abs(z)
            total = float(i0(2.0 * r))
            captured = float(np.sum(np.abs(amps[:count]) ** 2))
            tail_mass = max(0.0, 1.0 - captured / total)
        states.append(
            WannierStarkState(
                ladder_index=l,
                energy=complex(l * spec.force),
                amplitudes=StateVector(offset=offset, amps=amps),
                tail_mass=tail_mass,
            )
        )
    return states
