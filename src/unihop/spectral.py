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

from .dynamics import _factorial_powers
from .errors import ComputationError, ValidationError, _checked
from .lattice import (
    Geometry,
    HamiltonianMatrix,
    LatticeSpec,
    StateVector,
    _require_finite_complex,
    _spec_bands,
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
    diagonalizable; a defective matrix has no eigenbasis to report, and
    :func:`analyze_spectrum` does not solve for one.
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
    kappa1 = _require_finite_complex("kappa1", kappa1)
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


def _certify_eigenpairs(bands: dict, vectors: np.ndarray, values: np.ndarray) -> float:
    """||R||_F / unit for R = H V - V diag(E); above 1e-10 (or NaN) it is refused.

    H V takes a roll and a multiply per nonzero cyclic diagonal of H, O(N^2);
    unit = max(1, max |H_ij|) divides bands and E first.  For unitary V (the
    caller's construction; unit column norms are checked here), E is the exact
    spectrum of H - R V^H, within ||R||_F of H, and for a normal H it matches
    spec(H) one to one within ||R||_F (Bauer-Fike, Hoffman-Wielandt).
    """
    unit = max(1.0, max(float(np.abs(d).max()) for d in bands.values()))
    residual = vectors * (values / -unit)
    for k, d in bands.items():
        if np.any(d):
            residual += (d / unit)[:, None] * np.roll(vectors, -k, axis=0)
    worst = math.sqrt(float(np.sum(residual.real**2 + residual.imag**2)))
    drift = float(np.abs(np.sum(vectors.real**2 + vectors.imag**2, axis=0) - 1.0).max())
    if not (worst <= 1e-10 and drift <= 1e-10):
        raise ComputationError(
            f"eigenpair certificate failed: residual ||HV - VE||_F / {unit:.3e} = {worst:.3e}, "
            f"squared column norm drift {drift:.3e}"
        )
    return worst


def ring_spectrum(spec: LatticeSpec) -> SpectrumReport:
    """Closed-form spectrum of the free ring: E_k = kappa1 e^{i q_k}.

    The Bloch wave numbers are quantized as q_k = 2 pi k / (N+1), giving N+1
    distinct complex energies on the circle |E| = |kappa1| (all coalescing at
    0 when kappa1 = 0, but with a complete plane-wave eigenbasis either way).
    The columns e^{i q_k n} / sqrt(N+1) read e^{i q_j} at j = n k mod (N+1), a
    residual ~ sqrt(N), not N^1.5; :func:`_certify_eigenpairs` makes E, in
    O(N^2), the exact spectrum of a matrix within 1e-10 max(1, |kappa1|) of H.
    """
    if spec.geometry is not Geometry.Ring:
        raise ValidationError("ring_spectrum requires Ring geometry")
    if spec.force != 0.0:
        raise ValidationError("ring_spectrum is defined for F = 0 only")
    if spec.kappa2 != 0j:
        raise ValidationError("ring_spectrum covers the unidirectional ring (kappa2 = 0)")
    dim = spec.dim
    n = np.arange(dim)
    phases = np.exp(1j * (2.0 * np.pi * n / dim))  # e^{i q_k}
    eigenvalues = _checked("ring eigenvalue product", np.multiply, spec.kappa1, phases)
    vectors = phases[np.outer(n, n) % dim] / math.sqrt(dim)
    _certify_eigenpairs(_spec_bands(spec), vectors, eigenvalues)

    scale = max(abs(spec.kappa1), _EPS)
    if spec.kappa1 == 0:
        clusters = (_cluster(0j, (1,) * dim, scale),)
    else:
        clusters = tuple(_cluster(ev, (1,), scale) for ev in eigenvalues)
    return SpectrumReport(eigenvalues=eigenvalues, eigenvectors=vectors, clusters=clusters)


def _numerical_rank(matrix: np.ndarray) -> tuple[int, bool, float]:
    """Rank by SVD with threshold tau = dim * eps * sigma_max.

    Returns (rank, flagged, margin); flagged is True when any singular value
    lands within a factor 10 of tau, i.e. the rank decision is marginal, and
    margin is the smallest retained singular value over sigma_max (0 at rank
    0).  A zero matrix, such as the vanishing m-th power of a nilpotent
    cluster, or an empty one is rank 0 with no SVD taken.  A matrix the SVD
    cannot take (non-finite entries from an overflowing power, or a failed
    convergence) raises :class:`ComputationError`.
    """
    if not matrix.any():  # what the SVD gives, tau = 0, without one
        return 0, False, 0.0
    sv = _checked("singular value decomposition", np.linalg.svd, matrix, compute_uv=False)
    tau = matrix.shape[0] * _EPS * sv[0]
    rank = int(np.count_nonzero(sv > tau))
    flagged = bool(np.any((sv > tau / 10.0) & (sv < tau * 10.0)))
    return rank, flagged, float(sv[rank - 1] / sv[0]) if rank else 0.0


def _jordan_blocks(shifted: np.ndarray, multiplicity: int) -> tuple[tuple[int, ...], bool]:
    """Block sizes for one eigenvalue from the rank sequence of powers.

    With r_k = rank((H - lambda I)^k), the count of blocks of size >= k is
    d_k = r_{k-1} - r_k, so the number of blocks of size exactly k is
    d_k - d_{k+1} (Weyr characteristic).

    The counts never increase, so a nullity d_1 = 1 means a single block, of
    size m exactly when r_m = dim - m; that case takes one more SVD, of the
    m-th power formed by repeated squaring, instead of m - 1 more.  It is
    taken only when both rank decisions are clear and margin^m > 10 dim eps:
    by Horn's inequality sigma_{dim-k}(A^k) >= sigma_{dim-1}(A)^k, no power
    up to the m-th can then lose more than one rank per step, so a cluster of
    close but distinct eigenvalues is not read as one block.  Every other
    case ranks the powers one by one.
    """
    dim = shifted.shape[0]
    first, flagged, margin = _numerical_rank(shifted)
    single = dim - first == 1 and multiplicity > 1 and not flagged
    if single and margin**multiplicity > 10.0 * dim * _EPS:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite falls through
            power = np.linalg.matrix_power(shifted, multiplicity)
        if np.all(np.isfinite(power)):
            last, flag, _ = _numerical_rank(power)
            if last == dim - multiplicity and not flag:
                return (multiplicity,), False
    ranks = [dim, first]
    power = shifted
    # until the rank stabilizes (largest block reached) or m powers are ranked
    while ranks[-1] != ranks[-2] and len(ranks) <= multiplicity:
        power = power @ shifted
        rank, flag, _ = _numerical_rank(power)
        flagged = flagged or flag
        ranks.append(rank)
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
    """Group eigenvalues into connected clusters of pairwise distance <= tol.

    Each label starts as its own index; every pass takes the smallest label
    among the close neighbours, then the label of that label, until no label
    changes.  A cluster is then labelled by its smallest index.
    """
    close = np.abs(eigenvalues[:, None] - eigenvalues[None, :]) <= tol
    labels, previous = np.arange(eigenvalues.size), None
    while not np.array_equal(labels, previous):
        previous = labels
        lowest = np.where(close, labels, labels[:, None]).min(axis=1)
        labels = lowest[lowest]
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return sorted(groups.values(), key=lambda g: (eigenvalues[g[0]].real, eigenvalues[g[0]].imag))


def _clusters(
    entries: np.ndarray, eigenvalues: np.ndarray, scale: float, cluster_tol: float
) -> tuple[SpectrumCluster, ...]:
    """The clusters of ``eigenvalues`` with each one's Jordan blocks."""
    clusters: list[SpectrumCluster] = []
    for group in _cluster_indices(eigenvalues / (scale or 1.0), cluster_tol):  # no overflow
        value = complex(eigenvalues[group].mean())
        if len(group) == 1:
            clusters.append(_cluster(value, (1,), scale))
            continue
        shifted = entries - value * np.eye(entries.shape[0])
        peak = float(np.abs(shifted).max())
        if peak > 0.0:  # unit scale keeps the powers (H - lambda)^k representable
            shifted = shifted / peak
        blocks, flagged = _jordan_blocks(shifted, len(group))
        clusters.append(_cluster(value, blocks, scale, flagged))
    return tuple(clusters)


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

    The Jordan analysis runs on eigenvalues alone, so a defective matrix
    costs no eigenvector solve.  Only a report found not defective solves
    for the eigenvectors, and then takes its eigenvalues and clusters from
    that same solve.
    """
    if not cluster_tol > 0:
        raise ValidationError("cluster_tol must be positive")
    entries = np.asarray(h.entries, dtype=complex)
    scale = float(np.abs(entries).max())
    eigenvalues = _checked("eigensolver", np.linalg.eigvals, entries)
    report = SpectrumReport(eigenvalues, None, _clusters(entries, eigenvalues, scale, cluster_tol))
    if report.is_defective:
        return report
    eigenvalues, vectors = _checked("eigensolver", np.linalg.eig, entries)
    report = SpectrumReport(
        eigenvalues, vectors, _clusters(entries, eigenvalues, scale, cluster_tol)
    )
    return replace(report, eigenvectors=None) if report.is_defective else report


def wannier_stark_states(spec: LatticeSpec, l_range) -> list[WannierStarkState]:
    """Closed-form Wannier-Stark eigenstates of the forced unidirectional lattice.

    For each ladder index l the state has energy E_l = l F and one-sided
    amplitudes a_n = (kappa1/F)^{l-n}/(l-n)! for n <= l (a_l = 1, zero above).
    On the truncated chain the ladder is l = 0..N and the vector stops at
    site 0 exactly; on a windowed infinite chain the factorial tail below the
    window is cut and reported as ``tail_mass`` relative to the exact squared
    norm I_0(2|kappa1/F|).  Every state reads a prefix of one kernel
    z^j / j!, z = kappa1/F, computed once per call.  Ladder indices must be
    integers (integer-valued floats are accepted); anything else is a
    :class:`ValidationError`.
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
    window = spec.geometry is Geometry.InfiniteChain
    total = float(np.i0(2.0 * abs(z))) if window else 1.0  # the exact squared norm
    try:
        indices = np.atleast_1d(np.asarray(l_range, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"ladder indices must be integers: {exc}") from exc
    whole = np.isfinite(indices) & (indices == np.floor(indices))
    if not whole.all():
        bad = float(indices[~whole][0])
        raise ValidationError(f"ladder indices must be integers, got {bad}")
    kernel = _factorial_powers(z, dim)  # state l reads its first l - offset + 1 terms
    states: list[WannierStarkState] = []
    for value in indices:
        l = int(value)
        if spec.geometry is Geometry.FiniteChain and not 0 <= l < dim:
            raise ValidationError(f"ladder index {l} outside the chain 0..{dim - 1}")
        if window and not offset <= l <= offset + dim - 1:
            raise ValidationError(f"ladder index {l} outside the window")
        amps = np.zeros(dim, dtype=complex)
        count = l - offset + 1  # sites offset..l carry weight
        amps[:count] = kernel[count - 1::-1]
        tail_mass = 0.0
        if window:
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
