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
from dataclasses import dataclass

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
_DELTA = 1e-8  # the one relative scale of clustering and of every rank threshold


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
    smear the degenerate eigenvalues; where it exceeds the clustering
    distance of :func:`analyze_spectrum`, such an exceptional point comes
    out split into several clusters.  ``rank_flagged`` marks rank decisions
    where singular values fell within a factor 10 of the threshold.
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


def _numerical_rank(matrix: np.ndarray) -> tuple[int, bool]:
    """Rank by SVD: the count of singular values above ``_DELTA``.

    Returns (rank, flagged); flagged is True when any singular value lands
    within a factor 10 of the threshold, i.e. the rank decision is marginal.
    A zero matrix or an empty one is rank 0 with no SVD taken.  A matrix the
    SVD cannot take (a failed convergence) raises :class:`ComputationError`.
    """
    if not matrix.any():  # what the SVD gives without one
        return 0, False
    sv = _checked("singular value decomposition", np.linalg.svd, matrix, compute_uv=False)
    return _rank_of(sv)


def _rank_of(sv: np.ndarray) -> tuple[int, bool]:
    """(rank, flagged) of singular values ``sv`` at the threshold ``_DELTA``."""
    rank = int(np.count_nonzero(sv > _DELTA))
    return rank, bool(np.any((sv > _DELTA / 10.0) & (sv < _DELTA * 10.0)))


def _nullity_one(shifted: np.ndarray, offsets: np.ndarray) -> bool:
    """True when two bounds prove that A = ``shifted`` has nullity 1, unflagged.

    sigma_N(A) <= |mu| for each of the cluster's eigenvalues mu of A
    (``offsets``), and for B, A less a corner row and column, sigma_{N-1}(A)
    >= sigma_min(B) >= min_i (|b_ii| - (r_i + c_i) / 2), r_i and c_i its
    off-diagonal absolute row and column sums (interlacing, then Johnson).
    Both clear the flag band of :func:`_rank_of` by a decade.  The bounds
    hold for any A and are sharp for a Hessenberg A, whose B is triangular.
    """
    if np.abs(offsets).min() > _DELTA / 100.0:
        return False
    mag = np.abs(shifted)
    for minor in (mag[:-1, 1:], mag[1:, :-1]):
        johnson = 2.0 * minor.diagonal() - (minor.sum(axis=0) + minor.sum(axis=1)) / 2.0
        if johnson.min() > 100.0 * _DELTA:
            return True
    return False


def _jordan_blocks(shifted: np.ndarray, offsets: np.ndarray) -> tuple[tuple[int, ...], bool]:
    """Block sizes for one eigenvalue from A = (H - lambda I) / s.

    ``offsets`` are the cluster's m eigenvalues of A.  Every rank is taken
    at the one threshold ``_DELTA`` that also clusters the eigenvalues,
    never relative to the matrix being ranked.  The nullity d_1 of A is the
    number of blocks, so d_1 = m gives m blocks of size 1 and d_1 = 1 one
    block of size m, from a single SVD or, where :func:`_nullity_one`
    proves d_1 = 1 (a one-way chain's order-N EP), from none.  Only
    1 < d_1 < m runs the Kagstrom-Ruhe staircase: with the columns of V an
    orthonormal basis of the complement of the null space of A, the
    nullity of V^H A V is d_2, the count of blocks of size >= 2, and so on
    down the compressed matrices; the number of blocks of size exactly k is
    d_k - d_{k+1} (Weyr characteristic).  No power of A is formed, so an
    eigenvalue outside the cluster keeps its distance from the cluster and
    is never counted as null.  Block sizes that do not sum to m are a
    :class:`ComputationError`.
    """
    dim, multiplicity = shifted.shape[0], offsets.size
    if _nullity_one(shifted, offsets):
        return (multiplicity,), False
    rank, flagged = _numerical_rank(shifted)
    if dim - rank == multiplicity:
        return (1,) * multiplicity, flagged
    if dim - rank == 1:
        return (multiplicity,), flagged
    nullities, block = [], shifted
    while sum(nullities) < multiplicity:
        _, sv, vh = _checked("singular value decomposition", np.linalg.svd, block)
        rank, flag = _rank_of(sv)
        flagged = flagged or flag
        nullities.append(block.shape[0] - rank)
        if not nullities[-1]:
            break
        block = vh[:rank] @ block @ vh[:rank].conj().T
    nullities.append(0)
    blocks: list[int] = []
    for k in range(1, len(nullities)):
        blocks.extend([k] * (nullities[k - 1] - nullities[k]))
    blocks.sort(reverse=True)
    if sum(blocks) != multiplicity:
        raise ComputationError(
            "Jordan structure inconsistent with cluster multiplicity "
            f"(nullities {nullities[:-1]}, multiplicity {multiplicity})"
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
    entries: np.ndarray, eigenvalues: np.ndarray, scale: float
) -> tuple[SpectrumCluster, ...]:
    """The clusters of ``eigenvalues`` with each one's Jordan blocks."""
    unit = scale or 1.0  # dividing by s first keeps every quantity representable
    clusters: list[SpectrumCluster] = []
    for group in _cluster_indices(eigenvalues / unit, _DELTA):
        if len(group) == 1:
            clusters.append(_cluster(eigenvalues[group[0]], (1,), scale))
            continue
        value = complex(eigenvalues[group].mean())
        shifted = entries / unit
        shifted[np.diag_indices_from(shifted)] -= value / unit
        blocks, flagged = _jordan_blocks(shifted, (eigenvalues[group] - value) / unit)
        clusters.append(_cluster(value, blocks, scale, flagged))
    return tuple(clusters)


def analyze_spectrum(h: HamiltonianMatrix) -> SpectrumReport:
    """Eigenvalues plus Jordan-structure analysis of degenerate clusters.

    One scale decides both steps.  With s the largest matrix entry,
    eigenvalues within ``_DELTA * s`` (delta = 1e-8) of each other form a
    cluster, and each cluster's Jordan blocks follow from SVD ranks of
    A = (H - lambda I) / s taken at that same delta (see
    :func:`_jordan_blocks`), so the answer does not depend on the overall
    scale of H.  Near an exceptional point of order m, backward errors of
    size eps scatter the eigenvalues over a disk of radius ~ eps^(1/m), the
    reported ``perturbation_radius``; an EP whose scatter exceeds delta
    (an order-2 EP not exact in the entries scatters by ~ sqrt(eps)) is
    split into several clusters.  The truncated unidirectional chain is
    exact in its entries, and its order-N EP forms one cluster.

    One pass clusters the eigenvalues of ``np.linalg.eigvals`` and finds
    each cluster's Jordan blocks, so a defective matrix costs no eigenvector
    solve.  A report found not defective then takes its eigenvalues and
    eigenvectors from ``np.linalg.eig`` and keeps the clusters of that pass.
    """
    entries = np.asarray(h.entries, dtype=complex)
    scale = float(np.abs(entries).max())
    eigenvalues = _checked("eigensolver", np.linalg.eigvals, entries)
    report = SpectrumReport(eigenvalues, None, _clusters(entries, eigenvalues, scale))
    if report.is_defective:
        return report
    eigenvalues, vectors = _checked("eigensolver", np.linalg.eig, entries)
    return SpectrumReport(eigenvalues, vectors, report.clusters)


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
