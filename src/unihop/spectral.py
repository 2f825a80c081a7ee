"""Point spectra, Jordan structure, and Wannier-Stark ladders.

For the unidirectional chain (kappa2 = 0) truncation makes the free
Hamiltonian a single nilpotent Jordan block: E = 0 is an exceptional point
whose order equals the site count, and no eigenbasis exists.  Switching on a
dc force F lifts the degeneracy into the real equidistant Wannier-Stark
ladder E_l = l F with explicitly known one-sided eigenvectors

    a_n = (kappa1/F)^{l-n} / (l-n)!   for n <= l,   a_n = 0 for n > l.

This module computes those objects and, for dense matrices, clusters the
eigenvalues and finds each cluster's Jordan blocks: exactly from the entries
of a bidiagonal H (every one-way chain), by an SVD staircase for any other.
The free (F = 0) ring, circulant and so normal at any kappa2, takes its
certified plane-wave closed form instead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dynamics import _factorial_powers
from .errors import ComputationError, ValidationError, _checked
from .lattice import (
    Geometry,
    HamiltonianMatrix,
    LatticeSpec,
    StateVector,
    _require_memory,
    _ring_symbol,
    _spec_bands,
)

__all__ = [
    "SpectrumCluster",
    "SpectrumReport",
    "WannierStarkState",
    "ring_spectrum",
    "analyze_spectrum",
    "wannier_stark_states",
]

_DELTA = 1e-8  # the one relative scale of clustering and of every rank threshold


@dataclass(frozen=True)
class SpectrumCluster:
    """A degenerate eigenvalue cluster with its Jordan structure.

    ``jordan_blocks`` lists the block sizes (descending); ``multiplicity`` is
    their sum and ``ep_order`` the largest block, i.e. the order of the
    exceptional point sitting at ``value`` (1 for a diagonalizable cluster).
    ``rank_flagged`` marks rank decisions where singular values fell within
    a factor 10 of the threshold.
    """

    value: complex
    jordan_blocks: tuple[int, ...]
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
    """Closed-form spectrum of the F = 0 ring: E_l = kappa1 e^{iq_l} + kappa2 e^{-iq_l}.

    The ring is circulant, so normal (Hatano and Nelson's asymmetric ring):
    the columns e^{iq_l n} / sqrt(N+1) are a unitary eigenbasis and every
    block has size 1.  They read e^{iq_j} at j = n l mod (N+1), a residual
    ~ sqrt(N), not N^1.5; :func:`_certify_eigenpairs` makes E, in O(N^2), the
    exact spectrum of a matrix within 1e-10 max(1, s) of H, s = max(|kappa1|,
    |kappa2|).  Clusters are formed, as in :func:`analyze_spectrum`, at the largest
    entry of H: s, or |kappa1 + kappa2| on two sites, where both bonds are one entry.
    """
    if spec.geometry is not Geometry.Ring:
        raise ValidationError("ring_spectrum requires Ring geometry")
    if spec.force != 0.0:
        raise ValidationError("ring_spectrum is defined for F = 0 only")
    dim = spec.dim
    _require_memory(64 * dim**2, f"a {dim} x {dim} plane-wave basis and its certificate")
    phases, eigenvalues = _checked("ring eigenvalue product", _ring_symbol, spec)
    n = np.arange(dim)
    vectors = phases[np.outer(n, n) % dim] / math.sqrt(dim)
    _certify_eigenpairs(_spec_bands(spec), vectors, eigenvalues)
    scale = max(abs(spec.kappa1), abs(spec.kappa2)) if dim > 2 else abs(spec.kappa1 + spec.kappa2)
    return SpectrumReport(eigenvalues, vectors, _clusters(np.arange(dim), eigenvalues, scale))


def _rank_of(sv: np.ndarray) -> tuple[int, bool]:
    """(rank, flagged) of singular values ``sv`` at the threshold ``_DELTA``."""
    rank = int(np.count_nonzero(sv > _DELTA))
    return rank, bool(np.any((sv > _DELTA / 10.0) & (sv < _DELTA * 10.0)))


def _jordan_blocks(shifted: np.ndarray, multiplicity: int) -> tuple[tuple[int, ...], bool]:
    """Block sizes for one eigenvalue of ``multiplicity`` m from A = (H - lambda I) / s.

    Every rank is taken at the one threshold ``_DELTA`` that also clusters
    the eigenvalues, never relative to the matrix being ranked.  The nullity
    d_1 of A is the number of blocks, so d_1 = m gives m blocks of size 1
    and d_1 = 1 one block of size m, from a single SVD.  Only 1 < d_1 < m
    runs the Kagstrom-Ruhe staircase: with the columns of V an orthonormal
    basis of the complement of the null space of A, the nullity of V^H A V
    is d_2, the count of blocks of size >= 2, and so on down the compressed
    matrices; the number of blocks of size exactly k is d_k - d_{k+1} (Weyr
    characteristic).  No power of A is formed, so an eigenvalue outside the
    cluster keeps its distance from the cluster and is never counted as
    null.  An SVD that fails to converge, or block sizes that do not sum to
    m, are a :class:`ComputationError`.
    """
    dim = shifted.shape[0]
    sv = _checked("singular value decomposition", np.linalg.svd, shifted, compute_uv=False)
    rank, flagged = _rank_of(sv)
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
    changes.  A cluster is then labelled by its smallest index.  The N x N
    distances, mask and labels peak at 24 N^2 bytes, refused first beyond
    physical memory.
    """
    n = eigenvalues.size
    _require_memory(24 * n**2, f"clustering {n} eigenvalues")
    close = np.abs(eigenvalues[:, None] - eigenvalues[None, :]) <= tol
    labels, previous = np.arange(n), None
    while not np.array_equal(labels, previous):
        previous = labels
        lowest = np.where(close, labels, labels[:, None]).min(axis=1)
        labels = lowest[lowest]
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return sorted(groups.values(), key=lambda g: (eigenvalues[g[0]].real, eigenvalues[g[0]].imag))


def _in_units(z: np.ndarray, unit: float) -> np.ndarray:
    """z / unit part by part; numpy's complex division takes 1 / unit, which a subnormal overflows."""
    return (np.ascontiguousarray(z).view(float) / unit).view(complex)


def _clusters(
    structure: np.ndarray, eigenvalues: np.ndarray, scale: float
) -> tuple[SpectrumCluster, ...]:
    """The clusters of ``eigenvalues`` with each one's Jordan blocks.

    ``structure`` is H itself, whose blocks :func:`_jordan_blocks` finds, or
    the irreducible segment of each eigenvalue of a normal or bidiagonal H,
    where each distinct value of a segment is one block of its count.
    """
    unit = scale or 1.0  # dividing by s first keeps every quantity representable
    clusters: list[SpectrumCluster] = []
    for group in _cluster_indices(_in_units(eigenvalues, unit), _DELTA):
        if len(group) == 1:
            clusters.append(SpectrumCluster(complex(eigenvalues[group[0]]), (1,)))
            continue
        mean = _in_units(eigenvalues[group], unit).mean()
        value = complex(mean.real * unit, mean.imag * unit)
        if structure.ndim == 1:
            counts = Counter(zip(structure[group].tolist(), eigenvalues[group].tolist()))
            blocks, flagged = tuple(sorted(counts.values(), reverse=True)), False
        else:
            shifted = _in_units(structure, unit)
            shifted[np.diag_indices_from(shifted)] -= value / unit
            blocks, flagged = _jordan_blocks(shifted, len(group))
        clusters.append(SpectrumCluster(value, blocks, flagged))
    return tuple(clusters)


def _segments(entries: np.ndarray) -> np.ndarray | None:
    """The irreducible segment of each diagonal entry of a bidiagonal H, else None.

    H is bidiagonal when every nonzero off its diagonal lies on one adjacent
    off-diagonal; each zero bond there starts a new segment.
    """
    off = np.count_nonzero(entries) - np.count_nonzero(entries.diagonal())
    for bonds in (entries.diagonal(1), entries.diagonal(-1)):
        if np.count_nonzero(bonds) == off:
            return np.concatenate(([0], np.cumsum(bonds == 0)))
    return None


def analyze_spectrum(h: HamiltonianMatrix) -> SpectrumReport:
    """Eigenvalues plus Jordan-structure analysis of degenerate clusters.

    With s the largest matrix entry, eigenvalues within ``_DELTA * s``
    (delta = 1e-8) of each other form a cluster.  A bidiagonal H (every
    one-way chain or window, every diagonal H) is clustered with no
    eigensolve: its eigenvalues are its diagonal, and an irreducible
    segment has one Jordan block per distinct eigenvalue (Parlett), exact
    in the entries as given.  Any other H clusters ``np.linalg.eigvals``
    and takes each cluster's blocks from SVD ranks of A = (H - lambda I) / s
    at that same delta (:func:`_jordan_blocks`), whatever the scale of H.
    Near an exceptional point of order m, backward errors of size eps
    scatter those eigenvalues over a disk of radius ~ s eps^(1/m); an EP
    whose scatter exceeds delta (an order-2 EP not exact in the entries
    scatters by ~ sqrt(eps)) is split into several clusters.  A report
    found not defective takes its eigenvalues and eigenvectors from
    ``np.linalg.eig`` and keeps its clusters.
    """
    entries = np.asarray(h.entries, dtype=complex)
    scale = float(np.abs(entries).max())
    segments = _segments(entries)
    if segments is None:
        eigenvalues, structure = _checked("eigensolver", np.linalg.eigvals, entries), entries
    else:
        eigenvalues, structure = entries.diagonal().copy(), segments
    report = SpectrumReport(eigenvalues, None, _clusters(structure, eigenvalues, scale))
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
