"""Spectra, Jordan structure, exceptional points, and Wannier-Stark ladders."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.special import i0

import unihop.lattice as lattice
import unihop.spectral as spectral
from unihop import (
    ComputationError,
    Geometry,
    HamiltonianMatrix,
    LatticeSpec,
    SpectrumCluster,
    ValidationError,
    analyze_spectrum,
    build_hamiltonian,
    ring_spectrum,
    wannier_stark_states,
)


def chain(sites, kappa1=1.0, kappa2=0j, force=0.0):
    return LatticeSpec(
        geometry=Geometry.FiniteChain, kappa1=kappa1, kappa2=kappa2, force=force, sites=sites
    )


def rotated(entries, seed=0):
    """Q H Q^H for a seeded random unitary Q, which no longer reads as bidiagonal."""
    rng = np.random.default_rng(seed)
    dim = entries.shape[0]
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    similar = q @ entries @ q.conj().T
    assert spectral._segments(similar) is None
    return similar


def scrambled(entries):
    """P H P^T with the odd rows and columns first: exact, and off the bidiagonal form."""
    order = np.r_[1 : entries.shape[0] : 2, 0 : entries.shape[0] : 2]
    similar = entries[np.ix_(order, order)]
    assert spectral._segments(similar) is None
    return similar


class TestRingSpectrum:
    def test_four_site_roots_of_unity(self):
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=1.0, sites=4)
        report = ring_spectrum(spec)
        got = sorted(report.eigenvalues, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        want = sorted([1, 1j, -1, -1j], key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert np.allclose(got, want, atol=1e-12)

    def test_two_site(self):
        kappa = 0.7 + 0.1j
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=kappa, sites=2)
        report = ring_spectrum(spec)
        got = sorted(report.eigenvalues, key=lambda z: z.real)
        assert np.allclose(got, sorted([kappa, -kappa], key=lambda z: z.real), atol=1e-13)

    def test_three_site_phases(self):
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=1.0, sites=3)
        report = ring_spectrum(spec)
        want = {1, cmath.exp(2j * np.pi / 3), cmath.exp(4j * np.pi / 3)}
        for ev in report.eigenvalues:
            assert min(abs(ev - w) for w in want) < 1e-12

    def test_eigenvectors_satisfy_eigenproblem(self):
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=1.1 - 0.6j, sites=6)
        report = ring_spectrum(spec)
        h = build_hamiltonian(spec).entries
        for k in range(6):
            v = report.eigenvectors[:, k]
            residual = np.linalg.norm(h @ v - report.eigenvalues[k] * v)
            assert residual <= 1e-12 * abs(spec.kappa1)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_hopping_degenerate_but_diagonalizable(self):
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=0.0, sites=5)
        report = ring_spectrum(spec)
        assert not report.is_defective
        assert len(report.clusters) == 1
        assert report.clusters[0].multiplicity == 5
        assert report.clusters[0].ep_order == 1

    @staticmethod
    def _edit_ring_bands(monkeypatch, edit):
        spec_bands = spectral._spec_bands

        def edited(spec):
            bands = spec_bands(spec)
            edit(bands)
            return bands

        monkeypatch.setattr(spectral, "_spec_bands", edited)

    @pytest.mark.parametrize("kappa1", [0.8 + 0.3j, 0.0])
    def test_moved_dense_eigenvalue_is_rejected(self, monkeypatch, kappa1):
        # one ring bond moved by 1e-6 (at kappa1 = 0 a 1e-6 entry planted in
        # the zero matrix): R = dH V has ||R||_F = 1e-6 for the unitary V
        def move(bands):
            bands[1][2] += 1e-6

        self._edit_ring_bands(monkeypatch, move)
        message = re.escape("residual ||HV - VE||_F / 1.000e+00 = 1.000e-06")
        with pytest.raises(ComputationError, match=message):
            ring_spectrum(LatticeSpec(geometry=Geometry.Ring, kappa1=kappa1, sites=6))

    def test_duplicated_dense_eigenvalue_is_rejected(self):
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=0.8 + 0.3j, sites=6)
        report = ring_spectrum(spec)
        bands = spectral._spec_bands(spec)
        duplicated = report.eigenvalues.copy()
        duplicated[1] = duplicated[0]
        with pytest.raises(ComputationError, match="eigenpair certificate failed"):
            spectral._certify_eigenpairs(bands, report.eigenvectors, duplicated)
        # kappa1 e^{-iq} is the same set of values (a nearest-value check
        # accepts it), but paired with the wrong plane waves
        q = 2.0 * np.pi * np.arange(spec.dim) / spec.dim
        mirrored = spec.kappa1 * np.exp(-1j * q)
        assert np.allclose(np.sort_complex(mirrored), np.sort_complex(report.eigenvalues))
        with pytest.raises(ComputationError, match="eigenpair certificate failed"):
            spectral._certify_eigenpairs(bands, report.eigenvectors, mirrored)

    def test_rescaled_column_is_rejected(self):
        # a residual alone would pass V = 0; the unit column norms are checked
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=1.0, sites=6)
        report = ring_spectrum(spec)
        bands = spectral._spec_bands(spec)
        vectors = report.eigenvectors.copy()
        vectors[:, 3] *= 0.5
        with pytest.raises(ComputationError, match="squared column norm drift 7.500e-01"):
            spectral._certify_eigenpairs(bands, vectors, report.eigenvalues)
        with pytest.raises(ComputationError, match="eigenpair certificate failed"):
            spectral._certify_eigenpairs(bands, np.zeros_like(vectors), report.eigenvalues)

    @settings(deadline=None, max_examples=60)
    @given(
        sites=st.integers(2, 96),
        log_modulus=st.one_of(st.none(), st.floats(-300.0, 300.0)),
        phase=st.floats(-math.pi, math.pi),
        log_modulus2=st.one_of(st.none(), st.floats(-300.0, 300.0)),
        phase2=st.floats(-math.pi, math.pi),
    )
    @example(sites=2, log_modulus=None, phase=0.0, log_modulus2=None, phase2=0.0)
    @example(sites=96, log_modulus=-300.0, phase=1.0, log_modulus2=None, phase2=0.0)
    @example(sites=96, log_modulus=300.0, phase=-2.0, log_modulus2=None, phase2=0.0)
    @example(sites=32, log_modulus=0.0, phase=0.5, log_modulus2=0.0, phase2=0.5)
    @example(sites=31, log_modulus=None, phase=0.0, log_modulus2=None, phase2=0.0)
    @example(sites=2, log_modulus=300.0, phase=0.0, log_modulus2=300.0, phase2=math.pi)
    @example(sites=4, log_modulus=-320.0, phase=0.5, log_modulus2=None, phase2=0.0)
    def test_certified_pairs_match_a_dense_eigensolve(
        self, sites, log_modulus, phase, log_modulus2, phase2
    ):
        # a log modulus of None is a hopping of 0; warnings are errors throughout
        kappa1 = 0j if log_modulus is None else cmath.rect(10.0**log_modulus, phase)
        kappa2 = 0j if log_modulus2 is None else cmath.rect(10.0**log_modulus2, phase2)
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=kappa1, kappa2=kappa2, sites=sites)
        report = ring_spectrum(spec)
        unit = max(1.0, abs(kappa1), abs(kappa2))
        h = build_hamiltonian(spec).entries / unit
        values = report.eigenvalues / unit
        distance = np.abs(np.linalg.eigvals(h)[:, None] - values[None, :])
        rows, cols = linear_sum_assignment(distance)
        assert distance[rows, cols].max() <= 1e-10
        vectors = report.eigenvectors
        assert np.linalg.norm(h @ vectors - vectors * values, axis=0).max() <= 1e-12
        assert not report.is_defective
        if sites <= 32:
            # the dense engine's clusters, paired by value
            dense = analyze_spectrum(build_hamiltonian(spec)).clusters
            ours = np.array([c.value for c in report.clusters]) / unit
            theirs = np.array([c.value for c in dense]) / unit
            assert ours.size == theirs.size
            rows, cols = linear_sum_assignment(np.abs(ours[:, None] - theirs[None, :]))
            assert [report.clusters[i].multiplicity for i in rows] == [
                dense[j].multiplicity for j in cols
            ]
            assert all(c.ep_order == 1 for c in dense)

    def test_two_sites_answer_their_one_entry_exactly(self):
        # both bonds are the entry kappa1 + kappa2 = 0: H is the zero matrix
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=1e300, kappa2=-1e300, sites=2)
        report = ring_spectrum(spec)
        assert report.eigenvalues.tolist() == [0j, 0j]
        assert [c.multiplicity for c in report.clusters] == [2]
        report = ring_spectrum(LatticeSpec(geometry=Geometry.Ring, kappa1=3.0, kappa2=-1j, sites=2))
        assert report.eigenvalues.tolist() == [3.0 - 1j, -3.0 + 1j]

    def test_reduced_phases_keep_a_2048_site_residual_small(self):
        # exp(1j * outer(n, q)) would leave ||R||_F / unit near 1.3e-11 here
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=3.0, sites=2048)
        report = ring_spectrum(spec)
        worst = spectral._certify_eigenpairs(
            spectral._spec_bands(spec), report.eigenvectors, report.eigenvalues
        )
        assert worst <= 1e-12

    def test_calls_no_eigensolver_and_forms_no_dense_h(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ring_spectrum called an eigensolver or built a dense H")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(lattice, "_dense", refuse)
        report = ring_spectrum(LatticeSpec(geometry=Geometry.Ring, kappa1=0.8 + 0.3j, sites=64))
        assert report.eigenvalues.size == 64

    def test_near_overflow_eigenvalue_product(self):
        # kappa1 * e^{iq} warns of an intermediate overflow at an odd size
        # although every product is finite; past the float range it is refused
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=1.5e308 + 6e307j, sites=65)
        q = 2.0 * np.pi * np.arange(65) / 65
        with np.errstate(over="ignore"):
            want = spec.kappa1 * np.exp(1j * q)
        assert np.array_equal(ring_spectrum(spec).eigenvalues, want)
        with pytest.raises(ComputationError, match="ring eigenvalue product returned non-finite"):
            ring_spectrum(LatticeSpec(geometry=Geometry.Ring, kappa1=1.5e308 + 1.5e308j, sites=8))

    def test_geometry_validation(self):
        with pytest.raises(ValidationError):
            ring_spectrum(chain(4))
        with pytest.raises(ValidationError):
            ring_spectrum(LatticeSpec(geometry=Geometry.Ring, kappa1=1.0, sites=4, force=0.5))


def _clusters_by_connected_components(eigenvalues, tol):
    """The clustering as scipy's graph routine gives it, for reference."""
    from scipy.sparse.csgraph import connected_components

    close = np.abs(eigenvalues[:, None] - eigenvalues[None, :]) <= tol
    _, labels = connected_components(close, directed=False)
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return sorted(groups.values(), key=lambda g: (eigenvalues[g[0]].real, eigenvalues[g[0]].imag))


class TestClusterLabelling:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_connected_components_on_random_points(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 60))
        points = rng.uniform(0, 1, count) + 1j * rng.uniform(0, 1, count)
        tol = float(rng.uniform(0.02, 0.3))
        want = _clusters_by_connected_components(points, tol)
        assert spectral._cluster_indices(points, tol) == want

    def test_chains_connected_only_transitively(self):
        # two shuffled chains of points 0.9 apart; the ends of each lie many
        # tolerances apart and join only through the links between them
        rng = np.random.default_rng(5)
        links = np.concatenate([0.9 * np.arange(40), 100.0 + 0.9j * np.arange(25)])
        points = links[rng.permutation(links.size)]
        got = spectral._cluster_indices(points, 1.0)
        assert sorted(len(g) for g in got) == [25, 40]
        assert got == _clusters_by_connected_components(points, 1.0)

    def test_isolated_points_stay_apart(self):
        points = np.array([0.0, 3.0, 1.0, 2.0]) + 0j
        assert spectral._cluster_indices(points, 0.5) == [[0], [2], [3], [1]]


class TestAnalyzeSpectrum:
    def test_truncated_chain_is_a_single_jordan_block(self):
        report = analyze_spectrum(build_hamiltonian(chain(4)))
        assert report.is_defective
        assert report.eigenvectors is None
        assert len(report.clusters) == 1
        c = report.clusters[0]
        assert abs(c.value) < 1e-12
        assert c.multiplicity == 4
        assert c.jordan_blocks == (4,)
        assert c.ep_order == 4

    @pytest.mark.parametrize("sites", [2, 5, 9, 12])
    def test_ep_order_scales_with_size(self, sites):
        report = analyze_spectrum(build_hamiltonian(chain(sites, kappa1=0.8 - 0.5j)))
        assert len(report.clusters) == 1
        assert report.clusters[0].ep_order == sites

    @pytest.mark.parametrize("kappa1", [1e-310, 1e-6, 1e-3, 1e3, 1e6, 1e308])
    def test_jordan_structure_is_scale_invariant(self, kappa1):
        # H -> s H keeps the Jordan structure: the 120-site chain is one block
        # of size 120, J_3(0) + J_2(0) + J_1(1) keeps its blocks at every s, and
        # s I_3 is one cluster at s whose mean no sum overflows, even at 1e308;
        # a subnormal s divides without its reciprocal, which would overflow
        # (the sum as given reads its blocks from its entries, scrambled by SVD)
        report = analyze_spectrum(build_hamiltonian(chain(120, kappa1=kappa1)))
        assert [c.jordan_blocks for c in report.clusters] == [(120,)]
        entries = np.zeros((6, 6), dtype=complex)
        entries[0, 1] = entries[1, 2] = entries[3, 4] = 1.0
        entries[5, 5] = 1.0
        for m in (entries, scrambled(entries)):
            report = analyze_spectrum(HamiltonianMatrix(entries=kappa1 * m))
            assert [c.jordan_blocks for c in report.clusters] == [(3, 2), (1,)]
        report = analyze_spectrum(HamiltonianMatrix(entries=kappa1 * np.eye(3)))
        assert [(c.value, c.jordan_blocks) for c in report.clusters] == [(kappa1, (1, 1, 1))]

    def test_forced_chain_is_simple(self):
        report = analyze_spectrum(build_hamiltonian(chain(4, force=0.7)))
        assert not report.is_defective
        assert report.eigenvectors is not None
        got = sorted(ev.real for ev in report.eigenvalues)
        assert np.allclose(got, [0.0, 0.7, 1.4, 2.1], atol=1e-12)
        assert np.max(np.abs(np.asarray(report.eigenvalues).imag)) < 1e-12

    def test_identity_is_degenerate_but_diagonalizable(self):
        report = analyze_spectrum(HamiltonianMatrix(entries=np.eye(3, dtype=complex)))
        assert not report.is_defective
        assert len(report.clusters) == 1
        assert report.eigenvectors is not None
        c = report.clusters[0]
        assert c.value == pytest.approx(1.0)
        assert c.jordan_blocks == (1, 1, 1)
        assert c.ep_order == 1

    def test_zero_matrix(self):
        report = analyze_spectrum(HamiltonianMatrix(entries=np.zeros((4, 4), dtype=complex)))
        assert not report.is_defective
        assert report.clusters[0].jordan_blocks == (1, 1, 1, 1)

    def test_defective_report_solves_for_no_eigenvectors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eig called for a defective matrix")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        report = analyze_spectrum(build_hamiltonian(chain(256)))
        assert [c.jordan_blocks for c in report.clusters] == [(256,)]
        assert report.eigenvectors is None

    @pytest.mark.parametrize(
        "entries",
        [
            np.eye(3, dtype=complex),
            np.zeros((4, 4), dtype=complex),
            build_hamiltonian(LatticeSpec(geometry=Geometry.Ring, kappa1=0.0, sites=5)).entries,
        ],
        ids=["identity", "zero", "ring-kappa1-0"],
    )
    def test_degenerate_diagonalizable_keeps_its_eigenbasis(self, entries):
        # one cluster of several members, yet no block above size 1: the
        # report is not defective and must carry its eigenvectors
        report = analyze_spectrum(HamiltonianMatrix(entries=entries))
        assert not report.is_defective
        assert [c.jordan_blocks for c in report.clusters] == [(1,) * entries.shape[0]]
        v = report.eigenvectors
        assert v is not None
        assert np.linalg.norm(entries @ v - v * report.eigenvalues) <= 1e-12

    def test_diagonalizable_report_is_the_direct_eigensolve(self):
        entries = build_hamiltonian(chain(64, kappa1=0.8 - 0.5j, force=0.6)).entries
        report = analyze_spectrum(HamiltonianMatrix(entries=entries))
        values, vectors = np.linalg.eig(entries)
        assert report.eigenvalues.tobytes() == values.tobytes()
        assert report.eigenvectors.tobytes() == vectors.tobytes()

    @pytest.mark.parametrize(
        "entries, jordan",
        [
            (build_hamiltonian(chain(64, kappa1=0.8 - 0.5j, force=0.6)).entries, 0),
            (np.eye(3), 0),
            (rotated(np.eye(3)), 1),
        ],
        ids=["forced-chain", "identity", "rotated-identity"],
    )
    def test_eigenvalues_are_clustered_once(self, monkeypatch, entries, jordan):
        # the eigenbasis solve of a diagonalizable report keeps the first
        # pass's clusters; a bidiagonal H reads its blocks from its entries,
        # and the rotated identity's one cluster is ranked once
        calls = {"_cluster_indices": 0, "_jordan_blocks": 0}
        for name in calls:
            real = getattr(spectral, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(spectral, name, counted)
        report = analyze_spectrum(HamiltonianMatrix(entries=entries))
        assert report.eigenvectors is not None
        assert calls == {"_cluster_indices": 1, "_jordan_blocks": jordan}

    def test_mixed_block_structure(self):
        # direct sum of a 2-block and a 1-block at 0, plus a simple eigenvalue 3
        entries = np.zeros((4, 4), dtype=complex)
        entries[0, 1] = 1.0
        entries[3, 3] = 3.0
        report = analyze_spectrum(HamiltonianMatrix(entries=entries))
        by_value = {round(c.value.real, 6): c for c in report.clusters}
        assert by_value[0.0].jordan_blocks == (2, 1)
        assert by_value[0.0].ep_order == 2
        assert by_value[3.0].jordan_blocks == (1,)
        assert report.is_defective

    def test_report_invariants(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        for entries in (m, np.diag([1.0, 1.0, 2.0, 2.0, 2.0]).astype(complex)):
            report = analyze_spectrum(HamiltonianMatrix(entries=entries))
            assert sum(c.multiplicity for c in report.clusters) == entries.shape[0]
            for c in report.clusters:
                assert sum(c.jordan_blocks) == c.multiplicity
                assert c.ep_order == max(c.jordan_blocks)
            assert report.is_defective == any(c.ep_order > 1 for c in report.clusters)

    def test_ep_perturbation_scaling(self):
        # a corner defect of size delta splits the EP into a ring of radius
        # ~ delta^(1/sites)
        sites, delta = 6, 1e-9
        entries = build_hamiltonian(chain(sites)).entries.copy()
        entries[sites - 1, 0] = delta
        split = np.max(np.abs(np.linalg.eigvals(entries)))
        expected = delta ** (1.0 / sites)
        assert 0.5 * expected < split < 2.0 * expected

    def test_clustering_is_transitive(self):
        # the ends are 1.2e-8 apart, beyond delta = 1e-8, but each is within
        # delta of the middle value, so all three form one cluster
        entries = np.diag([0.0, 0.6e-8, 1.2e-8, 1.0]).astype(complex)
        report = analyze_spectrum(HamiltonianMatrix(entries=entries))
        assert [c.jordan_blocks for c in report.clusters] == [(1, 1, 1), (1,)]
        assert not report.is_defective

    @pytest.mark.parametrize(
        "entries, want",
        [
            (0.3 * np.eye(3), [(1, 1, 1)]),
            (np.diag([0.0, 1e-9, 1.0]), [(1, 1), (1,)]),
            (cmath.exp(1j) * (np.eye(3) + np.diag([1.0, 1.0], 1)), [(3,)]),
            (rotated(0.3 * np.eye(3)), [(1, 1, 1)]),
            (rotated(np.diag([0.0, 1e-9, 1.0])), [(1, 1), (1,)]),
            (scrambled(cmath.exp(1j) * (np.eye(3) + np.diag([1.0, 1.0], 1))), [(3,)]),
        ],
        ids=["scaled-identity", "close-pair", "rotated-J3",
             "scaled-identity-svd", "close-pair-svd", "rotated-J3-svd"],
    )
    def test_one_scale_for_clusters_and_ranks(self, entries, want):
        # each cluster's ranks are taken at the distance that formed it, so
        # values merged within delta are one eigenvalue to the rank test too,
        # and a cluster value an ulp off its eigenvalue still gives one block;
        # the bidiagonal inputs read the same blocks from their entries
        # (diag(0, 1e-10, 2e-10, 1) is test_close_distinct_eigenvalues_are_not_one_block)
        report = analyze_spectrum(HamiltonianMatrix(entries=entries.astype(complex)))
        assert [c.jordan_blocks for c in report.clusters] == want

    def test_cluster_derives_multiplicity_and_ep_order(self):
        c = SpectrumCluster(value=0j, jordan_blocks=(3, 1))
        assert c.multiplicity == 4
        assert c.ep_order == 3


BLOCK_VALUES = [0.0, 1.0, 0.5j, cmath.exp(1j)]


def jordan_sum(blocks, order):
    """The direct sum of J_size(value) over ``blocks``, rows and columns permuted."""
    dim = sum(size for size, _ in blocks)
    entries = np.zeros((dim, dim), dtype=complex)
    start = 0
    for size, value in blocks:
        for i in range(start, start + size):
            entries[i, i] = value
            if i + 1 < start + size:
                entries[i, i + 1] = 1.0
        start += size
    return entries[np.ix_(order, order)]


def weyr_blocks(shifted, multiplicity):
    """Block sizes from numpy's ranks of all powers 1..m, an oracle for exact sums."""
    dim = shifted.shape[0]
    ranks = [dim]
    power = np.eye(dim, dtype=complex)
    for _ in range(multiplicity):
        power = power @ shifted
        ranks.append(int(np.linalg.matrix_rank(power)))
    deficits = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
    blocks = []
    for k in range(1, len(deficits)):
        blocks.extend([k] * (deficits[k - 1] - deficits[k]))
    return tuple(sorted(blocks, reverse=True))


def counting_rank(monkeypatch, rank=None):
    """Count the rank decisions; ``rank`` may replace their result."""
    calls = []
    real = spectral._rank_of

    def counted(sv):
        calls.append(sv)
        return real(sv) if rank is None else (rank(sv), False)

    monkeypatch.setattr(spectral, "_rank_of", counted)
    return calls


class TestJordanShortcut:
    def test_inconsistent_nullities_are_refused(self, monkeypatch):
        # every rank read as 2 gives J_4 nullity 2, so the staircase runs;
        # its 2 x 2 compression then has nullity 0, and nullities [2, 0]
        # give blocks (1, 1), which do not sum to 4.  Permuted out of its
        # bidiagonal form, J_4 takes its blocks from SVD ranks
        calls = counting_rank(monkeypatch, lambda sv: 2)
        with pytest.raises(ComputationError) as info:
            analyze_spectrum(HamiltonianMatrix(entries=jordan_sum([(4, 0.0)], [3, 0, 2, 1])))
        assert str(info.value) == (
            "Jordan structure inconsistent with cluster multiplicity "
            "(nullities [2, 0], multiplicity 4)"
        )
        assert [len(sv) for sv in calls] == [4, 4, 2]  # the first rank, then two steps

    @pytest.mark.parametrize("dim", [4, 1])
    def test_scaled_identity_takes_no_svd_and_no_eigvals(self, monkeypatch, dim):
        # lambda I is diagonal, so bidiagonal: dim blocks of size 1 at lambda,
        # read from the entries, the zero matrix among them
        for name in ("svd", "eigvals"):

            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"np.linalg.{_name} called on a scaled identity")

            monkeypatch.setattr(np.linalg, name, refuse)
        for lam in (0.0, 0.3 - 0.2j):
            report = analyze_spectrum(HamiltonianMatrix(entries=lam * np.eye(dim)))
            assert [c.jordan_blocks for c in report.clusters] == [(1,) * dim]
            assert report.clusters[0].value == pytest.approx(lam, rel=1e-15, abs=0.0)

    def test_chain_takes_no_svd(self, monkeypatch):
        # a one-way chain is bidiagonal: its eigenvalues are its diagonal and
        # its blocks follow from the entries, with no eigensolve and no SVD
        calls = []
        for name in ("svd", "eigvals"):

            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        for force, want in ((0.0, [(256,)]), (0.6, [(1,)] * 256)):
            report = analyze_spectrum(build_hamiltonian(chain(256, force=force)))
            assert [c.jordan_blocks for c in report.clusters] == want
        assert calls == []

    def test_bidiagonal_route_matches_the_dense_engine(self, monkeypatch):
        # a seeded sweep of lattice specs (kappa1 = 0 and windows far from the
        # origin among them) and Jordan sums, as given, transposed or
        # permuted; each bidiagonal one is analysed by the route and, with the
        # route off, by the dense engine.  The eigenvalue multisets agree, and
        # the route gives the exact blocks, where the dense engine reads false
        # exceptional points on forced ladders spaced near delta * s
        rng = np.random.default_rng(25)
        cases = []  # (entries, "F = 0", "F != 0" or the Jordan sum's values)

        def add(spec):
            cases.append((build_hamiltonian(spec).entries, "F != 0" if spec.force else "F = 0"))

        for _ in range(300):
            kappa1 = 10.0 ** rng.uniform(-6.0, 6.0) * cmath.exp(2j * math.pi * rng.uniform())
            # kappa2 and F relative to kappa1; a force near delta * s gives
            # clusters of distinct levels coupled by the bidiagonal bonds
            kappa2 = 0.0 if rng.uniform() < 0.75 else 10.0 ** rng.uniform(-9.0, 0.0)
            scales = [0.0, 0.0, 10.0 ** rng.uniform(-10.0, -7.0), 10.0 ** rng.uniform(-7.0, 0.0)]
            force = rng.choice(scales)
            sites = int(rng.integers(2, 65))
            geometry = [Geometry.FiniteChain, Geometry.Ring, Geometry.InfiniteChain][sites % 3]
            extent = {"window": (-sites // 2, sites - sites // 2)}
            if geometry is not Geometry.InfiniteChain:
                extent = {"sites": sites}
            add(LatticeSpec(geometry=geometry, kappa1=kappa1, kappa2=kappa2 * kappa1,
                            force=force * abs(kappa1), **extent))
        for _ in range(80):
            sizes = rng.integers(1, 7, size=rng.integers(1, 4))
            values = rng.choice(BLOCK_VALUES, size=sizes.size)
            dim = int(sizes.sum())
            order = rng.permutation(dim) if rng.uniform() < 0.3 else range(dim)
            entries = jordan_sum(list(zip(sizes, values)), order)
            entries = np.ascontiguousarray(entries.T) if rng.uniform() < 0.5 else entries
            cases.append((entries, values))
        for index in range(120):
            sites, phase = int(rng.integers(2, 65)), cmath.exp(2j * math.pi * rng.uniform())
            if index < 60:  # one-way to the left, free or forced, on a chain or a window
                kappa2 = 10.0 ** rng.uniform(-6.0, 6.0) * phase
                force = [0.0, 10.0 ** rng.uniform(-10.0, -7.0), 10.0 ** rng.uniform(-7.0, 0.0)]
                extent = {"window": (-sites // 2, sites - sites // 2)}
                add(LatticeSpec(geometry=[Geometry.FiniteChain, Geometry.InfiniteChain][index % 2],
                                kappa1=0.0, kappa2=kappa2, force=force[index % 3] * abs(kappa2),
                                **({"sites": sites} if index % 2 == 0 else extent)))
            else:  # a forced window 10^3 to 10^9 sites from the origin
                start, force = int(10.0 ** rng.uniform(3.0, 9.0)), 10.0 ** rng.uniform(-3.0, 0.0)
                add(LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=phase, force=force,
                                window=(start, start + sites - 1)))

        segments = spectral._segments
        cases = [(m, exact) for m, exact in cases if segments(m) is not None]
        assert len(cases) >= 300
        route = [analyze_spectrum(HamiltonianMatrix(entries=m)) for m, _ in cases]
        monkeypatch.setattr(spectral, "_segments", lambda entries: None)
        changed = 0
        for (m, exact), ours in zip(cases, route):
            try:
                theirs = analyze_spectrum(HamiltonianMatrix(entries=m))
                values, verdict = theirs.eigenvalues, [c.jordan_blocks for c in theirs.clusters]
            except ComputationError:  # a far window's wide cluster: no staircase sums to it
                values, verdict = np.linalg.eigvals(m), None
            assert np.array_equal(np.sort_complex(ours.eigenvalues), np.sort_complex(values))
            blocks = [c.jordan_blocks for c in ours.clusters]
            if isinstance(exact, str):
                want = [(m.shape[0],)] if exact == "F = 0" else [(1,) * len(b) for b in blocks]
            else:
                nearest = [min(exact, key=lambda v, c=c: abs(v - c.value)) for c in ours.clusters]
                want = [weyr_blocks(m - v * np.eye(m.shape[0]), c.multiplicity)
                        for v, c in zip(nearest, ours.clusters)]
            assert blocks == want
            changed += blocks != verdict
        assert changed >= 30  # the dense engine's false exceptional points and refusals

    def test_close_distinct_eigenvalues_are_not_one_block(self, monkeypatch):
        # {0, 1e-10, 2e-10} lies within delta: as distinct diagonal entries it
        # is three blocks of size 1 with no rank taken, and under a unitary
        # similarity H - lambda has nullity 3 at the clustering scale, three
        # blocks of size 1 from one rank
        calls = counting_rank(monkeypatch)
        entries = np.diag([0.0, 1e-10, 2e-10, 1.0]).astype(complex)
        for m in (entries, rotated(entries)):
            report = analyze_spectrum(HamiltonianMatrix(entries=m))
            assert [c.jordan_blocks for c in report.clusters] == [(1, 1, 1), (1,)]
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "blocks, gap, want",
        [((2, 1), 5e-5, (2, 1)), ((3, 1), 1e-5, (3, 1)), ((2, 2, 1), 1e-4, (2, 2, 1))],
    )
    def test_mixed_blocks_beside_a_close_simple_eigenvalue(self, blocks, gap, want):
        # a simple eigenvalue at ``gap`` from a cluster with 1 < d_1 < m: the
        # staircase keeps its singular value near ``gap`` at every step, so
        # it is never counted as null, as it would be in a power of H - lambda
        # (the sum as given reads its blocks from its entries, scrambled by SVD)
        entries = jordan_sum([(size, 0.0) for size in blocks] + [(1, gap)], range(sum(blocks) + 1))
        for m in (entries, scrambled(entries)):
            report = analyze_spectrum(HamiltonianMatrix(entries=m))
            assert [c.jordan_blocks for c in report.clusters] == [want, (1,)]


class TestJordanProperties:
    @settings(deadline=None, max_examples=12)
    @given(
        sites=st.integers(1, 512),
        log_kappa=st.floats(-6.0, 6.0),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    def test_chain_is_one_block_of_full_order(self, sites, log_kappa, phase):
        kappa1 = 10.0**log_kappa * cmath.exp(1j * phase)
        report = analyze_spectrum(build_hamiltonian(chain(sites, kappa1=kappa1)))
        assert [c.jordan_blocks for c in report.clusters] == [(sites,)]

    @settings(deadline=None, max_examples=40)
    @given(
        sizes=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        value=st.sampled_from(BLOCK_VALUES),
        data=st.data(),
    )
    def test_permuted_nilpotent_sum(self, sizes, value, data):
        # J_{s1}(v) + J_{s2}(v) + ..., rows and columns permuted: one cluster
        dim = sum(sizes)
        order = data.draw(st.permutations(range(dim)))
        entries = jordan_sum([(size, value) for size in sizes], order)
        want = tuple(sorted(sizes, reverse=True))
        report = analyze_spectrum(HamiltonianMatrix(entries=entries))
        assert [c.jordan_blocks for c in report.clusters] == [want]
        assert weyr_blocks(entries - value * np.eye(dim), dim) == want

    @settings(deadline=None, max_examples=40)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        value=st.sampled_from(BLOCK_VALUES),
        log_scale=st.floats(-6.0, 6.0),
        phase=st.floats(0.0, 2.0 * math.pi),
        data=st.data(),
    )
    def test_scaling_keeps_the_blocks(self, sizes, value, log_scale, phase, data):
        # Jordan blocks at one value beside simple eigenvalues, under H -> s H;
        # the cluster's mean may miss s * value by an ulp
        others = [v for v in BLOCK_VALUES + [-2.0 + 1.0j] if v != value]
        simple = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
        blocks = [(size, value) for size in sizes] + [(1, v) for v in simple]
        order = data.draw(st.permutations(range(sum(sizes) + len(simple))))
        entries = jordan_sum(blocks, order)
        s = 10.0**log_scale * cmath.exp(1j * phase)
        found = [
            sorted(c.jordan_blocks for c in analyze_spectrum(HamiltonianMatrix(entries=m)).clusters)
            for m in (entries, s * entries)
        ]
        assert found[0] == found[1] == sorted([tuple(sorted(sizes, reverse=True))] + [(1,)] * len(simple))

    @settings(deadline=None, max_examples=40)
    @given(
        counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        log_scale=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(counts=[1, 3], log_scale=0.0, seed=0)
    @example(counts=[2, 2, 2], log_scale=0.0, seed=0)
    def test_rotated_degenerate_diagonalizable_is_all_ones(self, counts, log_scale, seed):
        # Q diag(v_1 (count_1 times), v_2, ...) Q^H for a random unitary Q:
        # rounding leaves every eigenvalue within eps ||H|| and every cluster
        # nullity intact, so each value is count_i blocks of size 1
        values = [v for v, count in zip(BLOCK_VALUES + [-2.0 + 1.0j], counts) for _ in range(count)]
        rng = np.random.default_rng(seed)
        dim = len(values)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        entries = 10.0**log_scale * (q * np.array(values)) @ q.conj().T
        report = analyze_spectrum(HamiltonianMatrix(entries=entries))
        assert sorted(c.jordan_blocks for c in report.clusters) == sorted((1,) * c for c in counts)
        assert report.eigenvectors is not None


class TestWannierStark:
    def test_reference_amplitudes_chain(self):
        spec = chain(4, kappa1=0.6, force=0.6)  # kappa1/F = 1
        (state,) = wannier_stark_states(spec, [2])
        assert state.amplitude(2) == pytest.approx(1.0)
        assert state.amplitude(1) == pytest.approx(1.0)
        assert state.amplitude(0) == pytest.approx(0.5)
        assert state.amplitude(3) == 0j
        assert state.energy == pytest.approx(1.2)

    def test_ladder_bottom_is_point_mass(self):
        spec = chain(5, kappa1=1.0, force=0.4)
        (state,) = wannier_stark_states(spec, [0])
        amps = np.asarray(state.amplitudes.amps)
        assert amps[0] == 1.0
        assert np.array_equal(amps[1:], np.zeros(4))

    def test_reference_amplitudes_infinite_window(self):
        spec = LatticeSpec(
            geometry=Geometry.InfiniteChain, kappa1=1.0, force=0.5, window=(-3, 1)
        )  # kappa1/F = 2
        (state,) = wannier_stark_states(spec, [0])
        assert state.amplitude(0) == pytest.approx(1.0)
        assert state.amplitude(-1) == pytest.approx(2.0)
        assert state.amplitude(-2) == pytest.approx(2.0)
        assert state.amplitude(-3) == pytest.approx(4.0 / 3.0)
        assert state.amplitude(1) == 0j

    def test_energies_and_residuals(self):
        spec = chain(16, kappa1=1.0, force=0.6)
        h = build_hamiltonian(spec).entries
        h_norm = np.linalg.norm(h, 2)
        for state in wannier_stark_states(spec, range(16)):
            assert state.energy == pytest.approx(state.ladder_index * 0.6)
            a = np.asarray(state.amplitudes.amps)
            residual = np.linalg.norm(h @ a - state.energy * a)
            assert residual <= 1e-10 * h_norm * np.linalg.norm(a)

    def test_complex_hopping_residuals(self):
        spec = chain(12, kappa1=0.9 - 1.1j, force=-0.8)
        h = build_hamiltonian(spec).entries
        h_norm = np.linalg.norm(h, 2)
        for state in wannier_stark_states(spec, [0, 5, 11]):
            a = np.asarray(state.amplitudes.amps)
            residual = np.linalg.norm(h @ a - state.energy * a)
            assert residual <= 1e-10 * h_norm * np.linalg.norm(a)

    def test_norm_matches_bessel_on_wide_window(self):
        kappa1, force = 1.0, 0.6
        r = abs(kappa1 / force)
        spec = LatticeSpec(
            geometry=Geometry.InfiniteChain, kappa1=kappa1, force=force, window=(-60, 2)
        )
        (state,) = wannier_stark_states(spec, [2])
        captured = float(np.sum(np.abs(state.amplitudes.amps) ** 2))
        assert captured == pytest.approx(float(i0(2 * r)), rel=1e-12)
        assert state.tail_mass < 1e-12

    def test_tail_mass_bound_and_monotonicity(self):
        kappa1, force = 1.0, 0.6
        r = abs(kappa1 / force)
        depth = int(20 + 4 * r)
        wide = LatticeSpec(
            geometry=Geometry.InfiniteChain, kappa1=kappa1, force=force, window=(-depth, 1)
        )
        (state_wide,) = wannier_stark_states(wide, [0])
        assert state_wide.tail_mass < 1e-12
        narrow = LatticeSpec(
            geometry=Geometry.InfiniteChain, kappa1=kappa1, force=force, window=(-2, 1)
        )
        (state_narrow,) = wannier_stark_states(narrow, [0])
        assert state_narrow.tail_mass > state_wide.tail_mass
        assert 0.0 < state_narrow.tail_mass < 1.0

    @pytest.mark.parametrize(
        "spec",
        [
            chain(12, kappa1=0.9 - 1.1j, force=-0.8),
            chain(12, kappa1=0.9 - 1.1j, force=0.8),
            LatticeSpec(
                geometry=Geometry.InfiniteChain, kappa1=-0.4 + 1.3j, force=0.5, window=(-7, 4)
            ),
            LatticeSpec(
                geometry=Geometry.InfiniteChain, kappa1=-0.4 + 1.3j, force=-0.5, window=(-7, 4)
            ),
        ],
        ids=["chain-F<0", "chain-F>0", "window-F>0", "window-F<0"],
    )
    def test_amplitudes_are_prefixes_of_one_kernel(self, monkeypatch, spec):
        calls = []
        real = spectral._factorial_powers

        def counted(z, count):
            calls.append(count)
            return real(z, count)

        monkeypatch.setattr(spectral, "_factorial_powers", counted)
        indices = spec.site_indices
        states = wannier_stark_states(spec, indices)
        assert len(calls) == 1
        z = spec.kappa1 / spec.force
        for l, state in zip(indices, states):
            count = int(l) - spec.offset + 1
            amps = np.asarray(state.amplitudes.amps)
            assert amps[:count].tobytes() == real(z, count)[::-1].tobytes()
            assert not amps[count:].any()

    @pytest.mark.parametrize("l_range", [[1.5, 2.9], [float("nan")], [math.inf], ["one"]])
    def test_non_integer_ladder_indices_are_rejected(self, l_range):
        with pytest.raises(ValidationError, match="ladder indices must be integers"):
            wannier_stark_states(chain(4, force=0.5), l_range)

    def test_integer_valued_float_indices_are_accepted(self):
        states = wannier_stark_states(chain(4, force=0.5), [2.0, 0.0])
        assert [s.ladder_index for s in states] == [2, 0]
        assert [type(s.ladder_index) for s in states] == [int, int]

    def test_validations(self):
        with pytest.raises(ValidationError):
            wannier_stark_states(chain(4, force=0.0), [0])
        with pytest.raises(ValidationError):
            wannier_stark_states(chain(4, kappa2=0.1, force=0.5), [0])
        with pytest.raises(ValidationError):
            wannier_stark_states(
                LatticeSpec(geometry=Geometry.Ring, kappa1=1.0, force=0.5, sites=4), [0]
            )
        with pytest.raises(ValidationError):
            wannier_stark_states(chain(4, force=0.5), [4])
        with pytest.raises(ValidationError):
            wannier_stark_states(chain(4, kappa1=400.0, force=1.0), [0])
