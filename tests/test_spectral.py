"""Spectra, Jordan structure, exceptional points, and Wannier-Stark ladders."""

import cmath
import math

import numpy as np
import pytest
from scipy.special import i0

from unihop import (
    ComputationError,
    Geometry,
    HamiltonianMatrix,
    LatticeSpec,
    SpectrumCluster,
    ValidationError,
    analyze_spectrum,
    bloch_dispersion,
    build_hamiltonian,
    ring_spectrum,
    wannier_stark_states,
)


def chain(sites, kappa1=1.0, kappa2=0j, force=0.0):
    return LatticeSpec(
        geometry=Geometry.FiniteChain, kappa1=kappa1, kappa2=kappa2, force=force, sites=sites
    )


class TestBlochDispersion:
    def test_reference_points(self):
        assert bloch_dispersion(1.0, [0.0])[0].energy == 1.0 + 0j
        assert bloch_dispersion(1.0, [np.pi / 2])[0].energy == pytest.approx(1j, abs=1e-15)
        assert bloch_dispersion(2j, [np.pi / 2])[0].energy == pytest.approx(-2.0, abs=1e-15)

    def test_circle_and_winding(self):
        kappa = 1.3 - 0.4j
        q = np.linspace(-np.pi, np.pi, 200, endpoint=False)
        samples = bloch_dispersion(kappa, q)
        energies = np.array([s.energy for s in samples])
        assert np.allclose(np.abs(energies), abs(kappa), atol=1e-13)
        angles = np.unwrap(np.angle(energies))
        assert angles[-1] - angles[0] == pytest.approx(2 * np.pi * (len(q) - 1) / len(q))

    def test_validation(self):
        with pytest.raises(ValidationError):
            bloch_dispersion(complex("inf"), [0.0])
        with pytest.raises(ValidationError):
            bloch_dispersion(1.0, [np.nan])


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

    def test_geometry_validation(self):
        with pytest.raises(ValidationError):
            ring_spectrum(chain(4))
        with pytest.raises(ValidationError):
            ring_spectrum(LatticeSpec(geometry=Geometry.Ring, kappa1=1.0, sites=4, force=0.5))
        with pytest.raises(ValidationError):
            ring_spectrum(LatticeSpec(geometry=Geometry.Ring, kappa1=1.0, kappa2=0.5, sites=4))


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

    @pytest.mark.parametrize("kappa1", [1e-6, 1e-3, 1e3, 1e6])
    def test_jordan_structure_is_scale_invariant(self, kappa1):
        # H -> s H keeps the Jordan structure: the 120-site chain is one block
        # of size 120, and J_3(0) + J_2(0) + J_1(1) keeps its blocks at every s
        report = analyze_spectrum(build_hamiltonian(chain(120, kappa1=kappa1)))
        assert [c.jordan_blocks for c in report.clusters] == [(120,)]
        entries = np.zeros((6, 6), dtype=complex)
        entries[0, 1] = entries[1, 2] = entries[3, 4] = 1.0
        entries[5, 5] = 1.0
        report = analyze_spectrum(HamiltonianMatrix(entries=kappa1 * entries))
        assert [c.jordan_blocks for c in report.clusters] == [(3, 2), (1,)]

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
        c = report.clusters[0]
        assert c.value == pytest.approx(1.0)
        assert c.jordan_blocks == (1, 1, 1)
        assert c.ep_order == 1

    def test_zero_matrix(self):
        report = analyze_spectrum(HamiltonianMatrix(entries=np.zeros((4, 4), dtype=complex)))
        assert not report.is_defective
        assert report.clusters[0].jordan_blocks == (1, 1, 1, 1)

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
        # ~ delta^(1/sites); the reported radius formula has the same root law
        sites, delta = 6, 1e-9
        entries = build_hamiltonian(chain(sites)).entries.copy()
        entries[sites - 1, 0] = delta
        split = np.max(np.abs(np.linalg.eigvals(entries)))
        expected = delta ** (1.0 / sites)
        assert 0.5 * expected < split < 2.0 * expected
        radius = analyze_spectrum(build_hamiltonian(chain(sites))).clusters[0].perturbation_radius
        eps = np.finfo(float).eps
        assert radius == pytest.approx(eps ** (1.0 / sites), rel=1e-12)

    def test_clustering_is_transitive(self):
        # the ends are 1.2e-16 apart, beyond tol = 1e-16, but each is within
        # tol of the middle value, so all three form one cluster
        entries = np.diag([0.0, 0.6e-16, 1.2e-16, 1.0]).astype(complex)
        report = analyze_spectrum(HamiltonianMatrix(entries=entries), cluster_tol=1e-16)
        assert [c.jordan_blocks for c in report.clusters] == [(1, 1, 1), (1,)]
        assert not report.is_defective

    def test_cluster_derives_multiplicity_and_ep_order(self):
        c = SpectrumCluster(value=0j, jordan_blocks=(3, 1), perturbation_radius=0.0)
        assert c.multiplicity == 4
        assert c.ep_order == 3

    def test_loose_tolerance_merging_distinct_eigenvalues_fails_loud(self):
        entries = np.diag([0.0, 1e-3]).astype(complex)
        with pytest.raises(ComputationError):
            analyze_spectrum(HamiltonianMatrix(entries=entries), cluster_tol=10.0)

    def test_cluster_tol_validation(self):
        h = build_hamiltonian(chain(3))
        with pytest.raises(ValidationError):
            analyze_spectrum(h, cluster_tol=0.0)


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
