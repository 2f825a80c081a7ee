"""Hamiltonian construction, lattice specs, and the equation-of-motion RHS."""

import numpy as np
import pytest

from unihop import (
    Geometry,
    HamiltonianMatrix,
    LatticeSpec,
    StateVector,
    ValidationError,
    build_hamiltonian,
    hop_parts,
    rhs,
)
from unihop.lattice import _band_product


def chain(sites, kappa1=1.0, kappa2=0j, force=0.0):
    return LatticeSpec(
        geometry=Geometry.FiniteChain, kappa1=kappa1, kappa2=kappa2, force=force, sites=sites
    )


def ring(sites, kappa1=1.0, kappa2=0j, force=0.0):
    return LatticeSpec(
        geometry=Geometry.Ring, kappa1=kappa1, kappa2=kappa2, force=force, sites=sites
    )


def infinite(window, kappa1=1.0, kappa2=0j, force=0.0):
    return LatticeSpec(
        geometry=Geometry.InfiniteChain,
        kappa1=kappa1,
        kappa2=kappa2,
        force=force,
        window=window,
    )


class TestGeometryAndSpec:
    def test_geometry_values(self):
        assert Geometry.InfiniteChain.value == "infinite"
        assert Geometry.FiniteChain.value == "chain"
        assert Geometry.Ring.value == "ring"

    def test_dim_offset_sites(self):
        spec = infinite((-2, 3))
        assert spec.dim == 6
        assert spec.offset == -2
        assert list(spec.site_indices) == [-2, -1, 0, 1, 2, 3]
        assert chain(5).dim == 5
        assert chain(5).offset == 0
        assert ring(4).dim == 4

    def test_single_site_chain_allowed(self):
        assert chain(1).dim == 1

    @pytest.mark.parametrize(
        "bad",
        [
            dict(geometry=Geometry.FiniteChain, kappa1=1.0, sites=0),
            dict(geometry=Geometry.FiniteChain, kappa1=1.0, sites=2.5),
            dict(geometry=Geometry.FiniteChain, kappa1=1.0),
            dict(geometry=Geometry.Ring, kappa1=1.0, sites=1),
            dict(geometry=Geometry.InfiniteChain, kappa1=1.0),
            dict(geometry=Geometry.InfiniteChain, kappa1=1.0, window=(3, 3)),
            dict(geometry=Geometry.InfiniteChain, kappa1=1.0, window=(4, 1)),
            dict(geometry=Geometry.FiniteChain, kappa1=float("nan"), sites=3),
            dict(geometry=Geometry.FiniteChain, kappa1=1.0, force=float("inf"), sites=3),
            dict(geometry=Geometry.FiniteChain, kappa1=complex("inf"), sites=3),
            dict(geometry=Geometry.FiniteChain, kappa1=1.0, sites=4, window=(0, 5)),
            dict(geometry=Geometry.Ring, kappa1=1.0, sites=4, window=(0, 3)),
            dict(geometry=Geometry.InfiniteChain, kappa1=1.0, sites=99, window=(0, 3)),
        ],
    )
    def test_invalid_specs(self, bad):
        with pytest.raises(ValidationError):
            LatticeSpec(**bad)


class TestBuildHamiltonian:
    def test_jordan_shape_3(self):
        h = build_hamiltonian(chain(3)).entries
        assert np.array_equal(h, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))

    def test_stark_diagonal_3(self):
        h = build_hamiltonian(chain(3, force=0.5)).entries
        assert np.array_equal(np.diag(h), np.array([0.0, 0.5, 1.0], dtype=complex))
        assert h[0, 1] == 1.0 and h[1, 2] == 1.0
        assert h[1, 0] == 0.0 and h[2, 1] == 0.0

    def test_two_site_ring_wrap_accumulates(self):
        kappa = 0.7 - 0.2j
        h = build_hamiltonian(ring(2, kappa1=kappa)).entries
        assert np.array_equal(h, np.array([[0, kappa], [kappa, 0]]))

    def test_single_site_chain(self):
        assert np.array_equal(build_hamiltonian(chain(1)).entries, np.zeros((1, 1)))
        assert np.array_equal(
            build_hamiltonian(chain(1, force=2.0)).entries, np.zeros((1, 1))
        )

    def test_ring_wrap_entries(self):
        h = build_hamiltonian(ring(4, kappa1=1.5, kappa2=0.25j)).entries
        assert h[3, 0] == 1.5
        assert h[0, 3] == 0.25j
        for n in range(3):
            assert h[n, n + 1] == 1.5
            assert h[n + 1, n] == 0.25j

    def test_window_diagonal_uses_absolute_sites(self):
        h = build_hamiltonian(infinite((-2, 3), force=0.3)).entries
        assert np.allclose(np.diag(h), 0.3 * np.arange(-2, 4))

    def test_hermitian_when_kappa2_conjugate(self):
        for spec in (
            chain(6, kappa1=0.8 + 0.3j, kappa2=0.8 - 0.3j, force=0.4),
            ring(6, kappa1=0.8 + 0.3j, kappa2=0.8 - 0.3j),
        ):
            h = build_hamiltonian(spec).entries
            assert np.array_equal(h, h.conj().T)

    def test_nilpotent_free_chain(self):
        for sites in (2, 5, 9):
            h = build_hamiltonian(chain(sites, kappa1=1.3 - 0.4j)).entries
            power = np.linalg.matrix_power(h, sites)
            assert np.max(np.abs(power)) == 0.0

    def test_hop_parts_sum_to_hamiltonian(self):
        spec = ring(5, kappa1=1 + 2j, kappa2=0.5, force=0.7)
        fwd, bwd, diag = hop_parts(spec)
        assert np.array_equal(fwd + bwd + diag, build_hamiltonian(spec).entries)

    def test_two_site_ring_sums_corner_bonds(self):
        # the chain bond and the wrap bond join the same pair of sites
        h = build_hamiltonian(ring(2, kappa1=1 - 2j, kappa2=0.3, force=-0.5)).entries
        assert h[0, 1] == h[1, 0] == (1 - 2j) + 0.3
        assert np.array_equal(np.diag(h), [0.0, -0.5])

    def test_matrix_is_read_only(self):
        h = build_hamiltonian(chain(3))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 1.0

    def test_matrix_validation(self):
        with pytest.raises(ValidationError):
            HamiltonianMatrix(entries=np.zeros((2, 3), dtype=complex))
        with pytest.raises(ValidationError):
            HamiltonianMatrix(entries=np.array([[np.nan + 0j]]))

    def test_empty_matrix_rejected(self):
        # a 0x0 matrix has no largest entry for analyze_spectrum to scale by
        with pytest.raises(ValidationError, match="nonempty"):
            HamiltonianMatrix(entries=np.zeros((0, 0), dtype=complex))


class TestStateVector:
    def test_amplitude_lookup_and_norm(self):
        state = StateVector(offset=-1, amps=np.array([1.0, 2j, 0.0]))
        assert state.amplitude(-1) == 1.0
        assert state.amplitude(0) == 2j
        assert state.amplitude(5) == 0j
        assert state.amplitude(-2) == 0j
        assert state.norm() == pytest.approx(np.sqrt(5.0))
        assert list(state.site_indices) == [-1, 0, 1]

    def test_state_validation(self):
        with pytest.raises(ValidationError):
            StateVector(offset=0, amps=np.zeros((2, 2), dtype=complex))
        with pytest.raises(ValidationError):
            StateVector(offset=0, amps=np.array([np.inf + 0j]))


class TestRhs:
    def test_matches_matrix_action(self):
        rng = np.random.default_rng(7)
        for spec in (
            chain(6, kappa1=1.1 - 0.3j, kappa2=0.2j, force=0.5),
            ring(5, kappa1=0.9, kappa2=0.4 - 0.1j),
            infinite((-3, 4), kappa1=2.0, force=-0.7),
        ):
            amps = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
            state = StateVector(offset=spec.offset, amps=amps)
            got = rhs(spec, 0.0, state)
            h = build_hamiltonian(spec).entries
            expected = -1j * (h @ amps)
            assert np.max(np.abs(got.amps - expected)) <= 1e-15 * np.max(np.abs(expected))
            assert got.offset == spec.offset

    def test_two_site_chain_example(self):
        spec = chain(2)
        out = rhs(spec, 0.0, StateVector(offset=0, amps=np.array([0.0, 1.0 + 0j])))
        assert np.array_equal(out.amps, np.array([-1j, 0.0]))

    def test_ring_flux_phase_example(self):
        # two-site ring threaded at rate F, sampled at t = pi/F: the Peierls
        # phase is exactly -1, so dc/dt = +i * fwd @ c for c = (1, 0).
        flux_rate = 0.37
        spec = ring(2)
        out = rhs(
            spec,
            np.pi / flux_rate,
            StateVector(offset=0, amps=np.array([1.0 + 0j, 0.0])),
            flux_rate=flux_rate,
        )
        assert np.allclose(out.amps, np.array([0.0, 1j]), atol=1e-15)

    def test_zero_state_maps_to_zero(self):
        spec = ring(4, kappa1=2 - 1j, kappa2=0.3)
        out = rhs(spec, 1.3, StateVector(offset=0, amps=np.zeros(4, dtype=complex)))
        assert np.array_equal(out.amps, np.zeros(4))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        spec = ring(6, kappa1=1.2j, kappa2=0.5)
        a_amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        b_amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        alpha, beta = 1.7 - 0.2j, -0.8j
        combo = rhs(
            spec, 0.9, StateVector(offset=0, amps=alpha * a_amps + beta * b_amps),
            flux_rate=0.4,
        )
        parts = alpha * rhs(spec, 0.9, StateVector(offset=0, amps=a_amps), flux_rate=0.4).amps
        parts = parts + beta * rhs(spec, 0.9, StateVector(offset=0, amps=b_amps), flux_rate=0.4).amps
        assert np.max(np.abs(combo.amps - parts)) <= 1e-13 * np.max(np.abs(parts))

    def test_ring_flux_with_force_keeps_onsite_term(self):
        rng = np.random.default_rng(5)
        spec = ring(5, kappa1=0.9 - 0.2j, kappa2=0.4, force=0.7)
        t, flux_rate = 1.3, 0.45
        amps = rng.normal(size=5) + 1j * rng.normal(size=5)
        fwd, bwd, _ = hop_parts(spec)
        phase = np.exp(1j * flux_rate * t)
        h = phase * fwd + np.conj(phase) * bwd + np.diag(0.7 * np.arange(5))
        expected = -1j * (h @ amps)
        got = rhs(spec, t, StateVector(offset=0, amps=amps), flux_rate=flux_rate)
        assert np.max(np.abs(got.amps - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_flux_requires_ring(self):
        spec = chain(3)
        state = StateVector(offset=0, amps=np.array([1.0 + 0j, 0, 0]))
        with pytest.raises(ValidationError):
            rhs(spec, 0.0, state, flux_rate=1.0)

    def test_state_mismatch_rejected(self):
        spec = chain(3)
        with pytest.raises(ValidationError):
            rhs(spec, 0.0, StateVector(offset=0, amps=np.zeros(4, dtype=complex)))
        with pytest.raises(ValidationError):
            rhs(spec, 0.0, StateVector(offset=1, amps=np.zeros(3, dtype=complex)))


@pytest.mark.parametrize("dim", range(2, 10))
def test_band_product_matches_the_roll_formula_bitwise(dim):
    # offsets -4..4 reach past dim, so the cyclic shift must wrap them
    rng = np.random.default_rng(dim)

    def bands():
        return {k: rng.normal(size=dim) + 1j * rng.normal(size=dim) for k in range(-4, 5)}

    a, b = bands(), bands()
    want = {}
    for j, da in a.items():
        for k, db in b.items():
            term = da * np.roll(db, -j)
            want[j + k] = want[j + k] + term if j + k in want else term
    got = _band_product(a, b)
    assert sorted(got) == sorted(want)
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)
