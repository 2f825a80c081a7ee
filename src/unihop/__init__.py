"""unihop: spectra and dynamics of tight-binding lattices with unidirectional hopping.

The package covers, for the lattice equation
i dc_n/dt = kappa1 c_{n+1} + kappa2 c_{n-1} + F n c_n:

- construction of the Hamiltonian on chains, rings and site windows
  (:mod:`unihop.lattice`);
- spectra, Jordan/exceptional-point structure, Wannier-Stark ladders
  (:mod:`unihop.spectral`);
- closed-form and RK4 time evolution, Bloch-oscillation observables
  (:mod:`unihop.dynamics`);
- flux-driven rings: monodromy and quasi-energy collapse
  (:mod:`unihop.floquet`);
- synthesis of unidirectional hopping from modulated complex potentials and
  the mode-locked-laser realization (:mod:`unihop.engineering`).

The ``unihop`` console script (see :mod:`unihop.cli`) exposes the same
operations with CSV/JSON output.
"""

from .errors import (
    ComputationError,
    EdgeLeakError,
    OverflowAbort,
    RootNotFoundError,
    StalledIterationError,
    UnihopError,
    ValidationError,
)
from .lattice import (
    Geometry,
    HamiltonianMatrix,
    LatticeSpec,
    StateVector,
    build_hamiltonian,
    hop_parts,
    rhs,
)
from .spectral import (
    DispersionSample,
    SpectrumCluster,
    SpectrumReport,
    WannierStarkState,
    analyze_spectrum,
    bloch_dispersion,
    ring_spectrum,
    wannier_stark_states,
)
from .dynamics import (
    EvolveConfig,
    StateTrajectory,
    center_of_mass,
    evolve_closed_form,
    evolve_rk4,
    gaussian_state,
    propagator_entry_unidirectional,
    revival_error,
    single_site_state,
)
from .floquet import (
    FluxDrive,
    QuasiEnergyReport,
    fold_quasi_energy,
    monodromy,
    quasi_energies_analytic,
)
from .engineering import (
    EffectiveHopping,
    LaserCouplings,
    LaserParams,
    ModulationProtocol,
    RwaSample,
    UnidirectionalRoot,
    effective_hopping,
    effective_hopping_quadrature,
    kick_events,
    laser_effective_couplings,
    laser_evolve,
    laser_hamiltonian,
    modulation_envelope,
    potential,
    rwa_validate,
    solve_unidirectional,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "UnihopError",
    "ValidationError",
    "ComputationError",
    "OverflowAbort",
    "RootNotFoundError",
    "StalledIterationError",
    "EdgeLeakError",
    # lattice
    "Geometry",
    "LatticeSpec",
    "HamiltonianMatrix",
    "StateVector",
    "build_hamiltonian",
    "hop_parts",
    "rhs",
    # spectral
    "DispersionSample",
    "SpectrumCluster",
    "SpectrumReport",
    "WannierStarkState",
    "bloch_dispersion",
    "ring_spectrum",
    "analyze_spectrum",
    "wannier_stark_states",
    # dynamics
    "EvolveConfig",
    "StateTrajectory",
    "single_site_state",
    "gaussian_state",
    "propagator_entry_unidirectional",
    "evolve_closed_form",
    "evolve_rk4",
    "center_of_mass",
    "revival_error",
    # floquet
    "FluxDrive",
    "QuasiEnergyReport",
    "fold_quasi_energy",
    "quasi_energies_analytic",
    "monodromy",
    # engineering
    "ModulationProtocol",
    "EffectiveHopping",
    "UnidirectionalRoot",
    "RwaSample",
    "LaserParams",
    "LaserCouplings",
    "modulation_envelope",
    "potential",
    "kick_events",
    "effective_hopping",
    "effective_hopping_quadrature",
    "solve_unidirectional",
    "rwa_validate",
    "laser_effective_couplings",
    "laser_hamiltonian",
    "laser_evolve",
]
