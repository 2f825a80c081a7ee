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

import os
import types

# OpenBLAS reads this once, when numpy loads: idle workers then sleep at once
# (4 is its minimum) instead of spinning a second core; a user's value wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

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
)
from .spectral import (
    SpectrumCluster,
    SpectrumReport,
    WannierStarkState,
    analyze_spectrum,
    ring_spectrum,
    wannier_stark_states,
)
from .dynamics import (
    EvolveConfig,
    StateTrajectory,
    evolve_closed_form,
    evolve_rk4,
    gaussian_state,
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
    laser_effective_couplings,
    laser_evolve,
    laser_hamiltonian,
    rwa_validate,
    solve_unidirectional,
)

__version__ = "0.1.0"

# the public API is the version and exactly the names imported above
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
