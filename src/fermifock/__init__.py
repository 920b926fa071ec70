"""Finite-mode exact diagonalization for multi-species fermionic Hamiltonians.

The model: a fixed finite set of momentum/spin modes per fermion species, the
free part given by the relativistic dispersion, and interactions that create
or annihilate exactly one particle of every species, weighted by a sampled
kernel. Besides solving ground problems and mass-limit sweeps, the package
verifies the operator estimates that control such Hamiltonians: constant-one
form bounds, smoothing bounds with Hermite weights, interpolated blends,
infinitesimal relative bounds, and infrared finiteness of ground-state
occupation integrals.
"""


def _defer_numpy_submodules() -> None:
    """Set each of numpy's deferred submodules that is not yet imported as a
    lazy module, executed on its first attribute access: scipy's array-API
    shim reads every name in dir(numpy), and would execute numpy.f2py,
    numpy.testing and the rest that no run uses."""
    import importlib.util
    import sys

    import numpy

    for name in getattr(numpy, "__numpy_submodules__", ()):
        qualified = f"numpy.{name}"
        spec = None if qualified in sys.modules else importlib.util.find_spec(qualified)
        if spec is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
        setattr(numpy, name, module)


_defer_numpy_submodules()

from .modes import ModeTable, SpeciesConfig, build_mode_table, uniform_grid_species
from .fock import FockBasis, enumerate_basis
from .hamiltonian import (
    HamiltonianBundle,
    KernelTensor,
    ProcessSignature,
    assemble_total,
    sample_kernel_tensor,
)
from .spectra import GroundStateResult, MassCurve, ground_state, mass_sweep

__all__ = [
    "ModeTable",
    "SpeciesConfig",
    "build_mode_table",
    "uniform_grid_species",
    "FockBasis",
    "enumerate_basis",
    "HamiltonianBundle",
    "KernelTensor",
    "ProcessSignature",
    "assemble_total",
    "sample_kernel_tensor",
    "GroundStateResult",
    "MassCurve",
    "ground_state",
    "mass_sweep",
]

__version__ = "0.1.0"
