"""Thermal Wigner functions and negativity volumes of the four Bell-Cat states."""

__version__ = "0.1.0"

from .errors import (
    BellCatError,
    CutoffError,
    DegenerateStateError,
    ImaginaryResidueError,
    NonFiniteError,
    NormalizationError,
    QuadratureError,
    TruncationError,
)
from .states import (
    STATE_LABELS,
    BellCatSpec,
    FockCoefficients,
    bellcat_normalization,
    coherent_overlap_sq,
    fock_coefficients,
)
from .tfd import HBAR, KB, ThermalMode, ThermalParams, gibbs_weight, state_modes, thermal_params
from .wigner import (
    GridAxis,
    PhasePoint,
    SliceDescriptor,
    WignerGrid,
    wigner_grid,
    wigner_point,
    wigner_values,
)
from .series import series_values
from .oracle import closed_form_zero_temperature, fock_wigner_kernels, hermite_functions
from .negativity import (
    NegativityResult,
    SweepEntry,
    integrate_negativity,
    temperature_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
