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
from .tfd import HBAR, KB, ThermalParams, gibbs_weight, thermal_params
from .density import TruncatedDensity, build_density_matrix, build_density_operator
from .wigner import (
    GridAxis,
    PhasePoint,
    SliceDescriptor,
    WignerGrid,
    closed_form_zero_temperature,
    fock_wigner_kernels,
    hermite_functions,
    wigner_grid,
    wigner_point,
    wigner_values,
)
from .series import TruncationConfig, series_values
from .negativity import (
    NegativityResult,
    QuadratureSpec,
    SweepEntry,
    integrate_negativity,
    integrate_negativity_grid,
    temperature_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
