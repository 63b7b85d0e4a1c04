"""Thermal Wigner functions and negativity volumes of the four Bell-Cat states.

The top level holds the production entry points, their types and the errors;
the reference routes stay in `bellcat.series`, `bellcat.oracle`,
`bellcat.density`, `bellcat.plane` and `bellcat.states`.
"""

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
from .states import STATE_LABELS, BellCatSpec
from .tfd import HBAR, KB, ThermalMode, ThermalParams, thermal_params
from .wigner import (
    GridAxis,
    PhasePoint,
    SliceDescriptor,
    WignerGrid,
    wigner_grid,
    wigner_point,
    wigner_values,
)
from .negativity import (
    NegativityResult,
    SweepEntry,
    integrate_negativity,
    temperature_sweep,
)

__all__ = [
    "BellCatSpec", "STATE_LABELS",
    "thermal_params", "ThermalParams", "ThermalMode", "HBAR", "KB",
    "wigner_values", "wigner_point", "wigner_grid", "PhasePoint", "GridAxis", "SliceDescriptor", "WignerGrid",
    "integrate_negativity", "temperature_sweep", "NegativityResult", "SweepEntry",
    "BellCatError", "CutoffError", "DegenerateStateError", "ImaginaryResidueError", "NonFiniteError",
    "NormalizationError", "QuadratureError", "TruncationError",
]
