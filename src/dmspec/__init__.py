"""Spectral computations for Schrodinger operators driven by the doubling map.

The operator family is H psi(n) = psi(n+1) + psi(n-1) + f(T^n w) psi(n) with
T w = 2w mod 1; this package computes periodic band spectra and their
unions, the integrated density of states, exponential-dichotomy verdicts,
and winding-rate gap labels.
"""

from .cocycle import (
    DichotomyReport,
    Direction,
    cocycle_product,
    dichotomy_test,
    discriminant,
    interpolated_step,
    most_contracted_direction,
    step_matrix,
)
from .dynamics import (
    BackwardDigits,
    CirclePoint,
    PeriodicOrbit,
    enumerate_orbits,
    extend_backward,
    map_forward,
    solenoid_forward,
)
from .errors import (
    CapacityExceeded,
    DegenerateSingularValues,
    DmspecError,
    EmptyGapGrid,
    InvalidParameter,
    LiftingAmbiguity,
    MissingDigits,
    NotHyperbolic,
)
from .ids import IDSTable, eigen_count, gap_label, ids_estimate
from .sampling import (
    Potential,
    SamplingFunction,
    Step,
    TrigPoly,
    bernoulli,
    cosine,
    forward_orbit,
    potential,
)
from .schwartzman import (
    IntegralityResult,
    RotationEstimate,
    Verdict,
    argument_winding_step,
    integrality_check,
    rotation_number,
)
from .spectrum import Band, SpectrumApprox, gap_report, periodic_bands, union_spectrum

__version__ = "0.1.0"

__all__ = [
    "BackwardDigits", "Band", "CapacityExceeded", "CirclePoint",
    "DegenerateSingularValues", "DichotomyReport", "Direction", "DmspecError",
    "EmptyGapGrid", "IDSTable", "IntegralityResult", "InvalidParameter",
    "LiftingAmbiguity", "MissingDigits", "NotHyperbolic", "PeriodicOrbit",
    "Potential", "RotationEstimate",
    "SamplingFunction", "SpectrumApprox", "Step", "TrigPoly", "Verdict",
    "argument_winding_step", "bernoulli", "cocycle_product", "cosine",
    "dichotomy_test", "discriminant", "eigen_count", "enumerate_orbits",
    "extend_backward", "forward_orbit", "gap_label", "gap_report",
    "ids_estimate", "integrality_check", "interpolated_step", "map_forward",
    "most_contracted_direction", "periodic_bands",
    "potential", "rotation_number", "solenoid_forward", "step_matrix",
    "union_spectrum",
]
