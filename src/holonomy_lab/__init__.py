"""Quantum holonomy along density-operator paths.

Parallel transport of purifications, the gauge-invariant holonomy
W(tau) W^dag(0), its off-diagonal generalisations that stay defined at
nodal points, the rival interferometric phase, and closed-form
Bell-mixture scenarios exercising all of it.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    GridMiss,
    GridTooCoarse,
    HolonomyError,
    InvalidState,
    NegativeWeight,
    NotHermitian,
    NotPSD,
    NotUnitary,
    OrthogonalStep,
    OutOfRange,
    ScenarioFormatError,
    SupportMismatch,
    UnknownParameter,
    WrongVariant,
    ZeroOperator,
)
from .linalg import (
    PolarFactors,
    hermitian_sqrt,
    is_partial_isometry,
    polar,
    polar_isometry,
    support_projector,
    transition_probability,
    unitary_exp,
)
from .state import (
    DensityOperator,
    DensityPath,
    apply_gauge,
    parallelity_residual,
)
from .evolution import (
    RotatingFrame,
    SampledUnitaries,
    StaticHamiltonian,
    TimeGrid,
    density_path,
    rotating_generator,
    unitary_at,
)
from .transport import (
    AncillaGauge,
    TransportResult,
    discrete_holonomy,
    pure_parallelity_residual,
    solve_ancilla_gauge,
    transport_equation_residual,
)
from .offdiag import (
    NodalDiagnosis,
    alternative_ordering,
    holonomy_isometry,
    nu_functional,
    off_diagonal_invariant,
    sequence_invariants,
    support_overlap,
)
from .compare import (
    DiscrepancyReport,
    InterferometricPhase,
    PermutedFamily,
    discrepancy_report,
    interferometric_offdiag_phase,
    wrap_angle,
)
from .scenarios import (
    BELL_INVARIANTS,
    BellScenario,
    bell_basis,
    bell_matrix,
    bell_mixture,
    bell_paths,
    closed_form_B_r1,
    closed_form_invariants,
    evolution_spec,
    from_bell_basis,
    variant_form_X12,
    spin_flip_unitary,
    to_bell_basis,
)
from .verify import PropertyResult, property_groups, run_properties

__all__ = [name for name in dir() if not name.startswith("_")]
