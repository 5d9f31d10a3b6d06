"""Bell-state spin-flip scenarios in closed form and end to end.

Conventions: computational tensor order |ab> = |a> (x) |b>, Bell order
(Psi+, Psi-, Phi+, Phi-). The spin flip acts on the first qubit as
(|0>, |1>) -> (|1>, -|0>); it maps the Psi plane onto the Phi plane, so
the order-1 invariants of the Bell mixtures have orthogonal supports
(undefined phase) while the order-2 invariant is supported entirely on
the Phi plane and carries the phase pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeWeight, WrongVariant
from .evolution import (
    SIGMA_Y,
    RotatingFrame,
    StaticHamiltonian,
    TimeGrid,
    density_path,
    first_time_outside,
)
from .linalg import DEFAULT_TOL, dagger, op_norm
from .offdiag import nu_functional, off_diagonal_invariant
from .state import DensityOperator
from .transport import discrete_holonomy

__all__ = [
    "bell_basis",
    "bell_matrix",
    "to_bell_basis",
    "from_bell_basis",
    "bell_mixture",
    "spin_flip_unitary",
    "BellScenario",
    "ScenarioReport",
    "evolution_spec",
    "closed_form_B_r1",
    "gauge_angle",
    "closed_form_invariants",
    "variant_form_X12",
    "run_bell_scenario",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def bell_basis():
    """The four Bell vectors, ordered (Psi+, Psi-, Phi+, Phi-)."""
    psi_plus = _INV_SQRT2 * np.array([0, 1, 1, 0], dtype=complex)
    psi_minus = _INV_SQRT2 * np.array([0, 1, -1, 0], dtype=complex)
    phi_plus = _INV_SQRT2 * np.array([1, 0, 0, 1], dtype=complex)
    phi_minus = _INV_SQRT2 * np.array([1, 0, 0, -1], dtype=complex)
    return psi_plus, psi_minus, phi_plus, phi_minus


def bell_matrix() -> np.ndarray:
    """Change-of-basis matrix with the Bell vectors as columns."""
    return np.column_stack(bell_basis())


def to_bell_basis(M) -> np.ndarray:
    """Express a computational-basis operator in the Bell basis."""
    C = bell_matrix()
    return dagger(C) @ np.asarray(M, dtype=complex) @ C


def from_bell_basis(M) -> np.ndarray:
    """Express a Bell-basis operator in the computational basis."""
    C = bell_matrix()
    return C @ np.asarray(M, dtype=complex) @ dagger(C)


def _outer(a, b) -> np.ndarray:
    return np.outer(a, b.conj())


def _pair_mixture(first, second, epsilon: float) -> DensityOperator:
    """(|first><first| + eps |second><second|) / (1 + eps) for orthonormal vectors."""
    if epsilon < 0:
        raise NegativeWeight(f"mixture weight must be >= 0, got {epsilon!r}")
    m = (_outer(first, first) + epsilon * _outer(second, second)) / (1 + epsilon)
    return DensityOperator(m)


def bell_mixture(epsilon: float) -> DensityOperator:
    """(|Psi-><Psi-| + eps |Psi+><Psi+|) / (1 + eps); rank 1 at eps = 0."""
    psi_plus, psi_minus, _, _ = bell_basis()
    return _pair_mixture(psi_minus, psi_plus, epsilon)


def spin_flip_unitary() -> np.ndarray:
    """Spin plus phase flip of the first qubit, written in Bell dyads."""
    psi_plus, psi_minus, phi_plus, phi_minus = bell_basis()
    return (
        _outer(phi_plus, psi_minus)
        + _outer(psi_plus, phi_minus)
        - _outer(psi_minus, phi_plus)
        - _outer(phi_minus, psi_plus)
    )


@dataclass(frozen=True)
class BellScenario:
    """Parameters of one Bell-mixture transport experiment."""

    epsilon: float
    variant: str = "static"
    u: float = 1.0
    n_steps: int = 1000

    def __post_init__(self):
        for name in ("epsilon", "u"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.epsilon < 0:
            raise NegativeWeight("epsilon must be >= 0")
        if self.variant not in ("static", "rotating"):
            raise ValueError(f"variant must be 'static' or 'rotating', got {self.variant!r}")
        if self.u <= 0:
            raise ValueError("the rotating scale u must be positive")
        if self.n_steps < 2:
            raise ValueError("need at least two steps")

    @property
    def tau(self) -> float:
        return np.pi / 2 if self.variant == "static" else np.pi / self.u

    @property
    def omega(self) -> float:
        return self.u


def evolution_spec(s: BellScenario):
    """The evolution behind the scenario: a static flip or the rotating drive."""
    if s.variant == "static":
        return StaticHamiltonian(np.kron(SIGMA_Y, np.eye(2, dtype=complex)), tau=s.tau)
    return RotatingFrame.spin_flipper(s.u)


def gauge_angle(s: BellScenario, t):
    """Accumulated ancilla-gauge angle sqrt(eps) * omega * t / (1 + eps).

    A float for one time, an array for a 1-D array of times.
    """
    if s.variant != "rotating":
        raise WrongVariant("the closed-form gauge angle belongs to the rotating variant")
    gamma = np.sqrt(s.epsilon) * s.omega * t / (1 + s.epsilon)
    return gamma if isinstance(t, np.ndarray) else float(gamma)


def _plane_gauge(gamma, a, b) -> np.ndarray:
    """cos(gamma) on the projector onto span(a, b), -i sin(gamma) on its swap.

    One matrix per angle: (d, d) for a float gamma, (k, d, d) for k angles.
    """
    plane = _outer(a, a) + _outer(b, b)
    swap = _outer(a, b) + _outer(b, a)
    cos = np.cos(gamma)[..., None, None]
    sin = np.sin(gamma)[..., None, None]
    return cos * plane - 1j * sin * swap


def closed_form_B_r1(s: BellScenario, t) -> np.ndarray:
    """Closed-form ancilla gauge on the Psi plane for the rotating drive.

    cos(gamma) on the plane projector, -i sin(gamma) on the plane swap;
    zero outside the plane. At t = 0 this is the projector itself. ``t``
    is one time, or a 1-D array of k times for a (k, 4, 4) stack; the
    first time outside [0, tau] raises ValueError.
    """
    if s.variant != "rotating":
        raise WrongVariant("closed_form_B_r1 belongs to the rotating variant")
    bad = first_time_outside(t, s.tau)
    if bad is not None:
        raise ValueError(f"t = {bad!r} outside [0, {s.tau!r}]")
    psi_plus, psi_minus, _, _ = bell_basis()
    return _plane_gauge(gauge_angle(s, t), psi_plus, psi_minus)


def _rho2_initial(s: BellScenario) -> DensityOperator:
    """Reference state rho_2(0) = rho_1(tau): the flipped Bell mixture."""
    _, _, phi_plus, phi_minus = bell_basis()
    return _pair_mixture(phi_plus, phi_minus, s.epsilon)


def closed_form_invariants(s: BellScenario):
    """Analytic X1, X2 and their product X12 for the scenario.

    The static forms are U_sf rho_k(0); the rotating forms insert the
    closed-form gauge, X_k = U_sf rho_k^{1/2} B_k(tau) rho_k^{1/2}. X12 is
    always the literal matrix product X1 @ X2.
    """
    usf = spin_flip_unitary()
    rho1 = bell_mixture(s.epsilon)
    rho2 = _rho2_initial(s)
    if s.variant == "static":
        x1 = usf @ rho1.matrix
        x2 = usf @ rho2.matrix
    else:
        psi_plus, psi_minus, phi_plus, phi_minus = bell_basis()
        gamma = gauge_angle(s, s.tau)
        x1 = usf @ rho1.sqrt @ _plane_gauge(gamma, psi_plus, psi_minus) @ rho1.sqrt
        x2 = usf @ rho2.sqrt @ _plane_gauge(gamma, phi_plus, phi_minus) @ rho2.sqrt
    return x1, x2, x1 @ x2


def variant_form_X12(s: BellScenario) -> np.ndarray:
    """Closed-form variant of the order-2 invariant, kept for comparison.

    Differs from the product of the order-1 invariants in the
    |Phi-><Phi-| coefficient except at eps = 1; the product is the
    ground truth and the report records the distance between the two.
    """
    _, _, phi_plus, phi_minus = bell_basis()
    eps = s.epsilon
    pp = _outer(phi_plus, phi_plus)
    mm = _outer(phi_minus, phi_minus)
    if s.variant == "static":
        return -(pp + mm) / (1 + eps) ** 2
    gamma = gauge_angle(s, s.tau)
    c, si = np.cos(gamma), np.sin(gamma)
    pm = _outer(phi_plus, phi_minus)
    mp = _outer(phi_minus, phi_plus)
    return (
        -(c**2 + eps * si**2) * (pp + eps * mm)
        + 1j * np.sqrt(eps) * (1 - eps) * si * c * (pm - mp)
    ) / (1 + eps) ** 2


@dataclass(frozen=True)
class ScenarioReport:
    """Transported invariants, diagnoses, and distances to the closed forms."""

    X1: np.ndarray
    X2: np.ndarray
    X12: np.ndarray
    diagnoses: dict
    closed_form_errors: dict
    variant_form_distance: float
    transport_residuals: dict


def run_bell_scenario(
    s: BellScenario,
    reference_state: DensityOperator | None = None,
    tol: float = DEFAULT_TOL,
    phase_tol: float | None = None,
) -> ScenarioReport:
    """Transport both Bell paths and assemble the order-1 and order-2 invariants.

    ``reference_state`` overrides the default second path start
    rho_2(0) = rho_1(tau). Diagnoses use the identity observable;
    ``phase_tol`` overrides the phase-defined threshold.
    """
    spec = evolution_spec(s)
    grid = TimeGrid.uniform(s.tau, s.n_steps)
    rho1 = bell_mixture(s.epsilon)
    rho2 = _rho2_initial(s) if reference_state is None else reference_state

    r1 = discrete_holonomy(density_path(rho1, spec, grid), tol)
    r2 = discrete_holonomy(density_path(rho2, spec, grid), tol)
    x1 = off_diagonal_invariant([r1], indices=(1,))
    x2 = off_diagonal_invariant([r2], indices=(2,))
    x12 = off_diagonal_invariant([r1, r2], indices=(1, 2))

    eye = np.eye(4, dtype=complex)
    phase_tol = tol if phase_tol is None else phase_tol
    diagnoses = {
        "X1": nu_functional(eye, x1, phase_tol),
        "X2": nu_functional(eye, x2, phase_tol),
        "X12": nu_functional(eye, x12, phase_tol),
    }
    if reference_state is None:
        cf1, cf2, cf12 = closed_form_invariants(s)
        closed_form_errors = {
            "X1": op_norm(x1.operator - cf1),
            "X2": op_norm(x2.operator - cf2),
            "X12": op_norm(x12.operator - cf12),
        }
        variant_distance = op_norm(cf12 - variant_form_X12(s))
    else:
        # The closed forms assume the default reference rho_2(0) = rho_1(tau).
        cf1 = closed_form_invariants(s)[0]
        closed_form_errors = {"X1": op_norm(x1.operator - cf1)}
        variant_distance = float("nan")
    return ScenarioReport(
        X1=x1.operator,
        X2=x2.operator,
        X12=x12.operator,
        diagnoses=diagnoses,
        closed_form_errors=closed_form_errors,
        variant_form_distance=variant_distance,
        transport_residuals={
            "path1": r1.max_step_parallelity_residual,
            "path2": r2.max_step_parallelity_residual,
        },
    )
