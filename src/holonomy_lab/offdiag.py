"""Off-diagonal holonomy invariants, nodal diagnosis, and phase functionals.

An order-l invariant is the ordered product of l single-path holonomy
invariants W(tau) W^dag(0). Its trace functional can vanish (a nodal
point); orthogonal left and right supports force that, and the diagnosis
below reports the overlap alongside the phase. An undefined phase is a
reported value, never an exception; ``phase_factor`` is the one rule
that decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroOperator
from .linalg import (
    DEFAULT_TOL,
    as_square_matrix,
    dagger,
    op_norm,
    support_projector,
    svd_isometry,
)
from .evolution import density_path
from .transport import TransportResult, discrete_holonomy

__all__ = [
    "NodalDiagnosis",
    "off_diagonal_invariant",
    "sequence_invariants",
    "support_overlap",
    "phase_factor",
    "nu_functional",
    "holonomy_isometry",
    "alternative_ordering",
    "principal_angle",
]


@dataclass(frozen=True)
class NodalDiagnosis:
    """Trace functional of an invariant together with its nodal status.

    ``phase`` is present iff ``phase_defined``; ``support_overlap`` is the
    operator norm of the product of the left and right support projectors.
    """

    trace: complex
    trace_magnitude: float
    support_overlap: float
    phase_defined: bool
    phase: float | None


def principal_angle(z: complex) -> float:
    """Argument of z in (-pi, pi], with arg(negative real) = +pi.

    A tiny imaginary part (relative 1e-12) is snapped to +0.0 first so
    round-off cannot flip pi into -pi.
    """
    z = complex(z)
    im = 0.0 if abs(z.imag) <= 1e-12 * abs(z) else z.imag
    return math.atan2(im, z.real)


def phase_factor(trace: complex, bound: float, tol: float) -> complex | None:
    """The one phase-defined rule: Tr(A X) / |Tr(A X)| if |Tr(A X)| > tol * ||A||, else None.

    ``bound`` is ||A||. Invariants and interferometric products have trace
    norm <= 1, so by Hoelder's inequality ||A|| is the largest attainable
    |Tr(A X)|.
    """
    magnitude = abs(trace)
    return trace / magnitude if magnitude > tol * bound else None


def off_diagonal_invariant(results) -> np.ndarray:
    """Multiply the invariants of the given transports, in order, into one (d, d) matrix.

    Order 1 reduces exactly to the single-path holonomy invariant.
    """
    mats = [r.invariant for r in results]
    if not mats:
        raise ValueError("need at least one transport result")
    op = mats[0]
    for m in mats[1:]:
        if m.shape[0] != op.shape[0]:
            raise DimensionMismatch("constituent invariants differ in dimension")
        op = op @ m
    return op


def sequence_invariants(states, spec, grid, sequences, tol: float = DEFAULT_TOL):
    """The invariants X^(l) of index sequences over one evolution.

    Each sequence holds 1-based indices into ``states``. Every state a
    sequence names is transported once along ``grid`` under ``spec``, and
    each sequence multiplies those transports in its own order. Returns
    ``({sequence: X}, {"path<j>": max step parallelity residual})``, the
    residuals in increasing j.
    """
    needed = sorted({j for seq in sequences for j in seq})
    results = {j: discrete_holonomy(density_path(states[j - 1], spec, grid), tol) for j in needed}
    invariants = {seq: off_diagonal_invariant([results[j] for j in seq]) for seq in sequences}
    return invariants, {f"path{j}": r.max_step_parallelity_residual for j, r in results.items()}


def support_overlap(X, tol: float = DEFAULT_TOL) -> float:
    """Operator norm of P_left P_right for the supports of X X^dag and X^dag X."""
    op = as_square_matrix(X)
    p_left = support_projector(op @ dagger(op), tol)
    p_right = support_projector(dagger(op) @ op, tol)
    return op_norm(p_left @ p_right)


def nu_functional(A, X, tol: float = DEFAULT_TOL) -> NodalDiagnosis:
    """Phase functional arg Tr[A X] with explicit nodal diagnosis.

    The phase counts as defined by ``phase_factor``: when |Tr[A X]|
    exceeds tol * ||A||. The support overlap is a property of X alone and
    is reported regardless of A.
    """
    op = as_square_matrix(X)
    A = as_square_matrix(A)
    if A.shape != op.shape:
        raise DimensionMismatch(f"observable shape {A.shape} vs invariant {op.shape}")
    trace = complex(np.trace(A @ op))
    magnitude = abs(trace)
    overlap = support_overlap(op, tol)
    defined = phase_factor(trace, op_norm(A), tol) is not None
    phase = principal_angle(trace) if defined else None
    return NodalDiagnosis(
        trace=trace,
        trace_magnitude=magnitude,
        support_overlap=overlap,
        phase_defined=defined,
        phase=phase,
    )


def holonomy_isometry(X, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Shared partial isometry of the left and right polar decompositions.

    Computed by the SVD route of ``polar_isometry``, whose largest
    singular value, the operator norm of X, also decides that X vanishes
    (at most tol); the property suite (``polar-consistency``)
    cross-checks it against the routes through (X^dag X)^{1/2} and
    (X X^dag)^{1/2}.
    """
    U, s, Vh = np.linalg.svd(as_square_matrix(X))
    isometry = svd_isometry(U, s, Vh, tol)  # rejects a bad tol before the zero test
    if s[0] <= tol:
        raise ZeroOperator("cannot extract an isometry from a vanishing invariant")
    return isometry


def alternative_ordering(results) -> np.ndarray:
    """Cyclically shifted product W_1^dag(0) X_2 ... X_l W_1(tau).

    Shares its trace with the standard ordering but transforms as
    S^dag Y S under a global gauge on the first path.
    """
    if not results:
        raise ValueError("need at least one transport result")
    first = results[0]
    if not isinstance(first, TransportResult):
        raise TypeError("alternative_ordering needs TransportResult inputs")
    dim = first.initial_amplitude.shape[0]
    middle = off_diagonal_invariant(results[1:]) if len(results) > 1 else np.eye(dim, dtype=complex)
    if middle.shape[0] != dim:
        raise DimensionMismatch("constituent invariants differ in dimension")
    return dagger(first.initial_amplitude) @ middle @ first.final_amplitude
