"""Interferometric off-diagonal phases and their clash with holonomy transport.

The interferometric definition Phi[Tr(U rho_1^{1/l} U rho_2^{1/l} ...)]
imposes a much weaker transport condition (per-eigenstate) than the
operator parallelity behind the holonomy invariants, so away from pure
states the two phase assignments generally disagree. The report below
runs both pipelines, each under its own convention, and never reuses
one transport for the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotUnitary
from .linalg import DEFAULT_TOL, as_square_matrix, dagger, first_non_isometry, kept_directions, support_power
from .evolution import EvolutionSpec, RotatingFrame, StaticHamiltonian, TimeGrid, rotating_generator, unitary_at
from .offdiag import nu_functional, off_diagonal_invariant, phase_factor, principal_angle, sequence_invariants
from .state import DensityOperator, chunk_slices
from .transport import TransportResult

__all__ = [
    "PermutedFamily",
    "InterferometricPhase",
    "DiscrepancyReport",
    "interferometric_offdiag_phase",
    "discrepancy_report",
    "wrap_angle",
]


def wrap_angle(delta: float) -> float:
    """Reduce an angle difference to (-pi, pi]."""
    out = math.fmod(delta + math.pi, 2 * math.pi)
    if out <= 0:
        out += 2 * math.pi
    return out - math.pi


@dataclass(frozen=True)
class PermutedFamily:
    """States sharing a spectrum, differing by eigenvalue permutations.

    ``eigenvectors`` holds an orthonormal set as columns; member k is
    sum_i lambda[permutations[k][i]] |v_i><v_i|.
    """

    base_eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    permutations: tuple

    def __post_init__(self):
        lam = np.asarray(self.base_eigenvalues, dtype=float)
        V = np.asarray(self.eigenvectors, dtype=complex)
        if V.ndim != 2 or V.shape[1] != lam.size:
            raise ValueError("need one eigenvector column per eigenvalue")
        if first_non_isometry(V, DEFAULT_TOL) is not None:
            raise ValueError("eigenvectors must be orthonormal")
        if lam.min() < -DEFAULT_TOL or abs(lam.sum() - 1.0) > DEFAULT_TOL:
            raise ValueError("eigenvalues must be a probability vector")
        perms = tuple(tuple(int(i) for i in p) for p in self.permutations)
        for p in perms:
            if sorted(p) != list(range(lam.size)):
                raise ValueError(f"{p} is not a permutation of the eigenvalue indices")
        object.__setattr__(self, "base_eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", V)
        object.__setattr__(self, "permutations", perms)

    def __len__(self) -> int:
        return len(self.permutations)

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def state(self, k: int) -> DensityOperator:
        lam = self.base_eigenvalues[list(self.permutations[k])]
        V = self.eigenvectors
        return DensityOperator((V * lam) @ dagger(V))

    def is_rank_one(self, tol: float = DEFAULT_TOL) -> bool:
        return int(np.count_nonzero(kept_directions(self.base_eigenvalues, tol))) == 1


@dataclass(frozen=True)
class InterferometricPhase:
    """Phase factor Phi[trace] with the raw trace kept for auditing."""

    trace: complex
    defined: bool
    factor: complex | None

    @property
    def phase(self) -> float | None:
        return None if self.factor is None else principal_angle(self.factor)


def interferometric_offdiag_phase(
    U_final, family: PermutedFamily, l: int, tol: float = DEFAULT_TOL
):
    """Phi[Tr(U rho_{j_1}^{1/l} U rho_{j_2}^{1/l} ... U rho_{j_l}^{1/l})].

    Returns an InterferometricPhase; the factor is None (undefined) when
    ``phase_factor`` finds the phase undefined at A = I, i.e. when the
    trace magnitude does not exceed tol. The caller is responsible for
    using a unitary that parallel-transports each common eigenstate.
    """
    U = as_square_matrix(U_final)
    if first_non_isometry(U, DEFAULT_TOL * U.shape[0]) is not None:
        raise NotUnitary("evolution operator is not unitary within tolerance")
    if l < 1 or l > len(family):
        raise ValueError(f"order l = {l} needs {l} family members, have {len(family)}")
    if family.dim != U.shape[0]:
        raise DimensionMismatch("family and unitary dimensions differ")
    prod = np.eye(U.shape[0], dtype=complex)
    for k in range(l):
        rho = family.state(k)
        prod = prod @ U @ support_power(rho.eigenvalues, rho.eigenvectors, 1.0 / l, tol)
    trace = complex(np.trace(prod))
    factor = phase_factor(trace, 1.0, tol)
    return InterferometricPhase(trace=trace, defined=factor is not None, factor=factor)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Both off-diagonal phase assignments for one nominal evolution."""

    interferometric: InterferometricPhase
    nu: float | None
    gamma: float | None
    difference: float | None
    eigenstate_transport_residual: float
    rank_one: bool
    n_steps: int


def _eigenstate_transport_residual(spec, family, grid) -> float:
    """Max |<v_k| U^dag dU/dt |v_k>| over eigenvectors and grid times.

    Uses the analytic generator when the spec provides one (exact); only
    sampled evolutions fall back to central differences.
    """
    V = family.eigenvectors
    if isinstance(spec, StaticHamiltonian):
        # U^dag dU/dt = -i H for all t.
        diag = np.diagonal(dagger(V) @ spec.hamiltonian @ V)
        return float(np.max(np.abs(diag)))
    ts = grid.times
    worst = 0.0
    if isinstance(spec, RotatingFrame):
        for k in chunk_slices(0, ts.size):
            U = unitary_at(spec, ts[k])
            gen = dagger(U) @ rotating_generator(spec, ts[k]) @ U
            worst = max(worst, float(np.abs(np.diagonal(dagger(V) @ gen @ V, axis1=-2, axis2=-1)).max()))
        return worst
    for k in chunk_slices(1, ts.size - 1):
        t = ts[k.start - 1 : k.stop + 1]  # the chunk's times and a neighbour either side
        us = unitary_at(spec, t)
        gen = dagger(us[1:-1]) @ ((us[2:] - us[:-2]) / (t[2:] - t[:-2])[:, None, None])
        worst = max(worst, float(np.abs(np.diagonal(dagger(V) @ gen @ V, axis1=-2, axis2=-1)).max()))
    return worst


def _closed_form_result(U_tau: np.ndarray, rho: DensityOperator, tol: float = DEFAULT_TOL) -> TransportResult:
    """Exact parallel lift W(t) = U(t) rho^{1/2} for eigenstate-transporting U."""
    w0 = rho.sqrt
    wt = U_tau @ w0
    return TransportResult(
        relative_phase_factor=U_tau @ support_power(rho.eigenvalues, rho.eigenvectors, 0, tol),
        initial_amplitude=w0,
        final_amplitude=wt,
        invariant=wt @ dagger(w0),
        max_step_parallelity_residual=0.0,
        n_steps=0,
    )


def discrepancy_report(
    spec: EvolutionSpec,
    family: PermutedFamily,
    l: int,
    grid: TimeGrid | None = None,
    tol: float = DEFAULT_TOL,
) -> DiscrepancyReport:
    """Evaluate the interferometric phase and the holonomy phase side by side.

    Rank-one members under an eigenstate-transporting unitary are lifted
    in closed form (the constant ancilla gauge is then exact); everything
    else goes through the discrete transporter on ``grid``.
    """
    if grid is None:
        grid = TimeGrid.uniform(spec.tau, 1000)
    U_tau = unitary_at(spec, spec.tau)
    gamma = interferometric_offdiag_phase(U_tau, family, l, tol)

    residual = _eigenstate_transport_residual(spec, family, grid)
    rank_one = family.is_rank_one(tol)
    use_closed_form = rank_one and residual <= tol

    states = [family.state(k) for k in range(l)]
    if use_closed_form:
        X = off_diagonal_invariant([_closed_form_result(U_tau, rho, tol) for rho in states])
    else:
        order = tuple(range(1, l + 1))
        X = sequence_invariants(states, spec, grid, [order], tol)[0][order]
    diag = nu_functional(np.eye(family.dim), X, tol)
    difference = None
    if gamma.defined and diag.phase_defined:
        difference = wrap_angle(gamma.phase - diag.phase)
    return DiscrepancyReport(
        interferometric=gamma,
        nu=diag.phase,
        gamma=gamma.phase,
        difference=difference,
        eigenstate_transport_residual=residual,
        rank_one=rank_one,
        n_steps=0 if use_closed_form else grid.n_steps,
    )
