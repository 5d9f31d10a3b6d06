"""Unitary path generation: Hamiltonian specs, time grids, density paths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GridMiss, NotUnitary, OutOfRange
from .linalg import (
    DEFAULT_TOL,
    as_square_matrix,
    eigh_exp,
    first_non_isometry,
    first_norm_above,
    first_skew_above,
    hermitian_eigh,
)
from .state import DensityOperator, DensityPath

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "StaticHamiltonian",
    "RotatingFrame",
    "SampledUnitaries",
    "TimeGrid",
    "time_slack",
    "first_time_outside",
    "unitary_at",
    "rotating_generator",
    "density_path",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_T_ATOL = 1e-12


def time_slack(tau: float) -> float:
    """The one time tolerance on [0, tau]: times this close to a point match it."""
    return _T_ATOL * max(1.0, tau)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times from 0 to tau."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a time grid needs at least two points")
        if not np.isfinite(t).all():
            raise ValueError("time grid must be finite")
        if abs(t[0]) > time_slack(t[-1]):
            raise ValueError("time grid must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, tau: float, n_steps: int = 1000) -> "TimeGrid":
        if n_steps < 1:
            raise ValueError("n_steps must be positive")
        if not np.isfinite(tau):  # checked first: linspace to inf warns
            raise ValueError("time grid must be finite")
        return cls(np.linspace(0.0, float(tau), n_steps + 1))

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def tau(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class StaticHamiltonian:
    """Evolution under a time-independent Hermitian generator."""

    hamiltonian: np.ndarray
    tau: float
    _eigh: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.tau > 0:  # also rejects nan
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        H = as_square_matrix(self.hamiltonian)
        if first_skew_above(H, DEFAULT_TOL) is not None:
            raise ValueError("static Hamiltonian must be Hermitian")
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "_eigh", hermitian_eigh(H))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class RotatingFrame:
    """Resonant spin-flipper drive on the first qubit of two, with free scale u > 0 and pi/u finite.

    With a = u t / 2 and H_eff = -(u/2) sigma_x, the propagator on [0, tau], tau = pi / u, and its
    instantaneous Hermitian generator (``rotating_generator``) are, each (x) identity on the second qubit,

        U(t) = exp(+i t H_eff) exp(+i a sigma_z) = (cos a - i sin a sigma_x) diag(e^{ia}, e^{-ia}),
        H(t) = i dU/dt U^dag = (u/2)(sigma_x - cos(u t) sigma_z + sin(u t) sigma_y).

    The relative phases of the two factors are fixed so that the closed-form
    ancilla gauge of the Bell scenarios solves the parallel transport equation.
    """

    u: float

    def __post_init__(self):
        # u > 0 first: pi/u of a tiny u overflows to inf, of u = inf is 0.
        if not (self.u > 0 and 0 < np.pi / float(self.u) < np.inf):
            raise ValueError("the free scale u must be positive, with a finite tau = pi/u")

    @property
    def tau(self) -> float:
        return np.pi / self.u

    @property
    def dim(self) -> int:
        return 4

    @property
    def effective_hamiltonian(self) -> np.ndarray:
        return -(self.u / 2) * SIGMA_X


@dataclass(frozen=True)
class SampledUnitaries:
    """Explicit unitaries on a grid, held as one (k, d, d) stack; queries off the grid are errors."""

    unitaries: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        us = [as_square_matrix(U) for U in self.unitaries]
        if len(us) != self.grid.times.size:
            raise ValueError("one unitary per grid time is required")
        dim = us[0].shape[0]
        if first_norm_above(us[0] - np.eye(dim), DEFAULT_TOL * dim) is not None:
            raise NotUnitary("the first sampled unitary must be the identity")
        if any(U.shape[0] != dim for U in us):
            raise DimensionMismatch("sampled unitaries differ in dimension")
        stack = np.stack(us)
        bad = first_non_isometry(stack, DEFAULT_TOL * dim)
        if bad is not None:
            raise NotUnitary(f"sample {bad[0]} is not unitary within tolerance")
        object.__setattr__(self, "unitaries", stack)

    @property
    def tau(self) -> float:
        return self.grid.tau

    @property
    def dim(self) -> int:
        return self.unitaries.shape[1]

    def sample_index(self, t):
        """Index of the sample taken at time t; GridMiss when there is none.

        For a 1-D array of times, the array of their indices; GridMiss
        names the first time without a sample.
        """
        return _sample_index(self.grid.times, t, time_slack(self.tau))


EvolutionSpec = StaticHamiltonian | RotatingFrame | SampledUnitaries


def _on_driven_qubit(rows) -> np.ndarray:
    """kron(np.array(rows), identity_2) without np.kron's overhead; entries of shape (k,) give a (k, 4, 4) stack."""
    a = np.moveaxis(np.array(rows, dtype=complex), (0, 1), (-2, -1))
    eye = np.eye(2, dtype=complex)
    return (a[..., :, None, :, None] * eye[:, None, :]).reshape(a.shape[:-2] + (4, 4))


def first_time_outside(t, tau: float):
    """The time of t outside [0, tau] by more than ``time_slack``, or None.

    ``t`` is one time or a 1-D array of times; for an array the first
    such time is returned, as a float.
    """
    slack = time_slack(tau)
    if isinstance(t, np.ndarray):
        outside = (t < -slack) | (t > tau + slack)
        return float(t.flat[outside.argmax()]) if outside.any() else None
    return t if t < -slack or t > tau + slack else None


def _check_time(spec, t):
    """Raise OutOfRange or GridMiss for the first failing time of ``t``.

    Returns the sample indices of ``t`` on a sampled path, else None.
    """
    bad = first_time_outside(t, spec.tau)
    if bad is not None:
        if isinstance(t, np.ndarray) and isinstance(spec, SampledUnitaries):
            spec.sample_index(t.flat[: np.argmax(t == bad)])  # a time without a sample before it fails first
        raise OutOfRange(f"t = {bad!r} outside [0, {spec.tau!r}]")
    return spec.sample_index(t) if isinstance(spec, SampledUnitaries) else None


def _sample_index(times: np.ndarray, t, atol: float):
    """First index k with |times[k] - t| <= atol, for one t or each of an array.

    Hits lie within [t - atol, t + atol], so bisection narrows each search
    to the times inside a slightly wider window, which are tested in grid
    order with the exact criterion. GridMiss names the first t without a
    hit.
    """
    lo = np.searchsorted(times, t - 2 * atol, side="left")
    hi = np.searchsorted(times, t + 2 * atol, side="right")
    if isinstance(t, np.ndarray):
        index = np.full(t.shape, -1)
        for offset in range(int(np.max(hi - lo, initial=0))):
            k = np.minimum(lo + offset, times.size - 1)
            hit = (index < 0) & (lo + offset < hi) & (np.abs(times[k] - t) <= atol)
            index = np.where(hit, k, index)
        missed = np.flatnonzero(index < 0)
        if missed.size == 0:
            return index
        t = float(t.flat[missed[0]])
    else:
        hits = np.flatnonzero(np.abs(times[lo:hi] - t) <= atol)
        if hits.size:
            return int(lo) + int(hits[0])
    raise GridMiss(f"t = {t!r} is not a sample point; resample instead of interpolating")


def unitary_at(spec: EvolutionSpec, t) -> np.ndarray:
    """Evaluate the path unitary U(t); U(0) is always the identity.

    ``t`` is one time, giving a (d, d) matrix, or a 1-D array of k times,
    giving the (k, d, d) stack of the single-time results; OutOfRange or
    GridMiss then names the first time that fails.
    """
    index = _check_time(spec, t)
    if isinstance(spec, StaticHamiltonian):
        return eigh_exp(*spec._eigh, t)
    if isinstance(spec, RotatingFrame):
        # (cos a - i sin a sigma_x) diag(e^{ia}, e^{-ia}) on the driven qubit.
        a = spec.u * t / 2
        c, s, e = np.cos(a), np.sin(a), np.exp(1j * a)
        return _on_driven_qubit([[c * e, -1j * s * e.conj()], [-1j * s * e, c * e.conj()]])
    if isinstance(spec, SampledUnitaries):
        return spec.unitaries[index]
    raise TypeError(f"unknown evolution spec {type(spec).__name__}")


def rotating_generator(spec: RotatingFrame, t) -> np.ndarray:
    """Instantaneous Hermitian generator H(t) = i dU/dt U^dag of the rotating family.

    Useful as the input to an independent time-ordered integrator when
    cross-checking the closed-form product. ``t`` is one time or a 1-D
    array of k times, as for ``unitary_at``.
    """
    if not isinstance(spec, RotatingFrame):
        raise TypeError("rotating_generator needs a RotatingFrame spec")
    # (u/2)(sigma_x - cos(u t) sigma_z + sin(u t) sigma_y): conjugate off-diagonals, real diagonal.
    c, s = np.cos(spec.u * t), np.sin(spec.u * t)
    return (spec.u / 2) * _on_driven_qubit([[-c, 1 - 1j * s], [1 + 1j * s, c]])


def density_path(rho0: DensityOperator, spec: EvolutionSpec, grid: TimeGrid) -> DensityPath:
    """The orbit U(t) rho0 U(t)^dag on every grid time, as eigen-data.

    The orbit has rho0's spectrum at every time and eigenvectors
    U(t) rho0.eigenvectors, so rho0 is diagonalised once, when it is
    built, and no state of the path is diagonalised or validated again:
    rho0 is a validated state and every U(t) is unitary. The eigenvectors
    are not stored: the path computes those of a range of grid times each
    time they are read (``DensityPath.frames``), so a transport holds one
    chunk of them at a time and its memory does not grow with the grid.
    The whole grid is checked here, so OutOfRange and GridMiss come from
    this call, naming the first time that fails.
    """
    if rho0.dim != spec.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} vs evolution dim {spec.dim}")
    times = grid.times
    _check_time(spec, times)

    def frames(start, stop):
        ts = times[start:stop]
        us = np.empty((ts.size, spec.dim, spec.dim), dtype=complex)
        # One scalar call per time: holobench's traced replay pins this count (ROADMAP item 1).
        for j, t in enumerate(ts):
            us[j] = unitary_at(spec, float(t))
        return us @ rho0.eigenvectors

    return DensityPath(np.broadcast_to(rho0.eigenvalues, (times.size, spec.dim)), frames)
