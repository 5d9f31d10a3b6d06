"""Density operators, amplitudes (purifications), and gauge transformations.

An amplitude is a plain square matrix W with rho = W W^dag; the state
lives on H and the ancilla is the dual space, so purifications never
leave the dim x dim square shape, and ``rho.sqrt`` is the standard one.
Parallelity between two amplitudes means their overlap W^dag W' is
Hermitian positive semidefinite; the residual below measures the
failure of that condition.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidState, SupportMismatch
from .linalg import (
    DEFAULT_TOL,
    as_square_matrix,
    dagger,
    eigh_root,
    first_norm_above,
    hermitian_part,
    is_partial_isometry,
    kept_directions,
    support_power,
    validate_density,
)

__all__ = [
    "PATH_CHUNK",
    "chunk_slices",
    "DensityOperator",
    "DensityPath",
    "apply_gauge",
    "parallelity_residual",
]


class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator.

    Eigen-data is computed once on first use and cached; instances are
    treated as immutable values. The input is checked at ``DEFAULT_TOL``;
    a state carries no tolerance of its own.
    """

    def __init__(self, matrix):
        matrix, w, V = validate_density(matrix)
        self.matrix = matrix
        self.dim = matrix.shape[0]
        self._eigs = (np.clip(w, 0.0, 1.0), V)

    @classmethod
    def pure(cls, vector) -> "DensityOperator":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        # Scale by a power of two that brings the largest part below 1, so the norm cannot
        # overflow; the scaling is exact, so the unit vector below does not change. Each part
        # is scaled on its own: for subnormal entries the factor itself would overflow.
        e = -np.frexp(np.maximum(abs(v.real), abs(v.imag)).max(initial=0.0))[1]
        v = np.ldexp(v.real, e) + 1j * np.ldexp(v.imag, e)
        n = np.linalg.norm(v)
        if n == 0.0:
            raise InvalidState("cannot build a state from the zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum in ascending order, clipped to [0, 1]."""
        return self._eigs[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors as columns, matching ``eigenvalues``."""
        return self._eigs[1]

    @cached_property
    def sqrt(self) -> np.ndarray:
        return eigh_root(*self._eigs)

    def rank(self, tol: float = DEFAULT_TOL) -> int:
        return int(np.count_nonzero(kept_directions(self.eigenvalues, tol)))

    @cached_property
    def support(self) -> np.ndarray:
        """Projector onto the range (eigenvectors of ``kept_directions``)."""
        return support_power(*self._eigs, 0)

    def __repr__(self):
        return f"DensityOperator(dim={self.dim}, rank={self.rank()})"


# Paths are built, rooted and transported, and batched evaluations run,
# this many states or times at a time, which bounds the working memory of
# one path at large dimension or on a long grid.
PATH_CHUNK = 128


def chunk_slices(start: int, stop: int) -> list:
    """Slices that cover start..stop-1 in order, ``PATH_CHUNK`` indices each."""
    return [slice(i, min(i + PATH_CHUNK, stop)) for i in range(start, stop, PATH_CHUNK)]


class DensityPath:
    """An ordered sequence of density operators of one dimension, as eigen-data.

    ``w`` has shape (n+1, d): the spectra, ascending and clipped to
    [0, 1]. The eigenvectors (frames, as columns) are read through
    ``frames``. ``V`` is either the (n+1, d, d) stack of frames, which the
    path stores, or a function ``V(start, stop)`` that computes the frames
    of states start..stop-1 when they are read; ``density_path`` builds
    orbits that way, so a transport holds one chunk of frames at a time.
    The constructor trusts its arguments; ``from_matrices`` validates raw
    matrices.
    """

    def __init__(self, w: np.ndarray, V):
        self.w = w
        self._frames = V

    @classmethod
    def from_matrices(cls, chunks) -> "DensityPath":
        """Validate (k, d, d) stacks of density matrices, one stack at a time."""
        ws, Vs = [], []
        for chunk in chunks:
            _, w, V = validate_density(chunk)
            ws.append(np.clip(w, 0.0, 1.0))
            Vs.append(V)
        return cls(np.concatenate(ws), np.concatenate(Vs))

    def frames(self, start: int, stop: int) -> np.ndarray:
        """The frames of states start..stop-1, as a (stop - start, d, d) stack."""
        V = self._frames
        return V(start, stop) if callable(V) else V[start:stop]

    @property
    def V(self) -> np.ndarray:
        """Every frame as one (n+1, d, d) stack; a streamed path computes it on each read."""
        return self.frames(0, len(self))

    @property
    def dim(self) -> int:
        return self.w.shape[-1]

    def __len__(self) -> int:
        return self.w.shape[0]

    def __repr__(self):
        return f"DensityPath(states={len(self)}, dim={self.dim})"


def apply_gauge(W, S) -> np.ndarray:
    """Right-multiply an amplitude by a gauge partial isometry, W -> W S.

    Raises InvalidState when W W^dag is not a density operator or S is not
    a partial isometry, and SupportMismatch when the gauged amplitude no
    longer purifies the same state, which happens exactly when the left
    support of S fails to cover the right support of W.
    """
    W = as_square_matrix(W)
    S = as_square_matrix(S)
    if W.shape != S.shape:
        raise DimensionMismatch(f"amplitude shape {W.shape} vs gauge shape {S.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing W W^dag is inf or nan, so no state
        state = W @ dagger(W)
    if not np.isfinite(state).all():
        raise InvalidState("W W^dag is not a density operator: its entries overflow")
    validate_density(state)
    if not is_partial_isometry(S):
        raise InvalidState("gauge matrix is not a partial isometry")
    gauged = W @ S
    drift = first_norm_above(gauged @ dagger(gauged) - state, DEFAULT_TOL * W.shape[0])
    if drift is not None:
        raise SupportMismatch(f"gauged amplitude changes the state by {drift[1]:.3e}")
    return gauged


def parallelity_residual(W, W2) -> float:
    """How far the pair (W, W2) is from being parallel.

    Returns max(||M - M^dag||, |min(0, lambda_min((M+M^dag)/2))|) for
    M = W^dag W2: zero (up to tolerance) iff the overlap is Hermitian
    PSD. Strict positivity is deliberately not required; rank-deficient
    states make it unattainable.
    """
    a = as_square_matrix(W)
    b = as_square_matrix(W2)
    if a.shape != b.shape:
        raise DimensionMismatch(f"amplitude shapes {a.shape} vs {b.shape}")
    M = dagger(a) @ b
    # One eigensolve for both parts: i(M - M^dag) is Hermitian, and its
    # spectral norm ||M - M^dag|| is the larger of -lambda_min and
    # lambda_max (the spectrum is not symmetric about zero).
    w = np.linalg.eigvalsh(np.stack([hermitian_part(M), 1j * (M - dagger(M))]))
    herm = max(-w[1, 0], w[1, -1])
    return float(max(herm, abs(min(0.0, w[0, 0]))))
