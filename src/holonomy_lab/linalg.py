"""Dense complex-matrix primitives.

All routines operate on small square numpy arrays (dim <= ~64). Each
matrix rule has one owner: ``kept_directions`` makes every rank decision
(eigenvalues and singular values alike are nonzero above tol times the
largest one), ``svd_isometry`` snaps to the partial isometry that is zero
on the kernel of its input, ``hermitian_part`` forms (M + M^dag) / 2, and
``first_norm_above`` makes every norm test, through ``first_skew_above``,
``first_non_isometry`` and the partial-isometry test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, NotHermitian, NotPSD

__all__ = [
    "DEFAULT_TOL",
    "PolarFactors",
    "as_square_matrix",
    "as_square_stack",
    "dagger",
    "op_norm",
    "first_norm_above",
    "first_skew_above",
    "first_non_isometry",
    "kept_directions",
    "hermitian_part",
    "hermitian_eigh",
    "hermitian_sqrt",
    "eigh_root",
    "eigh_exp",
    "support_power",
    "support_projector",
    "polar",
    "polar_isometry",
    "svd_isometry",
    "is_partial_isometry",
    "unitary_exp",
    "validate_density",
    "transition_probability",
]

DEFAULT_TOL = 1e-9


def as_square_matrix(M) -> np.ndarray:
    """Coerce to a finite square complex ndarray of size at least 1."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def as_square_stack(M) -> np.ndarray:
    """Coerce to a finite complex ndarray: one square matrix or a (k, d, d) stack, d >= 1."""
    M = np.asarray(M, dtype=complex)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or M.shape[-1] == 0:
        raise ValueError(f"expected a non-empty square matrix or a stack of them, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return M.conj().swapaxes(-1, -2)


def op_norm(M: np.ndarray) -> float:
    """Spectral (operator) norm."""
    M = np.atleast_2d(np.asarray(M))
    if not M.any():
        return 0.0
    return float(np.linalg.norm(M, 2))


def first_norm_above(M: np.ndarray, bound: float):
    """First member of a stack whose spectral norm exceeds ``bound``.

    ``M`` is one (d, d) matrix or a (k, d, d) stack. Returns ``(index,
    norm)`` for that member, or None when every norm is within the bound.
    The Frobenius norm bounds the spectral norm from above, so only the
    members whose Frobenius norm exceeds the bound (with a relative slack
    of 1e-8, far above the round-off of either norm) get an SVD; the
    decision, the member and the norm are the SVD's. A member with a nan
    or infinite entry is above every bound, with its Frobenius norm (nan
    or inf) as its norm.
    """
    stack = M if M.ndim == 3 else M[None]
    # Squares of entries near the float limit overflow to inf, which is a norm above the bound.
    with np.errstate(over="ignore", invalid="ignore"):
        frobenius = np.linalg.norm(stack, axis=(-2, -1))
        candidates = np.flatnonzero(~(frobenius * (1 + 1e-8) <= bound))  # nan counts as above
    if candidates.size == 0:
        return None
    members = stack[candidates]
    finite = np.isfinite(members).all(axis=(-2, -1))
    norms = frobenius[candidates]
    norms[finite] = np.linalg.svd(members[finite], compute_uv=False)[:, 0]
    over = np.flatnonzero(~(norms <= bound))
    if over.size == 0:
        return None
    return int(candidates[over[0]]), float(norms[over[0]])


def first_skew_above(M: np.ndarray, bound: float):
    """``first_norm_above`` of M - M^dag: the first member of a stack that is not Hermitian within bound."""
    with np.errstate(over="ignore"):  # a difference beyond the float range is inf, above the bound
        return first_norm_above(M - dagger(M), bound)


def first_non_isometry(V: np.ndarray, bound: float):
    """``first_norm_above`` of V^dag V - 1: the first member of a stack whose columns are not orthonormal."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product is inf or nan, above the bound
        return first_norm_above(dagger(V) @ V - np.eye(V.shape[-1]), bound)


def _first_non_partial_isometry(S: np.ndarray, bound: float):
    """``first_norm_above`` of S S^dag S - S: the first member of a stack that is not a partial isometry."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product is inf or nan, above the bound
        return first_norm_above(S @ dagger(S) @ S - S, bound)


def kept_directions(values: np.ndarray, tol: float) -> np.ndarray:
    """The one rank rule: mask of the values above tol times the largest.

    ``values`` are non-negative eigenvalues or singular values, one
    spectrum or a stack along the last axis; a zero matrix keeps nothing.
    """
    if not 0.0 < tol < 1.0:  # also rejects nan, which would cut every direction
        raise ValueError(f"tol must satisfy 0 < tol < 1, got {tol!r}")
    return values > tol * values.max(axis=-1, keepdims=True, initial=0.0)


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2, summed after halving so that entries near the float limit do not overflow."""
    return M / 2 + dagger(M) / 2


def hermitian_eigh(M: np.ndarray) -> tuple:
    """``np.linalg.eigh`` of the Hermitian part (M + M^dag) / 2."""
    return np.linalg.eigh(hermitian_part(M))


def hermitian_sqrt(M) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-DEFAULT_TOL, 0) are clamped to zero (round-off safety);
    anything more negative raises NotPSD. The result R is Hermitian,
    commutes with M, and satisfies R @ R = M up to round-off.
    """
    M = as_square_matrix(M)
    skew = first_skew_above(M, DEFAULT_TOL)
    if skew is not None:
        raise NotHermitian(f"||M - M^dag|| = {skew[1]:.3e} > tol = {DEFAULT_TOL:.3e}")
    w, V = hermitian_eigh(M)
    if w[0] < -DEFAULT_TOL:
        raise NotPSD(f"eigenvalue {w[0]:.3e} < -tol = {-DEFAULT_TOL:.3e}")
    return eigh_root(np.clip(w, 0.0, None), V)


def eigh_root(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Hermitian square root from eigen-data with w >= 0; also on stacks.

    ``w`` has shape (..., r) and ``V`` (..., d, r) with eigenvectors as
    columns; r < d gives the root on the span of those columns.
    """
    return hermitian_part((V * np.sqrt(w)[..., None, :]) @ dagger(V))


def eigh_exp(w: np.ndarray, V: np.ndarray, t) -> np.ndarray:
    """exp(-i t H) from the eigen-data (w, V) of a Hermitian H.

    ``V`` has the eigenvectors as columns and ``w`` broadcasts against
    its rows: (d,) with a (d, d) ``V``, or (k, 1, d) with a (k, d, d)
    stack of them. ``t`` is one time, or a 1-D array of k times for one
    generator, which gives the (k, d, d) stack of the single-time results.
    """
    if isinstance(t, np.ndarray):
        t = t[..., None, None]
    return (V * np.exp(-1j * t * w)) @ dagger(V)


def support_power(w: np.ndarray, V: np.ndarray, p: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Power p of a PSD matrix on its support, zero on the rest.

    Takes the eigen-data (V eigenvectors as columns) and keeps the
    eigenvalues of ``kept_directions``; negative p gives the pseudo-inverse
    power.
    """
    w = np.clip(w, 0.0, None)
    keep = kept_directions(w, tol)
    return (V * (np.where(keep, w, 1.0) ** p * keep)) @ dagger(V)


def support_projector(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian projector onto the range of M.

    Keeps the singular directions of ``kept_directions``; the zero matrix
    maps to the zero projector.
    """
    U, s, _ = np.linalg.svd(as_square_matrix(M))
    kept = U[:, kept_directions(s, tol)]
    return hermitian_part(kept @ dagger(kept))


@dataclass(frozen=True)
class PolarFactors:
    """One-sided polar decomposition of a square matrix.

    ``left``  means X = isometry @ positive_part with positive_part = (X^dag X)^{1/2};
    ``right`` means X = positive_part @ isometry with positive_part = (X X^dag)^{1/2}.
    The isometry is the unique partial isometry with Ker(isometry) = Ker(X).
    """

    isometry: np.ndarray
    positive_part: np.ndarray


def polar(X, side: str = "left", tol: float = DEFAULT_TOL) -> PolarFactors:
    """Polar decomposition with the zero-on-kernel isometry convention.

    Singular directions outside ``kept_directions`` are dropped from the
    isometry, so the left and right decompositions share one partial
    isometry (their positive parts differ).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    U, s, Vh = np.linalg.svd(as_square_matrix(X))
    if side == "left":
        positive = dagger(Vh) @ (s[:, None] * Vh)
    else:
        positive = U @ (s[:, None] * dagger(U))  # before the snap, which masks U
    return PolarFactors(isometry=svd_isometry(U, s, Vh, tol), positive_part=hermitian_part(positive))


def polar_isometry(X, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The partial isometry that ``polar`` shares between its sides, of a matrix or of each of a stack."""
    return svd_isometry(*np.linalg.svd(as_square_stack(X)), tol)


def svd_isometry(U: np.ndarray, s: np.ndarray, Vh: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The snap rule: U Vh on the singular directions of ``kept_directions``, zero on the rest; masks U in place."""
    U *= kept_directions(s, tol)[..., None, :]
    return U @ Vh


def is_partial_isometry(S, tol: float = DEFAULT_TOL) -> bool:
    """True iff S S^dag S = S within tolerance (S^dag S is a projector)."""
    return _first_non_partial_isometry(as_square_matrix(S), tol) is None


def unitary_exp(H, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, computed by eigendecomposition.

    ``H`` is one (d, d) matrix or a (k, d, d) stack, and the result has
    its shape; any non-Hermitian member raises NotHermitian. Exact for
    this problem class; no series or scaling-squaring.
    """
    H = as_square_stack(H)
    skew = first_skew_above(H, DEFAULT_TOL)
    if skew is not None:
        raise NotHermitian(f"generator deviates from Hermitian by {skew[1]:.3e}")
    w, V = hermitian_eigh(H)
    return eigh_exp(w[..., None, :], V, t)


def validate_density(m):
    """Check that m is a density matrix; return it symmetrised with its eigh.

    ``m`` is one (d, d) matrix or a (k, d, d) stack; the outputs have the
    matching shapes. Raises InvalidState unless every matrix is
    Hermitian within ``DEFAULT_TOL``, has no eigenvalue below
    -DEFAULT_TOL and has trace 1 within ``DEFAULT_TOL * d``; for a stack
    the first failing member is reported.
    """
    m = as_square_stack(m)
    stack = m if m.ndim == 3 else m[None]
    skew = first_skew_above(stack, DEFAULT_TOL)
    if skew is not None:
        raise InvalidState(f"density matrix not Hermitian (defect {skew[1]:.3e})")
    stack = hermitian_part(stack)
    w, V = np.linalg.eigh(stack)
    negative = np.flatnonzero(w[:, 0] < -DEFAULT_TOL)
    if negative.size:
        raise InvalidState(f"density matrix has eigenvalue {w[negative[0], 0]:.3e} < -tol")
    with np.errstate(over="ignore"):  # a trace beyond the float range is inf, which is not 1
        tr = np.trace(stack, axis1=-2, axis2=-1).real
    off = np.flatnonzero(np.abs(tr - 1.0) > DEFAULT_TOL * stack.shape[-1])
    if off.size:
        raise InvalidState(f"density matrix trace must be 1, got {float(tr[off[0]])!r}")
    if m.ndim == 2:
        return stack[0], w[0], V[0]
    return stack, w, V


def transition_probability(rho, sigma) -> float:
    """Transition probability (Tr[(rho^{1/2} sigma rho^{1/2})^{1/2}])^2.

    Evaluated through the identity with the nuclear norm of
    rho^{1/2} sigma^{1/2}, which avoids taking square roots of round-off
    eigenvalues. A real number in [0, 1]; equals 1 iff the states
    coincide and |<psi|phi>|^2 for pure states. Symmetric.
    """
    roots = []
    for state in (rho, sigma):
        _, w, V = validate_density(getattr(state, "matrix", state))
        roots.append((V * np.sqrt(np.clip(w, 0.0, None))) @ dagger(V))
    if roots[0].shape != roots[1].shape:
        raise InvalidState(f"dimension mismatch: {roots[0].shape} vs {roots[1].shape}")
    sv = np.linalg.svd(roots[0] @ roots[1], compute_uv=False)
    fid = float(np.sum(sv) ** 2)
    return min(max(fid, 0.0), 1.0)
