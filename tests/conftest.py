import numpy as np
import pytest

SQ2 = 1.0 / np.sqrt(2.0)

# Bell vectors written out by hand (computational order 00, 01, 10, 11)
# so the package's own constructors are never used as their own oracle.
PSI_PLUS = SQ2 * np.array([0, 1, 1, 0], dtype=complex)
PSI_MINUS = SQ2 * np.array([0, 1, -1, 0], dtype=complex)
PHI_PLUS = SQ2 * np.array([1, 0, 0, 1], dtype=complex)
PHI_MINUS = SQ2 * np.array([1, 0, 0, -1], dtype=complex)


def dyad(a, b):
    return np.outer(a, b.conj())


def rho1_matrix(eps):
    """Bell mixture (|Psi-><Psi-| + eps |Psi+><Psi+|) / (1 + eps)."""
    return (dyad(PSI_MINUS, PSI_MINUS) + eps * dyad(PSI_PLUS, PSI_PLUS)) / (1 + eps)


def rho1_tau_matrix(eps):
    """Its image under the spin flip: (|Phi+><Phi+| + eps |Phi-><Phi-|) / (1 + eps)."""
    return (dyad(PHI_PLUS, PHI_PLUS) + eps * dyad(PHI_MINUS, PHI_MINUS)) / (1 + eps)


def usf_matrix():
    """Spin plus phase flip of the first qubit, as a 2x2 block on qubit one."""
    return np.kron(np.array([[0, -1], [1, 0]], dtype=complex), np.eye(2, dtype=complex))


def angle_diff(a, b):
    """Distance between two angles modulo 2 pi."""
    d = abs(float(a) - float(b)) % (2 * np.pi)
    return min(d, 2 * np.pi - d)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_unitary(rng, dim):
    Q, R = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_hermitian(rng, dim):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (A + A.conj().T) / 2


def random_density_matrix(rng, dim, rank=None):
    rank = dim if rank is None else rank
    A = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = A @ A.conj().T
    return m / np.trace(m).real


def path_matrices(path):
    """The (n+1, d, d) density matrices of a DensityPath, rebuilt from its eigen-data."""
    m = (path.V * path.w[:, None, :]) @ path.V.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2
