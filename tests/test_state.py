import numpy as np
import pytest

from holonomy_lab.errors import DimensionMismatch, InvalidState, SupportMismatch
from holonomy_lab.linalg import op_norm
from holonomy_lab.state import DensityOperator, apply_gauge, parallelity_residual

from conftest import (
    PSI_MINUS,
    PSI_PLUS,
    dyad,
    random_density_matrix,
    random_hermitian,
    random_unitary,
    rho1_matrix,
)


# -------------------------------------------------------------- DensityOperator

def test_density_operator_validation():
    with pytest.raises(InvalidState):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidState):
        DensityOperator(np.diag([1.2, -0.2]))  # negative eigenvalue
    with pytest.raises(InvalidState, match="trace"):
        DensityOperator(np.diag([0.4, 0.4]))


def test_density_operator_eigendata():
    rho = DensityOperator(rho1_matrix(0.5))
    assert rho.dim == 4
    assert rho.rank() == 2
    assert np.allclose(np.sort(rho.eigenvalues)[-2:], [1 / 3, 2 / 3])
    V = rho.eigenvectors
    assert np.allclose(V.conj().T @ V, np.eye(4), atol=1e-12)


def test_pure_and_maximally_mixed():
    rho = DensityOperator.pure(np.array([3.0, 4.0j]))  # normalizes
    assert rho.rank() == 1
    assert np.trace(rho.matrix).real == pytest.approx(1.0)
    mm = DensityOperator.maximally_mixed(3)
    assert np.allclose(mm.matrix, np.eye(3) / 3)


def test_pure_state_of_a_vector_near_the_float_limit():
    assert np.allclose(DensityOperator.pure(np.array([1e308, 1.0])).matrix, np.diag([1.0, 0.0]), rtol=0, atol=1e-300)
    both = DensityOperator.pure(np.array([1.7e308, 1.7e308j])).matrix
    assert np.allclose(both, np.array([[1, -1j], [1j, 1]]) / 2, atol=1e-15)
    for tiny in ([1e-320, 0], [5e-324, 0]):  # subnormal entries
        assert np.allclose(DensityOperator.pure(np.array(tiny)).matrix, np.diag([1.0, 0.0]), rtol=0, atol=1e-15)
    both = DensityOperator.pure(np.array([1e-310, 1e-310j])).matrix
    assert np.allclose(both, np.array([[1, -1j], [1j, 1]]) / 2, atol=1e-15)
    with pytest.raises(InvalidState, match="zero vector"):
        DensityOperator.pure(np.zeros(3))


def test_pure_state_is_unchanged_by_the_power_of_two_scaling(rng):
    for scale in (1.0, 3.0, 1e-100, 1e100):
        v = scale * (rng.normal(size=5) + 1j * rng.normal(size=5))
        u = v / np.linalg.norm(v)
        assert np.array_equal(DensityOperator.pure(v).matrix, DensityOperator(np.outer(u, u.conj())).matrix)


def test_density_operator_rejects_an_indefinite_matrix_near_the_float_limit():
    with pytest.raises(InvalidState, match="eigenvalue"):
        DensityOperator(np.array([[0.5, 1e308], [1e308, 0.5]]))


def test_support_projector_of_state():
    rho = DensityOperator(rho1_matrix(0.5))
    P = rho.support
    expected = dyad(PSI_PLUS, PSI_PLUS) + dyad(PSI_MINUS, PSI_MINUS)
    assert np.allclose(P, expected, atol=1e-12)


# ------------------------------------------- standard purification rho^{1/2}

def test_purification_of_pure_state():
    rho = DensityOperator.pure(np.array([1.0, 0.0]))
    assert np.allclose(rho.sqrt, np.diag([1.0, 0.0]))


def test_purification_of_maximally_mixed():
    W = DensityOperator.maximally_mixed(2).sqrt
    assert np.allclose(W, np.eye(2) / np.sqrt(2))


def test_purification_recovers_state(rng):
    rho = DensityOperator(random_density_matrix(rng, 5))
    W = rho.sqrt
    assert op_norm(W @ W.conj().T - rho.matrix) < 1e-12


# ------------------------------------------------------------------ apply_gauge

def test_amplitude_rejects_non_state():
    with pytest.raises(InvalidState, match="trace"):
        apply_gauge(np.eye(2), np.eye(2))  # W W^dag has trace 2


def test_amplitude_whose_state_overflows_is_rejected():
    # W W^dag overflows to inf: rejected as no density operator, with no RuntimeWarning.
    with pytest.raises(InvalidState, match="not a density operator"):
        apply_gauge(np.diag([1e200, 0.0]), np.eye(2))


def test_apply_gauge_identity():
    W = DensityOperator(rho1_matrix(0.5)).sqrt
    assert np.allclose(apply_gauge(W, np.eye(4)), W)


def test_apply_gauge_unitary_preserves_state(rng):
    rho = DensityOperator(random_density_matrix(rng, 4))
    out = apply_gauge(rho.sqrt, random_unitary(rng, 4))
    assert op_norm(out @ out.conj().T - rho.matrix) < 1e-12


def test_apply_gauge_moves_ancilla_only():
    # W = |0><0|, S = |0><1|: the purification moves to |0><1|, same state.
    W = np.diag([1.0, 0.0])
    out = apply_gauge(W, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(out, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(out @ out.conj().T, W @ W.conj().T)


def test_apply_gauge_support_mismatch():
    S = np.array([[0.0, 0.0], [1.0, 0.0]])  # left support misses W
    with pytest.raises(SupportMismatch):
        apply_gauge(np.diag([1.0, 0.0]), S)


def test_apply_gauge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_gauge(np.diag([1.0, 0.0]), np.eye(3))


def test_gauge_isometry_validation():
    with pytest.raises(InvalidState, match="partial isometry"):
        apply_gauge(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))


# --------------------------------------------------------- parallelity_residual

def test_parallelity_of_amplitude_with_itself(rng):
    W = DensityOperator(random_density_matrix(rng, 4)).sqrt
    assert parallelity_residual(W, W) < 1e-14


def test_parallelity_detects_phase():
    W = DensityOperator.pure(np.array([1.0, 0.0])).sqrt
    assert parallelity_residual(W, W * np.exp(1j * np.pi / 2)) > 0.5


def test_parallelity_swap_symmetry(rng):
    W = DensityOperator(random_density_matrix(rng, 3)).sqrt
    W2 = random_unitary(rng, 3) @ DensityOperator(random_density_matrix(rng, 3)).sqrt
    assert parallelity_residual(W, W2) == pytest.approx(parallelity_residual(W2, W), abs=1e-12)


def _svd_parallelity_residual(a, b):
    """The residual as it was first written: an SVD for the skew part, eigvalsh for the rest."""
    M = a.conj().T @ b
    herm = np.linalg.svd(M - M.conj().T, compute_uv=False)[0]
    w = np.linalg.eigvalsh((M + M.conj().T) / 2)
    return float(max(herm, abs(min(0.0, w[0]))))


@pytest.mark.parametrize("dim", [2, 4, 7])
def test_parallelity_residual_matches_svd_formula(rng, dim):
    def gaussian():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    cases = [(scale * gaussian(), gaussian()) for scale in (1e-3, 1.0, 30.0)]
    # Anti-Hermitian parts with nonzero trace, so i(M - M^dag) has an asymmetric spectrum.
    H = random_hermitian(rng, dim)
    cases.append((np.eye(dim), H + 0.7j * np.eye(dim)))
    cases.append((np.eye(dim), H - 0.7j * np.eye(dim) + 0.1j * random_hermitian(rng, dim)))
    cases.append((gaussian(), gaussian() + 3j * np.eye(dim)))
    for a, b in cases:
        bound = 1e-14 * max(1.0, op_norm(a.conj().T @ b))
        assert abs(parallelity_residual(a, b) - _svd_parallelity_residual(a, b)) <= bound


def test_parallelity_residual_takes_both_ends_of_the_skew_spectrum():
    # M - M^dag = 1.4i I: i(M - M^dag) = -1.4 I has no positive eigenvalue.
    assert parallelity_residual(np.eye(3), (1 + 0.7j) * np.eye(3)) == pytest.approx(1.4, abs=1e-15)
    assert parallelity_residual(np.eye(3), (1 - 0.7j) * np.eye(3)) == pytest.approx(1.4, abs=1e-15)


def test_parallelity_of_transported_neighbours():
    # Consecutive amplitudes from the transporter are parallel by construction.
    from holonomy_lab.evolution import StaticHamiltonian, TimeGrid, density_path
    from holonomy_lab.transport import discrete_holonomy

    rho = DensityOperator(rho1_matrix(0.5))
    spec = StaticHamiltonian(np.kron(np.array([[0, -1j], [1j, 0]]), np.eye(2)), tau=np.pi / 2)
    res = discrete_holonomy(density_path(rho, spec, TimeGrid.uniform(np.pi / 2, 200)))
    assert res.max_step_parallelity_residual <= 1e-8
