import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy_lab.errors import InvalidState, NotHermitian, NotPSD
from holonomy_lab.evolution import StaticHamiltonian
from holonomy_lab.linalg import (
    eigh_exp,
    first_norm_above,
    hermitian_part,
    hermitian_sqrt,
    is_partial_isometry,
    op_norm,
    polar,
    polar_isometry,
    support_power,
    support_projector,
    transition_probability,
    unitary_exp,
    validate_density,
)
from holonomy_lab.state import PATH_CHUNK, DensityOperator

from conftest import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    dyad,
    random_density_matrix,
    random_hermitian,
    random_unitary,
    rho1_matrix,
    rho1_tau_matrix,
    usf_matrix,
)


# ---------------------------------------------------------------- hermitian_sqrt

def test_sqrt_identity_is_idempotent():
    assert np.allclose(hermitian_sqrt(np.eye(4)), np.eye(4))


def test_sqrt_diagonal():
    assert np.allclose(hermitian_sqrt(np.diag([4.0, 1.0, 0.0, 0.0])), np.diag([2.0, 1.0, 0.0, 0.0]))


def test_sqrt_bell_mixture_against_eigendecomposition():
    # Oracle: sqrt built directly from the known eigendecomposition.
    eps = 0.5
    expected = (dyad(PSI_MINUS, PSI_MINUS) + np.sqrt(eps) * dyad(PSI_PLUS, PSI_PLUS)) / np.sqrt(1 + eps)
    R = hermitian_sqrt(rho1_matrix(eps))
    assert np.allclose(R, expected, atol=1e-12)
    assert np.allclose(R @ R, rho1_matrix(eps), atol=1e-12)


def test_sqrt_commutes_with_input(rng):
    M = random_density_matrix(rng, 5)
    R = hermitian_sqrt(M)
    assert op_norm(R @ M - M @ R) < 1e-12


def test_sqrt_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD):
        hermitian_sqrt(np.diag([1.0, -1e-3]))


def test_sqrt_clamps_tiny_negative():
    R = hermitian_sqrt(np.diag([1.0, -1e-12]))
    assert np.allclose(R, np.diag([1.0, 0.0]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_sqrt_squares_back_randomized(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    M = A @ A.conj().T
    R = hermitian_sqrt(M)
    assert op_norm(R @ R - M) <= 1e-10 * max(1.0, op_norm(M))


@pytest.mark.parametrize(
    "build",
    [DensityOperator, hermitian_sqrt, lambda M: StaticHamiltonian(M, tau=1.0)],
    ids=["density-operator", "hermitian-sqrt", "static-hamiltonian"],
)
def test_a_zero_size_matrix_is_rejected(build):
    # d = 0 fails the one square-matrix rule, not an index later on.
    with pytest.raises(ValueError, match=r"expected a non-empty square matrix.*got shape \(0, 0\)"):
        build(np.zeros((0, 0)))


# ------------------------------------------------------------ support_projector

def test_support_of_zero_matrix():
    assert np.allclose(support_projector(np.zeros((3, 3))), np.zeros((3, 3)))


def test_support_of_rank_one_dyad():
    P = support_projector(dyad(PHI_PLUS, PSI_MINUS))
    assert np.allclose(P, dyad(PHI_PLUS, PHI_PLUS), atol=1e-12)


def test_support_of_static_invariant_is_phi_plane():
    # X1 = U_sf rho1(0) has left range span{Phi+, Phi-} for eps > 0.
    X = usf_matrix() @ rho1_matrix(0.5)
    P = support_projector(X @ X.conj().T)
    expected = dyad(PHI_PLUS, PHI_PLUS) + dyad(PHI_MINUS, PHI_MINUS)
    assert np.allclose(P, expected, atol=1e-12)
    # SVD oracle computed right here.
    U, s, _ = np.linalg.svd(X)
    kept = U[:, s > 1e-9 * s[0]]
    assert np.allclose(P, kept @ kept.conj().T, atol=1e-12)


def test_support_is_projector(rng):
    X = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    P = support_projector(X)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P @ X, X, atol=1e-12)


# ------------------------------------------------------------------------ polar

def test_polar_of_unitary(rng):
    V = random_unitary(rng, 4)
    f = polar(V, "left")
    assert np.allclose(f.isometry, V, atol=1e-12)
    assert np.allclose(f.positive_part, np.eye(4), atol=1e-12)


def test_polar_of_singular_diagonal():
    f = polar(np.diag([2.0, 0.0]), "right")
    assert np.allclose(f.isometry, np.diag([1.0, 0.0]))
    assert np.allclose(f.positive_part, np.diag([2.0, 0.0]))


def test_polar_static_order_two_invariant():
    # X12 = U_sf rho1(0) U_sf rho2(0) at eps = 0.5 is a negative operator on
    # the Phi plane, so its isometry is minus the plane projector.
    usf = usf_matrix()
    X = usf @ rho1_matrix(0.5) @ usf @ rho1_tau_matrix(0.5)
    expected = -(dyad(PHI_PLUS, PHI_PLUS) + dyad(PHI_MINUS, PHI_MINUS))
    left = polar(X, "left")
    right = polar(X, "right")
    assert np.allclose(left.isometry, expected, atol=1e-10)
    assert op_norm(left.isometry - right.isometry) < 1e-10
    # SVD oracle, written out independently.
    U, s, Vh = np.linalg.svd(X)
    kept = s > 1e-9 * s[0]
    assert np.allclose(U[:, kept] @ Vh[kept, :], expected, atol=1e-10)


def test_polar_reconstruction_and_kernel(rng):
    X = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    X[:, 0] = 0.0  # force a kernel direction
    f = polar(X, "left")
    assert op_norm(f.isometry @ f.positive_part - X) < 1e-10
    # Ker(isometry) contains Ker(X): the zeroed column stays zeroed.
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert np.linalg.norm(f.isometry @ e0) < 1e-10
    assert is_partial_isometry(f.isometry)


def test_right_polar_keeps_its_positive_part_whole_after_the_snap(rng):
    # The snap zeroes cut columns of the SVD's U in place; the right positive part is formed from U first.
    X = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    X[:, 0] = 0.0
    f = polar(X, "right")
    assert op_norm(f.positive_part @ f.isometry - X) < 1e-10
    assert op_norm(f.positive_part - hermitian_sqrt(X @ X.conj().T)) < 1e-10
    cut = polar(X, "right", tol=0.9)  # cuts directions with nonzero singular values from the isometry
    assert np.linalg.matrix_rank(cut.isometry) < 4
    assert np.array_equal(cut.positive_part, f.positive_part)


def test_polar_matches_scipy_on_full_rank(rng):
    # scipy computes the unitary polar factor; on full-rank inputs the
    # partial-isometry convention coincides with it.
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u_scipy, p_scipy = scipy.linalg.polar(X, side="right")
    f = polar(X, "left")
    assert op_norm(f.isometry - u_scipy) < 1e-10
    assert op_norm(f.positive_part - p_scipy) < 1e-10


def test_polar_isometry_on_a_stack_matches_each_matrix(rng):
    # Each member keeps its own singular directions: ranks 5, 4 and 0.
    stack = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    stack[1, :, 0] = 0.0
    stack[2] = 0.0
    isometries = polar_isometry(stack)
    assert isometries.shape == stack.shape
    for X, S in zip(stack, isometries):
        assert op_norm(S - polar(X).isometry) < 1e-14
        assert op_norm(S - polar_isometry(X)) < 1e-14
    assert not isometries[2].any()


# ---------------------------------------------------------- is_partial_isometry

def test_partial_isometry_examples():
    assert is_partial_isometry(np.eye(3))
    assert is_partial_isometry(np.diag([1.0, 0.0]))
    assert not is_partial_isometry(np.diag([2.0, 0.0]))
    assert is_partial_isometry(usf_matrix())
    # S S^dag S overflows to inf, which is above every bound; no RuntimeWarning is raised.
    assert not is_partial_isometry(np.diag([1e200, 1.0]))


def test_partial_isometry_decision_is_the_spectral_norms():
    # S S^dag S - S is about 2 delta I here: spectral norm 2 delta, Frobenius 4 delta.
    inside = (1 + 0.4e-9) * np.eye(4)
    defect = inside @ inside @ inside - inside
    assert np.linalg.norm(defect) > 1e-9 >= op_norm(defect)
    assert is_partial_isometry(inside)
    assert not is_partial_isometry((1 + 0.6e-9) * np.eye(4))


# ------------------------------------------------------------ first_norm_above

def test_first_norm_above_matches_one_svd_of_every_member(rng):
    stack = rng.normal(size=(20, 5, 5)) + 1j * rng.normal(size=(20, 5, 5))
    # Rank-one members, whose Frobenius and spectral norms agree up to round-off.
    u = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    v = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    stack[::3] = u[:, :, None] * v[:, None, :].conj()
    norms = np.linalg.svd(stack, compute_uv=False)[:, 0]
    bounds = np.concatenate([norms, np.nextafter(norms, 0.0), [0.0, 2 * norms.max()]])
    for bound in bounds:
        over = np.flatnonzero(norms > bound)
        expected = (int(over[0]), float(norms[over[0]])) if over.size else None
        assert first_norm_above(stack, bound) == expected
    assert first_norm_above(stack[3], np.nextafter(norms[3], 0.0)) == (0, norms[3])
    assert first_norm_above(stack[3], norms[3]) is None
    assert first_norm_above(np.zeros((3, 3)), 0.0) is None


def test_first_norm_above_survives_frobenius_round_off(rng):
    # Rank-one matrices have equal norms, so round-off can put the computed
    # Frobenius norm below the SVD's; the member must still be reported.
    u = rng.normal(size=(200, 5)) + 1j * rng.normal(size=(200, 5))
    v = rng.normal(size=(200, 5)) + 1j * rng.normal(size=(200, 5))
    stack = u[:, :, None] * v[:, None, :].conj()
    norms = np.linalg.svd(stack, compute_uv=False)[:, 0]
    bounds = np.nextafter(norms, 0.0)
    low = np.flatnonzero(np.linalg.norm(stack, axis=(-2, -1)) <= bounds)
    assert low.size
    for k in low:
        assert first_norm_above(stack[k], bounds[k]) == (0, norms[k])


def test_first_norm_above_counts_non_finite_members_as_above():
    stack = np.zeros((4, 2, 2), dtype=complex)
    stack[1, 0, 1] = np.nan
    stack[2, 1, 1] = np.inf
    stack[3, 0, 0] = 1e308  # a Frobenius norm that squares past the float range
    index, norm = first_norm_above(stack, 1.0)
    assert index == 1 and np.isnan(norm)
    assert first_norm_above(stack[2:], 1.0) == (0, np.inf)
    assert first_norm_above(stack[3:], 1.0) == (0, 1e308)
    assert first_norm_above(np.array([[0, 1e308], [-1e308, 0]], dtype=complex), 1.0) == (0, 1e308)


def test_hermitian_part_halves_before_it_sums(rng):
    # Halving is exact away from the float limits, so both orders give the same bits.
    for shape, scale in (((3, 4, 4), 1.0), ((4, 4), 1.0), ((7, 2, 2), 1e-100), ((2, 16, 16), 1e100)):
        M = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        assert np.array_equal(hermitian_part(M), (M + M.conj().swapaxes(-1, -2)) / 2)
    huge = np.array([[1e308, 1e308], [1e308, -1e308]], dtype=complex)
    assert np.array_equal(hermitian_part(huge), huge)


@pytest.mark.parametrize(
    "matrix, message",
    [([[0.5, 1e308], [1e308, 0.5]], r"eigenvalue -1\.000e\+308"),
     ([[1e308, 0], [0, 1e308]], "trace must be 1, got inf"),
     ([[0.5, 1e308], [-1e308, 0.5]], r"not Hermitian \(defect inf\)")],
    ids=["indefinite", "trace-beyond-float", "skew-beyond-float"],
)
def test_validate_density_rejects_entries_near_the_float_limit(matrix, message):
    with pytest.raises(InvalidState, match=message):
        validate_density(np.array(matrix, dtype=complex))


# ------------------------------------------------------------------ unitary_exp

def test_unitary_exp_at_zero(rng):
    H = random_hermitian(rng, 4)
    assert np.allclose(unitary_exp(H, 0.0), np.eye(4))


def test_unitary_exp_spin_flip():
    # exp(-i (pi/2) sigma_y x 1) sends (|0>, |1>) to (|1>, -|0>) on the first factor.
    H = np.kron(np.array([[0, -1j], [1j, 0]]), np.eye(2))
    U = unitary_exp(H, np.pi / 2)
    assert np.allclose(U, usf_matrix(), atol=1e-12)
    e00 = np.array([1, 0, 0, 0], dtype=complex)
    e10 = np.array([0, 0, 1, 0], dtype=complex)
    assert np.allclose(U @ e00, e10, atol=1e-12)
    assert np.allclose(U @ e10, -e00, atol=1e-12)


def test_unitary_exp_sigma_z_scalar_oracle():
    # Scalar exponentials on the eigenbasis: diag(e^{-it}, e^{+it}).
    U = unitary_exp(np.diag([1.0, -1.0]), np.pi / 2)
    assert np.allclose(U, np.diag([-1j, 1j]), atol=1e-12)
    assert np.allclose(unitary_exp(np.diag([1.0, -1.0]), np.pi), -np.eye(2), atol=1e-12)


def test_unitary_exp_group_law(rng):
    H = random_hermitian(rng, 3)
    assert op_norm(unitary_exp(H, 1.1) @ unitary_exp(H, 0.6) - unitary_exp(H, 1.7)) < 1e-12


def test_unitary_exp_stays_unitary(rng):
    H = random_hermitian(rng, 4)
    for t in np.linspace(0.0, 10.0, 11):
        U = unitary_exp(H, float(t))
        assert op_norm(U.conj().T @ U - np.eye(4)) < 1e-10


def test_unitary_exp_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        unitary_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_unitary_exp_on_a_stack_matches_each_matrix(rng):
    stack = np.array([random_hermitian(rng, 4) for _ in range(PATH_CHUNK + 3)])
    Us = unitary_exp(stack, 0.3)
    assert Us.shape == stack.shape
    assert np.array_equal(Us, np.array([unitary_exp(H, 0.3) for H in stack]))


def test_unitary_exp_rejects_a_stack_with_one_non_hermitian_member(rng):
    stack = np.array([random_hermitian(rng, 3) for _ in range(5)])
    stack[3, 0, 1] += 1e-3
    with pytest.raises(NotHermitian, match="^generator deviates from Hermitian by 1.000e-03$"):
        unitary_exp(stack, 1.0)


def test_eigh_exp_on_an_array_of_times_matches_each_time(rng):
    w, V = np.linalg.eigh(random_hermitian(rng, 4))
    times = np.linspace(-2.0, 3.0, 11)
    assert np.array_equal(eigh_exp(w, V, times), np.array([eigh_exp(w, V, float(t)) for t in times]))


# ------------------------------------------------------- transition_probability

def test_transition_probability_of_identical_states(rng):
    rho = random_density_matrix(rng, 4)
    assert transition_probability(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_transition_probability_orthogonal_pure():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert transition_probability(a, b) == pytest.approx(0.0, abs=1e-12)


def test_transition_probability_bell_mixtures_orthogonal():
    # rho1(0) lives on the Psi plane, rho1(tau) on the Phi plane.
    assert transition_probability(rho1_matrix(0.5), rho1_tau_matrix(0.5)) < 1e-12


def test_transition_probability_pure_overlap(rng):
    for _ in range(10):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        f = transition_probability(np.outer(a, a.conj()), np.outer(b, b.conj()))
        assert f == pytest.approx(abs(a.conj() @ b) ** 2, abs=1e-12)


def test_transition_probability_against_sandwich_formula(rng):
    # Independent route: eigenvalues of the sandwiched operator.
    rho = random_density_matrix(rng, 4)
    sigma = random_density_matrix(rng, 4)
    R = hermitian_sqrt(rho)
    w = np.clip(np.linalg.eigvalsh(R @ sigma @ R), 0.0, None)
    expected = float(np.sum(np.sqrt(w)) ** 2)
    assert transition_probability(rho, sigma) == pytest.approx(expected, abs=1e-10)


def test_transition_probability_symmetric_and_bounded(rng):
    rho = random_density_matrix(rng, 3, rank=2)
    sigma = random_density_matrix(rng, 3)
    f = transition_probability(rho, sigma)
    assert 0.0 <= f <= 1.0
    assert f == pytest.approx(transition_probability(sigma, rho), abs=1e-12)


def test_transition_probability_rejects_invalid():
    with pytest.raises(InvalidState):
        transition_probability(np.diag([0.4, 0.4]), np.diag([0.5, 0.5]))


# ---------------------------------------------------------------- support_power

def test_support_power_inverse_root_on_rank_deficient_state(rng):
    m = random_density_matrix(rng, 4, rank=2)
    w, V = np.linalg.eigh(m)
    inv_root = support_power(w, V, -0.5)
    root = support_power(w, V, 0.5)
    assert np.allclose(root @ root, m, atol=1e-12)
    # root^{-1} root is the support projector, zero on the kernel.
    assert np.allclose(inv_root @ root, support_projector(m), atol=1e-8)


def test_support_power_drops_eigenvalues_below_relative_cutoff():
    w = np.array([-1e-17, 1e-12, 0.25, 1.0])
    out = support_power(w, np.eye(4), 0.5, tol=1e-9)
    assert np.array_equal(np.diagonal(out), [0.0, 0.0, 0.5, 1.0])


# ------------------------------------------------------------- validate_density

def test_validate_density_returns_symmetrised_matrix_and_eigh():
    m = rho1_matrix(0.5) + 1e-12j * np.eye(4)[:, ::-1]
    sym, w, V = validate_density(m)
    assert np.array_equal(sym, sym.conj().T)
    assert np.allclose((V * w) @ V.conj().T, sym, atol=1e-14)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "density matrix not Hermitian"),
        (np.diag([1.2, -0.2]), "density matrix has eigenvalue"),
        (np.diag([0.4, 0.4]), "density matrix trace must be 1"),
    ],
)
def test_validate_density_messages(matrix, message):
    with pytest.raises(InvalidState, match=message) as single:
        validate_density(matrix)
    # In a stack, the one bad member raises the single-matrix message.
    good = np.eye(2) / 2
    with pytest.raises(InvalidState) as stacked:
        validate_density(np.array([good, good, matrix, good]))
    assert str(stacked.value) == str(single.value)


def test_validate_density_hermiticity_decision_is_the_spectral_norms():
    # m - m^dag = c K with K = i diag(1, 1, -1, -1): spectral norm c, Frobenius 2c.
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    skew = 1j * np.diag([1.0, 1.0, -1.0, -1.0])
    inside, first_bad, worse = (rho + c * skew / 2 for c in (0.8e-9, 1.2e-9, 5e-9))
    assert np.linalg.norm(inside - inside.conj().T) > 1e-9 >= op_norm(inside - inside.conj().T)
    validate_density(inside)
    stack = np.array([inside, inside, first_bad, worse])
    # The reference: an SVD of every member, the first norm above tol named.
    defects = np.linalg.svd(stack - stack.conj().swapaxes(-1, -2), compute_uv=False)[:, 0]
    assert np.flatnonzero(defects > 1e-9)[0] == 2
    with pytest.raises(InvalidState) as exc:
        validate_density(stack)
    assert str(exc.value) == f"density matrix not Hermitian (defect {defects[2]:.3e})"
