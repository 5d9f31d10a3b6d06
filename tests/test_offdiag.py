import numpy as np
import pytest

from holonomy_lab.compare import PermutedFamily, interferometric_offdiag_phase
from holonomy_lab.errors import DimensionMismatch, ZeroOperator
from holonomy_lab.evolution import StaticHamiltonian, TimeGrid, density_path
from holonomy_lab.linalg import op_norm, polar_isometry, unitary_exp
from holonomy_lab.offdiag import (
    alternative_ordering,
    holonomy_isometry,
    nu_functional,
    off_diagonal_invariant,
    principal_angle,
    sequence_invariants,
    support_overlap,
)
from holonomy_lab.state import DensityOperator
from holonomy_lab.transport import TransportResult, discrete_holonomy

from conftest import (
    PHI_MINUS,
    PHI_PLUS,
    dyad,
    random_density_matrix,
    random_hermitian,
    random_unitary,
    rho1_matrix,
    rho1_tau_matrix,
    usf_matrix,
)


def _constant_result(rho: DensityOperator) -> TransportResult:
    W = rho.sqrt
    return TransportResult(
        relative_phase_factor=rho.support,
        initial_amplitude=W,
        final_amplitude=W,
        invariant=rho.matrix,
        max_step_parallelity_residual=0.0,
        n_steps=1,
    )


# ------------------------------------------------------- off_diagonal_invariant

def test_order_one_constant_path():
    rho = DensityOperator(rho1_matrix(0.5))
    r = _constant_result(rho)
    X = off_diagonal_invariant([r])
    assert np.array_equal(X, r.invariant)
    assert np.allclose(X, rho.matrix)


def test_order_two_static_bell_matches_brute_force():
    usf = usf_matrix()
    r1, r2 = rho1_matrix(0.5), rho1_tau_matrix(0.5)
    w1, w2 = DensityOperator(r1).sqrt, DensityOperator(r2).sqrt
    results = [
        TransportResult(usf, w1, usf @ w1, usf @ r1, 0.0, 1),
        TransportResult(usf, w2, usf @ w2, usf @ r2, 0.0, 1),
    ]
    X = off_diagonal_invariant(results)
    assert np.allclose(X, usf @ r1 @ usf @ r2, atol=1e-12)
    # Factorization: the matrix equals the ordered product of the constituents' invariants.
    assert np.allclose(X, results[0].invariant @ results[1].invariant, atol=1e-14)


def test_order_two_constant_full_rank():
    rho = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    X = off_diagonal_invariant([_constant_result(rho), _constant_result(rho)])
    assert np.allclose(X, rho.matrix @ rho.matrix, atol=1e-14)


def test_dimension_mismatch():
    a = _constant_result(DensityOperator.maximally_mixed(2))
    b = _constant_result(DensityOperator.maximally_mixed(3))
    with pytest.raises(DimensionMismatch):
        off_diagonal_invariant([a, b])
    # The alternative ordering checks the later paths against the first one, then among themselves.
    for results in ([a, b], [b, a, a], [a, a, b]):
        with pytest.raises(DimensionMismatch):
            alternative_ordering(results)


def test_sequence_invariants_transport_each_named_state_once(rng, monkeypatch):
    import holonomy_lab.offdiag as offdiag

    states = [DensityOperator(random_density_matrix(rng, 4, 3)) for _ in range(3)]
    spec = StaticHamiltonian(random_hermitian(rng, 4), tau=0.8)
    grid = TimeGrid.uniform(0.8, 60)
    r1, r2 = (discrete_holonomy(density_path(rho, spec, grid)) for rho in states[:2])
    path_states, transports = [], []

    def recording_path(rho, *args):
        path_states.append(rho)
        return density_path(rho, *args)

    def counting_transport(path, tol):
        transports.append(path)
        return discrete_holonomy(path, tol)

    monkeypatch.setattr(offdiag, "density_path", recording_path)
    monkeypatch.setattr(offdiag, "discrete_holonomy", counting_transport)
    invariants, residuals = sequence_invariants(states, spec, grid, [(2, 1), (1, 2, 1)])
    # One path and one transport per named state; state 3 is never touched.
    assert [id(rho) for rho in path_states] == [id(states[0]), id(states[1])]
    assert len(transports) == 2
    assert list(invariants) == [(2, 1), (1, 2, 1)]
    assert op_norm(invariants[(2, 1)] - r2.invariant @ r1.invariant) < 1e-14
    assert op_norm(invariants[(1, 2, 1)] - r1.invariant @ r2.invariant @ r1.invariant) < 1e-14
    assert residuals == {
        "path1": r1.max_step_parallelity_residual,
        "path2": r2.max_step_parallelity_residual,
    }


# ---------------------------------------------------------------- nu_functional

def test_nu_of_constant_path_is_zero():
    rho = DensityOperator(rho1_matrix(0.5))
    diag = nu_functional(np.eye(4), off_diagonal_invariant([_constant_result(rho)]))
    assert diag.phase_defined
    assert diag.phase == pytest.approx(0.0, abs=1e-12)


def test_nu_undefined_at_nodal_point():
    X1 = usf_matrix() @ rho1_matrix(0.5)
    diag = nu_functional(np.eye(4), X1)
    assert not diag.phase_defined
    assert diag.phase is None
    assert diag.trace_magnitude < 1e-12
    assert diag.support_overlap < 1e-12


def test_nu_of_order_two_invariant_is_pi():
    usf = usf_matrix()
    X12 = usf @ rho1_matrix(0.5) @ usf @ rho1_tau_matrix(0.5)
    diag = nu_functional(np.eye(4), X12)
    assert diag.phase_defined
    assert diag.phase == pytest.approx(np.pi, abs=1e-12)
    # Brute-force trace: -(1 + eps^2) / (1 + eps)^2 at eps = 1/2.
    assert diag.trace.real == pytest.approx(-5.0 / 9.0, abs=1e-12)
    assert diag.support_overlap == pytest.approx(1.0, abs=1e-12)


def test_nu_with_general_observable():
    rho = DensityOperator(rho1_matrix(0.5))
    A = dyad(PHI_PLUS, PHI_PLUS)
    X1 = usf_matrix() @ rho.matrix
    diag = nu_functional(A, X1)
    # A X1 = |Phi+><Psi-| / (1+eps) picks out one dyad; trace still zero.
    assert not diag.phase_defined


@pytest.mark.parametrize("c", [0.01, 1.0, 100.0])
def test_nu_threshold_scales_with_the_observable(c):
    # |Tr(c X12)| = 5c/9 against tol * ||c I|| = tol * c: the decision ignores c.
    usf = usf_matrix()
    X12 = usf @ rho1_matrix(0.5) @ usf @ rho1_tau_matrix(0.5)
    defined = nu_functional(c * np.eye(4), X12, tol=0.5)
    assert defined.phase_defined
    assert defined.phase == pytest.approx(np.pi, abs=1e-12)
    assert not nu_functional(c * np.eye(4), X12, tol=0.6).phase_defined


def test_support_overlap_values():
    assert support_overlap(usf_matrix() @ rho1_matrix(0.5)) < 1e-12
    full = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert support_overlap(full) == pytest.approx(1.0, abs=1e-12)
    assert support_overlap(np.zeros((3, 3))) == 0.0
    # Singular values 1 and 1e-6: holonomy_isometry's rank rule keeps both at tol = 1e-9, so both supports are the plane.
    X = np.array([[0, 1], [1e-6, 0]], dtype=complex)
    assert np.linalg.matrix_rank(holonomy_isometry(X)) == 2
    assert support_overlap(X) == pytest.approx(1.0, abs=1e-12)
    assert support_overlap(X, tol=1e-5) == pytest.approx(0.0, abs=1e-12)


def test_nodal_necessity_randomized(rng):
    # Orthogonal left and right supports force a vanishing trace.
    for _ in range(20):
        dim = 6
        Q = random_unitary(rng, dim)
        left, right = Q[:, :2], Q[:, 2:4]
        X = left @ (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) @ right.conj().T
        assert support_overlap(X) <= 1e-9
        assert abs(np.trace(X)) <= 1e-8


# ------------------------------------------------------------- principal_angle

def test_principal_angle_conventions():
    assert principal_angle(-1.0 + 0j) == pytest.approx(np.pi)
    assert principal_angle(complex(-1.0, -1e-17)) == pytest.approx(np.pi)  # snap, not -pi
    assert principal_angle(1.0 + 0j) == 0.0
    assert principal_angle(1j) == pytest.approx(np.pi / 2)


# ------------------------------------------------------------ holonomy_isometry

def test_isometry_of_positive_operator():
    rho = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    U = holonomy_isometry(rho.matrix)
    assert np.allclose(U, np.eye(4), atol=1e-10)


def test_isometry_of_order_two_invariant():
    usf = usf_matrix()
    X12 = usf @ rho1_matrix(0.5) @ usf @ rho1_tau_matrix(0.5)
    expected = -(dyad(PHI_PLUS, PHI_PLUS) + dyad(PHI_MINUS, PHI_MINUS))
    assert np.allclose(holonomy_isometry(X12), expected, atol=1e-10)


def test_isometry_of_scaled_unitary(rng):
    V = random_unitary(rng, 4)
    assert np.allclose(holonomy_isometry(2.7 * V), V, atol=1e-10)


def test_isometry_of_zero_operator():
    with pytest.raises(ZeroOperator):
        holonomy_isometry(np.zeros((3, 3)))


def test_isometry_takes_one_svd_and_decides_zero_from_it(rng, monkeypatch):
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    V = random_unitary(rng, 4)
    assert np.allclose(holonomy_isometry(2.7 * V), V, atol=1e-10)
    assert len(calls) == 1
    small = 1e-3 * V
    assert np.allclose(holonomy_isometry(small, tol=0.999e-3), V, atol=1e-10)
    with pytest.raises(ZeroOperator, match="^cannot extract an isometry from a vanishing invariant$"):
        holonomy_isometry(small, tol=1.001e-3)
    assert len(calls) == 3


# --------------------------------------------------------- alternative_ordering

def _transport_pair(rng, dim=4, rank=3, n=60):
    out = []
    for _ in range(2):
        rho = DensityOperator(random_density_matrix(rng, dim, rank))
        spec = StaticHamiltonian(random_hermitian(rng, dim), tau=0.8)
        out.append(discrete_holonomy(density_path(rho, spec, TimeGrid.uniform(0.8, n))))
    return out


def test_alternative_ordering_constant_path():
    rho = DensityOperator(rho1_matrix(0.5))
    Y = alternative_ordering([_constant_result(rho)])
    assert np.allclose(Y, rho.matrix, atol=1e-12)


def test_alternative_ordering_shares_trace(rng):
    results = _transport_pair(rng)
    X = off_diagonal_invariant(results)
    Y = alternative_ordering(results)
    assert complex(np.trace(X)) == pytest.approx(complex(np.trace(Y)), abs=1e-12)


def test_alternative_ordering_gauge_behaviour(rng):
    # A global gauge on path 1 conjugates Y (and leaves its trace alone).
    results = _transport_pair(rng)
    Y = alternative_ordering(results)
    S = random_unitary(rng, 4)
    first = results[0]
    gauged = TransportResult(
        relative_phase_factor=first.relative_phase_factor,
        initial_amplitude=first.initial_amplitude @ S,
        final_amplitude=first.final_amplitude @ S,
        invariant=first.invariant,
        max_step_parallelity_residual=first.max_step_parallelity_residual,
        n_steps=first.n_steps,
    )
    Yg = alternative_ordering([gauged, results[1]])
    assert op_norm(Yg - S.conj().T @ Y @ S) < 1e-12
    assert complex(np.trace(Yg)) == pytest.approx(complex(np.trace(Y)), abs=1e-12)
    assert op_norm(Yg - Y) > 1e-3  # the operator itself moved


# ------------------------------------------------------- pure-state reduction

def test_pure_state_reduction_matches_bargmann_product(rng):
    dim = 4
    Q = random_unitary(rng, dim)
    vecs = [Q[:, k] for k in range(3)]
    H = random_hermitian(rng, dim)
    for v in vecs:
        H = H - (v.conj() @ H @ v).real * np.outer(v, v.conj())
    U = unitary_exp(H, 1.0)
    for l in (1, 2, 3):
        results = []
        for k in range(l):
            rho = DensityOperator.pure(vecs[k])
            w0 = rho.sqrt
            results.append(TransportResult(U @ rho.support, w0, U @ w0, U @ rho.matrix, 0.0, 1))
        X = off_diagonal_invariant(results)
        barg = complex(1.0)
        for k in range(l):
            barg *= vecs[k].conj() @ U @ vecs[(k + 1) % l]
        diag = nu_functional(np.eye(dim), X)
        assert abs(complex(np.trace(X)) - barg) < 1e-12
        if diag.phase_defined:
            assert abs(np.angle(diag.trace / barg)) < 1e-8


@pytest.mark.parametrize("tol", [float("nan"), 0.0, 1.0, -1.0])
def test_tol_outside_the_unit_interval_is_rejected_by_every_rank_decision(tol):
    # A nan tol would cut every direction: zero isometries, rank 0, a zero overlap.
    X = np.diag([0.9, 0.1, 0.0]).astype(complex)
    rho = DensityOperator(np.diag([0.5, 0.3, 0.2]).astype(complex))
    family = PermutedFamily(np.array([0.5, 0.3, 0.2]), np.eye(3, dtype=complex), ((0, 1, 2), (1, 0, 2)))
    calls = (
        lambda: holonomy_isometry(X, tol),
        lambda: polar_isometry(X, tol),
        lambda: nu_functional(np.eye(3), X, tol),
        lambda: rho.rank(tol),
        lambda: interferometric_offdiag_phase(np.eye(3), family, 2, tol),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^tol must satisfy 0 < tol < 1, got"):
            call()
