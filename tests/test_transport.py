import tracemalloc

import numpy as np
import pytest

from holonomy_lab.errors import DimensionMismatch, GridTooCoarse, InvalidState, OrthogonalStep, OutOfRange
from holonomy_lab.evolution import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    RotatingFrame,
    SampledUnitaries,
    StaticHamiltonian,
    TimeGrid,
    density_path,
    unitary_at,
)
from holonomy_lab.linalg import (
    DEFAULT_TOL,
    dagger,
    hermitian_sqrt,
    is_partial_isometry,
    kept_directions,
    op_norm,
    polar_isometry,
    unitary_exp,
)
from holonomy_lab.offdiag import sequence_invariants
from holonomy_lab.scenarios import (
    BELL_INVARIANTS,
    BellScenario,
    bell_mixture,
    bell_paths,
    closed_form_B_r1,
    evolution_spec,
)
from holonomy_lab.state import PATH_CHUNK, DensityOperator, DensityPath, parallelity_residual
from holonomy_lab.transport import (
    AncillaGauge,
    _frame_products,
    _step_isometries,
    discrete_holonomy,
    pure_parallelity_residual,
    solve_ancilla_gauge,
    transport_equation_residual,
)

from conftest import (
    PSI_MINUS,
    PSI_PLUS,
    dyad,
    path_matrices,
    random_density_matrix,
    random_hermitian,
    random_unitary,
    rho1_matrix,
    usf_matrix,
)


# ------------------------------------------------------------ discrete_holonomy

def test_constant_path():
    rho = DensityOperator(rho1_matrix(0.5))
    res = discrete_holonomy(DensityPath.from_matrices([np.stack([rho.matrix] * 3)]))
    assert np.allclose(res.relative_phase_factor, rho.support, atol=1e-12)
    assert np.allclose(res.invariant, rho.matrix, atol=1e-12)


def test_pure_state_geometric_phase():
    # Parallel-transporting U (zero diagonal generator): the invariant is
    # U(tau)|0><0| and the phase functional is arg <0|U|0>.
    tau = np.pi / 4
    spec = StaticHamiltonian(SIGMA_X.astype(complex), tau=tau)
    rho = DensityOperator.pure(np.array([1.0, 0.0]))
    res = discrete_holonomy(density_path(rho, spec, TimeGrid.uniform(tau, 400)))
    expected = unitary_exp(SIGMA_X, tau) @ rho.matrix
    assert op_norm(res.invariant - expected) < 1e-5
    tr = complex(np.trace(res.invariant))
    assert abs(np.angle(tr)) < 1e-6  # <0|U|0> = cos(tau) > 0


def test_pure_state_transport_converges_quadratically():
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    psi = Q[:, 0]
    H = random_hermitian(rng, 3)
    H = H - (psi.conj() @ H @ psi).real * np.outer(psi, psi.conj())
    spec = StaticHamiltonian(H, tau=1.0)
    rho = DensityOperator.pure(psi)
    closed = unitary_exp(H, 1.0) @ rho.matrix
    errs = []
    for n in (250, 500, 1000):
        res = discrete_holonomy(density_path(rho, spec, TimeGrid.uniform(1.0, n)))
        errs.append(op_norm(res.invariant - closed))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_static_bell_invariant_is_exact():
    s = BellScenario(epsilon=0.5, variant="static", n_steps=2000)
    rho = bell_mixture(0.5)
    res = discrete_holonomy(density_path(rho, evolution_spec(s), TimeGrid.uniform(s.tau, 2000)))
    assert op_norm(res.invariant - usf_matrix() @ rho.matrix) < 1e-5


def test_invariant_structure():
    # invariant = sqrt(rho_tau) V sqrt(rho_0), with V a partial isometry.
    rng = np.random.default_rng(11)
    A = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    m = A @ A.conj().T
    rho = DensityOperator(m / np.trace(m).real)
    spec = StaticHamiltonian(random_hermitian(rng, 4), tau=0.9)
    path = density_path(rho, spec, TimeGrid.uniform(0.9, 300))
    res = discrete_holonomy(path)
    V = res.relative_phase_factor
    assert is_partial_isometry(V, 1e-10)
    matrices = path_matrices(path)
    rebuilt = hermitian_sqrt(matrices[-1]) @ V @ hermitian_sqrt(matrices[0])
    assert op_norm(res.invariant - rebuilt) < 1e-12
    assert res.n_steps == 300
    assert res.max_step_parallelity_residual <= 1e-10


def test_orthogonal_step_rejected():
    a = DensityOperator.pure(np.array([1.0, 0.0]))
    b = DensityOperator.pure(np.array([0.0, 1.0]))
    with pytest.raises(OrthogonalStep):
        discrete_holonomy(DensityPath.from_matrices([np.stack([a.matrix, b.matrix])]))


def test_too_short_path():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError):
        discrete_holonomy(DensityPath.from_matrices([rho.matrix[None]]))


def test_list_of_states_rejected():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(TypeError, match=r"density_path or DensityPath\.from_matrices"):
        discrete_holonomy([rho, rho])


def _root_product(path, tol=DEFAULT_TOL):
    """Reference transporter on d x d roots: one SVD of sqrt(rho_{k+1}) sqrt(rho_k) per step.

    Eigenvalues at or below DEFAULT_TOL times the largest count as zero in
    the roots; the rank cuts use tol. Returns the phase factor, the
    invariant and the amplitudes, or raises OrthogonalStep naming the step.
    """
    roots = []
    for w, V in zip(path.w, path.V):
        roots.append(V @ np.diag(np.sqrt(np.where(w > DEFAULT_TOL * w.max(), w, 0.0))) @ dagger(V))
    frame = path.V[0] @ np.diag(path.w[0] > tol * path.w[0].max()) @ dagger(path.V[0])
    amps = [roots[0] @ frame]
    for k in range(len(path) - 1):
        U, s, Vh = np.linalg.svd(roots[k + 1] @ roots[k])
        if s.sum() ** 2 <= tol:
            raise OrthogonalStep(f"between steps {k} and {k + 1}")
        keep = s > tol * s[0]
        frame = U[:, keep] @ Vh[keep] @ frame
        amps.append(roots[k + 1] @ frame)
    return frame, amps[-1] @ roots[0], amps


def test_chunked_transport_matches_step_by_step_reference():
    rng = np.random.default_rng(17)
    rho = DensityOperator(random_density_matrix(rng, 5, rank=3))
    H = random_hermitian(rng, 5)
    grid = TimeGrid.uniform(1.1, 2 * PATH_CHUNK + 3)
    matrices = np.stack([unitary_exp(H, t) @ rho.matrix @ unitary_exp(H, t).conj().T for t in grid.times])
    path = DensityPath.from_matrices([matrices])
    V, invariant, amps = _root_product(path)
    worst = max(parallelity_residual(a, b) for a, b in zip(amps, amps[1:]))
    res = discrete_holonomy(path)
    assert res.n_steps == 2 * PATH_CHUNK + 3
    assert op_norm(res.relative_phase_factor - V) < 1e-12
    assert op_norm(res.invariant - invariant) < 1e-12
    assert abs(res.max_step_parallelity_residual - worst) < 1e-12


def test_step_isometries_equal_the_masked_svd_product_bitwise(rng):
    # The third direction carries weight 1e-6 in every state, so each step's third singular value
    # is about 1e-12 of its largest and the snap cuts it; the cut column of X is not zero.
    k, r = 9, 3
    G = polar_isometry(rng.normal(size=(k, r, r)) + 1j * rng.normal(size=(k, r, r)))
    sk = np.sqrt(rng.uniform(0.2, 1.0, size=(k + 1, r)))
    sk[:, 2] = 1e-6
    X, sv, Yh = np.linalg.svd(sk[1:, :, None] * G * sk[:-1, None, :])
    kept = kept_directions(sv, DEFAULT_TOL)
    assert not kept[:, 2].any() and kept[:, :2].all()
    assert np.array_equal(_step_isometries(G, sk, DEFAULT_TOL, 0), (X * kept[:, None, :]) @ Yh)


def _orbit_cases():
    rng = np.random.default_rng(23)
    H = random_hermitian(rng, 5)
    warped = TimeGrid(1.1 * np.linspace(0.0, 1.0, PATH_CHUNK + 10) ** 2)
    sampled = SampledUnitaries(tuple(unitary_exp(H, t) for t in warped.times), warped)
    rotating = RotatingFrame(1.0)
    return {
        "static": (random_density_matrix(rng, 5, rank=3), StaticHamiltonian(H, tau=1.1), TimeGrid.uniform(1.1, PATH_CHUNK + 9)),
        "rotating": (random_density_matrix(rng, 4, rank=2), rotating, TimeGrid.uniform(rotating.tau, PATH_CHUNK + 9)),
        "sampled": (random_density_matrix(rng, 5, rank=3), sampled, warped),
        "non-uniform": (random_density_matrix(rng, 5, rank=3), StaticHamiltonian(H, tau=1.1), warped),
    }


@pytest.mark.parametrize("case", ["static", "rotating", "sampled", "non-uniform"])
def test_orbit_path_matches_validated_matrices(case):
    # density_path carries rho0's eigen-data along the orbit; from_matrices
    # diagonalises each state U_k rho0 U_k^dag again, which leaves round-off
    # kernel eigenvalues (about 1e-17). The roots count those as zero, so the
    # phase factors agree to round-off (about 1e-14).
    m, spec, grid = _orbit_cases()[case]
    rho = DensityOperator(m)
    us = np.array([unitary_at(spec, float(t)) for t in grid.times])
    orbit = discrete_holonomy(density_path(rho, spec, grid))
    generic = discrete_holonomy(DensityPath.from_matrices([us @ rho.matrix @ dagger(us)]))
    assert orbit.n_steps == generic.n_steps == grid.n_steps
    assert op_norm(orbit.invariant - generic.invariant) < 1e-12
    assert op_norm(orbit.relative_phase_factor - generic.relative_phase_factor) < 1e-12


def test_orthogonal_step_in_a_later_chunk_is_named():
    k = PATH_CHUNK + 5
    a = DensityOperator.pure(np.array([1.0, 0.0]))
    b = DensityOperator.pure(np.array([0.0, 1.0]))
    path = DensityPath.from_matrices([np.stack([a.matrix] * (k + 1) + [b.matrix] * PATH_CHUNK)])
    with pytest.raises(OrthogonalStep, match=f"between steps {k} and {k + 1}$"):
        discrete_holonomy(path)


def _assert_matches_root_product(path, tol=DEFAULT_TOL):
    frame, invariant, amps = _root_product(path, tol)
    res = discrete_holonomy(path, tol)
    assert op_norm(res.invariant - invariant) < 1e-12
    assert op_norm(res.relative_phase_factor - frame) < 1e-12
    assert op_norm(res.final_amplitude - amps[-1]) < 1e-12


def _random_orbit(rng, dim, rank, n=12):
    rho = DensityOperator(random_density_matrix(rng, dim, rank))
    return density_path(rho, StaticHamiltonian(random_hermitian(rng, dim), tau=0.8), TimeGrid.uniform(0.8, n))


@pytest.mark.parametrize("dim, rank", [(d, r) for d in range(2, 9) for r in range(1, d + 1)])
def test_transport_matches_root_product_on_random_paths(dim, rank):
    _assert_matches_root_product(_random_orbit(np.random.default_rng([dim, rank]), dim, rank))


def test_transport_matches_root_product_when_the_rank_changes():
    # rho(x) = (1 - x) |a><a| + x sigma with sigma of rank 2 off a: rank 1 at
    # the ends, 3 in between; the frame rotates under a random H.
    rng = np.random.default_rng(5)
    vecs = np.linalg.qr(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))[0]
    a, b, c = vecs.T
    a, sigma = dyad(a, a), (dyad(b, b) + 2 * dyad(c, c)) / 3
    H = random_hermitian(rng, 4)
    matrices = []
    for k, x in enumerate(np.sin(np.linspace(0.0, np.pi, 41)) ** 2):
        U = unitary_exp(H, 0.02 * k)
        matrices.append(U @ ((1 - x) * a + x * sigma) @ dagger(U))
    path = DensityPath.from_matrices([np.stack(matrices)])
    ranks = [DensityOperator(m).rank() for m in matrices]
    assert ranks[0] == ranks[-1] == 1 and max(ranks) == 3
    _assert_matches_root_product(path)


def test_transport_matches_root_product_on_unsorted_spectra():
    path = _random_orbit(np.random.default_rng(7), 5, 3)
    perms = np.array([np.random.default_rng(k).permutation(5) for k in range(len(path))])
    shuffled = DensityPath(np.take_along_axis(path.w, perms, axis=1), np.take_along_axis(path.V, perms[:, None, :], axis=2))
    assert not all(np.all(np.diff(w) >= 0) for w in shuffled.w)
    _assert_matches_root_product(shuffled)
    ordered = discrete_holonomy(path)
    assert op_norm(discrete_holonomy(shuffled).invariant - ordered.invariant) < 1e-12


def _loose_tol_orbit(n):
    # The smallest eigenvalue is kept at DEFAULT_TOL and cut at tol = 1e-3.
    rng = np.random.default_rng(9)
    V = random_unitary(rng, 3)
    rho = DensityOperator(V @ np.diag([0.6, 0.3998, 2e-4]) @ dagger(V))
    assert rho.rank() == 3 and rho.rank(1e-3) == 2
    return rho, StaticHamiltonian(random_hermitian(rng, 3), tau=0.8), TimeGrid.uniform(0.8, n)


def test_transport_matches_root_product_at_a_loose_tol():
    rho, spec, grid = _loose_tol_orbit(12)
    path = density_path(rho, spec, grid)
    _assert_matches_root_product(path, tol=1e-3)
    assert op_norm(discrete_holonomy(path, 1e-3).invariant - discrete_holonomy(path).invariant) > 1e-6


def test_orthogonal_step_is_named_as_in_the_root_product():
    rng = np.random.default_rng(13)
    path = _random_orbit(rng, 4, 2, n=PATH_CHUNK + 8)
    # From state k + 1 on, the path lives on the orthogonal complement of state k.
    k = PATH_CHUNK + 3
    w, V = path.w.copy(), path.V.copy()
    w[k + 1 :] = w[k][::-1]
    V[k + 1 :] = V[k]
    jumped = DensityPath(w, V)
    with pytest.raises(OrthogonalStep, match=f"between steps {k} and {k + 1}$"):
        _root_product(jumped)
    with pytest.raises(OrthogonalStep, match=f"between steps {k} and {k + 1}$"):
        discrete_holonomy(jumped)


def _pass_amplitudes(path):
    """The amplitudes E_k diag(s_k) Q_k diag(d0) E_0^dag, from the stored frames and the pass's products."""
    E0, _, d0, chunks = _frame_products(path, DEFAULT_TOL)
    kept = kept_directions(path.w, DEFAULT_TOL)
    cols = np.flatnonzero(kept.any(axis=0))
    s = np.sqrt(np.where(kept, path.w, 0.0)[:, cols])
    Qs = np.concatenate([np.eye(cols.size)[None]] + [Qs for *_, Qs in chunks])
    return path.V[..., cols] @ (s[:, :, None] * Qs * d0) @ dagger(E0)


@pytest.mark.parametrize("dim, rank", [(4, 2), (5, 5)])
def test_residual_is_that_of_the_amplitudes(dim, rank):
    path = _random_orbit(np.random.default_rng([dim, rank, 1]), dim, rank, n=PATH_CHUNK + 4)
    res = discrete_holonomy(path)
    amps = _pass_amplitudes(path)
    assert len(amps) == len(path)
    worst = max(parallelity_residual(a, b) for a, b in zip(amps, amps[1:]))
    assert res.max_step_parallelity_residual > 0.0
    assert abs(res.max_step_parallelity_residual - worst) < 1e-14
    assert op_norm(amps[-1] - res.final_amplitude) < 1e-14


@pytest.mark.parametrize("tol", [float("nan"), 0.0, 1.0, -1.0])
def test_tol_outside_the_unit_interval_is_rejected(tol):
    # A nan tol would cut every direction and give a zero invariant without an error.
    s = BellScenario(epsilon=0.5, n_steps=10)
    states, spec, grid = bell_paths(s)
    with pytest.raises(ValueError, match="^tol must satisfy 0 < tol < 1, got"):
        discrete_holonomy(density_path(states[0], spec, grid), tol)
    with pytest.raises(ValueError, match="^tol must satisfy 0 < tol < 1, got"):
        solve_ancilla_gauge(spec, states[0], grid, tol)
    with pytest.raises(ValueError, match="^tol must satisfy 0 < tol < 1, got"):
        sequence_invariants(states, spec, grid, BELL_INVARIANTS, tol)


def test_density_path_indexing():
    rho = DensityOperator(rho1_matrix(0.5))
    path = density_path(rho, StaticHamiltonian(np.kron(SIGMA_Y, np.eye(2)), tau=1.0), TimeGrid.uniform(1.0, 5))
    assert isinstance(path, DensityPath)
    assert len(path) == 6 and path.dim == 4
    assert path.w.shape == (6, 4) and path.V.shape == (6, 4, 4)
    assert np.allclose(path_matrices(path)[0], rho.matrix, atol=1e-15)


def test_transporter_against_ode_integration(rng):
    # Independent oracle for the whole transporter: integrate the
    # parallel-transport ODE dW/dt = G W, where the Hermitian generator G
    # solves drho/dt = G rho + rho G (elementwise in the eigenbasis of rho).
    dim = 3
    rho0 = DensityOperator(np.diag([0.5, 0.3, 0.2]).astype(complex))
    H = random_hermitian(rng, dim)
    tau, n = 1.0, 2000
    spec = StaticHamiltonian(H, tau=tau)

    def generator(t):
        U = unitary_exp(H, t)
        rho = U @ rho0.matrix @ U.conj().T
        drho = -1j * (H @ rho - rho @ H)
        w, V = np.linalg.eigh(rho)
        num = V.conj().T @ drho @ V
        G = num / (w[None, :] + w[:, None])
        return V @ G @ V.conj().T

    W = hermitian_sqrt(rho0.matrix)
    dt = tau / n
    for k in range(n):
        t = k * dt

        def f(t_, W_):
            return generator(t_) @ W_

        k1 = f(t, W)
        k2 = f(t + dt / 2, W + dt / 2 * k1)
        k3 = f(t + dt / 2, W + dt / 2 * k2)
        k4 = f(t + dt, W + dt * k3)
        W = W + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    ode_invariant = W @ hermitian_sqrt(rho0.matrix)
    res = discrete_holonomy(density_path(rho0, spec, TimeGrid.uniform(tau, n)))
    assert op_norm(res.invariant - ode_invariant) < 1e-5


# ------------------------------------------------- transport_equation_residual

def _gauge_from(spec_times, builder, grid):
    return AncillaGauge(samples=tuple(builder(float(t)) for t in spec_times), grid=grid)


def test_gauge_names_the_first_sample_that_is_not_a_partial_isometry():
    grid = TimeGrid.uniform(1.0, 4)
    samples = [np.eye(2, dtype=complex)] * 5
    samples[2] = 2 * np.eye(2)
    samples[4] = 3 * np.eye(2)
    with pytest.raises(ValueError, match="^gauge sample 2 is not a partial isometry$"):
        AncillaGauge(samples=tuple(samples), grid=grid)


def test_gauge_names_a_failing_sample_in_a_later_chunk():
    # The check runs a chunk at a time; the index counts from the start of the grid.
    grid = TimeGrid.uniform(1.0, 2 * PATH_CHUNK + 10)
    samples = np.array([np.eye(2, dtype=complex)] * len(grid.times))
    samples[PATH_CHUNK + 3] = 2 * np.eye(2)
    samples[2 * PATH_CHUNK + 1] = 2 * np.eye(2)
    with pytest.raises(ValueError, match=f"^gauge sample {PATH_CHUNK + 3} is not a partial isometry$"):
        AncillaGauge(samples=samples, grid=grid)


def test_gauge_check_bound_is_tol_times_dimension():
    # ||S S^dag S - S|| = 2 delta + O(delta^2) for S = (1 + delta) I; the bound is 1e-9 * 2.
    grid = TimeGrid.uniform(1.0, 1)
    AncillaGauge(samples=(np.eye(2), (1 + 0.9e-9) * np.eye(2)), grid=grid)
    with pytest.raises(ValueError, match="gauge sample 1 "):
        AncillaGauge(samples=(np.eye(2), (1 + 1.1e-9) * np.eye(2)), grid=grid)


def test_gauge_samples_of_mixed_dimension_rejected():
    with pytest.raises(ValueError, match="gauge samples differ in dimension"):
        AncillaGauge(samples=(np.eye(2), np.eye(3), np.eye(2)), grid=TimeGrid.uniform(1.0, 2))


def test_static_residual_vanishes_with_identity_gauge():
    s = BellScenario(epsilon=0.5, variant="static", n_steps=200)
    spec = evolution_spec(s)
    rho = bell_mixture(0.5)
    grid = TimeGrid.uniform(s.tau, 200)
    gauge = _gauge_from(grid.times, lambda t: np.eye(4, dtype=complex), grid)
    assert transport_equation_residual(spec, gauge, rho) < 1e-10


def test_rotating_residual_with_closed_form_gauge_is_second_order():
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    spec = evolution_spec(s)
    rho = bell_mixture(0.5)
    residuals = {}
    for n in (400, 800):
        grid = TimeGrid.uniform(s.tau, n)
        gauge = _gauge_from(grid.times, lambda t: closed_form_B_r1(s, t), grid)
        residuals[n] = transport_equation_residual(spec, gauge, rho)
    assert residuals[400] / residuals[800] == pytest.approx(4.0, abs=0.5)
    assert residuals[800] < 1e-5


def test_rotating_residual_with_constant_gauge_is_large():
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    spec = evolution_spec(s)
    rho = bell_mixture(0.5)
    grid = TimeGrid.uniform(s.tau, 400)
    gauge = _gauge_from(grid.times, lambda t: rho.support, grid)
    assert transport_equation_residual(spec, gauge, rho) > 0.01


def test_residual_grid_too_coarse():
    s = BellScenario(epsilon=0.5, variant="static")
    spec = evolution_spec(s)
    rho = bell_mixture(0.5)
    grid = TimeGrid(np.array([0.0, s.tau]))
    gauge = AncillaGauge(samples=(np.eye(4),) * 2, grid=grid)
    with pytest.raises(GridTooCoarse):
        transport_equation_residual(spec, gauge, rho)


def _per_point_residuals(spec, s, grid, rho0, psi):
    """The residual loops one grid point at a time, as a reference for the batched ones."""
    dt = grid.times[1] - grid.times[0]

    def derivatives(samples):
        d = np.empty_like(samples)
        d[1:-1] = (samples[2:] - samples[:-2]) / (2 * dt)
        d[0] = (-3 * samples[0] + 4 * samples[1] - samples[2]) / (2 * dt)
        d[-1] = (3 * samples[-1] - 4 * samples[-2] + samples[-3]) / (2 * dt)
        return d

    us = np.array([unitary_at(spec, float(t)) for t in grid.times])
    bs = np.array([closed_form_B_r1(s, float(t)) for t in grid.times])
    du, db = derivatives(us), derivatives(bs)
    R, rho = rho0.sqrt, rho0.matrix
    operator = 0.0
    for k in range(1, len(us) - 1):
        lhs = 2 * R @ dagger(us[k]) @ du[k] @ R
        rhs = bs[k] @ dagger(db[k]) @ rho - rho @ db[k] @ dagger(bs[k])
        operator = max(operator, op_norm(lhs - rhs))
    pure = 0.0
    for k in range(len(us)):
        a = psi.conj() @ (dagger(us[k]) @ du[k]) @ psi
        b = psi.conj() @ (dagger(bs[k]) @ db[k]) @ psi
        pure = max(pure, abs(a - b))
    return operator, pure


# n = 2 is the smallest grid; PATH_CHUNK - 1 and PATH_CHUNK fill one chunk, and the
# others leave a last chunk of one or two points.
@pytest.mark.parametrize("n", [500, PATH_CHUNK + 5, 2, PATH_CHUNK - 1, PATH_CHUNK, PATH_CHUNK + 1, 2 * PATH_CHUNK])
def test_batched_residuals_match_the_per_point_loop(n):
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    spec = evolution_spec(s)
    rho = bell_mixture(0.5)
    grid = TimeGrid.uniform(s.tau, n)
    gauge = AncillaGauge(samples=closed_form_B_r1(s, grid.times), grid=grid)
    psi = (PSI_MINUS + 0.5 * PSI_PLUS) / np.sqrt(1.25)
    operator, pure = _per_point_residuals(spec, s, grid, rho, psi)
    assert operator > 1e-6 and pure > 1e-6
    assert transport_equation_residual(spec, gauge, rho) == pytest.approx(operator, rel=1e-15, abs=0)
    assert pure_parallelity_residual(spec, gauge, psi, psi) == pytest.approx(pure, rel=1e-15, abs=0)


@pytest.mark.parametrize("n", [20, 2 * PATH_CHUNK + 10])
def test_residuals_name_the_first_time_past_tau(n):
    # The gauge grid runs to 2 tau; at n = 2 PATH_CHUNK + 10 its first time past tau
    # lies in the second chunk of either residual.
    spec = StaticHamiltonian(SIGMA_Z.astype(complex), tau=1.0)
    grid = TimeGrid.uniform(2.0, n)
    gauge = AncillaGauge(samples=(np.eye(2, dtype=complex),) * len(grid.times), grid=grid)
    first = float(grid.times[grid.times > 1.0 + 1e-6][0])
    match = f"^t = {first!r} outside \\[0, 1.0\\]$"
    with pytest.raises(OutOfRange, match=match):
        transport_equation_residual(spec, gauge, DensityOperator.maximally_mixed(2))
    with pytest.raises(OutOfRange, match=match):
        pure_parallelity_residual(spec, gauge, np.array([1.0, 0.0]), np.array([1.0, 0.0]))


def test_residual_memory_is_below_the_gauge_samples():
    # Each residual evaluates U and the derivatives one chunk of the grid at a time.
    rng = np.random.default_rng(3)
    rho = DensityOperator(random_density_matrix(rng, 16, rank=8))
    spec = StaticHamiltonian(random_hermitian(rng, 16), tau=1.0)
    gauge = solve_ancilla_gauge(spec, rho, TimeGrid.uniform(1.0, 2000))
    psi = rho.eigenvectors[:, -1]
    residuals = (
        lambda: transport_equation_residual(spec, gauge, rho),
        lambda: pure_parallelity_residual(spec, gauge, psi, psi),
    )
    for residual in residuals:
        tracemalloc.start()
        try:
            residual()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gauge.samples.nbytes, peak / gauge.samples.nbytes


# --------------------------------------------------- pure_parallelity_residual

def test_pure_residual_for_parallel_transporting_unitary():
    tau = 1.0
    spec = StaticHamiltonian(SIGMA_X.astype(complex), tau=tau)
    grid = TimeGrid.uniform(tau, 400)
    gauge = AncillaGauge(samples=(np.eye(2, dtype=complex),) * len(grid.times), grid=grid)
    psi = np.array([1.0, 0.0])
    assert pure_parallelity_residual(spec, gauge, psi, psi) < 1e-8


def test_pure_residual_equal_dynamical_phases_cancel():
    # U(t) = e^{-i t} 1 and B(t) = e^{-i t} 1 produce identical scalars.
    tau = 1.0
    spec = StaticHamiltonian(np.eye(2, dtype=complex), tau=tau)
    grid = TimeGrid.uniform(tau, 200)
    gauge = AncillaGauge(
        samples=tuple(np.exp(-1j * t) * np.eye(2) for t in grid.times), grid=grid
    )
    psi = np.array([1.0, 0.0])
    assert pure_parallelity_residual(spec, gauge, psi, psi) < 1e-8


def test_pure_residual_detects_dynamical_phase():
    tau = 1.0
    spec = StaticHamiltonian(SIGMA_Z.astype(complex), tau=tau)
    grid = TimeGrid.uniform(tau, 200)
    gauge = AncillaGauge(samples=(np.eye(2, dtype=complex),) * len(grid.times), grid=grid)
    psi = np.array([1.0, 0.0])
    # <0|U^dag dU/dt|0> = -i, B contributes nothing: residual |-i| = 1.
    assert pure_parallelity_residual(spec, gauge, psi, psi) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("bad", [np.array([np.nan, 0.0]), np.zeros(2), np.array([3.0, 0.0])])
def test_pure_residual_rejects_a_vector_that_is_not_a_unit_vector(bad):
    spec = StaticHamiltonian(SIGMA_Z.astype(complex), tau=1.0)
    grid = TimeGrid.uniform(1.0, 20)
    gauge = AncillaGauge(samples=(np.eye(2, dtype=complex),) * len(grid.times), grid=grid)
    psi = np.array([1.0, 0.0])
    with pytest.raises(InvalidState, match="^psi must be a unit vector, got norm "):
        pure_parallelity_residual(spec, gauge, bad, psi)
    with pytest.raises(InvalidState, match="^phi must be a unit vector, got norm "):
        pure_parallelity_residual(spec, gauge, psi, bad)


# ------------------------------------------------------------ solve_ancilla_gauge

def test_static_gauge_is_identity_on_support():
    s = BellScenario(epsilon=0.5, variant="static")
    rho = bell_mixture(0.5)
    gauge = solve_ancilla_gauge(evolution_spec(s), rho, TimeGrid.uniform(s.tau, 150))
    assert gauge.rank_deficient
    for B in gauge.samples:
        assert op_norm(B - rho.support) < 1e-6


def test_trivial_evolution_gauge():
    rho = bell_mixture(0.5)
    spec = StaticHamiltonian(np.zeros((4, 4), dtype=complex), tau=1.0)
    gauge = solve_ancilla_gauge(spec, rho, TimeGrid.uniform(1.0, 120))
    for B in gauge.samples:
        assert op_norm(B - rho.support) < 1e-10


def test_rotating_gauge_recovers_closed_form():
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    rho = bell_mixture(0.5)
    grid = TimeGrid.uniform(s.tau, 10_000)
    gauge = solve_ancilla_gauge(evolution_spec(s), rho, grid)
    worst = max(
        op_norm(B - closed_form_B_r1(s, float(t))) for B, t in zip(gauge.samples, grid.times)
    )
    assert worst < 1e-4
    assert gauge.rank_deficient
    assert np.allclose(gauge.samples[0], rho.support, atol=1e-10)


def test_gauge_recovery_from_sampled_unitaries():
    # A sampled spec works as long as the transport grid hits its samples.
    from holonomy_lab.evolution import SampledUnitaries

    tau, n = 1.0, 60
    grid = TimeGrid.uniform(tau, n)
    H = np.kron(SIGMA_Y, np.eye(2)).astype(complex)
    us = tuple(unitary_exp(H, float(t)) for t in grid.times)
    spec = SampledUnitaries(us, grid)
    rho = bell_mixture(0.5)
    gauge = solve_ancilla_gauge(spec, rho, grid)
    for B in gauge.samples:
        assert op_norm(B - rho.support) < 1e-6


@pytest.mark.parametrize("case", ["static", "rotating", "sampled", "loose"])
def test_gauge_matches_the_polar_snap_of_the_root_product(case):
    # Independent of the frame products: B(t_k) = polar(rho0^{-1/2} U(t_k)^dag W_k)
    # with the d x d amplitudes W_k of the reference transporter.
    if case == "loose":
        rho, spec, grid = _loose_tol_orbit(PATH_CHUNK + 9)
        tol = 1e-3
    else:
        m, spec, grid = _orbit_cases()[case]
        rho, tol = DensityOperator(m), DEFAULT_TOL
    assert grid.n_steps == PATH_CHUNK + 9
    w, V = np.linalg.eigh(rho.matrix)
    keep = w > tol * w.max()
    pinv_root = V[:, keep] @ np.diag(w[keep] ** -0.5) @ dagger(V[:, keep])
    _, _, amps = _root_product(density_path(rho, spec, grid), tol)
    us = unitary_at(spec, grid.times)
    gauge = solve_ancilla_gauge(spec, rho, grid, tol)
    worst = max(op_norm(B - polar_isometry(pinv_root @ dagger(U) @ W, tol)) for B, U, W in zip(gauge.samples, us, amps))
    assert worst < 1e-12


def test_gauge_memory_is_a_few_times_its_samples():
    # The gauge is read off the r x r frame products, and its partial-isometry
    # check runs, a chunk at a time, so the (n+1, d, d) samples dominate.
    rng = np.random.default_rng(3)
    rho = DensityOperator(random_density_matrix(rng, 16, rank=8))
    spec = StaticHamiltonian(random_hermitian(rng, 16), tau=1.0)
    tracemalloc.start()
    try:
        gauge = solve_ancilla_gauge(spec, rho, TimeGrid.uniform(1.0, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * gauge.samples.nbytes, peak / gauge.samples.nbytes


def test_residuals_name_a_dimension_mismatch():
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    spec = evolution_spec(s)
    grid = TimeGrid.uniform(s.tau, 20)
    small = AncillaGauge(samples=(np.eye(2),) * len(grid.times), grid=grid)
    gauge = AncillaGauge(samples=closed_form_B_r1(s, grid.times), grid=grid)
    rho = bell_mixture(0.5)
    with pytest.raises(DimensionMismatch, match="^gauge dim 2 vs evolution dim 4$"):
        transport_equation_residual(spec, small, rho)
    with pytest.raises(DimensionMismatch, match="^gauge dim 2 vs evolution dim 4$"):
        pure_parallelity_residual(spec, small, PSI_MINUS, PSI_MINUS)
    with pytest.raises(DimensionMismatch, match="^state dim 2 vs evolution dim 4$"):
        transport_equation_residual(spec, gauge, DensityOperator.maximally_mixed(2))
    with pytest.raises(DimensionMismatch, match="^psi dim 2 vs evolution dim 4$"):
        pure_parallelity_residual(spec, gauge, np.array([1.0, 0.0]), PSI_MINUS)
    with pytest.raises(DimensionMismatch, match="^phi dim 3 vs evolution dim 4$"):
        pure_parallelity_residual(spec, gauge, PSI_MINUS, np.ones(3))


def test_residual_requires_uniform_grid():
    s = BellScenario(epsilon=0.5, variant="static")
    spec = evolution_spec(s)
    rho = bell_mixture(0.5)
    times = np.concatenate([np.linspace(0.0, 0.5, 6), np.linspace(0.6, s.tau, 5)])
    grid = TimeGrid(times)
    gauge = AncillaGauge(samples=(np.eye(4),) * len(times), grid=grid)
    with pytest.raises(ValueError, match="uniform"):
        transport_equation_residual(spec, gauge, rho)


def test_full_rank_gauge_not_flagged(rng):
    rho = DensityOperator(np.diag([0.4, 0.35, 0.25]).astype(complex))
    spec = StaticHamiltonian(random_hermitian(rng, 3), tau=0.7)
    gauge = solve_ancilla_gauge(spec, rho, TimeGrid.uniform(0.7, 150))
    assert not gauge.rank_deficient
    assert transport_equation_residual(spec, gauge, rho) < 1e-3


# ------------------------------------------------------------ reparameterization

def test_pause_reparameterization_is_exact():
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    path = density_path(bell_mixture(0.5), evolution_spec(s), TimeGrid.uniform(s.tau, 120))
    base = discrete_holonomy(path)
    k = np.arange(len(path))
    idx = np.repeat(k, np.where(k % 5 == 2, 2, 1))  # pause at every fifth state
    doubled = discrete_holonomy(DensityPath(path.w[idx], path.V[idx]))
    assert op_norm(base.relative_phase_factor - doubled.relative_phase_factor) < 1e-12


def test_warped_resampling_converges_to_same_holonomy():
    # A monotone time substitution changes the samples but not the limit.
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    spec = evolution_spec(s)
    rho = bell_mixture(0.5)
    uniform = TimeGrid.uniform(s.tau, 2000)
    warped = TimeGrid(s.tau * (np.linspace(0.0, 1.0, 2001)) ** 2)
    v_uniform = discrete_holonomy(density_path(rho, spec, uniform)).relative_phase_factor
    v_warped = discrete_holonomy(density_path(rho, spec, warped)).relative_phase_factor
    assert op_norm(v_uniform - v_warped) < 1e-5


# ----------------------------------------------------------------- streamed paths

def _streamed_case(case, n):
    rng = np.random.default_rng([n, len(case)])
    H = random_hermitian(rng, 5)
    grid = TimeGrid.uniform(1.1, n)
    if case == "static":
        return density_path(DensityOperator(random_density_matrix(rng, 5, rank=3)), StaticHamiltonian(H, tau=1.1), grid)
    if case == "rotating":
        spec = RotatingFrame(1.0)
        return density_path(DensityOperator(random_density_matrix(rng, 4, rank=2)), spec, TimeGrid.uniform(spec.tau, n))
    sampled = SampledUnitaries(tuple(unitary_exp(H, t) for t in grid.times), grid)
    return density_path(DensityOperator(random_density_matrix(rng, 5, rank=3)), sampled, grid)


@pytest.mark.parametrize("n", [1, PATH_CHUNK - 1, PATH_CHUNK, PATH_CHUNK + 1, 300])
@pytest.mark.parametrize("case", ["static", "rotating", "sampled"])
def test_streamed_and_stored_paths_transport_bitwise_alike(case, n):
    streamed = _streamed_case(case, n)
    stored = DensityPath(streamed.w, streamed.V)
    a, b = discrete_holonomy(streamed), discrete_holonomy(stored)
    assert a.n_steps == b.n_steps == n
    for field in ("relative_phase_factor", "initial_amplitude", "final_amplitude", "invariant"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.max_step_parallelity_residual == b.max_step_parallelity_residual
    # Every set-up array and every chunk's yields: last frame, roots, overlaps, products.
    arrays_a, arrays_b = (
        [*setup, *(v for chunk in chunks for v in chunk)]
        for *setup, chunks in (_frame_products(p, DEFAULT_TOL) for p in (streamed, stored))
    )
    assert len(arrays_a) == len(arrays_b)
    for x, y in zip(arrays_a, arrays_b):
        assert np.array_equal(x, y)


def test_orthogonal_step_is_named_alike_on_streamed_and_stored_paths():
    # |0> stays put for k + 1 samples, then is flipped to |1>: step k is orthogonal.
    k = PATH_CHUNK + 3
    grid = TimeGrid.uniform(1.0, k + 20)
    flip = SIGMA_X.astype(complex)
    spec = SampledUnitaries((np.eye(2),) * (k + 1) + (flip,) * 20, grid)
    streamed = density_path(DensityOperator.pure(np.array([1.0, 0.0])), spec, grid)
    for path in (streamed, DensityPath(streamed.w, streamed.V)):
        with pytest.raises(OrthogonalStep, match=f"between steps {k} and {k + 1}$"):
            discrete_holonomy(path)


@pytest.mark.parametrize("n", [50, PATH_CHUNK - 1, PATH_CHUNK, PATH_CHUNK + 1, 300])
def test_each_grid_time_and_step_is_evaluated_once(monkeypatch, n):
    # n + 1 unitaries and n residuals per transported path, as the benchmark's
    # traced replay counts them: a frame read twice at a chunk boundary fails here.
    from holonomy_lab import evolution, transport

    counts = {"unitary_at": 0, "parallelity_residual": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(evolution, "unitary_at", counted("unitary_at", unitary_at))
    monkeypatch.setattr(transport, "parallelity_residual", counted("parallelity_residual", parallelity_residual))
    states, spec, grid = bell_paths(BellScenario(epsilon=0.5, n_steps=n))
    sequence_invariants(states, spec, grid, BELL_INVARIANTS)
    assert counts == {"unitary_at": 2 * (n + 1), "parallelity_residual": 2 * n}


def test_transport_memory_does_not_grow_with_the_path():
    # A stored d = 16 path holds 4 KiB of frames per state; a streamed one
    # holds a few chunks, whatever n.
    rng = np.random.default_rng(3)
    rho = DensityOperator(random_density_matrix(rng, 16, rank=8))
    spec = StaticHamiltonian(random_hermitian(rng, 16), tau=1.0)
    peaks = []
    for n in (2000, 20000):
        tracemalloc.start()
        try:
            discrete_holonomy(density_path(rho, spec, TimeGrid.uniform(1.0, n)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks
