import re

import numpy as np
import pytest

from holonomy_lab.errors import DimensionMismatch, GridMiss, NotUnitary, OutOfRange
from holonomy_lab.evolution import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    RotatingFrame,
    SampledUnitaries,
    StaticHamiltonian,
    TimeGrid,
    density_path,
    rotating_generator,
    time_slack,
    unitary_at,
)
from holonomy_lab.linalg import dagger, eigh_exp, hermitian_eigh, op_norm, unitary_exp
from holonomy_lab.state import PATH_CHUNK, DensityOperator

from conftest import path_matrices, random_hermitian, rho1_matrix, rho1_tau_matrix, usf_matrix


# --------------------------------------------------------------------- TimeGrid

def test_uniform_grid():
    g = TimeGrid.uniform(2.0, 4)
    assert g.n_steps == 4
    assert g.tau == 2.0
    assert np.allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: TimeGrid(np.array([0.0, np.nan, 1.0])),
        lambda: TimeGrid(np.array([0.0, 0.5, np.inf])),
        lambda: TimeGrid.uniform(np.nan, 4),
        lambda: TimeGrid.uniform(np.inf, 4),
    ],
    ids=["nan-inside", "inf-end", "uniform-nan", "uniform-inf"],
)
def test_grid_must_be_finite(build):
    with pytest.raises(ValueError, match="^time grid must be finite$"):
        build()


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5]))


# ------------------------------------------------------------------- unitary_at

def test_identity_at_time_zero(rng):
    static = StaticHamiltonian(random_hermitian(rng, 3), tau=1.0)
    assert np.allclose(unitary_at(static, 0.0), np.eye(3))
    rot = RotatingFrame(1.0)
    assert np.allclose(unitary_at(rot, 0.0), np.eye(4))


def test_static_spin_flip_endpoint():
    spec = StaticHamiltonian(np.kron(SIGMA_Y, np.eye(2)), tau=np.pi / 2)
    assert np.allclose(unitary_at(spec, np.pi / 2), usf_matrix(), atol=1e-12)


def test_static_tau_must_be_positive():
    for tau in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match=r"^tau must be positive, got "):
            StaticHamiltonian(SIGMA_Z, tau=tau)


def test_rotating_endpoint_matches_static_flip():
    # The rotating drive implements the same flip at t = pi / u.
    for u in (0.5, 1.0, 2.0):
        spec = RotatingFrame(u)
        assert spec.tau == np.pi / u
        assert np.array_equal(spec.effective_hamiltonian, -(u / 2) * SIGMA_X)
        assert np.allclose(unitary_at(spec, spec.tau), usf_matrix(), atol=1e-12)
    for u in (0.0, -1.0, float("nan"), float("inf"), 1e-320):
        with pytest.raises(ValueError, match=r"^the free scale u must be positive, with a finite tau = pi/u$"):
            RotatingFrame(u)


def test_rotating_is_unitary_along_the_path():
    spec = RotatingFrame(1.0)
    for t in np.linspace(0.0, spec.tau, 13):
        U = unitary_at(spec, float(t))
        assert op_norm(U.conj().T @ U - np.eye(4)) < 1e-12


def test_out_of_range():
    spec = StaticHamiltonian(SIGMA_Z, tau=1.0)
    with pytest.raises(OutOfRange):
        unitary_at(spec, 1.5)
    with pytest.raises(OutOfRange):
        unitary_at(spec, -0.2)


def test_one_time_slack_at_both_ends():
    # On a long interval every time check accepts half the slack and rejects twice it.
    from holonomy_lab.scenarios import BellScenario, closed_form_B_r1

    s = BellScenario(epsilon=0.5, variant="rotating", u=0.01)
    spec = StaticHamiltonian(SIGMA_Z, tau=s.tau)
    slack = time_slack(s.tau)
    assert slack == pytest.approx(1e-12 * s.tau)
    TimeGrid(np.array([0.5 * slack, s.tau]))
    with pytest.raises(ValueError, match="start at 0"):
        TimeGrid(np.array([2 * slack, s.tau]))
    for t in (-0.5 * slack, s.tau + 0.5 * slack):
        unitary_at(spec, t)
        closed_form_B_r1(s, t)
    for t in (-2 * slack, s.tau + 2 * slack):
        with pytest.raises(OutOfRange):
            unitary_at(spec, t)
        with pytest.raises(ValueError, match="outside"):
            closed_form_B_r1(s, t)


def test_sampled_lookup_and_grid_miss():
    grid = TimeGrid.uniform(1.0, 2)
    us = (np.eye(2), unitary_exp(SIGMA_X, 0.5), unitary_exp(SIGMA_X, 1.0))
    spec = SampledUnitaries(us, grid)
    assert np.allclose(unitary_at(spec, 0.5), us[1])
    with pytest.raises(GridMiss):
        unitary_at(spec, 0.25)


def _warped_sampled_spec(tau, n):
    """Exact samples of exp(-i H t) on the non-uniform grid t = tau s^2."""
    grid = TimeGrid(tau * np.linspace(0.0, 1.0, n + 1) ** 2)
    H = np.diag([0.3, -0.2, 0.1, 0.0]).astype(complex)
    return SampledUnitaries(tuple(unitary_exp(H, float(t)) for t in grid.times), grid)


def test_sampled_lookup_on_grid_and_at_tau():
    spec = _warped_sampled_spec(7.3, 50)
    last = len(spec.unitaries) - 1
    for k, t in enumerate(spec.grid.times):
        assert spec.sample_index(float(t)) == k
        assert np.array_equal(unitary_at(spec, float(t)), spec.unitaries[k])
    # tau reached by accumulating equal steps carries round-off; it still hits.
    for n in (49, 50, 70):
        summed = sum([spec.tau / n] * n)
        assert summed != spec.tau
        assert spec.sample_index(summed) == last
        assert np.array_equal(unitary_at(spec, summed), spec.unitaries[last])


def test_sampled_lookup_off_grid():
    spec = _warped_sampled_spec(7.3, 50)
    times = spec.grid.times
    atol = 1e-12 * spec.tau
    for t in (0.5 * (times[3] + times[4]), times[10] + 3 * atol, times[-1] - 3 * atol):
        with pytest.raises(GridMiss):
            unitary_at(spec, float(t))


def _identity_samples(times):
    grid = TimeGrid(np.asarray(times, dtype=float))
    return SampledUnitaries((np.eye(2),) * grid.times.size, grid)


def _random_sampled_spec(rng, n):
    """Identity samples on a random grid in [0, 1]: gaps from just over twice the slack to 1e-4."""
    gaps = rng.choice([2.001, 2.5, 3.0, 1e3, 1e8], size=n) * time_slack(1.0)
    return _identity_samples(np.concatenate([[0.0], np.cumsum(gaps)]))


def test_sampled_lookup_agrees_with_grid_scan():
    # The neighbour lookup must pick the sample the full np.isclose scan picks, one time at a time and for arrays.
    rng = np.random.default_rng(5)
    specs = [_warped_sampled_spec(1.0, 2000)] + [_random_sampled_spec(rng, 300) for _ in range(4)]
    for spec in specs:
        times = spec.grid.times
        atol = time_slack(spec.tau)
        offsets = np.concatenate([[0.0, 0.5, -0.5, 0.999, -0.999, 1.001, -1.001, 2.5], rng.uniform(-3, 3, 8)])
        # Every sample at every offset, the two ends included.
        query = (times[:, None] + offsets * atol).ravel()
        hits = [np.flatnonzero(np.isclose(times, t, rtol=0.0, atol=atol)) for t in query]
        expected = np.array([h[0] if h.size else -1 for h in hits])
        found = expected >= 0
        assert found.any() and not found.all()
        assert np.array_equal(spec.sample_index(query[found]), expected[found])
        missed = float(query[np.argmin(found)])
        with pytest.raises(GridMiss, match=f"^t = {re.escape(repr(missed))} is not a sample point"):
            spec.sample_index(query)
        for t, k in zip(query[::7], expected[::7]):
            t = float(t)
            if k < 0:
                with pytest.raises(GridMiss):
                    spec.sample_index(t)
            else:
                assert spec.sample_index(t) == k
                if -atol <= t <= spec.tau + atol:
                    assert np.array_equal(unitary_at(spec, t), spec.unitaries[k])


def test_sampled_times_within_twice_the_slack_are_rejected():
    slack = time_slack(1.0)
    with pytest.raises(ValueError, match=r"^samples 0 and 1 lie within 2 \* time_slack = 2e-12 of each other$"):
        _identity_samples([0.0, 1e-13, 0.5, 1.0])
    with pytest.raises(ValueError, match=r"^samples 0 and 1 lie within"):
        _identity_samples([0.0, 2 * slack, 0.5, 1.0])
    with pytest.raises(ValueError, match=r"^samples 2 and 3 lie within"):
        _identity_samples([0.0, 0.25, 0.5, 0.5 + slack, 1.0])
    # The slack grows with tau: 2e-12 apart is too close on [0, 1e3], where the slack is 1e-9.
    with pytest.raises(ValueError, match=r"^samples 1 and 2 lie within 2 \* time_slack = 2e-09 "):
        _identity_samples([0.0, 1.0, 1.0 + 1e-9, 1e3])
    spec = _identity_samples([0.0, 3 * slack, 0.5, 1.0])
    assert spec.sample_index(np.array([0.0, 3 * slack, 0.5, 1.0])).tolist() == [0, 1, 2, 3]
    assert spec.sample_index(0.9 * slack) == 0
    assert spec.sample_index(2.1 * slack) == 1
    with pytest.raises(GridMiss):
        spec.sample_index(1.5 * slack)


def test_sampled_validation():
    grid = TimeGrid.uniform(1.0, 1)
    with pytest.raises(NotUnitary):
        SampledUnitaries((unitary_exp(SIGMA_X, 0.3), np.eye(2)), grid)  # first not identity
    with pytest.raises(NotUnitary):
        SampledUnitaries((np.eye(2), 2.0 * np.eye(2)), grid)


def _rotation_samples(n):
    grid = TimeGrid.uniform(1.0, n)
    return [unitary_exp(SIGMA_Y, float(t)) for t in grid.times], grid


def test_sampled_validation_names_the_first_sample():
    us, grid = _rotation_samples(2000)
    us[0] = unitary_exp(SIGMA_X, 1e-6)
    with pytest.raises(NotUnitary, match=r"^the first sampled unitary must be the identity$"):
        SampledUnitaries(tuple(us), grid)


def test_sampled_validation_names_the_failing_sample():
    us, grid = _rotation_samples(2000)
    exact = us[1500]
    us[1500] = exact @ np.diag([1.0, 1.001])  # one singular value off
    us[1700] = 2.0 * us[1700]
    with pytest.raises(NotUnitary, match=r"^sample 1500 is not unitary within tolerance$"):
        SampledUnitaries(tuple(us), grid)
    # Off by less than the tolerance: the next bad sample is named instead.
    us[1500] = (1.0 + 1e-10) * exact
    with pytest.raises(NotUnitary, match=r"^sample 1700 "):
        SampledUnitaries(tuple(us), grid)


def test_sampled_validation_threshold_is_tol_times_dim():
    # ||U^dag U - I|| is about 2 delta here; the bound is tol * dim = 2e-9.
    us, grid = _rotation_samples(4)
    exact = us[2]
    us[2] = exact @ np.diag([1.0, 1.0 + 0.75e-9])
    SampledUnitaries(tuple(us), grid)
    us[2] = exact @ np.diag([1.0, 1.0 + 1.5e-9])
    with pytest.raises(NotUnitary, match=r"^sample 2 "):
        SampledUnitaries(tuple(us), grid)


def test_sampled_validation_decision_is_the_spectral_norms():
    # U^dag U - I is about 2 delta I for (1 + delta) U at dim 4: spectral norm
    # 2 delta, Frobenius norm 4 delta. The bound is tol * dim = 4e-9.
    grid = TimeGrid.uniform(1.0, 5)
    us = [np.kron(unitary_exp(SIGMA_Y, float(t)), np.eye(2)) for t in grid.times]
    us[2] = (1 + 1.6e-9) * us[2]
    SampledUnitaries(tuple(us), grid)
    us[4] = (1 + 2.4e-9) * us[4]
    us[5] = 2.0 * us[5]
    stack = np.array(us)
    # The reference: an SVD of every member, the first norm above the bound named.
    defects = np.linalg.svd(stack.conj().swapaxes(-1, -2) @ stack - np.eye(4), compute_uv=False)[:, 0]
    assert np.linalg.norm(stack[2].conj().T @ stack[2] - np.eye(4)) > 4e-9 >= defects[2]
    assert np.flatnonzero(defects > 4e-9)[0] == 4
    with pytest.raises(NotUnitary, match=r"^sample 4 is not unitary within tolerance$"):
        SampledUnitaries(tuple(us), grid)


def test_sampled_validation_names_a_sample_too_large_to_square():
    us, grid = _rotation_samples(4)
    us[1] = np.diag([1.0, 1e308]).astype(complex)
    with pytest.raises(NotUnitary, match=r"^sample 1 is not unitary within tolerance$"):
        SampledUnitaries(tuple(us), grid)


def test_static_hamiltonian_with_entries_near_the_float_limit_evolves():
    spec = StaticHamiltonian(np.diag([1e308, -1e308]).astype(complex), tau=1.0)
    U = unitary_at(spec, np.linspace(0.0, 1.0, 5))
    assert np.allclose(np.abs(U), np.eye(2)[None])


def test_sampled_validation_dimension_mismatch():
    us, grid = _rotation_samples(4)
    us[3] = np.eye(3)
    with pytest.raises(DimensionMismatch, match=r"^sampled unitaries differ in dimension$"):
        SampledUnitaries(tuple(us), grid)


def test_rotating_generator_matches_finite_difference():
    # i dU/dt U^dag by central differences should reproduce the generator.
    spec = RotatingFrame(1.3)
    h = 1e-6
    for t in (0.3, 1.1, 2.0):
        up = unitary_at(spec, t + h)
        dn = unitary_at(spec, t - h)
        du = (up - dn) / (2 * h)
        approx = 1j * du @ unitary_at(spec, t).conj().T
        assert op_norm(approx - rotating_generator(spec, t)) < 1e-6


def _rotating_by_eigendecomposition(u, t):
    """The reference for the closed forms: each exponential taken from an eigendecomposition.

    U(t) = R exp(+i u t sigma_z / 2) and H(t) = -H_eff - (u/2) R sigma_z R^dag with R = exp(+i t H_eff),
    each (x) identity on the second qubit.
    """
    R = eigh_exp(*hermitian_eigh(-(u / 2) * SIGMA_X), -t)
    U = R @ eigh_exp(*hermitian_eigh(SIGMA_Z), -u * t / 2)
    H = (u / 2) * SIGMA_X - (u / 2) * (R @ SIGMA_Z @ dagger(R))
    return tuple(np.kron(M, np.eye(2)) if M.ndim == 2 else np.array([np.kron(m, np.eye(2)) for m in M]) for M in (U, H))


@pytest.mark.parametrize("u", [0.3, 1.0, 2.7])
def test_rotating_closed_forms_match_the_eigendecomposition_route(u):
    spec = RotatingFrame(u)
    times = np.linspace(0.0, spec.tau, 257)
    for t in (times, *map(float, times[::16])):
        U_ref, H_ref = _rotating_by_eigendecomposition(u, t)
        assert np.abs(unitary_at(spec, t) - U_ref).max() <= 1e-15 * max(1.0, u)
        assert np.abs(rotating_generator(spec, t) - H_ref).max() <= 1e-15 * max(1.0, u)


@pytest.mark.parametrize("u", [0.3, 1.0, 2.7])
def test_rotating_generator_is_hermitian_exactly(u):
    spec = RotatingFrame(u)
    times = np.linspace(0.0, spec.tau, 101)
    H = rotating_generator(spec, times)
    assert np.array_equal(H, dagger(H))
    for t in times[::10]:
        H = rotating_generator(spec, float(t))
        assert np.array_equal(H, dagger(H))


def test_rotating_closed_form_vs_short_step_integrator():
    # Independent oracle: time-ordered product of midpoint exponentials.
    spec = RotatingFrame(1.0)
    n = 4000
    ts = np.linspace(0.0, spec.tau, n + 1)
    dt = ts[1] - ts[0]
    U = np.eye(4, dtype=complex)
    for k in range(n):
        U = unitary_exp(rotating_generator(spec, float(ts[k] + dt / 2)), float(dt)) @ U
    assert op_norm(U - unitary_at(spec, spec.tau)) < 1e-6


# ------------------------------------------------------------------ array times

def _array_cases():
    rng = np.random.default_rng(7)
    H = random_hermitian(rng, 3)
    warped = _warped_sampled_spec(2.0, PATH_CHUNK + 20)
    uniform = TimeGrid.uniform(1.5, 40)
    sampled = SampledUnitaries(tuple(unitary_exp(H, float(t)) for t in uniform.times), uniform)
    return {
        "static": (StaticHamiltonian(H, tau=1.5), np.linspace(0.0, 1.5, 2 * PATH_CHUNK + 7)),
        "rotating": (RotatingFrame(1.3), np.linspace(0.0, np.pi / 1.3, PATH_CHUNK + 9)),
        "sampled": (sampled, uniform.times[::-1]),
        "sampled-non-uniform": (warped, warped.grid.times),
    }


@pytest.mark.parametrize("case", ["static", "rotating", "sampled", "sampled-non-uniform"])
def test_unitary_at_on_an_array_stacks_the_single_time_calls(case):
    spec, times = _array_cases()[case]
    stack = unitary_at(spec, times)
    assert stack.shape == (times.size, spec.dim, spec.dim)
    assert np.array_equal(stack, np.array([unitary_at(spec, float(t)) for t in times]))
    assert np.array_equal(unitary_at(spec, np.asarray(times[1])), stack[1])


def test_rotating_generator_on_an_array_stacks_the_single_time_calls():
    spec, times = _array_cases()["rotating"]
    mids = times[:-1] + (times[1] - times[0]) / 2
    stack = rotating_generator(spec, mids)
    assert stack.shape == (mids.size, 4, 4)
    assert np.array_equal(stack, np.array([rotating_generator(spec, float(t)) for t in mids]))


@pytest.mark.parametrize("case", ["static", "rotating", "sampled"])
def test_array_times_name_the_first_time_out_of_range(case):
    spec = _array_cases()[case][0]
    times = np.array([0.0, spec.tau, spec.tau + 0.25, -0.5, spec.tau + 1.0])
    with pytest.raises(OutOfRange, match=f"^t = {re.escape(repr(spec.tau + 0.25))} outside"):
        unitary_at(spec, times)
    with pytest.raises(OutOfRange, match=r"^t = -0.5 outside"):
        unitary_at(spec, times[[0, 3, 2]])
    # nan lies outside every interval, as one time and in an array.
    for t in (float("nan"), np.asarray(np.nan), np.array([0.0, np.nan, spec.tau + 1.0])):
        with pytest.raises(OutOfRange, match=rf"^t = nan outside \[0, {re.escape(repr(spec.tau))}\]$"):
            unitary_at(spec, t)


def test_array_times_name_the_first_grid_miss():
    spec = _warped_sampled_spec(7.3, 50)
    times = spec.grid.times
    off = [float(0.5 * (times[3] + times[4])), float(times[10] + 3e-12 * spec.tau)]
    query = np.array([times[2], off[1], times[5], off[0]])
    miss = [f"^t = {re.escape(repr(t))} is not a sample point" for t in off]
    with pytest.raises(GridMiss, match=miss[1]):
        unitary_at(spec, query)
    with pytest.raises(GridMiss, match=miss[1]):
        unitary_at(spec, off[1])
    with pytest.raises(GridMiss, match=miss[0]):
        spec.sample_index(query[[0, 3, 1]])


def test_array_times_name_the_first_failing_time_of_either_kind():
    grid = TimeGrid.uniform(1.0, 4)
    spec = SampledUnitaries(tuple(unitary_exp(SIGMA_X, float(t)) for t in grid.times), grid)
    with pytest.raises(GridMiss, match=r"^t = 0\.1 is not a sample point"):
        unitary_at(spec, np.array([0.0, 0.1, 0.25, 2.0]))
    with pytest.raises(GridMiss, match=r"^t = 0\.1 is not a sample point"):
        unitary_at(spec, np.array([0.0, 0.1, np.nan, 2.0]))
    with pytest.raises(OutOfRange, match=r"^t = nan outside"):
        unitary_at(spec, np.array([0.0, np.nan, 0.1]))
    with pytest.raises(OutOfRange, match=r"^t = 2\.0 outside \[0, 1\.0\]$"):
        unitary_at(spec, np.array([0.0, 2.0, 0.1]))
    with pytest.raises(OutOfRange, match=r"^t = 2\.0 outside"):
        unitary_at(spec, np.asarray(2.0))


def test_array_sample_index_matches_the_scalar_lookup():
    # Times within the slack of a sample, including the accumulated tau.
    spec = _warped_sampled_spec(7.3, 50)
    atol = time_slack(spec.tau)
    query = np.concatenate([spec.grid.times, spec.grid.times[1:-1] + 0.9 * atol, [sum([spec.tau / 49] * 49)]])
    assert np.array_equal(spec.sample_index(query), [spec.sample_index(float(t)) for t in query])


# ----------------------------------------------------------------- density_path

def test_constant_path_for_maximally_mixed(rng):
    rho = DensityOperator.maximally_mixed(4)
    spec = StaticHamiltonian(random_hermitian(rng, 4), tau=1.0)
    for matrix in path_matrices(density_path(rho, spec, TimeGrid.uniform(1.0, 10))):
        assert np.allclose(matrix, rho.matrix, atol=1e-12)


def test_bell_path_endpoint():
    rho = DensityOperator(rho1_matrix(0.5))
    spec = StaticHamiltonian(np.kron(SIGMA_Y, np.eye(2)), tau=np.pi / 2)
    path = density_path(rho, spec, TimeGrid.uniform(np.pi / 2, 16))
    assert np.allclose(path_matrices(path)[-1], rho1_tau_matrix(0.5), atol=1e-12)


def test_pure_rotation_endpoint():
    # |0><0| under sigma_y for a quarter turn lands on |1><1|.
    rho = DensityOperator.pure(np.array([1.0, 0.0]))
    spec = StaticHamiltonian(SIGMA_Y, tau=np.pi / 2)
    path = density_path(rho, spec, TimeGrid.uniform(np.pi / 2, 8))
    assert np.allclose(path_matrices(path)[-1], np.diag([0.0, 1.0]), atol=1e-12)


def test_path_spectrum_invariance(rng):
    # The spectra of the states rebuilt from the path's eigen-data, so the
    # check fails if the orbit eigenvectors lose orthonormality.
    rho = DensityOperator(np.diag([0.5, 0.3, 0.2]).astype(complex))
    spec = StaticHamiltonian(random_hermitian(rng, 3), tau=2.0)
    spectra = np.linalg.eigvalsh(path_matrices(density_path(rho, spec, TimeGrid.uniform(2.0, 20))))
    assert np.max(np.abs(spectra - [0.2, 0.3, 0.5])) < 1e-10


def test_density_path_makes_no_eigensolve(monkeypatch, rng):
    rho = DensityOperator(np.diag([0.5, 0.3, 0.2]).astype(complex))
    spec = StaticHamiltonian(random_hermitian(rng, 3), tau=2.0)
    real_eigh = np.linalg.eigh
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    path = density_path(rho, spec, TimeGrid.uniform(2.0, 300))
    assert calls == []
    assert np.array_equal(path.w, np.broadcast_to(rho.eigenvalues, (301, 3)))


def test_dimension_mismatch():
    rho = DensityOperator.maximally_mixed(2)
    spec = StaticHamiltonian(np.eye(4), tau=1.0)
    with pytest.raises(DimensionMismatch):
        density_path(rho, spec, TimeGrid.uniform(1.0, 4))


def _counted_unitary_at(monkeypatch):
    from holonomy_lab import evolution

    calls = []

    def counted(spec, t):
        calls.append(t)
        return unitary_at(spec, t)

    monkeypatch.setattr(evolution, "unitary_at", counted)
    return calls


def test_density_path_streams_its_frames(monkeypatch, rng):
    # No frame is computed until one is read, and a read computes only its own.
    rho = DensityOperator(np.diag([0.5, 0.3, 0.2]).astype(complex))
    spec = StaticHamiltonian(random_hermitian(rng, 3), tau=2.0)
    grid = TimeGrid.uniform(2.0, 300)
    calls = _counted_unitary_at(monkeypatch)
    path = density_path(rho, spec, grid)
    assert calls == [] and len(path) == 301 and path.dim == 3
    frames = path.frames(PATH_CHUNK - 1, PATH_CHUNK + 2)
    assert calls == list(grid.times[PATH_CHUNK - 1 : PATH_CHUNK + 2])
    expected = np.array([unitary_exp(spec.hamiltonian, float(t)) for t in calls]) @ rho.eigenvectors
    assert np.allclose(frames, expected, atol=1e-12)
    assert np.array_equal(path.V[PATH_CHUNK - 1 : PATH_CHUNK + 2], frames)


def test_density_path_checks_the_whole_grid_when_called(monkeypatch):
    rho = DensityOperator.maximally_mixed(2)
    calls = _counted_unitary_at(monkeypatch)
    spec = StaticHamiltonian(SIGMA_Z, tau=1.0)
    late = TimeGrid(np.array([0.0, 0.5, 1.0, 1.25, 1.5]))
    with pytest.raises(OutOfRange, match=r"^t = 1\.25 outside \[0, 1\.0\]$"):
        density_path(rho, spec, late)
    sampled = SampledUnitaries((np.eye(2), unitary_exp(SIGMA_X, 0.5), unitary_exp(SIGMA_X, 1.0)), TimeGrid.uniform(1.0, 2))
    with pytest.raises(GridMiss, match=r"^t = 0\.25 is not a sample point"):
        density_path(rho, sampled, TimeGrid.uniform(1.0, 4))
    # As a time-ordered scan of U(t_k) would: the first failing time decides.
    with pytest.raises(GridMiss, match=r"^t = 0\.25 is not a sample point"):
        density_path(rho, sampled, TimeGrid(np.array([0.0, 0.25, 1.0, 1.5])))
    with pytest.raises(OutOfRange, match=r"^t = 1\.5 outside"):
        density_path(rho, sampled, TimeGrid(np.array([0.0, 0.5, 1.0, 1.5, 1.75])))
    assert calls == []
