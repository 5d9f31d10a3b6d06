import numpy as np
import pytest

from holonomy_lab.compare import (
    PermutedFamily,
    _eigenstate_transport_residual,
    discrepancy_report,
    interferometric_offdiag_phase,
    wrap_angle,
)
from holonomy_lab.errors import NotUnitary
from holonomy_lab.evolution import SIGMA_Y, SampledUnitaries, StaticHamiltonian, TimeGrid
from holonomy_lab.linalg import dagger, unitary_exp
from holonomy_lab.scenarios import bell_matrix
from holonomy_lab.transport import AncillaGauge, transport_equation_residual

from conftest import random_hermitian, random_unitary, usf_matrix


def _pure_family(dim, Q):
    lam = np.zeros(dim)
    lam[0] = 1.0
    swap = list(range(dim))
    swap[0], swap[1] = 1, 0
    return PermutedFamily(lam, Q, (tuple(range(dim)), tuple(swap)))


# --------------------------------------------------------------- PermutedFamily

def test_family_states(rng):
    Q = random_unitary(rng, 3)
    lam = np.array([0.5, 0.3, 0.2])
    fam = PermutedFamily(lam, Q, ((0, 1, 2), (1, 0, 2)))
    rho0 = fam.state(0)
    rho1 = fam.state(1)
    assert np.allclose(np.sort(rho0.eigenvalues), np.sort(lam))
    # The swap moves the weight 0.5 onto the second eigenvector.
    assert abs(Q[:, 1].conj() @ rho1.matrix @ Q[:, 1] - 0.5) < 1e-12
    assert not fam.is_rank_one()


def test_family_validation(rng):
    Q = random_unitary(rng, 3)
    with pytest.raises(ValueError):
        PermutedFamily(np.array([0.5, 0.5, 0.5]), Q, ((0, 1, 2),))
    with pytest.raises(ValueError):
        PermutedFamily(np.array([0.5, 0.3, 0.2]), Q, ((0, 0, 2),))


# ------------------------------------------------ interferometric_offdiag_phase

def test_order_one_identity_evolution(rng):
    Q = random_unitary(rng, 3)
    fam = PermutedFamily(np.array([0.6, 0.3, 0.1]), Q, ((0, 1, 2),))
    out = interferometric_offdiag_phase(np.eye(3), fam, 1)
    assert out.defined
    assert out.factor == pytest.approx(1.0 + 0j, abs=1e-12)


def test_order_one_pure_state_phase(rng):
    # For a pure state the factor is Phi[<psi|U|psi>].
    Q = random_unitary(rng, 4)
    fam = _pure_family(4, Q)
    H = random_hermitian(rng, 4)
    for k in range(4):
        v = Q[:, k]
        H = H - (v.conj() @ H @ v).real * np.outer(v, v.conj())
    U = unitary_exp(H, 1.0)
    out = interferometric_offdiag_phase(U, fam, 1)
    overlap = Q[:, 0].conj() @ U @ Q[:, 0]
    assert out.defined
    assert out.factor == pytest.approx(overlap / abs(overlap), abs=1e-12)
    assert out.trace == pytest.approx(complex(overlap), abs=1e-12)


def test_order_two_bell_family_under_flip_is_undefined():
    # U_sf maps the Psi plane onto the Phi plane, so the interferometric
    # trace vanishes for the swapped Bell-mixture family.  Regression value.
    V = bell_matrix()  # columns: Psi+, Psi-, Phi+, Phi-
    lam = np.array([0.5, 1.0, 0.0, 0.0]) / 1.5  # weights on Psi+ and Psi-
    fam = PermutedFamily(lam, V, ((0, 1, 2, 3), (1, 0, 2, 3)))
    out = interferometric_offdiag_phase(usf_matrix(), fam, 2)
    assert not out.defined
    assert abs(out.trace) < 1e-12


def test_rejects_non_unitary(rng):
    Q = random_unitary(rng, 3)
    fam = PermutedFamily(np.array([0.6, 0.3, 0.1]), Q, ((0, 1, 2),))
    with pytest.raises(NotUnitary):
        interferometric_offdiag_phase(np.diag([2.0, 1.0, 1.0]), fam, 1)


def test_global_phase_scales_with_order(rng):
    Q = random_unitary(rng, 4)
    fam = PermutedFamily(np.array([0.4, 0.3, 0.2, 0.1]), Q, ((0, 1, 2, 3), (1, 0, 2, 3)))
    U = random_unitary(rng, 4)
    theta = 0.9
    for l in (1, 2):
        g0 = interferometric_offdiag_phase(U, fam, l)
        g1 = interferometric_offdiag_phase(np.exp(1j * theta) * U, fam, l)
        assert g1.trace == pytest.approx(np.exp(1j * l * theta) * g0.trace, abs=1e-12)


# ------------------------------------------------------------ discrepancy_report

def test_pure_family_pipelines_agree(rng):
    Q = random_unitary(rng, 4)
    fam = _pure_family(4, Q)
    H = random_hermitian(rng, 4)
    for k in range(4):
        v = Q[:, k]
        H = H - (v.conj() @ H @ v).real * np.outer(v, v.conj())
    spec = StaticHamiltonian(H, tau=1.0)
    rep = discrepancy_report(spec, fam, l=2)
    assert rep.rank_one
    assert rep.n_steps == 0  # closed-form lift was used
    assert rep.difference is not None
    assert abs(rep.difference) < 1e-6


def test_mixed_bell_family_both_assign_pi():
    # At this symmetric configuration both pipelines give pi; the general
    # discrepancy shows up away from it (see the acceptance suite).
    V = bell_matrix()
    lam = np.array([0.5, 1.0, 0.0, 0.0]) / 1.5
    perm = ((0, 1, 2, 3), (2, 3, 1, 0))  # weights move from the Psi to the Phi plane
    fam = PermutedFamily(lam, V, perm)
    spec = StaticHamiltonian(np.kron(SIGMA_Y, np.eye(2)), tau=np.pi / 2)
    rep = discrepancy_report(spec, fam, l=2, grid=TimeGrid.uniform(np.pi / 2, 400))
    assert rep.gamma == pytest.approx(np.pi, abs=1e-8)
    assert rep.nu == pytest.approx(np.pi, abs=1e-8)
    assert abs(rep.difference) < 1e-8


def test_flip_maps_support_to_kernel_keeps_constant_gauge_valid():
    # With both members on the Psi plane, the flip generator sends the
    # support into the kernel, so the constant gauge transports both paths.
    V = bell_matrix()
    lam = np.array([1.0, 0.5, 0.0, 0.0]) / 1.5
    fam = PermutedFamily(lam, V, ((0, 1, 2, 3), (1, 0, 2, 3)))
    spec = StaticHamiltonian(np.kron(SIGMA_Y, np.eye(2)), tau=np.pi / 2)
    grid = TimeGrid.uniform(np.pi / 2, 300)
    for k in range(2):
        rho = fam.state(k)
        gauge = AncillaGauge(samples=(np.eye(4, dtype=complex),) * len(grid.times), grid=grid)
        assert transport_equation_residual(spec, gauge, rho) < 1e-10
    rep = discrepancy_report(spec, fam, l=2, grid=grid)
    # Both invariants vanish identically here; undefined is a value, not an error.
    assert not rep.interferometric.defined
    assert rep.nu is None


def test_eigenstate_residual_on_non_uniform_sampled_grid():
    # Diagonal H: U^dag dU/dt = -i H, so the residual is max |h_j| = 0.3
    # at every grid time, also when the samples sit on the warped grid t = s^2.
    H = np.diag([0.3, -0.2, 0.1, 0.0]).astype(complex)
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    fam = PermutedFamily(lam, np.eye(4, dtype=complex), ((0, 1, 2, 3), (1, 0, 2, 3)))
    for grid in (TimeGrid.uniform(1.0, 200), TimeGrid(np.linspace(0.0, 1.0, 201) ** 2)):
        spec = SampledUnitaries(tuple(unitary_exp(H, float(t)) for t in grid.times), grid)
        rep = discrepancy_report(spec, fam, l=2, grid=grid)
        assert rep.eigenstate_transport_residual == pytest.approx(0.3, abs=1e-4)


@pytest.mark.parametrize("points", [129, 130, 131])
def test_sampled_eigenstate_residual_matches_the_per_point_loop(points):
    # Non-uniform central differences at each interior time of a random grid;
    # the residual evaluates U on each chunk of times and its two neighbours.
    rng = np.random.default_rng(points)
    H = random_hermitian(rng, 4)
    grid = TimeGrid(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, points - 2)])))
    spec = SampledUnitaries(tuple(unitary_exp(H, float(t)) for t in grid.times), grid)
    V = random_unitary(rng, 4)
    fam = PermutedFamily(np.array([0.4, 0.3, 0.2, 0.1]), V, ((0, 1, 2, 3),))
    ts, us = grid.times, spec.unitaries
    worst = 0.0
    for k in range(1, points - 1):
        gen = dagger(us[k]) @ (us[k + 1] - us[k - 1]) / (ts[k + 1] - ts[k - 1])
        worst = max(worst, float(np.abs(np.diagonal(dagger(V) @ gen @ V)).max()))
    assert worst > 0.1
    assert _eigenstate_transport_residual(spec, fam, grid) == pytest.approx(worst, rel=1e-15, abs=0)


# ------------------------------------------------------------------- wrap_angle

def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(2 * np.pi + 0.3) == pytest.approx(0.3)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)  # (-pi, pi] convention
    assert wrap_angle(3.5 * np.pi) == pytest.approx(-0.5 * np.pi)
