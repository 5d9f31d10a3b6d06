import numpy as np
import pytest

from holonomy_lab.errors import NegativeWeight, WrongVariant
from holonomy_lab.evolution import TimeGrid, density_path
from holonomy_lab.linalg import is_partial_isometry, op_norm
from holonomy_lab.offdiag import nu_functional, off_diagonal_invariant, sequence_invariants
from holonomy_lab.scenarios import (
    BELL_INVARIANTS,
    BellScenario,
    bell_basis,
    bell_matrix,
    bell_mixture,
    bell_paths,
    closed_form_B_r1,
    closed_form_invariants,
    evolution_spec,
    from_bell_basis,
    gauge_angle,
    variant_form_X12,
    spin_flip_unitary,
    to_bell_basis,
)
from holonomy_lab.transport import discrete_holonomy
from conftest import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    dyad,
    rho1_tau_matrix,
    usf_matrix,
)


# ------------------------------------------------------------------- bell_basis

def test_bell_vectors_match_hand_written():
    psi_plus, psi_minus, phi_plus, phi_minus = bell_basis()
    assert np.allclose(psi_plus, PSI_PLUS)
    assert np.allclose(psi_minus, PSI_MINUS)
    assert np.allclose(phi_plus, PHI_PLUS)
    assert np.allclose(phi_minus, PHI_MINUS)


def test_bell_gram_matrix_is_identity():
    C = bell_matrix()
    assert np.allclose(C.conj().T @ C, np.eye(4), atol=1e-14)


def test_bell_change_of_basis_round_trip(rng):
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(from_bell_basis(to_bell_basis(M)), M, atol=1e-12)
    # The Bell projector onto Psi+ becomes a diagonal unit in the Bell basis.
    assert np.allclose(to_bell_basis(dyad(PSI_PLUS, PSI_PLUS)), np.diag([1.0, 0, 0, 0]), atol=1e-14)


# ----------------------------------------------------------------- bell_mixture

def test_mixture_limits():
    assert np.allclose(bell_mixture(0.0).matrix, dyad(PSI_MINUS, PSI_MINUS), atol=1e-14)
    assert np.allclose(
        bell_mixture(1.0).matrix,
        (dyad(PSI_MINUS, PSI_MINUS) + dyad(PSI_PLUS, PSI_PLUS)) / 2,
        atol=1e-14,
    )


def test_mixture_spectrum():
    w = np.sort(bell_mixture(0.5).eigenvalues)
    assert np.allclose(w, [0.0, 0.0, 1 / 3, 2 / 3], atol=1e-12)


def test_mixture_rejects_negative_weight():
    with pytest.raises(NegativeWeight):
        bell_mixture(-0.1)


# ------------------------------------------------------------ spin_flip_unitary

def test_flip_action_on_bell_states():
    usf = spin_flip_unitary()
    assert np.allclose(usf @ PSI_MINUS, PHI_PLUS, atol=1e-14)
    assert np.allclose(usf @ PHI_MINUS, PSI_PLUS, atol=1e-14)
    assert np.allclose(usf @ PHI_PLUS, -PSI_MINUS, atol=1e-14)
    assert np.allclose(usf @ PSI_PLUS, -PHI_MINUS, atol=1e-14)


def test_flip_squares_to_minus_identity():
    usf = spin_flip_unitary()
    assert np.allclose(usf @ usf, -np.eye(4), atol=1e-14)
    assert np.allclose(usf.conj().T @ usf, np.eye(4), atol=1e-14)


def test_flip_is_first_qubit_block():
    assert np.allclose(spin_flip_unitary(), usf_matrix(), atol=1e-14)


# -------------------------------------------------------------- closed_form_B_r1

def test_gauge_starts_as_plane_projector():
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    B0 = closed_form_B_r1(s, 0.0)
    plane = dyad(PSI_PLUS, PSI_PLUS) + dyad(PSI_MINUS, PSI_MINUS)
    assert np.allclose(B0, plane, atol=1e-14)


def test_gauge_is_constant_for_pure_state():
    s = BellScenario(epsilon=0.0, variant="rotating", u=1.0)
    plane = dyad(PSI_PLUS, PSI_PLUS) + dyad(PSI_MINUS, PSI_MINUS)
    for t in np.linspace(0.0, s.tau, 7):
        assert np.allclose(closed_form_B_r1(s, float(t)), plane, atol=1e-14)


def test_gauge_angle_and_endpoint_value():
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    g = gauge_angle(s, s.tau)
    assert g == pytest.approx(np.sqrt(0.5) * np.pi / 1.5)
    B = closed_form_B_r1(s, s.tau)
    expected = np.cos(g) * (dyad(PSI_PLUS, PSI_PLUS) + dyad(PSI_MINUS, PSI_MINUS)) - 1j * np.sin(
        g
    ) * (dyad(PSI_PLUS, PSI_MINUS) + dyad(PSI_MINUS, PSI_PLUS))
    assert np.allclose(B, expected, atol=1e-14)


def test_gauge_is_partial_isometry_on_the_plane():
    s = BellScenario(epsilon=0.7, variant="rotating", u=2.0)
    for t in np.linspace(0.0, s.tau, 5):
        assert is_partial_isometry(closed_form_B_r1(s, float(t)), 1e-12)


def test_closed_form_gauge_on_an_array_stacks_the_single_time_calls():
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    times = np.linspace(0.0, s.tau, 301)
    stack = closed_form_B_r1(s, times)
    assert stack.shape == (301, 4, 4)
    assert np.array_equal(stack, np.array([closed_form_B_r1(s, float(t)) for t in times]))
    with pytest.raises(ValueError, match=r"^t = -0.5 outside"):
        closed_form_B_r1(s, np.array([0.0, -0.5, s.tau + 1.0]))
    for t in (float("nan"), np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match=r"^t = nan outside"):
            closed_form_B_r1(s, t)


def test_gauge_wrong_variant():
    with pytest.raises(WrongVariant):
        closed_form_B_r1(BellScenario(epsilon=0.5, variant="static"), 0.0)


# -------------------------------------------------------- closed-form invariants

def test_static_closed_forms():
    s = BellScenario(epsilon=0.5, variant="static")
    x1, x2, x12 = closed_form_invariants(s)
    assert np.allclose(x1, (dyad(PHI_PLUS, PSI_MINUS) - 0.5 * dyad(PHI_MINUS, PSI_PLUS)) / 1.5, atol=1e-14)
    assert np.allclose(x2, usf_matrix() @ rho1_tau_matrix(0.5), atol=1e-14)
    assert np.allclose(x12, x1 @ x2, atol=1e-14)


def test_rotating_closed_form_x1_matches_literal_expression():
    # Literal dyad expression with gamma(tau) = sqrt(eps) pi / (1 + eps).
    for eps in (0.25, 0.5, 2.0):
        s = BellScenario(epsilon=eps, variant="rotating", u=1.0)
        g = gauge_angle(s, s.tau)
        literal = (
            np.cos(g) * (dyad(PHI_PLUS, PSI_MINUS) - eps * dyad(PHI_MINUS, PSI_PLUS))
            + 1j * np.sqrt(eps) * np.sin(g) * (-dyad(PHI_PLUS, PSI_PLUS) + dyad(PHI_MINUS, PSI_MINUS))
        ) / (1 + eps)
        x1 = closed_form_invariants(s)[0]
        assert np.allclose(x1, literal, atol=1e-12)


def test_rotating_closed_form_x2_matches_literal_expression():
    for eps in (0.5, 1.5):
        s = BellScenario(epsilon=eps, variant="rotating", u=1.0)
        g = gauge_angle(s, s.tau)
        literal = (
            np.cos(g) * (eps * dyad(PSI_PLUS, PHI_MINUS) - dyad(PSI_MINUS, PHI_PLUS))
            + 1j * np.sqrt(eps) * np.sin(g) * (dyad(PSI_MINUS, PHI_MINUS) - dyad(PSI_PLUS, PHI_PLUS))
        ) / (1 + eps)
        x2 = closed_form_invariants(s)[1]
        assert np.allclose(x2, literal, atol=1e-12)


def test_variant_order_two_form_agrees_only_at_unit_weight():
    # The variant coefficient on |Phi-><Phi-| disagrees with the product of
    # the order-1 factors except at eps = 1; the product is ground truth.
    s1 = BellScenario(epsilon=1.0, variant="static")
    assert op_norm(closed_form_invariants(s1)[2] - variant_form_X12(s1)) < 1e-12
    s = BellScenario(epsilon=0.5, variant="static")
    assert op_norm(closed_form_invariants(s)[2] - variant_form_X12(s)) > 0.1
    sr = BellScenario(epsilon=1.0, variant="rotating", u=1.0)
    assert op_norm(closed_form_invariants(sr)[2] - variant_form_X12(sr)) < 1e-12


def _variant_form_over_one_plus_eps_squared(s):
    """The variant form with (1 + eps)**2 as its denominator; that square overflows from eps ~ 1.3e154."""
    eps, pp, mm = s.epsilon, dyad(PHI_PLUS, PHI_PLUS), dyad(PHI_MINUS, PHI_MINUS)
    if s.variant == "static":
        return -(pp + mm) / (1 + eps) ** 2
    g = gauge_angle(s, s.tau)
    c, si = np.cos(g), np.sin(g)
    pm, mp = dyad(PHI_PLUS, PHI_MINUS), dyad(PHI_MINUS, PHI_PLUS)
    form = -(c**2 + eps * si**2) * (pp + eps * mm) + 1j * np.sqrt(eps) * (1 - eps) * si * c * (pm - mp)
    return form / (1 + eps) ** 2


@pytest.mark.parametrize("variant", ["static", "rotating"])
def test_variant_form_in_the_mixture_weights_is_finite_at_any_weight(variant):
    for eps in (0.0, 0.5, 1.0, 2.0, 3.7, 1e10):
        s = BellScenario(epsilon=eps, variant=variant)
        assert op_norm(variant_form_X12(s) - _variant_form_over_one_plus_eps_squared(s)) < 1e-15
    for eps in (1e155, 1e300):
        s = BellScenario(epsilon=eps, variant=variant)
        assert np.isfinite(variant_form_X12(s)).all()
        assert op_norm(closed_form_invariants(s)[2] - variant_form_X12(s)) == pytest.approx(1.0)


def test_rotating_closed_form_against_transport_ode():
    # Independent oracle: integrate dW/dt = G W with the Hermitian G from
    # drho/dt = G rho + rho G restricted to the moving support. The result
    # must land on the closed-form order-1 invariant at machine precision.
    from holonomy_lab.evolution import rotating_generator, unitary_at
    from holonomy_lab.linalg import hermitian_sqrt

    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    from holonomy_lab.scenarios import evolution_spec

    spec = evolution_spec(s)
    rho0 = bell_mixture(0.5)
    tau, n = s.tau, 4000

    def generator(t):
        U = unitary_at(spec, min(t, tau))
        H = rotating_generator(spec, min(t, tau))
        rho = U @ rho0.matrix @ U.conj().T
        drho = -1j * (H @ rho - rho @ H)
        w, V = np.linalg.eigh(rho)
        denom = w[None, :] + w[:, None]
        num = V.conj().T @ drho @ V
        G = np.where(denom > 1e-9, num / np.where(denom > 1e-9, denom, 1.0), 0.0)
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
    cf1 = closed_form_invariants(s)[0]
    assert op_norm(ode_invariant - cf1) < 1e-10


# ------------------------------------------------------------- transported scenario

def _transported(s):
    """Diagnoses of X1, X2, X12, their largest closed-form error, and the path residuals."""
    invariants, residuals = sequence_invariants(*bell_paths(s), BELL_INVARIANTS)
    xs = [invariants[seq] for seq in BELL_INVARIANTS]
    diagnoses = [nu_functional(np.eye(4), x) for x in xs]
    closed_form_error = max(op_norm(x - cf) for x, cf in zip(xs, closed_form_invariants(s)))
    return diagnoses, closed_form_error, residuals


def test_static_scenario_report():
    s = BellScenario(epsilon=0.5, variant="static", n_steps=200)
    (d1, d2, d12), closed_form_error, residuals = _transported(s)
    assert not d1.phase_defined
    assert not d2.phase_defined
    assert d12.phase_defined
    assert d12.phase == pytest.approx(np.pi, abs=1e-10)
    assert d1.support_overlap < 1e-9
    assert d12.support_overlap > 0.1
    assert closed_form_error < 1e-10
    assert max(residuals.values()) < 1e-10


def test_rotating_scenario_report_small_grid():
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0, n_steps=500)
    (d1, _, d12), closed_form_error, _ = _transported(s)
    assert not d1.phase_defined
    assert d12.phase_defined
    assert closed_form_error < 1e-5
    assert op_norm(closed_form_invariants(s)[2] - variant_form_X12(s)) > 0.1


def test_reference_state_override():
    # Taking rho_1(0) itself as the reference puts both paths on the same
    # orbit, and the order-2 invariant is traceless (Phi/Psi mismatch).
    s = BellScenario(epsilon=0.5, variant="static", n_steps=100)
    grid = TimeGrid.uniform(s.tau, s.n_steps)
    r = discrete_holonomy(density_path(bell_mixture(0.5), evolution_spec(s), grid))
    X12 = off_diagonal_invariant([r, r])
    assert abs(np.trace(X12)) < 1e-10


def test_scenario_validation():
    with pytest.raises(NegativeWeight):
        BellScenario(epsilon=-1.0)
    with pytest.raises(ValueError):
        BellScenario(epsilon=0.5, variant="wobbly")
    with pytest.raises(ValueError):
        BellScenario(epsilon=0.5, u=-2.0)
    with pytest.raises(ValueError):
        BellScenario(epsilon=0.5, n_steps=1)
