"""Seeded property suite behind the ``verify`` command.

Each check exercises one documented invariant of the library on
randomized instances drawn from a deterministic generator, so a given
seed always produces the same verdicts and measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .compare import PermutedFamily, _closed_form_result, interferometric_offdiag_phase
from .evolution import (
    RotatingFrame,
    StaticHamiltonian,
    TimeGrid,
    density_path,
    rotating_generator,
    unitary_at,
)
from .linalg import (
    dagger,
    hermitian_part,
    hermitian_sqrt,
    op_norm,
    polar,
    support_power,
    support_projector,
    transition_probability,
    unitary_exp,
)
from .offdiag import (
    alternative_ordering,
    holonomy_isometry,
    nu_functional,
    off_diagonal_invariant,
    sequence_invariants,
    support_overlap,
)
from .scenarios import (
    BELL_INVARIANTS,
    BellScenario,
    bell_basis,
    bell_mixture,
    bell_paths,
    closed_form_B_r1,
    closed_form_invariants,
    evolution_spec,
    spin_flip_unitary,
)
from .state import (
    DensityOperator,
    DensityPath,
    apply_gauge,
    chunk_slices,
    parallelity_residual,
)
from .transport import AncillaGauge, discrete_holonomy, transport_equation_residual

__all__ = ["PropertyResult", "run_properties", "property_groups"]


@dataclass(frozen=True)
class PropertyResult:
    group: str
    name: str
    passed: bool
    measured: float
    threshold: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.group}::{self.name} measured={self.measured:.6g} threshold={self.threshold:.6g}"


def _random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _random_hermitian(rng, dim):
    return hermitian_part(_random_complex(rng, dim))


def _random_psd(rng, dim):
    A = _random_complex(rng, dim)
    return A @ dagger(A)


def _random_unitary(rng, dim):
    Q, R = np.linalg.qr(_random_complex(rng, dim))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def _random_density(rng, dim, rank=None):
    rank = dim if rank is None else rank
    A = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = A @ A.conj().T
    return DensityOperator(m / np.trace(m).real)


def _random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _zero_diagonal_hamiltonian(rng, vectors, dim):
    """Random Hermitian generator that parallel-transports the given states."""
    H = _random_hermitian(rng, dim)
    for v in vectors:
        H = H - (v.conj() @ H @ v).real * np.outer(v, v.conj())
    return H


def _random_low_rank(rng):
    """Square X of random dim 2..6 as a product of random rank-r factors."""
    dim = int(rng.integers(2, 7))
    rank = int(rng.integers(1, dim + 1))
    return (rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))) @ _random_complex(rng, rank) @ (
        rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    )


def _result(group, name, measured, threshold, larger_is_better=False) -> PropertyResult:
    ok = measured >= threshold if larger_is_better else measured <= threshold
    return PropertyResult(group=group, name=name, passed=bool(ok), measured=float(measured), threshold=float(threshold))


# ---------------------------------------------------------------------------
# linalg

def check_hermitian_sqrt(rng):
    worst = 0.0
    for dim in (2, 3, 4, 6, 8):
        M = _random_psd(rng, dim)
        R = hermitian_sqrt(M)
        worst = max(worst, op_norm(R @ R - M) / max(1.0, op_norm(M)))
    return [_result("hermitian-sqrt", "square-recovers-input", worst, 1e-10)]


def check_polar_consistency(rng):
    """Left and right polar isometries agree; both reconstructions hold.

    ``holonomy-isometry-routes`` checks holonomy_isometry (the SVD route)
    against X (X^dag X)^{-1/2} and (X X^dag)^{-1/2} X on the support, for
    rank-deficient X and the Bell invariants X1 and X12.
    """
    worst_lr = 0.0
    worst_rec = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        X = _random_complex(rng, dim)
        left = polar(X, "left")
        right = polar(X, "right")
        worst_lr = max(worst_lr, op_norm(left.isometry - right.isometry))
        # Independent routes through the two Hermitian factors.
        w, V = np.linalg.eigh(dagger(X) @ X)
        u_l = X @ ((V * (1.0 / np.sqrt(np.clip(w, 1e-300, None)))) @ dagger(V))
        w, V = np.linalg.eigh(X @ dagger(X))
        u_r = ((V * (1.0 / np.sqrt(np.clip(w, 1e-300, None)))) @ dagger(V)) @ X
        worst_lr = max(worst_lr, op_norm(u_l - u_r))
        worst_rec = max(
            worst_rec,
            op_norm(left.isometry @ left.positive_part - X),
            op_norm(right.positive_part @ right.isometry - X),
        )
    samples = [_random_low_rank(rng) for _ in range(20)]
    for variant in ("static", "rotating"):
        x1, _, x12 = closed_form_invariants(BellScenario(epsilon=0.5, variant=variant))
        samples += [x1, x12]
    worst_routes = 0.0
    for X in samples:
        u_svd = holonomy_isometry(X)
        u_left = X @ support_power(*np.linalg.eigh(dagger(X) @ X), -0.5)
        u_right = support_power(*np.linalg.eigh(X @ dagger(X)), -0.5) @ X
        deviation = max(op_norm(u_left - u_right), op_norm(u_left - u_svd))
        worst_routes = max(worst_routes, deviation / max(1.0, op_norm(X)))
    # The bound is max(1e-8, tol * dim) * max(1, ||X||); tol * dim <= 6e-9 here.
    return [
        _result("polar-consistency", "left-equals-right", worst_lr, 1e-8),
        _result("polar-consistency", "reconstruction", worst_rec, 1e-8),
        _result("polar-consistency", "holonomy-isometry-routes", worst_routes, 1e-8),
    ]


def check_support_projectors(rng):
    worst = 0.0
    for _ in range(20):
        X = _random_low_rank(rng)
        U, s, Vh = np.linalg.svd(X)
        kept = s > 1e-9 * s[0]
        p_left = U[:, kept] @ dagger(U[:, kept])
        p_right = dagger(Vh[kept, :]) @ Vh[kept, :]
        worst = max(
            worst,
            op_norm(support_projector(X @ dagger(X)) - p_left),
            op_norm(support_projector(dagger(X) @ X) - p_right),
        )
    return [_result("support-projectors", "match-svd-supports", worst, 1e-10)]


def check_transition_probability(rng):
    worst_range = 0.0
    worst_pure = 0.0
    worst_sym = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        rho = _random_density(rng, dim)
        sigma = _random_density(rng, dim)
        f = transition_probability(rho, sigma)
        worst_range = max(worst_range, max(0.0, f - 1.0), max(0.0, -f))
        worst_sym = max(worst_sym, abs(f - transition_probability(sigma, rho)))
        psi = _random_pure(rng, dim)
        phi = _random_pure(rng, dim)
        fp = transition_probability(DensityOperator.pure(psi), DensityOperator.pure(phi))
        worst_pure = max(worst_pure, abs(fp - abs(psi.conj() @ phi) ** 2))
    return [
        _result("transition-probability", "in-unit-interval", worst_range, 0.0),
        _result("transition-probability", "pure-overlap", worst_pure, 1e-10),
        _result("transition-probability", "symmetric", worst_sym, 1e-10),
    ]


def check_unitary_exp(rng):
    worst = 0.0
    for t in np.linspace(0.0, 10.0, 9):
        H = _random_hermitian(rng, 4)
        U = unitary_exp(H, float(t))
        worst = max(worst, op_norm(dagger(U) @ U - np.eye(4)))
    H = _random_hermitian(rng, 3)
    worst_group = op_norm(unitary_exp(H, 0.7) @ unitary_exp(H, 0.5) - unitary_exp(H, 1.2))
    return [
        _result("unitary-exp", "unitarity", worst, 1e-10),
        _result("unitary-exp", "group-law", worst_group, 1e-10),
    ]


# ---------------------------------------------------------------------------
# state

def check_purification(rng):
    worst_state = 0.0
    worst_gauge = 0.0
    worst_sym = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        rho = _random_density(rng, dim)
        W = rho.sqrt
        worst_state = max(worst_state, op_norm(W @ dagger(W) - rho.matrix))
        gauged = apply_gauge(W, _random_unitary(rng, dim))
        worst_gauge = max(worst_gauge, op_norm(gauged @ dagger(gauged) - rho.matrix))
        W2 = _random_unitary(rng, dim) @ _random_density(rng, dim).sqrt
        worst_sym = max(worst_sym, abs(parallelity_residual(W, W2) - parallelity_residual(W2, W)))
    return [
        _result("purification", "state-recovery", worst_state, 1e-12),
        _result("purification", "unitary-gauge-preserves-state", worst_gauge, 1e-12),
        _result("purification", "parallelity-swap-symmetry", worst_sym, 1e-12),
    ]


# ---------------------------------------------------------------------------
# evolution

def check_path_spectrum(rng):
    rho = _random_density(rng, 4)
    spec = StaticHamiltonian(_random_hermitian(rng, 4), tau=1.3)
    path = density_path(rho, spec, TimeGrid.uniform(1.3, 50))
    # Spectra of the states rebuilt from the eigen-data, not the stored
    # eigenvalues: this fails if the eigenvectors lose orthonormality.
    V = path.V
    m = (V * path.w[:, None, :]) @ dagger(V)
    worst = float(np.max(np.abs(np.linalg.eigvalsh(hermitian_part(m)) - rho.eigenvalues)))
    return [_result("path-spectrum", "unitary-invariance", worst, 1e-10)]


def check_integrator_oracle(rng):
    """Closed-form rotating product vs a time-ordered midpoint integrator."""
    spec = RotatingFrame(1.0)
    n = 20000
    ts = np.linspace(0.0, spec.tau, n + 1)
    dt = ts[1] - ts[0]
    U = np.eye(4, dtype=complex)
    for k in chunk_slices(0, n):
        for step in unitary_exp(rotating_generator(spec, ts[k] + dt / 2), float(dt)):
            U = step @ U
    err = op_norm(unitary_at(spec, spec.tau) - U)
    return [_result("integrator-oracle", "rotating-closed-form", err, 1e-8)]


# ---------------------------------------------------------------------------
# transport

def check_parallelity_steps(rng):
    rho = _random_density(rng, 4)  # full rank
    spec = StaticHamiltonian(_random_hermitian(rng, 4), tau=1.0)
    res = discrete_holonomy(density_path(rho, spec, TimeGrid.uniform(1.0, 1000)))
    return [_result("parallelity-steps", "consecutive-residual", res.max_step_parallelity_residual, 1e-8)]


def check_reparameterization(rng):
    """Times never enter the product: duplicating samples changes nothing."""
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0, n_steps=200)
    (rho1, _), spec, grid = bell_paths(s)
    path = density_path(rho1, spec, grid)
    base = discrete_holonomy(path)
    k = np.arange(len(path))
    idx = np.repeat(k, np.where(k % 7 == 3, 2, 1))  # monotone (non-strict) reparameterization pauses
    doubled = discrete_holonomy(DensityPath(path.w[idx], path.V[idx]))
    err = op_norm(base.relative_phase_factor - doubled.relative_phase_factor)
    return [_result("reparameterization", "pause-invariance", err, 1e-8)]


def check_gauge_invariance(rng):
    """X^(l) is blind to t-independent partial isometries applied per path."""
    worst = 0.0
    for _ in range(5):
        results = []
        gauged = []
        for _k in range(2):
            rho = _random_density(rng, 4, rank=2)
            spec = StaticHamiltonian(_random_hermitian(rng, 4), tau=0.8)
            res = discrete_holonomy(density_path(rho, spec, TimeGrid.uniform(0.8, 60)))
            results.append(res)
            # Partial isometry with left support on supp(rho): S = sum |v_i><w_i|.
            w, V = np.linalg.eigh(rho.matrix)
            vs = V[:, w > 1e-9]
            ws = np.linalg.qr(_random_complex(rng, 4))[0][:, : vs.shape[1]]
            S = vs @ dagger(ws)
            initial, final = res.initial_amplitude @ S, res.final_amplitude @ S
            invariant = final @ dagger(S) @ dagger(res.initial_amplitude)
            gauged.append(replace(res, initial_amplitude=initial, final_amplitude=final, invariant=invariant))
        X = off_diagonal_invariant(results)
        Xg = off_diagonal_invariant(gauged)
        worst = max(worst, op_norm(X - Xg))
    return [_result("gauge-invariance", "distinct-partial-isometries", worst, 1e-10)]


def check_transport_convergence(rng):
    """Errors against the closed forms shrink as the grid doubles."""
    out = []
    for variant in ("static", "rotating"):
        errors = []
        for n in (250, 500, 1000, 2000, 4000, 8000):
            s = BellScenario(epsilon=0.5, variant=variant, u=1.0, n_steps=n)
            cf1 = closed_form_invariants(s)[0]
            (rho1, _), spec, grid = bell_paths(s)
            res = discrete_holonomy(density_path(rho1, spec, grid))
            errors.append(op_norm(res.invariant - cf1))
        floor = 1e-12
        monotone = all(
            b <= a * 1.05 or b <= floor for a, b in zip(errors, errors[1:])
        )
        out.append(
            PropertyResult(
                group="transport-convergence",
                name=f"{variant}-monotone",
                passed=monotone,
                measured=float(errors[-1]),
                threshold=float(errors[0] + floor),
            )
        )
    return out


# ---------------------------------------------------------------------------
# offdiag

def check_factorization(rng):
    worst = 0.0
    for _ in range(5):
        results = []
        for _k in range(3):
            rho = _random_density(rng, 3)
            spec = StaticHamiltonian(_random_hermitian(rng, 3), tau=0.6)
            results.append(discrete_holonomy(density_path(rho, spec, TimeGrid.uniform(0.6, 40))))
        X = off_diagonal_invariant(results)
        prod = results[0].invariant @ results[1].invariant @ results[2].invariant
        worst = max(worst, op_norm(X - prod))
    return [_result("factorization", "product-of-constituents", worst, 1e-10)]


def check_nodal_necessity(rng):
    """Orthogonal left/right supports force a vanishing trace."""
    worst_trace = 0.0
    for _ in range(20):
        dim = int(rng.integers(3, 7))
        r = int(rng.integers(1, dim // 2 + 1))
        Q = np.linalg.qr(_random_complex(rng, dim))[0]
        left = Q[:, :r]
        right = Q[:, r : 2 * r]
        X = left @ _random_complex(rng, r) @ dagger(right)
        if support_overlap(X) > 1e-9:
            worst_trace = np.inf
            break
        worst_trace = max(worst_trace, abs(np.trace(X)))
    return [_result("nodal-necessity", "orthogonal-supports-kill-trace", worst_trace, 1e-8)]


def check_trace_cyclic(rng):
    worst = 0.0
    worst_gauge = 0.0
    for _ in range(5):
        results = []
        for _k in range(2):
            rho = _random_density(rng, 4, rank=3)
            spec = StaticHamiltonian(_random_hermitian(rng, 4), tau=0.5)
            results.append(discrete_holonomy(density_path(rho, spec, TimeGrid.uniform(0.5, 40))))
        X = off_diagonal_invariant(results)
        Y = alternative_ordering(results)
        worst = max(worst, abs(np.trace(X) - np.trace(Y)))
        # Global gauge on path 1 conjugates Y but keeps its trace.
        S = _random_unitary(rng, 4)
        first = results[0]
        initial, final = first.initial_amplitude @ S, first.final_amplitude @ S
        gauged_first = replace(first, initial_amplitude=initial, final_amplitude=final)
        Yg = alternative_ordering([gauged_first, results[1]])
        worst_gauge = max(worst_gauge, op_norm(Yg - dagger(S) @ Y @ S))
    return [
        _result("trace-cyclic", "trace-matches-standard-ordering", worst, 1e-10),
        _result("trace-cyclic", "gauge-conjugates-alternative", worst_gauge, 1e-10),
    ]


def check_pure_state_reduction(rng):
    """nu for rank-1 families equals the cyclic product of overlaps."""
    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(3, 5))
        Q = np.linalg.qr(_random_complex(rng, dim))[0]
        vecs = [Q[:, i] for i in range(3)]
        H = _zero_diagonal_hamiltonian(rng, vecs, dim)
        U = unitary_exp(H, 1.0)
        for l in (1, 2, 3):
            results = [_closed_form_result(U, DensityOperator.pure(vecs[k])) for k in range(l)]
            X = off_diagonal_invariant(results)
            barg = complex(1.0)
            for k in range(l):
                barg *= vecs[k].conj() @ U @ vecs[(k + 1) % l]
            if abs(barg) < 1e-9:
                continue
            diag = nu_functional(np.eye(dim), X)
            delta = abs(np.angle(diag.trace / barg))
            worst = max(worst, min(delta, 2 * np.pi - delta))
    return [_result("pure-state-reduction", "bargmann-product", worst, 1e-8)]


# ---------------------------------------------------------------------------
# compare

def check_interferometric_pure(rng):
    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(3, 5))
        Q = np.linalg.qr(_random_complex(rng, dim))[0]
        lam = np.zeros(dim)
        lam[0] = 1.0
        swap = list(range(dim))
        swap[0], swap[1] = 1, 0
        family = PermutedFamily(lam, Q, (tuple(range(dim)), tuple(swap)))
        vecs = [Q[:, 0], Q[:, 1]]
        H = _zero_diagonal_hamiltonian(rng, [Q[:, i] for i in range(dim)], dim)
        U = unitary_exp(H, 1.0)
        gamma = interferometric_offdiag_phase(U, family, 2)
        results = [_closed_form_result(U, DensityOperator.pure(v)) for v in vecs]
        X = off_diagonal_invariant(results)
        tr = complex(np.trace(X))
        if not gamma.defined or abs(tr) < 1e-9:
            continue
        worst = max(worst, abs(gamma.factor - tr / abs(tr)))
    return [_result("interferometric-pure", "matches-holonomy-factor", worst, 1e-6)]


def check_global_phase(rng):
    """gamma^(l) picks up exactly l times a global phase on U."""
    dim = 4
    Q = np.linalg.qr(_random_complex(rng, dim))[0]
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    family = PermutedFamily(lam, Q, ((0, 1, 2, 3), (1, 0, 2, 3)))
    U = _random_unitary(rng, dim)
    theta = 0.7
    worst = 0.0
    for l in (1, 2):
        g0 = interferometric_offdiag_phase(U, family, l)
        g1 = interferometric_offdiag_phase(np.exp(1j * theta) * U, family, l)
        if not (g0.defined and g1.defined):
            continue
        worst = max(worst, abs(g1.factor - np.exp(1j * l * theta) * g0.factor))
        worst = max(worst, abs(g1.trace - np.exp(1j * l * theta) * g0.trace))
    return [_result("global-phase", "trace-exposes-l-theta", worst, 1e-10)]


def check_root_power(rng):
    worst = 0.0
    for l in (1, 2, 3, 5):
        rho = _random_density(rng, 4)
        root = support_power(rho.eigenvalues, rho.eigenvectors, 1.0 / l, 1e-9)
        powered = np.linalg.matrix_power(root, l)
        worst = max(worst, op_norm(powered - rho.matrix))
    return [_result("root-power", "lth-root-powers-back", worst, 1e-10)]


# ---------------------------------------------------------------------------
# scenarios

def check_bell_nodal_grid(rng):
    worst_x1 = 0.0
    worst_x12 = 1.0
    for eps in (0.1, 0.5, 1.0, 2.0):
        s = BellScenario(epsilon=eps, variant="static", n_steps=64)
        invariants, _ = sequence_invariants(*bell_paths(s), BELL_INVARIANTS)
        worst_x1 = max(worst_x1, support_overlap(invariants[(1,)]))
        worst_x12 = min(worst_x12, support_overlap(invariants[(1, 2)]))
    return [
        _result("bell-nodal-grid", "order-1-orthogonal-supports", worst_x1, 1e-9),
        _result("bell-nodal-grid", "order-2-overlap", worst_x12, 0.1, larger_is_better=True),
    ]


def check_path_dependence(rng):
    out = []
    smallest = np.inf
    for eps in (0.5, 2.0):
        xs = closed_form_invariants(BellScenario(epsilon=eps, variant="static"))[2]
        xr = closed_form_invariants(BellScenario(epsilon=eps, variant="rotating"))[2]
        smallest = min(smallest, op_norm(xs - xr))
    out.append(_result("path-dependence", "static-vs-rotating", smallest, 1e-3, larger_is_better=True))
    # Pure limit: both collapse to the same rank-1 invariant, whose trace
    # is the two-step product of overlaps through the flip.
    xs = closed_form_invariants(BellScenario(epsilon=0.0, variant="static"))[2]
    xr = closed_form_invariants(BellScenario(epsilon=0.0, variant="rotating"))[2]
    psi_plus, psi_minus, phi_plus, phi_minus = bell_basis()
    usf = spin_flip_unitary()
    barg = (psi_minus.conj() @ usf @ phi_plus) * (phi_plus.conj() @ usf @ psi_minus)
    out.append(_result("path-dependence", "pure-limit-coincides", op_norm(xs - xr), 1e-6))
    out.append(
        _result(
            "path-dependence",
            "pure-limit-bargmann-trace",
            abs(complex(np.trace(xs)) - barg),
            1e-10,
        )
    )
    return out


def check_gauge_residual_convergence(rng):
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    spec = evolution_spec(s)
    rho1 = bell_mixture(s.epsilon)
    residuals = {}
    for n in (500, 1000, 2000, 4000):
        grid = TimeGrid.uniform(s.tau, n)
        gauge = AncillaGauge(samples=closed_form_B_r1(s, grid.times), grid=grid)
        residuals[n] = transport_equation_residual(spec, gauge, rho1)
    out = []
    for n in (500, 1000, 2000):
        ratio = residuals[n] / residuals[2 * n]
        ok = 3.5 <= ratio <= 4.5
        out.append(
            PropertyResult(
                group="gauge-residual-convergence",
                name=f"ratio-n{n}",
                passed=ok,
                measured=float(ratio),
                threshold=4.0,
            )
        )
    return out


def check_reference_return(rng):
    s = BellScenario(epsilon=0.5, variant="static", n_steps=32)
    (rho1, rho2), spec, grid = bell_paths(s)
    rho2_path = density_path(rho2, spec, grid)
    n = grid.n_steps
    w, V = rho2_path.w[n], rho2_path.frames(n, n + 1)[0]
    last = (V * w) @ dagger(V)
    err = op_norm(hermitian_part(last) - rho1.matrix)
    return [_result("reference-return", "flip-returns-reference", err, 1e-10)]


_CHECKS = (
    check_hermitian_sqrt,
    check_polar_consistency,
    check_support_projectors,
    check_transition_probability,
    check_unitary_exp,
    check_purification,
    check_path_spectrum,
    check_integrator_oracle,
    check_parallelity_steps,
    check_reparameterization,
    check_gauge_invariance,
    check_transport_convergence,
    check_factorization,
    check_nodal_necessity,
    check_trace_cyclic,
    check_pure_state_reduction,
    check_interferometric_pure,
    check_global_phase,
    check_root_power,
    check_bell_nodal_grid,
    check_path_dependence,
    check_gauge_residual_convergence,
    check_reference_return,
)


def property_groups() -> list[str]:
    return sorted({fn.__name__.removeprefix("check_").replace("_", "-") for fn in _CHECKS})


def run_properties(seed: int = 0, only: str | None = None) -> list[PropertyResult]:
    """Run the property suite deterministically for the given seed."""
    results = []
    for offset, fn in enumerate(_CHECKS):
        group = fn.__name__.removeprefix("check_").replace("_", "-")
        if only is not None and group != only:
            continue
        rng = np.random.default_rng(seed * 1000 + offset)
        results.extend(fn(rng))
    if only is not None and not results:
        raise ValueError(f"unknown property group {only!r}; available: {', '.join(property_groups())}")
    return results
