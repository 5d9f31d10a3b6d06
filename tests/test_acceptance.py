"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np

from holonomy_lab.compare import PermutedFamily, discrepancy_report
from holonomy_lab.evolution import StaticHamiltonian, TimeGrid, density_path
from holonomy_lab.linalg import op_norm, unitary_exp
from holonomy_lab.offdiag import nu_functional, off_diagonal_invariant, sequence_invariants
from holonomy_lab.scenarios import (
    BELL_INVARIANTS,
    BellScenario,
    bell_matrix,
    bell_mixture,
    bell_paths,
    closed_form_B_r1,
    closed_form_invariants,
    evolution_spec,
    gauge_angle,
    variant_form_X12,
)
from holonomy_lab.state import DensityOperator
from holonomy_lab.transport import (
    AncillaGauge,
    TransportResult,
    discrete_holonomy,
    transport_equation_residual,
)
from holonomy_lab.verify import run_properties

from conftest import (
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    angle_diff,
    dyad,
    rho1_matrix,
    rho1_tau_matrix,
    usf_matrix,
)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_static_nodal_point():
    eps = 0.5
    expected = (dyad(PHI_PLUS, PSI_MINUS) - eps * dyad(PHI_MINUS, PSI_PLUS)) / (1 + eps)

    analytic = closed_form_invariants(BellScenario(epsilon=eps, variant="static"))[0]
    err_analytic = op_norm(analytic - expected)

    s = BellScenario(epsilon=eps, variant="static", n_steps=2000)
    res = discrete_holonomy(density_path(bell_mixture(eps), evolution_spec(s),
                                         TimeGrid.uniform(s.tau, 2000)))
    err_transport = op_norm(res.invariant - expected)
    diag = nu_functional(np.eye(4), off_diagonal_invariant([res]))
    ok = (
        err_analytic <= 1e-10
        and err_transport <= 1e-5
        and diag.trace_magnitude <= 1e-10
        and diag.support_overlap <= 1e-9
        and not diag.phase_defined
    )
    _report(1, ok, (
        f"analytic err {err_analytic:.2e} (<=1e-10), transport err {err_transport:.2e} "
        f"(<=1e-5), |trace| {diag.trace_magnitude:.2e} (<=1e-10), "
        f"overlap {diag.support_overlap:.2e} (<=1e-9)"
    ))


def test_criterion_2_order_two_resolution():
    worst_op = 0.0
    worst_nu = 0.0
    min_overlap = 1.0
    variant_log = []
    usf = usf_matrix()
    for eps in (0.25, 0.5, 1.0, 2.0):
        s = BellScenario(epsilon=eps, variant="static", n_steps=400)
        X12 = sequence_invariants(*bell_paths(s), BELL_INVARIANTS)[0][(1, 2)]
        brute = usf @ rho1_matrix(eps) @ usf @ rho1_tau_matrix(eps)
        worst_op = max(worst_op, op_norm(X12 - brute))
        diag = nu_functional(np.eye(4), X12)
        assert diag.phase_defined
        worst_nu = max(worst_nu, angle_diff(diag.phase, np.pi))
        min_overlap = min(min_overlap, diag.support_overlap)
        variant_log.append(f"eps={eps}: {op_norm(closed_form_invariants(s)[2] - variant_form_X12(s)):.3e}")
    ok = worst_op <= 1e-10 and worst_nu <= 1e-8 and min_overlap >= 0.1
    _report(2, ok, (
        f"X12 vs brute force {worst_op:.2e} (<=1e-10), nu vs pi {worst_nu:.2e} "
        f"(<=1e-8), min overlap {min_overlap:.3f} (>=0.1); coefficient-variant "
        "distances [" + ", ".join(variant_log) + "]"
    ))


def test_criterion_3_gauge_residual_second_order():
    s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
    spec = evolution_spec(s)
    rho1 = bell_mixture(0.5)
    residuals = {}
    for n in (500, 1000, 2000, 4000):
        grid = TimeGrid.uniform(s.tau, n)
        gauge = AncillaGauge(
            samples=tuple(closed_form_B_r1(s, float(t)) for t in grid.times), grid=grid
        )
        residuals[n] = transport_equation_residual(spec, gauge, rho1)
    ratios = {n: residuals[n] / residuals[2 * n] for n in (500, 1000, 2000)}
    ok = all(3.5 <= r <= 4.5 for r in ratios.values())
    _report(3, ok, "residual ratios " + ", ".join(
        f"n={n}: {r:.3f}" for n, r in ratios.items()) + " (all within [3.5, 4.5])")


def test_criterion_4_rotating_invariants_match_closed_forms():
    eps, u, n = 0.5, 1.0, 10_000
    started = time.perf_counter()
    s = BellScenario(epsilon=eps, variant="rotating", u=u, n_steps=n)
    spec = evolution_spec(s)
    grid = TimeGrid.uniform(s.tau, n)
    r1 = discrete_holonomy(density_path(bell_mixture(eps), spec, grid))
    rho2 = DensityOperator(rho1_tau_matrix(eps))
    r2 = discrete_holonomy(density_path(rho2, spec, grid))
    elapsed = time.perf_counter() - started

    g = gauge_angle(s, s.tau)
    hr11 = (
        np.cos(g) * (dyad(PHI_PLUS, PSI_MINUS) - eps * dyad(PHI_MINUS, PSI_PLUS))
        + 1j * np.sqrt(eps) * np.sin(g) * (-dyad(PHI_PLUS, PSI_PLUS) + dyad(PHI_MINUS, PSI_MINUS))
    ) / (1 + eps)
    hr12 = (
        np.cos(g) * (eps * dyad(PSI_PLUS, PHI_MINUS) - dyad(PSI_MINUS, PHI_PLUS))
        + 1j * np.sqrt(eps) * np.sin(g) * (dyad(PSI_MINUS, PHI_MINUS) - dyad(PSI_PLUS, PHI_PLUS))
    ) / (1 + eps)
    x12 = off_diagonal_invariant([r1, r2])
    err1 = op_norm(r1.invariant - hr11)
    err2 = op_norm(r2.invariant - hr12)
    err12 = op_norm(x12 - hr11 @ hr12)
    from holonomy_lab.scenarios import variant_form_X12

    variant_distance = op_norm(x12 - variant_form_X12(s))
    ok = err1 <= 1e-4 and err2 <= 1e-4 and err12 <= 1e-4 and elapsed <= 10.0
    _report(4, ok, (
        f"X1 err {err1:.2e}, X2 err {err2:.2e}, X12 err vs closed-form product "
        f"{err12:.2e} (all <=1e-4), runtime {elapsed:.1f}s (<=10s); distance to the "
        f"coefficient-variant form {variant_distance:.3e} (logged)"
    ))


def test_criterion_5_path_dependence():
    eps = 0.5
    x12_static = closed_form_invariants(BellScenario(epsilon=eps, variant="static"))[2]
    x12_rotating = closed_form_invariants(BellScenario(epsilon=eps, variant="rotating", u=1.0))[2]
    dist = op_norm(x12_static - x12_rotating)
    ok = dist > 1e-3
    _report(5, ok, f"||X12(static) - X12(rotating)|| = {dist:.4f} (>1e-3)")


def test_criterion_6_pure_state_reduction():
    rng = np.random.default_rng(20260101)
    worst = 0.0
    checked = 0
    for trial in range(50):
        dim = (2, 3, 4)[trial % 3]
        Q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        vecs = [Q[:, k] for k in range(dim)]
        H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = (H + H.conj().T) / 2
        for v in vecs:
            H = H - (v.conj() @ H @ v).real * np.outer(v, v.conj())
        U = unitary_exp(H, 1.0)
        for l in (1, 2, 3):
            if l > dim:
                continue
            results = []
            for k in range(l):
                rho = DensityOperator.pure(vecs[k])
                w0 = rho.sqrt
                results.append(TransportResult(U @ rho.support, w0, U @ w0, U @ rho.matrix, 0.0, 0))
            X = off_diagonal_invariant(results)
            barg = complex(1.0)
            for k in range(l):
                barg *= vecs[k].conj() @ U @ vecs[(k + 1) % l]
            diag = nu_functional(np.eye(dim), X)
            if abs(barg) < 1e-6 or not diag.phase_defined:
                continue
            worst = max(worst, angle_diff(diag.phase, float(np.angle(barg))))
            checked += 1
    ok = worst <= 1e-8 and checked >= 100
    _report(6, ok, f"{checked} family/order combinations, worst phase error {worst:.2e} (<=1e-8)")


def test_criterion_7_property_suite():
    results = run_properties(seed=0)
    failed = [r for r in results if not r.passed]
    named = {
        "gauge-invariance": 1e-10,
        "polar-consistency": 1e-8,
        "nodal-necessity": 1e-8,
        "trace-cyclic": 1e-10,
        "reparameterization": 1e-8,
    }
    by_group = {}
    for r in results:
        by_group.setdefault(r.group, []).append(r)
    missing = [g for g in named if g not in by_group]
    ok = not failed and not missing
    _report(7, ok, (
        f"{len(results) - len(failed)}/{len(results)} properties pass under seed 0"
        + ("" if not failed else "; failing: " + ", ".join(r.name for r in failed))
        + ("" if not missing else "; missing groups: " + ", ".join(missing))
    ))


def test_criterion_8_comparison():
    # Rank-1 families: the two phase assignments coincide.
    rng = np.random.default_rng(7)
    worst_pure = 0.0
    for _ in range(10):
        dim = int(rng.integers(3, 5))
        Q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        lam = np.zeros(dim)
        lam[0] = 1.0
        swap = list(range(dim))
        swap[0], swap[1] = 1, 0
        fam = PermutedFamily(lam, Q, (tuple(range(dim)), tuple(swap)))
        H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = (H + H.conj().T) / 2
        for k in range(dim):
            v = Q[:, k]
            H = H - (v.conj() @ H @ v).real * np.outer(v, v.conj())
        rep = discrepancy_report(StaticHamiltonian(H, tau=1.0), fam, l=2)
        if rep.difference is None:
            continue
        worst_pure = max(worst_pure, abs(rep.difference))

    # Full-rank Bell family at eps = 0.5: the assignments differ; the value
    # is regression data, not a closed-form target.
    eps = 0.5
    lam = np.array([1.0, eps, eps**2, eps**3])
    lam = lam / lam.sum()
    V = bell_matrix()
    rng = np.random.default_rng(20260809)
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = (H + H.conj().T) / 2
    for i in range(4):
        v = V[:, i]
        H = H - (v.conj() @ H @ v).real * np.outer(v, v.conj())
    fam = PermutedFamily(lam, V, ((0, 1, 2, 3), (1, 0, 2, 3)))
    rep = discrepancy_report(StaticHamiltonian(H, tau=1.0), fam, l=2,
                             grid=TimeGrid.uniform(1.0, 2000))
    frozen_difference = -0.3832907734  # regression value at this seed and grid
    mixed_ok = (
        rep.difference is not None
        and abs(rep.difference) > 1e-3
        and abs(rep.difference - frozen_difference) < 1e-6
    )
    ok = worst_pure <= 1e-6 and mixed_ok
    _report(8, ok, (
        f"pure families max |gamma - nu| = {worst_pure:.2e} (<=1e-6); mixed Bell family "
        f"difference {rep.difference:.6f} (regression {frozen_difference}, nonzero)"
    ))
