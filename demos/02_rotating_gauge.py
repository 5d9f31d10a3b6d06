# The rotating spin-flipper drive and its closed-form ancilla gauge.
#
# The drive implements the same flip as the static Hamiltonian, but along
# a different path in state space. Parallel transport then requires a
# nontrivial gauge B(t) on the ancilla: a rotation inside the Psi plane
# with angle gamma(t) = sqrt(eps) * u * t / (1 + eps). We verify that
# the closed form solves the operator transport equation with
# second-order accuracy in the grid, then recover the same gauge
# numerically from the transported amplitudes.

from holonomy_lab import (
    AncillaGauge,
    BellScenario,
    TimeGrid,
    bell_mixture,
    closed_form_B_r1,
    evolution_spec,
    solve_ancilla_gauge,
    transport_equation_residual,
)
from holonomy_lab.linalg import op_norm

s = BellScenario(epsilon=0.5, variant="rotating", u=1.0)
spec = evolution_spec(s)
rho1 = bell_mixture(s.epsilon)

print("Transport-equation residual of the closed-form gauge:")
print(" n      residual      ratio")
previous = None
for n in (250, 500, 1000, 2000, 4000):
    grid = TimeGrid.uniform(s.tau, n)
    gauge = AncillaGauge(
        samples=tuple(closed_form_B_r1(s, float(t)) for t in grid.times), grid=grid
    )
    r = transport_equation_residual(spec, gauge, rho1)
    ratio = "" if previous is None else f"{previous / r:10.3f}"
    print(f"{n:5d}  {r:.6e}  {ratio}")
    previous = r
print("(ratio -> 4 per grid doubling: second order)")

print()
print("Recovering B(t) from the discrete transport (n = 2000):")
grid = TimeGrid.uniform(s.tau, 2000)
recovered = solve_ancilla_gauge(spec, rho1, grid)
worst = max(
    op_norm(B - closed_form_B_r1(s, float(t)))
    for B, t in zip(recovered.samples, grid.times)
)
print(f"  max deviation from the closed form: {worst:.3e}")
print(f"  gauge restricted to the state's support (rank deficient): "
      f"{recovered.rank_deficient}")

print()
print("With the constant gauge instead, the transport equation fails:")
gauge_const = AncillaGauge(samples=tuple(rho1.support for _ in grid.times), grid=grid)
print(f"  residual = {transport_equation_residual(spec, gauge_const, rho1):.4f}")
