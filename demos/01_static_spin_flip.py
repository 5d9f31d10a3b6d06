# Transport of a Bell mixture through a static spin flip.
#
# The order-1 holonomy invariant maps the Psi plane onto the Phi plane, so
# its trace vanishes identically: the relative phase between the initial
# and final state is undefined (a nodal point). Chaining two paths into
# the order-2 invariant lands back on the Phi plane, where the phase is
# defined and equals pi.

import numpy as np

from holonomy_lab import (
    BELL_INVARIANTS,
    BellScenario,
    bell_mixture,
    bell_paths,
    closed_form_invariants,
    holonomy_isometry,
    nu_functional,
    sequence_invariants,
    to_bell_basis,
    variant_form_X12,
)
from holonomy_lab.linalg import op_norm

np.set_printoptions(precision=4, suppress=True, linewidth=120)

eps = 0.5
scenario = BellScenario(epsilon=eps, variant="static", n_steps=2000)
invariants, _ = sequence_invariants(*bell_paths(scenario), BELL_INVARIANTS)
names = ("X1", "X2", "X12")
xs = [invariants[seq] for seq in BELL_INVARIANTS]
closed = closed_form_invariants(scenario)

print(f"Bell mixture with weight eps = {eps}")
print("rho1(0) in the Bell basis (Psi+, Psi-, Phi+, Phi-):")
print(np.real_if_close(to_bell_basis(bell_mixture(eps).matrix)))
print()

for name, x in zip(names, xs):
    d = nu_functional(np.eye(4), x)
    nu = "undefined" if not d.phase_defined else f"{d.phase:+.6f} rad"
    print(f"{name:>4}: |trace| = {d.trace_magnitude:.3e}   support overlap = "
          f"{d.support_overlap:.3e}   nu = {nu}")

print()
print("Distance of each transported invariant to its closed form:")
for name, x, cf in zip(names, xs, closed):
    print(f"  {name}: {op_norm(x - cf):.3e}")

print()
print("X12 in the Bell basis (pure Phi-plane block, negative definite):")
print(np.round(to_bell_basis(xs[2]), 6))
print()
print("Holonomy isometry of X12 (minus the Phi-plane projector):")
print(np.real_if_close(np.round(to_bell_basis(holonomy_isometry(xs[2])), 10)))
print()
print("Variant-form distance for the order-2 invariant "
      f"(vanishes at eps = 1): {op_norm(closed[2] - variant_form_X12(scenario)):.4f}")
