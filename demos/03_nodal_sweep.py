# Sweep the mixture weight: nodal at order 1, resolved at order 2.
#
# For every eps > 0 the order-1 invariants have orthogonal left and right
# supports (undefined phase), while the order-2 invariant keeps full
# support overlap and the phase pi. The static and rotating paths agree
# at eps = 0 (pure state) and disagree for any genuine mixture: the
# off-diagonal holonomy is a path functional, not a function of the
# endpoint states.

import numpy as np

from holonomy_lab import (
    BELL_INVARIANTS,
    BellScenario,
    bell_paths,
    closed_form_invariants,
    nu_functional,
    sequence_invariants,
)
from holonomy_lab.linalg import op_norm

print(" eps   |Tr X1|   overlap(X1)  overlap(X12)  nu(X12)   ||X12_s - X12_r||")
for eps in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
    scenario = BellScenario(epsilon=eps, variant="static", n_steps=500)
    invariants, _ = sequence_invariants(*bell_paths(scenario), BELL_INVARIANTS)
    d1, d12 = (nu_functional(np.eye(4), invariants[seq]) for seq in ((1,), (1, 2)))
    x12_s = closed_form_invariants(BellScenario(epsilon=eps, variant="static"))[2]
    x12_r = closed_form_invariants(BellScenario(epsilon=eps, variant="rotating", u=1.0))[2]
    nu = f"{d12.phase:+.4f}" if d12.phase_defined else "undef"
    print(
        f"{eps:4.2f}  {d1.trace_magnitude:9.2e}  {d1.support_overlap:11.2e}"
        f"  {d12.support_overlap:12.3f}  {nu:>8}  {op_norm(x12_s - x12_r):12.3e}"
    )

print()
print("The same sweep is available from the command line:")
print("  holonomy-lab sweep --scenario bell-static --parameter epsilon "
      "--values 0,0.25,0.5,1,2")
