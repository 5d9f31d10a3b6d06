"""Per-layer metrics of the traced run, and what each one should move.

``TRACED`` names the public functions (and the one class) the traced
replay wraps in spans, by module. ``PER_LAYER`` lists every per-layer
metric in the order the benchmark reports it, with its unit, its
direction and the end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

TRACED = {
    "evolution": ("unitary_at", "density_path"),
    "state": ("DensityOperator", "parallelity_residual"),
    "transport": ("discrete_holonomy",),
    "offdiag": ("off_diagonal_invariant", "nu_functional", "holonomy_isometry"),
    "compare": ("discrepancy_report",),
    "scenarios": ("closed_form_invariants",),
    "scenario_io": ("load_scenario", "parse_scenario"),
    "report": ("to_json",),
}

# Timed on the workload's own matrices, in microseconds per call.
LINALG = ("op_norm", "unitary_exp", "hermitian_sqrt", "polar_isometry")

# The groups of the property suite, as ``holonomy-lab verify --only`` names them.
VERIFY_GROUPS = (
    "bell-nodal-grid", "factorization", "gauge-invariance", "gauge-residual-convergence",
    "global-phase", "hermitian-sqrt", "integrator-oracle", "interferometric-pure",
    "nodal-necessity", "parallelity-steps", "path-dependence", "path-spectrum",
    "polar-consistency", "pure-state-reduction", "purification", "reference-return",
    "reparameterization", "root-power", "support-projectors", "trace-cyclic",
    "transition-probability", "transport-convergence", "unitary-exp",
)

_S, _CALLS, _US = "s", "count", "us"

PER_LAYER = (
    ("evolution.unitary_at.s", _S, "wall_s on bell-long (rotating branch) and sampled-file (grid scan)"),
    ("evolution.unitary_at.calls", _CALLS, "wall_s on bell-long and sampled-file"),
    ("evolution.density_path.s", _S, "wall_s on bell-long and wide-generic"),
    ("state.DensityOperator.s", _S, "wall_s on bell-long (n+1 states built and validated per path)"),
    ("state.DensityOperator.calls", _CALLS, "wall_s on bell-long"),
    ("state.parallelity_residual.s", _S, "wall_s on bell-long (n residuals per path)"),
    ("state.parallelity_residual.calls", _CALLS, "wall_s on bell-long"),
    ("transport.discrete_holonomy.s", _S, "wall_s on bell-long (overhead) and wide-generic (arithmetic)"),
    ("offdiag.off_diagonal_invariant.s", _S, "wall_s on wide-generic and verify-suite"),
    ("offdiag.nu_functional.s", _S, "wall_s on wide-generic and verify-suite"),
    ("offdiag.holonomy_isometry.s", _S, "wall_s on wide-generic and verify-suite"),
    ("compare.discrepancy_report.s", _S, "wall_s on bell-long (the eps = 0 op)"),
    ("scenarios.closed_form_invariants.s", _S, "wall_s on bell-long"),
    ("scenario_io.load_scenario.s", _S, "wall_s on sampled-file (YAML parsing); small on wide-generic"),
    ("scenario_io.parse_scenario.s", _S, "wall_s on sampled-file; load minus parse is YAML parsing"),
    ("report.to_json.s", _S, "wall_s on every run workload"),
    *((f"verify.{group}.s", _S, "wall_s on verify-suite") for group in VERIFY_GROUPS),
    *((f"linalg.{name}.us", _US, "wall_s on bell-long at d = 4 (dispatch), wide-generic at d = 32 (arithmetic)")
      for name in LINALG),
    ("cli.import.s", _S, "setup_s on every workload"),
    ("trace.overhead_s", _S, "none: traced replay total minus the untraced wall_s"),
    ("trace.unaccounted_frac", "fraction", "none: share of the replay that no span covers"),
)
