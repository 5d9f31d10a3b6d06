"""Command-line front end: scenario files in, structured reports out.

Exit codes: 0 success (an undefined phase is still success), 1 parse or
validation error, 2 numerical failure, 3 property-suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .compare import PermutedFamily, discrepancy_report
from .errors import (
    HolonomyError,
    NegativeWeight,
    ScenarioFormatError,
    UnknownParameter,
    ZeroOperator,
)
from .evolution import density_path
from .linalg import DEFAULT_TOL
from .offdiag import holonomy_isometry, nu_functional, off_diagonal_invariant
from .report import UNDEFINED, encode_complex, encode_matrix, fmt, to_csv_rows, to_json, to_text
from .scenario_io import PRESETS, ScenarioConfig, _as_int, _as_number, as_tolerance, load_scenario, parse_scenario
from .scenarios import BellScenario, bell_basis, evolution_spec, run_bell_scenario
from .transport import discrete_holonomy
from .verify import property_groups, run_properties

_PARSE_ERRORS = (ScenarioFormatError, UnknownParameter, NegativeWeight, ValueError)


class _Parser(argparse.ArgumentParser):
    # Flag mistakes are parse errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _base_tol(args) -> float:
    """The --tol flag, else HOLONOMY_LAB_TOL, else DEFAULT_TOL; 0 < tol < 1."""
    if args.tol is not None:
        return as_tolerance(args.tol, "--tol")
    raw = os.environ.get("HOLONOMY_LAB_TOL")
    return DEFAULT_TOL if raw is None else as_tolerance(raw, "HOLONOMY_LAB_TOL")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="holonomy-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="preset name (bell-static, bell-rotating) or scenario file path")
        p.add_argument("--epsilon", type=float, default=None, help="Bell mixture weight override")
        p.add_argument("--steps", type=int, default=None, help="transport grid steps override")
        p.add_argument("--u", type=float, default=None, help="rotating-frame scale override")
        p.add_argument("--tol", type=float, default=None, help="global tolerance, 0 < tol < 1 (default HOLONOMY_LAB_TOL or 1e-9)")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    run_p = sub.add_parser("run", help="run one scenario and emit a report")
    common(run_p)
    run_p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    run_p.add_argument("--dump-isometry", action="store_true", help="include the holonomy isometry matrices")

    sweep_p = sub.add_parser("sweep", help="run a scenario across parameter values, emit CSV")
    common(sweep_p)
    sweep_p.add_argument("--parameter", required=True, help="one of: epsilon, steps, u")
    sweep_p.add_argument("--values", required=True, help="comma-separated list (may be empty)")

    verify_p = sub.add_parser("verify", help="run the seeded property suite")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--only", default=None, help=f"restrict to one group: {', '.join(property_groups())}")
    verify_p.add_argument("--output", default=None)
    return parser


def _emit(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _phase_entry(diag) -> object:
    return diag.phase if diag.phase_defined else UNDEFINED


def _isometry_entry(X, tol: float) -> object:
    """The holonomy isometry of X at the transport tol; undefined when ||X|| <= tol."""
    try:
        return encode_matrix(holonomy_isometry(X, tol))
    except ZeroOperator:
        return UNDEFINED


def _diag_block(diag, closed_form_error=None):
    block = {
        "trace": encode_complex(diag.trace),
        "trace_magnitude": diag.trace_magnitude,
        "nu": _phase_entry(diag),
        "support_overlap": diag.support_overlap,
    }
    if closed_form_error is not None:
        block["closed_form_error"] = closed_form_error
    return block


def _load_config(args) -> ScenarioConfig:
    tol = _base_tol(args)
    if args.scenario in PRESETS:
        cfg = parse_scenario({"format_version": 1, "scenario": args.scenario}, name=args.scenario, base_tol=tol)
    else:
        cfg = load_scenario(args.scenario, base_tol=tol)
    if cfg.preset is not None:
        flags = {"epsilon": args.epsilon, "u": args.u, "n_steps": args.steps}
        cfg.preset = replace(cfg.preset, **{k: v for k, v in flags.items() if v is not None})
    return cfg


def _run_preset(cfg: ScenarioConfig, s: BellScenario):
    return run_bell_scenario(s, tol=cfg.tolerances["transport"], phase_tol=cfg.tolerances["phase"])


def _report_preset(cfg: ScenarioConfig, dump_isometry: bool) -> dict:
    s = cfg.preset
    rep = _run_preset(cfg, s)
    invariants = []
    for name, indices in (("X1", [1]), ("X2", [2]), ("X12", [1, 2])):
        block = {"name": name, "indices": indices}
        block.update(_diag_block(rep.diagnoses[name], rep.closed_form_errors[name]))
        if dump_isometry:
            block["isometry"] = _isometry_entry(getattr(rep, name), cfg.tolerances["transport"])
        invariants.append(block)
    report = {
        "format_version": 1,
        "scenario": cfg.name,
        "parameters": {
            "variant": s.variant,
            "epsilon": s.epsilon,
            "u": s.u,
            "steps": s.n_steps,
            "tau": s.tau,
        },
        "invariants": invariants,
        "transport": {
            "n_steps": s.n_steps,
            "max_step_parallelity_residual": max(rep.transport_residuals.values()),
            "per_path": dict(rep.transport_residuals),
        },
        "forms": {"variant_form_distance": rep.variant_form_distance},
    }
    if s.epsilon == 0.0:
        # Pure limit: the interferometric pipeline is on equal footing.
        psi_plus, psi_minus, phi_plus, phi_minus = bell_basis()
        family = PermutedFamily(
            np.array([1.0, 0.0, 0.0, 0.0]),
            np.column_stack([psi_minus, phi_plus, psi_plus, phi_minus]),
            ((0, 1, 2, 3), (1, 0, 2, 3)),
        )
        comp = discrepancy_report(evolution_spec(s), family, l=2)
        report["comparison"] = {
            "gamma": comp.gamma if comp.interferometric.defined else UNDEFINED,
            "gamma_trace": encode_complex(comp.interferometric.trace),
            "nu": comp.nu if comp.nu is not None else UNDEFINED,
            "difference": comp.difference if comp.difference is not None else UNDEFINED,
        }
    return report


def _report_generic(cfg: ScenarioConfig, dump_isometry: bool) -> dict:
    tol = cfg.tolerances["transport"]
    phase_tol = cfg.tolerances["phase"]
    needed = sorted({j for seq in cfg.invariants for j in seq})
    results = {}
    residuals = {}
    for j in needed:
        path = density_path(cfg.states[j - 1], cfg.spec, cfg.grid)
        res = discrete_holonomy(path, tol)
        results[j] = res
        residuals[f"path{j}"] = res.max_step_parallelity_residual
    eye = np.eye(cfg.dimension, dtype=complex)
    invariants = []
    for seq in cfg.invariants:
        X = off_diagonal_invariant([results[j] for j in seq], indices=seq)
        name = "X_" + "".join(str(j) for j in seq)
        block = {"name": name, "indices": list(seq)}
        block.update(_diag_block(nu_functional(eye, X, phase_tol)))
        for obs_name, A in cfg.observables.items():
            obs = nu_functional(A, X, phase_tol)
            block[f"nu[{obs_name}]"] = _phase_entry(obs)
            block[f"trace[{obs_name}]"] = encode_complex(obs.trace)
        if dump_isometry:
            block["isometry"] = _isometry_entry(X, tol)
        invariants.append(block)
    return {
        "format_version": 1,
        "scenario": cfg.name,
        "parameters": {"dimension": cfg.dimension, "steps": cfg.grid.n_steps, "tau": cfg.grid.tau},
        "invariants": invariants,
        "transport": {
            "n_steps": cfg.grid.n_steps,
            "max_step_parallelity_residual": max(residuals.values()),
            "per_path": residuals,
        },
    }


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if cfg.preset is not None:
        report = _report_preset(cfg, args.dump_isometry)
    else:
        report = _report_generic(cfg, args.dump_isometry)
    if args.format == "json":
        text = to_json(report) + "\n"
    elif args.format == "csv":
        text = to_csv_rows(report)
    else:
        text = to_text(report)
    _emit(text, args.output)
    return 0


# Sweep parameter -> (BellScenario field, parser of one value).
_SWEEP_PARAMETERS = {"epsilon": ("epsilon", _as_number), "steps": ("n_steps", _as_int), "u": ("u", _as_number)}


def _cmd_sweep(args) -> int:
    if args.parameter not in _SWEEP_PARAMETERS:
        raise UnknownParameter(
            f"parameter must be one of {', '.join(_SWEEP_PARAMETERS)}, got {args.parameter!r}"
        )
    # The rules of the matching scenario-file keys: steps must be integers.
    attr, convert = _SWEEP_PARAMETERS[args.parameter]
    values = [convert(v, "values") for v in args.values.split(",") if v.strip()]
    cfg = _load_config(args)
    if cfg.preset is None:
        raise ScenarioFormatError("sweep: only preset scenarios can be swept")
    header = (
        "parameter,abs_trace_X1,abs_trace_X12,nu_X12,support_overlap_X1,"
        "support_overlap_X12,closed_form_error,wall_time_ms"
    )
    lines = [header]
    for value in values:
        started = time.perf_counter()
        rep = _run_preset(cfg, replace(cfg.preset, **{attr: value}))
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        d1, d12 = rep.diagnoses["X1"], rep.diagnoses["X12"]
        nu12 = fmt(d12.phase) if d12.phase_defined else UNDEFINED
        lines.append(
            ",".join(
                [
                    fmt(value),
                    fmt(d1.trace_magnitude),
                    fmt(d12.trace_magnitude),
                    nu12,
                    fmt(d1.support_overlap),
                    fmt(d12.support_overlap),
                    fmt(max(rep.closed_form_errors.values())),
                    fmt(elapsed_ms),
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    try:
        results = run_properties(seed=args.seed, only=args.only)
    except ValueError as exc:
        raise UnknownParameter(str(exc))
    lines = [r.line() for r in results]
    failed = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} properties passed (seed={args.seed})")
    _emit("\n".join(lines) + "\n", args.output)
    return 3 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except np.linalg.LinAlgError as exc:
        # A ValueError subclass, but a failed decomposition is numerical.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HolonomyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy raises it for an array too large to allocate, e.g. a huge --steps.
        print(f"numerical failure: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
