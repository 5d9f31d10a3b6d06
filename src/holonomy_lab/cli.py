"""Command-line front end: scenario files in, structured reports out.

Exit codes: 0 success (an undefined phase is still success), 1 parse or
validation error, 2 numerical failure, 3 property-suite failure.
"""

from __future__ import annotations

import argparse
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
from .linalg import DEFAULT_TOL, op_norm
from .offdiag import holonomy_isometry, nu_functional, sequence_invariants
from .report import UNDEFINED, encode_complex, encode_matrix, fmt, to_csv_rows, to_json, to_text
from .scenario_io import PRESET_PARAMETERS, PRESETS, ScenarioConfig, as_tolerance, load_scenario, parse_scenario
from .scenarios import (
    BELL_INVARIANTS,
    BellScenario,
    bell_basis,
    bell_paths,
    closed_form_invariants,
    evolution_spec,
    variant_form_X12,
)
from .verify import property_groups, run_properties

_PARSE_ERRORS = (ScenarioFormatError, UnknownParameter, NegativeWeight, ValueError)


class _Parser(argparse.ArgumentParser):
    # Flag mistakes are parse errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="holonomy-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="preset name (bell-static, bell-rotating) or scenario file path")
        p.add_argument("--epsilon", default=None, help="Bell mixture weight override (presets only)")
        p.add_argument("--steps", default=None, help="transport grid steps override (presets only)")
        p.add_argument("--u", default=None, help="rotating-frame scale override (presets only)")
        p.add_argument("--tol", default=None, help="global tolerance, 0 < tol < 1 (default 1e-9)")
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
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ScenarioFormatError(f"--output: cannot write {output!r}: {exc.strerror or exc}") from None


def _phase_entry(diag) -> object:
    return diag.phase if diag.phase_defined else UNDEFINED


def _isometry_entry(X, tol: float) -> object:
    """The holonomy isometry of X at the transport tol; undefined when ||X|| <= tol."""
    try:
        return encode_matrix(holonomy_isometry(X, tol))
    except ZeroOperator:
        return UNDEFINED


def _load_config(args) -> ScenarioConfig:
    tol = DEFAULT_TOL if args.tol is None else as_tolerance(args.tol, "--tol")
    if args.scenario in PRESETS:
        cfg = parse_scenario({"format_version": 1, "scenario": args.scenario}, name=args.scenario, base_tol=tol)
    else:
        cfg = load_scenario(args.scenario, base_tol=tol)
    # In the flags' own (alphabetical) order, so the first one given is named.
    flags = {name: getattr(args, name) for name in sorted(PRESET_PARAMETERS) if getattr(args, name) is not None}
    if cfg.preset is None:
        if flags:
            flag = next(iter(flags))
            raise ScenarioFormatError(f"--{flag}: applies to preset scenarios only; {args.scenario} is not one")
        return cfg
    overrides = {}
    for name, value in flags.items():  # each read as its file key is, so --steps 1e3 runs 1000 steps
        attr, convert = PRESET_PARAMETERS[name]
        overrides[attr] = convert(value, f"--{name}")
    cfg.preset = replace(cfg.preset, **overrides)
    return cfg


def _comparison(s: BellScenario) -> dict:
    """The pure limit's interferometric phase beside the holonomy phase."""
    psi_plus, psi_minus, phi_plus, phi_minus = bell_basis()
    family = PermutedFamily(
        np.array([1.0, 0.0, 0.0, 0.0]),
        np.column_stack([psi_minus, phi_plus, psi_plus, phi_minus]),
        ((0, 1, 2, 3), (1, 0, 2, 3)),
    )
    comp = discrepancy_report(evolution_spec(s), family, l=2)
    return {
        "gamma": comp.gamma if comp.interferometric.defined else UNDEFINED,
        "gamma_trace": encode_complex(comp.interferometric.trace),
        "nu": comp.nu if comp.nu is not None else UNDEFINED,
        "difference": comp.difference if comp.difference is not None else UNDEFINED,
    }


def _report(cfg: ScenarioConfig, dump_isometry: bool) -> dict:
    """The report of a preset or a file scenario, for run and each sweep row; presets add their closed forms."""
    tol = cfg.tolerances["transport"]
    phase_tol = cfg.tolerances["phase"]
    s = cfg.preset
    if s is None:
        states, spec, grid = cfg.states, cfg.spec, cfg.grid
        sequences, observables, prefix, closed = cfg.invariants, cfg.observables, "X_", {}
        parameters = {"dimension": cfg.dimension, "steps": grid.n_steps, "tau": grid.tau}
    else:
        states, spec, grid = bell_paths(s)
        sequences, observables, prefix = BELL_INVARIANTS, {}, "X"
        closed = dict(zip(BELL_INVARIANTS, closed_form_invariants(s)))
        parameters = {"variant": s.variant, "epsilon": s.epsilon, "u": s.u, "steps": s.n_steps, "tau": s.tau}
    invariants, residuals = sequence_invariants(states, spec, grid, sequences, tol)
    eye = np.eye(spec.dim, dtype=complex)
    blocks = []
    for seq in sequences:
        X = invariants[seq]
        diag = nu_functional(eye, X, phase_tol)
        block = {
            "name": prefix + "".join(str(j) for j in seq),
            "indices": list(seq),
            "trace": encode_complex(diag.trace),
            "trace_magnitude": diag.trace_magnitude,
            "nu": _phase_entry(diag),
            "support_overlap": diag.support_overlap,
        }
        if closed:
            block["closed_form_error"] = op_norm(X - closed[seq])
        for obs_name, A in observables.items():
            obs = nu_functional(A, X, phase_tol)
            block[f"nu[{obs_name}]"] = _phase_entry(obs)
            block[f"trace[{obs_name}]"] = encode_complex(obs.trace)
        if dump_isometry:
            block["isometry"] = _isometry_entry(X, tol)
        blocks.append(block)
    report = {
        "format_version": 1,
        "scenario": cfg.name,
        "parameters": parameters,
        "invariants": blocks,
        "transport": {
            "n_steps": grid.n_steps,
            "max_step_parallelity_residual": max(residuals.values()),
            "per_path": residuals,
        },
    }
    if s is not None:
        report["forms"] = {"variant_form_distance": op_norm(closed[(1, 2)] - variant_form_X12(s))}
    return report


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    report = _report(cfg, args.dump_isometry)
    if cfg.preset is not None and cfg.preset.epsilon == 0.0:
        # Pure limit: the interferometric pipeline is on equal footing.
        report["comparison"] = _comparison(cfg.preset)
    if args.format == "json":
        text = to_json(report) + "\n"
    elif args.format == "csv":
        text = to_csv_rows(report)
    else:
        text = to_text(report)
    _emit(text, args.output)
    return 0


def _cmd_sweep(args) -> int:
    if args.parameter not in PRESET_PARAMETERS:
        raise UnknownParameter(
            f"parameter must be one of {', '.join(sorted(PRESET_PARAMETERS))}, got {args.parameter!r}"
        )
    # The rules of the matching scenario-file keys: steps must be integers.
    attr, convert = PRESET_PARAMETERS[args.parameter]
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
        blocks = _report(replace(cfg, preset=replace(cfg.preset, **{attr: value})), False)["invariants"]
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        x1, _, x12 = blocks
        cells = [
            value,
            x1["trace_magnitude"],
            x12["trace_magnitude"],
            x12["nu"],
            x1["support_overlap"],
            x12["support_overlap"],
            max(block["closed_form_error"] for block in blocks),
            elapsed_ms,
        ]
        lines.append(",".join(c if c == UNDEFINED else fmt(c) for c in cells))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ScenarioFormatError(f"--seed: expected a non-negative integer, got {args.seed}")
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
