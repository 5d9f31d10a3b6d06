"""Output oracles and the benchmark-local reference transporter.

Each ``check_*`` function takes one op's exit code and standard output
and returns a list of problems; an empty list means the output is
correct. The reference transporter is plain numpy written from the
paper's definition, independent of the package under test.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

TOL = 1e-9  # the CLI's default rank and phase tolerance
PRESET_CLOSED_FORM = 1e-6
PRESET_PHASE = 1e-9
GENERIC_MATCH = 1e-8
MAX_RESIDUAL = 1e-8
_CHUNK = 256


def wrapped(delta: float) -> float:
    """|delta| reduced to the distance on the circle, in [0, pi]."""
    return abs(math.remainder(delta, 2 * math.pi))


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def reference_invariant(rho0: np.ndarray, unitaries: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Holonomy invariant W(tau) W^dag(0) of the path rho_k = U_k rho0 U_k^dag.

    The lift starts at rho(0)^{1/2}. Each step applies the partial
    isometry of the polar decomposition of rho_{k+1}^{1/2} rho_k^{1/2},
    cut at tol * sigma_max, so that consecutive amplitudes are parallel.
    On a unitary orbit rho_k^{1/2} = U_k rho0^{1/2} U_k^dag.
    """
    w, v = np.linalg.eigh(rho0)
    root0 = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    kept = v[:, w > tol * max(w[-1], tol)]
    lift = kept @ kept.conj().T  # the phase factor, restricted to supp rho(0)
    first = prev = None
    n = unitaries.shape[0]
    for lo in range(0, n, _CHUNK):
        us = unitaries[lo:lo + _CHUNK + 1]
        roots = us @ root0 @ np.conj(np.swapaxes(us, 1, 2))
        if first is None:
            first = roots[0]
        u, s, vh = np.linalg.svd(roots[1:] @ roots[:-1])
        keep = s > tol * s[:, :1]
        steps = (u * keep[:, None, :]) @ vh
        for step in steps:
            lift = step @ lift
        prev = roots[-1]
        if lo + _CHUNK + 1 >= n:
            break
    return prev @ lift @ first


def reference_isometry(x: np.ndarray, tol: float = TOL) -> np.ndarray:
    u, s, vh = np.linalg.svd(x)
    keep = s > tol * s[0]
    return u[:, keep] @ vh[keep, :]


def reference_report(inp) -> list[dict]:
    """Expected trace, phases and isometry of every invariant of a generic input."""
    single = {}
    for seq in inp.invariants:
        for j in seq:
            if j not in single:
                single[j] = reference_invariant(inp.states[j - 1], inp.unitaries)
    expected = []
    for seq in inp.invariants:
        x = np.eye(inp.dim, dtype=complex)
        for j in seq:
            x = x @ single[j]
        traces = {"": complex(np.trace(x))}
        for name, a in inp.observables.items():
            traces[name] = complex(np.trace(a @ x))
        expected.append({
            "name": "X_" + "".join(str(j) for j in seq),
            "traces": traces,
            "isometry": reference_isometry(x),
        })
    return expected


def _parse_json(code: int, out: str, problems: list) -> dict | None:
    if code != 0:
        problems.append(f"exit code {code}")
        return None
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None
    if not isinstance(report, dict) or not isinstance(report.get("invariants"), list):
        problems.append("report has no invariants list")
        return None
    return report


def _check_phase(label: str, trace: complex, nu, problems: list, expected_defined: bool):
    """The reported phase must be arg(trace), or 'undefined' when expected so."""
    if nu == "undefined":
        if expected_defined:
            problems.append(f"{label}: phase undefined, expected defined")
        return
    if not isinstance(nu, (int, float)):
        problems.append(f"{label}: phase {nu!r} is neither a number nor 'undefined'")
        return
    if not expected_defined:
        problems.append(f"{label}: phase {nu!r}, expected undefined")
    if wrapped(nu - math.atan2(trace.imag, trace.real)) > PRESET_PHASE:
        problems.append(f"{label}: phase {nu!r} is not arg of trace {trace!r}")


def _check_residual(report: dict, problems: list) -> None:
    """Consecutive transported amplitudes must be parallel."""
    residual = report.get("transport", {}).get("max_step_parallelity_residual")
    if not isinstance(residual, (int, float)) or not residual <= MAX_RESIDUAL:
        problems.append(f"transport residual {residual!r} > {MAX_RESIDUAL}")


def check_preset(code: int, out: str, expect: dict) -> list[str]:
    """Bell presets: closed forms, nodal points, the order-2 phase pi."""
    problems: list[str] = []
    report = _parse_json(code, out, problems)
    if report is None:
        return problems
    params = report.get("parameters", {})
    if params.get("steps") != expect["steps"] or params.get("epsilon") != expect["epsilon"]:
        problems.append(f"parameters {params!r} do not echo the request")
    by_name = {inv.get("name"): inv for inv in report["invariants"]}
    if sorted(by_name) != ["X1", "X12", "X2"]:
        return problems + [f"invariants {sorted(by_name)}, expected X1, X2, X12"]
    for name, inv in by_name.items():
        err = inv.get("closed_form_error")
        if not isinstance(err, (int, float)) or not err <= PRESET_CLOSED_FORM:
            problems.append(f"{name}: closed_form_error {err!r} > {PRESET_CLOSED_FORM}")
        trace = _complex(inv["trace"])
        if abs(abs(trace) - inv["trace_magnitude"]) > PRESET_PHASE * max(1.0, abs(trace)):
            problems.append(f"{name}: trace_magnitude {inv['trace_magnitude']!r} != |{trace!r}|")
        _check_phase(name, trace, inv.get("nu"), problems, expected_defined=name == "X12")
    nu12 = by_name["X12"].get("nu")
    if isinstance(nu12, (int, float)) and wrapped(nu12 - math.pi) > PRESET_PHASE:
        problems.append(f"X12: phase {nu12!r}, expected pi")
    if expect["epsilon"] == 0.0:
        diff = report.get("comparison", {}).get("difference")
        if diff != 0:
            problems.append(f"comparison.difference {diff!r}, expected 0")
    _check_residual(report, problems)
    return problems


def check_generic(code: int, out: str, inp, expected: list[dict]) -> list[str]:
    """Generated files: traces, phases and isometries match the reference to 1e-8."""
    problems: list[str] = []
    report = _parse_json(code, out, problems)
    if report is None:
        return problems
    params = report.get("parameters", {})
    if params.get("dimension") != inp.dim or params.get("steps") != inp.n_steps:
        problems.append(f"parameters {params!r} do not match the file")
    invs = report["invariants"]
    if [inv.get("name") for inv in invs] != [e["name"] for e in expected]:
        return problems + [f"invariant names {[inv.get('name') for inv in invs]!r}"]
    for inv, exp in zip(invs, expected):
        for obs, want in exp["traces"].items():
            key = "trace" if not obs else f"trace[{obs}]"
            label = f"{exp['name']}.{key}"
            got = _complex(inv[key])
            if abs(got - want) > GENERIC_MATCH:
                problems.append(f"{label}: {got!r} vs reference {want!r}")
            nu = inv.get("nu" if not obs else f"nu[{obs}]")
            defined = abs(want) > TOL * inp.dim
            if nu == "undefined" or not isinstance(nu, (int, float)):
                if defined:
                    problems.append(f"{label}: phase {nu!r}, reference {want!r} is defined")
            elif wrapped(nu - math.atan2(want.imag, want.real)) > GENERIC_MATCH:
                problems.append(f"{label}: phase {nu!r} vs reference arg {want!r}")
        got = np.array([[_complex(z) for z in row] for row in inv["isometry"]])
        if got.shape != exp["isometry"].shape or np.max(np.abs(got - exp["isometry"])) > GENERIC_MATCH:
            problems.append(f"{exp['name']}.isometry differs from the reference polar isometry")
    _check_residual(report, problems)
    return problems


_SUMMARY = re.compile(r"^(\d+)/(\d+) properties passed \(seed=(-?\d+)\)$")


def check_verify(code: int, out: str, expect: dict) -> list[str]:
    """The property suite: exit 0 and 'N/N properties passed' over N PASS lines."""
    problems: list[str] = []
    if code != 0:
        problems.append(f"exit code {code}")
    lines = out.rstrip("\n").split("\n")
    match = _SUMMARY.match(lines[-1])
    if match is None:
        return problems + [f"last line {lines[-1]!r} is not the summary"]
    passed, total, seed = (int(g) for g in match.groups())
    if passed != total or total < 1:
        problems.append(f"{passed}/{total} properties passed")
    if total != len(lines) - 1 or not all(line.startswith("PASS ") for line in lines[:-1]):
        problems.append(f"summary counts {total} but {len(lines) - 1} property lines are not all PASS")
    if seed != expect["seed"]:
        problems.append(f"suite ran seed {seed}, expected {expect['seed']}")
    return problems


def check_version(code: int, out: str) -> list[str]:
    if code != 0 or not out.startswith("holonomy-lab "):
        return [f"--version: exit code {code}, output {out[:60]!r}"]
    return []
