"""Scenario file loading and validation.

Files are a plain nested key-value format (a YAML subset) and must carry
``format_version: 1``. A file either names a preset scenario
(``scenario: bell-static`` or ``bell-rotating`` plus parameter overrides)
or spells out states, an evolution, a grid, and which invariant index
sequences to assemble. Complex entries are written as [re, im] pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .errors import GridMiss, InvalidState, ScenarioFormatError
from .evolution import RotatingFrame, SampledUnitaries, StaticHamiltonian, TimeGrid, time_slack
from .linalg import DEFAULT_TOL, is_orthonormal
from .scenarios import BellScenario, bell_mixture
from .state import DensityOperator

__all__ = ["ScenarioConfig", "as_tolerance", "load_scenario", "parse_scenario", "PRESETS"]

PRESETS = ("bell-static", "bell-rotating")

# PyYAML's safe loader, with libyaml's C parser where PyYAML was built with it.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class ScenarioConfig:
    """Validated contents of a scenario file."""

    name: str
    preset: BellScenario | None = None
    dimension: int | None = None
    states: list = field(default_factory=list)
    spec: object | None = None
    grid: TimeGrid | None = None
    invariants: list = field(default_factory=list)
    observables: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)


def _fail(fieldname: str, message: str):
    raise ScenarioFormatError(f"{fieldname}: {message}")


def _as_float(value, fieldname: str) -> float:
    """A number, or a string that reads as one; nan and inf pass."""
    if isinstance(value, str):
        # YAML 1.1 reads bare scientific notation like 1e-9 as a string.
        try:
            return float(value)
        except ValueError:
            _fail(fieldname, f"expected a number, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(fieldname, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return float("inf")


def _as_number(value, fieldname: str) -> float:
    """A finite number: nan and inf fail here, before any arithmetic sees them."""
    number = _as_float(value, fieldname)
    if not math.isfinite(number):
        _fail(fieldname, f"expected a finite number, got {value!r}")
    return number


def as_tolerance(value, fieldname: str) -> float:
    """A tolerance: a finite number with 0 < tol < 1."""
    tol = _as_float(value, fieldname)
    if not 0.0 < tol < 1.0:  # also rejects nan and inf
        _fail(fieldname, f"expected a finite number with 0 < tol < 1, got {tol!r}")
    return tol


def _as_int(value, fieldname: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        # Strings count as for _as_number (YAML 1.1 reads 1e3 as a string).
        number = float(value) if isinstance(value, (str, float)) else None
    except ValueError:
        number = None
    if number is None or not number.is_integer():
        _fail(fieldname, f"expected an integer, got {value!r}")
    return int(number)


def _as_complex(entry, fieldname: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(_as_number(entry, fieldname))
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(_as_number(entry[0], fieldname), _as_number(entry[1], fieldname))
    _fail(fieldname, f"expected a real number or [re, im] pair, got {entry!r}")


def _as_list(value, fieldname: str) -> list:
    if not isinstance(value, list):
        _fail(fieldname, "expected a list")
    return value


def _as_matrix(value, fieldname: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(fieldname, "expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            _fail(f"{fieldname}[{i}]", "expected a list of entries")
        rows.append([_as_complex(v, f"{fieldname}[{i}][{j}]") for j, v in enumerate(row)])
    M = np.array(rows, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        _fail(fieldname, f"expected a square matrix, got shape {M.shape}")
    return M


def _as_vector(value, fieldname: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        _fail(fieldname, "expected a non-empty list of entries")
    return np.array([_as_complex(v, f"{fieldname}[{j}]") for j, v in enumerate(value)], dtype=complex)


def _parse_state(entry, fieldname: str) -> DensityOperator:
    if not isinstance(entry, dict):
        _fail(fieldname, "expected a mapping describing one state")
    try:
        if "preset" in entry:
            preset = entry["preset"]
            if preset == "bell-mixture":
                return bell_mixture(_as_number(entry.get("epsilon", 0.0), f"{fieldname}.epsilon"))
            if preset == "maximally-mixed":
                dim = _as_int(entry.get("dimension", 2), f"{fieldname}.dimension")
                return DensityOperator.maximally_mixed(dim)
            _fail(f"{fieldname}.preset", f"unknown state preset {preset!r}")
        if "matrix" in entry:
            return DensityOperator(_as_matrix(entry["matrix"], f"{fieldname}.matrix"))
        if "vector" in entry:
            return DensityOperator.pure(_as_vector(entry["vector"], f"{fieldname}.vector"))
        if "eigenvalues" in entry:
            lam = [
                _as_number(v, f"{fieldname}.eigenvalues[{i}]")
                for i, v in enumerate(_as_list(entry["eigenvalues"], f"{fieldname}.eigenvalues"))
            ]
            vecs = entry.get("eigenvectors")
            if vecs is None:
                _fail(f"{fieldname}.eigenvectors", "required alongside eigenvalues")
            vecs = _as_list(vecs, f"{fieldname}.eigenvectors")
            cols = [_as_vector(v, f"{fieldname}.eigenvectors[{i}]") for i, v in enumerate(vecs)]
            V = np.column_stack(cols)
            if not is_orthonormal(V):
                _fail(f"{fieldname}.eigenvectors", "must be orthonormal")
            m = (V * np.asarray(lam)) @ V.conj().T
            return DensityOperator(m)
    except InvalidState as exc:
        _fail(fieldname, str(exc))
    _fail(fieldname, "needs one of: preset, matrix, vector, eigenvalues")


def _parse_evolution(entry, fieldname: str):
    if not isinstance(entry, dict):
        _fail(fieldname, "expected a mapping")
    variant = entry.get("variant")
    if variant == "static":
        H = _as_matrix(entry.get("hamiltonian"), f"{fieldname}.hamiltonian")
        tau = _as_number(entry.get("tau"), f"{fieldname}.tau")
        try:
            return StaticHamiltonian(H, tau=tau)
        except ValueError as exc:
            _fail(fieldname, str(exc))
    if variant == "rotating":
        u = _as_number(entry.get("u", 1.0), f"{fieldname}.u")
        try:
            return RotatingFrame.spin_flipper(u)
        except ValueError as exc:
            _fail(f"{fieldname}.u", str(exc))
    if variant == "sampled":
        mats = entry.get("unitaries")
        if not isinstance(mats, list) or len(mats) < 2:
            _fail(f"{fieldname}.unitaries", "expected a list of at least two matrices")
        us = [_as_matrix(m, f"{fieldname}.unitaries[{i}]") for i, m in enumerate(mats)]
        times = entry.get("times")
        if times is None:
            tau = _as_number(entry.get("tau"), f"{fieldname}.tau")
            grid = TimeGrid.uniform(tau, len(us) - 1)
        else:
            times = _as_list(times, f"{fieldname}.times")
            grid = TimeGrid(np.array([_as_number(t, f"{fieldname}.times") for t in times]))
        try:
            return SampledUnitaries(tuple(us), grid)
        except Exception as exc:
            _fail(fieldname, str(exc))
    _fail(f"{fieldname}.variant", f"expected static, rotating or sampled, got {variant!r}")


def _parse_grid(data, spec) -> TimeGrid:
    """The transport grid; a sampled evolution defaults to its sample times."""
    sampled = isinstance(spec, SampledUnitaries)
    if sampled and "grid" not in data:
        return spec.grid
    grid_entry = data.get("grid", {})
    if not isinstance(grid_entry, dict):
        _fail("grid", "expected a mapping")
    n_steps = _as_int(grid_entry.get("n_steps", 1000), "grid.n_steps")
    tau = _as_number(grid_entry.get("tau", spec.tau), "grid.tau")
    if tau > spec.tau + time_slack(spec.tau):
        _fail("grid.tau", f"grid end {tau} exceeds evolution duration {spec.tau}")
    try:
        grid = TimeGrid.uniform(tau, n_steps)
        if sampled:
            spec.sample_index(grid.times)
    except (ValueError, GridMiss) as exc:
        _fail("grid", str(exc))
    return grid


def parse_scenario(data, name: str = "<scenario>", base_tol: float = DEFAULT_TOL) -> ScenarioConfig:
    """Validate a parsed mapping into a ScenarioConfig.

    A preset takes epsilon 0.5 and BellScenario's defaults unless the
    mapping overrides them; the phase and transport tolerances default
    to ``base_tol``.
    """
    if not isinstance(data, dict):
        _fail("file", "top level must be a mapping")
    version = data.get("format_version")
    if version != 1:
        _fail("format_version", f"expected 1, got {version!r}")

    tolerances = {}
    if "tolerances" in data:
        if not isinstance(data["tolerances"], dict):
            _fail("tolerances", "expected a mapping")
        for k, v in data["tolerances"].items():
            if k not in ("phase", "transport"):
                _fail(f"tolerances.{k}", "unknown tolerance name")
            tolerances[k] = as_tolerance(v, f"tolerances.{k}")
    tolerances.setdefault("phase", base_tol)
    tolerances.setdefault("transport", base_tol)

    cfg = ScenarioConfig(name=name, tolerances=tolerances)

    if "scenario" in data:
        preset = data["scenario"]
        if preset not in PRESETS:
            _fail("scenario", f"unknown preset {preset!r}; expected one of {PRESETS}")
        overrides = {
            attr: convert(data[key], key)
            for key, attr, convert in (("epsilon", "epsilon", _as_number), ("u", "u", _as_number), ("steps", "n_steps", _as_int))
            if key in data
        }
        try:
            variant = "static" if preset == "bell-static" else "rotating"
            cfg.preset = replace(BellScenario(epsilon=0.5, variant=variant), **overrides)
        except Exception as exc:
            _fail("scenario", str(exc))
        return cfg

    states_entry = data.get("states")
    if not isinstance(states_entry, list) or not states_entry:
        _fail("states", "expected a non-empty list of state specs")
    cfg.states = [_parse_state(s, f"states[{i}]") for i, s in enumerate(states_entry)]
    dims = {rho.dim for rho in cfg.states}
    if len(dims) != 1:
        _fail("states", f"states differ in dimension: {sorted(dims)}")
    dim = dims.pop()
    if "dimension" in data and _as_int(data["dimension"], "dimension") != dim:
        _fail("dimension", f"declared {data['dimension']} but states have dimension {dim}")
    cfg.dimension = dim

    if "evolution" not in data:
        _fail("evolution", "required for non-preset scenarios")
    cfg.spec = _parse_evolution(data["evolution"], "evolution")
    if cfg.spec.dim != dim:
        _fail("evolution", f"evolution dimension {cfg.spec.dim} vs states {dim}")

    cfg.grid = _parse_grid(data, cfg.spec)

    inv_entry = data.get("invariants", [[1]])
    if not isinstance(inv_entry, list) or not inv_entry:
        _fail("invariants", "expected a non-empty list of index sequences")
    invariants = []
    for i, seq in enumerate(inv_entry):
        if isinstance(seq, int):
            seq = [seq]
        if not isinstance(seq, list) or not seq:
            _fail(f"invariants[{i}]", "expected a non-empty index sequence")
        idx = tuple(_as_int(j, f"invariants[{i}]") for j in seq)
        for j in idx:
            if j < 1 or j > len(cfg.states):
                _fail(f"invariants[{i}]", f"index {j!r} out of range 1..{len(cfg.states)}")
        invariants.append(idx)
    cfg.invariants = invariants

    obs_entry = data.get("observables", {})
    if not isinstance(obs_entry, dict):
        _fail("observables", "expected a mapping of name -> matrix")
    for key, value in obs_entry.items():
        A = _as_matrix(value, f"observables.{key}")
        if A.shape[0] != dim:
            _fail(f"observables.{key}", f"dimension {A.shape[0]} vs states {dim}")
        cfg.observables[str(key)] = A
    return cfg


def load_scenario(path: str, base_tol: float = DEFAULT_TOL) -> ScenarioConfig:
    """Read and validate a scenario file; parse errors name the line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioFormatError(f"file: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark is not None else "unknown line"
        raise ScenarioFormatError(f"{where}: {exc}") from exc
    return parse_scenario(data, name=path, base_tol=base_tol)
