"""Scenario file loading and validation.

Files are plain data in YAML: mappings, lists and scalars, with no
anchors, aliases, tags or merge keys. Each must carry
``format_version: 1``. A file either names a preset scenario
(``scenario: bell-static`` or ``bell-rotating`` plus parameter overrides)
or spells out states, an evolution, a grid, and which invariant index
sequences to assemble. Complex entries are written as [re, im] pairs.
Every mapping takes only the keys documented for it; any other key fails.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Hashable
from dataclasses import dataclass, field, replace

import numpy as np
import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError
from yaml.nodes import ScalarNode

from .errors import GridMiss, InvalidState, ScenarioFormatError
from .evolution import RotatingFrame, SampledUnitaries, StaticHamiltonian, TimeGrid, time_slack
from .linalg import DEFAULT_TOL, first_non_isometry
from .scenarios import BellScenario, bell_mixture
from .state import DensityOperator

__all__ = ["ScenarioConfig", "as_tolerance", "load_scenario", "parse_scenario", "PRESETS", "PRESET_PARAMETERS"]

PRESETS = ("bell-static", "bell-rotating")

# PyYAML's safe loader, with libyaml's C parser where PyYAML was built with it.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_PLAIN = "a scenario file holds only mappings, lists and scalars"
_KEY = object()  # an open mapping's key, while its next event is a key

_quote = reprlib.Repr().repr  # the one quote of a file value in a message: as repr(), cut when long or deep


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
            _fail(fieldname, f"expected a number, got {_quote(value)}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(fieldname, f"expected a number, got {_quote(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return float("inf")


def _as_number(value, fieldname: str) -> float:
    """A finite number: nan and inf fail here, before any arithmetic sees them."""
    number = _as_float(value, fieldname)
    if not math.isfinite(number):
        _fail(fieldname, f"expected a finite number, got {_quote(value)}")
    return number


def as_tolerance(value, fieldname: str) -> float:
    """A tolerance: a finite number with 0 < tol < 1."""
    tol = _as_float(value, fieldname)
    if not 0.0 < tol < 1.0:  # also rejects nan and inf
        _fail(fieldname, f"expected a finite number with 0 < tol < 1, got {_quote(tol)}")
    return tol


def _as_int(value, fieldname: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)  # exactly: a float rounds integers beyond 2**53
        except ValueError:
            pass
    try:
        # Strings count as for _as_number (YAML 1.1 reads 1e3 as a string).
        number = float(value) if isinstance(value, (str, float)) else None
    except ValueError:
        number = None
    if number is None or not number.is_integer():
        _fail(fieldname, f"expected an integer, got {_quote(value)}")
    return int(number)


# Preset parameter, as a file key, a run flag and a sweep parameter -> (BellScenario field, parser of one
# value). File keys are read in this order, so the first bad one is named.
PRESET_PARAMETERS = {"epsilon": ("epsilon", _as_number), "u": ("u", _as_number), "steps": ("n_steps", _as_int)}


def _as_complex(entry, fieldname: str) -> complex:
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(_as_number(entry[0], fieldname), _as_number(entry[1], fieldname))
    if isinstance(entry, str):  # YAML 1.1 reads bare scientific notation like 1e5 as a string
        try:
            entry = float(entry)
        except ValueError:
            pass
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(_as_number(entry, fieldname))
    _fail(fieldname, f"expected a real number or [re, im] pair, got {_quote(entry)}")


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


def _known_keys(entry: dict, keys, fieldname: str = "") -> None:
    """Fail on the first key of ``entry`` that is not one of ``keys``, so no misspelt key runs as a default."""
    for key in entry:
        if key not in keys:
            _fail(f"{fieldname}.{key}" if fieldname else str(key), "unknown key")


def _parse_state(entry, fieldname: str) -> DensityOperator:
    if not isinstance(entry, dict):
        _fail(fieldname, "expected a mapping describing one state")
    try:
        if "preset" in entry:
            preset = entry["preset"]
            if preset == "bell-mixture":
                _known_keys(entry, ("preset", "epsilon"), fieldname)
                return bell_mixture(_as_number(entry.get("epsilon", 0.0), f"{fieldname}.epsilon"))
            if preset == "maximally-mixed":
                _known_keys(entry, ("preset", "dimension"), fieldname)
                dim = _as_int(entry.get("dimension", 2), f"{fieldname}.dimension")
                if dim < 1:
                    _fail(f"{fieldname}.dimension", f"expected a positive integer, got {dim}")
                return DensityOperator.maximally_mixed(dim)
            _fail(f"{fieldname}.preset", f"unknown state preset {_quote(preset)}")
        if "matrix" in entry:
            _known_keys(entry, ("matrix",), fieldname)
            return DensityOperator(_as_matrix(entry["matrix"], f"{fieldname}.matrix"))
        if "vector" in entry:
            _known_keys(entry, ("vector",), fieldname)
            return DensityOperator.pure(_as_vector(entry["vector"], f"{fieldname}.vector"))
        if "eigenvalues" in entry:
            _known_keys(entry, ("eigenvalues", "eigenvectors"), fieldname)
            lam = [
                _as_number(v, f"{fieldname}.eigenvalues[{i}]")
                for i, v in enumerate(_as_list(entry["eigenvalues"], f"{fieldname}.eigenvalues"))
            ]
            if not lam:
                _fail(f"{fieldname}.eigenvalues", "expected a non-empty list")
            vecs = entry.get("eigenvectors")
            if vecs is None:
                _fail(f"{fieldname}.eigenvectors", "required alongside eigenvalues")
            vecs = _as_list(vecs, f"{fieldname}.eigenvectors")
            if len(vecs) != len(lam):
                _fail(f"{fieldname}.eigenvectors", f"expected {len(lam)}, one per eigenvalue, got {len(vecs)}")
            cols = [_as_vector(v, f"{fieldname}.eigenvectors[{i}]") for i, v in enumerate(vecs)]
            for i, col in enumerate(cols):
                if col.size != cols[0].size:
                    _fail(f"{fieldname}.eigenvectors[{i}]", f"expected {cols[0].size} entries, got {col.size}")
            V = np.column_stack(cols)
            if first_non_isometry(V, DEFAULT_TOL) is not None:
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
        _known_keys(entry, ("variant", "hamiltonian", "tau"), fieldname)
        H = _as_matrix(entry.get("hamiltonian"), f"{fieldname}.hamiltonian")
        tau = _as_number(entry.get("tau"), f"{fieldname}.tau")
        try:
            return StaticHamiltonian(H, tau=tau)
        except ValueError as exc:
            _fail(fieldname if tau > 0 else f"{fieldname}.tau", str(exc))
    if variant == "rotating":
        _known_keys(entry, ("variant", "u"), fieldname)
        u = _as_number(entry.get("u", 1.0), f"{fieldname}.u")
        try:
            return RotatingFrame(u)
        except ValueError as exc:
            _fail(f"{fieldname}.u", str(exc))
    if variant == "sampled":
        times = entry.get("times")  # the sample times, else tau for a uniform grid
        _known_keys(entry, ("variant", "unitaries", "tau" if times is None else "times"), fieldname)
        mats = entry.get("unitaries")
        if not isinstance(mats, list) or len(mats) < 2:
            _fail(f"{fieldname}.unitaries", "expected a list of at least two matrices")
        us = [_as_matrix(m, f"{fieldname}.unitaries[{i}]") for i, m in enumerate(mats)]
        if times is None:
            key = f"{fieldname}.tau"
            tau = _as_number(entry.get("tau"), key)
        else:
            key = f"{fieldname}.times"
            times = [_as_number(t, key) for t in _as_list(times, key)]
        try:
            grid = TimeGrid.uniform(tau, len(us) - 1) if times is None else TimeGrid(np.array(times))
        except ValueError as exc:
            _fail(key, str(exc))
        try:
            return SampledUnitaries(us, grid)
        except Exception as exc:
            _fail(fieldname, str(exc))
    _fail(f"{fieldname}.variant", f"expected static, rotating or sampled, got {_quote(variant)}")


def _parse_grid(data, spec) -> TimeGrid:
    """The transport grid; a sampled evolution defaults to its sample times."""
    sampled = isinstance(spec, SampledUnitaries)
    if sampled and "grid" not in data:
        return spec.grid
    grid_entry = data.get("grid", {})
    if not isinstance(grid_entry, dict):
        _fail("grid", "expected a mapping")
    _known_keys(grid_entry, ("n_steps", "tau"), "grid")
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


# The top-level keys of a file that names a preset, and of one that spells its scenario out.
_PRESET_KEYS = ("format_version", "tolerances", "scenario", *PRESET_PARAMETERS)
_FILE_KEYS = ("format_version", "tolerances", "states", "dimension", "evolution", "grid", "invariants", "observables")


def parse_scenario(data, name: str = "<scenario>", base_tol: float = DEFAULT_TOL) -> ScenarioConfig:
    """Validate a parsed mapping into a ScenarioConfig.

    A preset takes epsilon 0.5 and BellScenario's defaults unless the
    mapping overrides them; the phase and transport tolerances default
    to ``base_tol``.
    """
    if not isinstance(data, dict):
        _fail("file", "top level must be a mapping")
    version = data.get("format_version")
    if version != 1 or isinstance(version, bool):  # True == 1
        _fail("format_version", f"expected 1, got {_quote(version)}")

    _known_keys(data, _PRESET_KEYS if "scenario" in data else _FILE_KEYS)

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        _fail("tolerances", "expected a mapping")
    _known_keys(tolerances, ("phase", "transport"), "tolerances")
    tolerances = {k: as_tolerance(v, f"tolerances.{k}") for k, v in tolerances.items()}
    tolerances.setdefault("phase", base_tol)
    tolerances.setdefault("transport", base_tol)

    cfg = ScenarioConfig(name=name, tolerances=tolerances)

    if "scenario" in data:
        preset = data["scenario"]
        if preset not in PRESETS:
            _fail("scenario", f"unknown preset {_quote(preset)}; expected one of {PRESETS}")
        overrides = {attr: convert(data[key], key) for key, (attr, convert) in PRESET_PARAMETERS.items() if key in data}
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
                _fail(f"invariants[{i}]", f"index {_quote(j)} out of range 1..{len(cfg.states)}")
        invariants.append(idx)
    cfg.invariants = invariants

    obs_entry = data.get("observables", {})
    if not isinstance(obs_entry, dict):
        _fail("observables", "expected a mapping of name -> matrix")
    for key, value in obs_entry.items():
        A = _as_matrix(value, f"observables.{key}")
        if A.shape[0] != dim:
            _fail(f"observables.{key}", f"dimension {A.shape[0]} vs states {dim}")
        if str(key) in cfg.observables:  # e.g. the keys 1 and '1'
            _fail(f"observables.{key}", f"the name {_quote(str(key))} is used twice")
        cfg.observables[str(key)] = A
    return cfg


def load_scenario(path: str, base_tol: float = DEFAULT_TOL) -> ScenarioConfig:
    """Read and validate a scenario file; parse errors name the line.

    The text is read by ``_read_yaml``, which builds the data straight
    from the YAML parser's events, with no node graph in between.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioFormatError(f"file: {exc}") from exc
    try:
        data = _read_yaml(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark is not None else "unknown line"
        raise ScenarioFormatError(f"{where}: {exc}") from exc
    return parse_scenario(data, name=path, base_tol=base_tol)


def _read_yaml(text: str):
    """The one YAML document in ``text`` as plain data: mappings, lists and scalars.

    The data is built straight from the parser's events, with no node
    graph in between, and equals ``yaml.load(text, Loader=_LOADER)`` on
    every text it accepts. Each scalar's tag and value come from PyYAML's
    own resolver and constructors; repeated keys (the last wins) and
    empty text (None) read as with ``yaml.load``. A scenario file is
    plain data, so an anchor, an alias or an explicit tag (``!`` included)
    fails, and so do a merge key ``<<`` and an ``=`` key or value, whose
    resolved tags have no constructor. Errors are ``yaml.YAMLError``s with
    a ``problem_mark``, raised at the first problem in text order; a
    scalar that its resolved tag's constructor cannot read (``2001-13-45``)
    fails with its line instead of a bare ``ValueError``.
    """
    loader = _LOADER(text)
    try:
        return _build(loader)
    finally:
        loader.dispose()


def _build(loader):
    """Walk the loader's events once, keeping only the data and the open collections."""
    get_event, resolve = loader.get_event, loader.resolve
    constructors = loader.yaml_constructors
    undefined = constructors[None]
    stack = []  # [data, key, start mark] of each open collection, innermost last
    get_event()  # stream start
    if isinstance(get_event(), yaml.StreamEndEvent):  # empty or comment-only text
        return None
    while True:
        event = get_event()
        kind = event.__class__
        if kind is yaml.SequenceEndEvent or kind is yaml.MappingEndEvent:
            value, _, mark = stack.pop()
        else:
            mark = event.start_mark
            if kind is yaml.AliasEvent or event.anchor is not None:
                token = f"the alias *{event.anchor}" if kind is yaml.AliasEvent else f"the anchor &{event.anchor}"
                raise ConstructorError(None, None, f"found {token}; {_PLAIN}", mark)
            if event.tag is not None:
                raise ConstructorError(None, None, f"found the tag {_quote(event.tag)}; {_PLAIN}", mark)
            if kind is yaml.ScalarEvent:
                node = ScalarNode(resolve(ScalarNode, event.value, event.implicit), event.value, mark)
                try:
                    value = constructors.get(node.tag, undefined)(loader, node)
                except (ValueError, KeyError, AttributeError):  # e.g. the timestamp 2001-13-45
                    problem = f"cannot read {_quote(event.value)} as {node.tag}"
                    raise ConstructorError(None, None, problem, mark) from None
            else:
                stack.append([[] if kind is yaml.SequenceStartEvent else {}, _KEY, mark])
                continue
        if not stack:
            break
        top = stack[-1]
        data, key = top[0], top[1]
        if data.__class__ is list:
            data.append(value)
        elif key is not _KEY:
            data[key] = value
            top[1] = _KEY
        elif isinstance(value, Hashable):
            top[1] = value
        else:
            raise ConstructorError("while constructing a mapping", top[2], "found unhashable key", mark)
    get_event()  # document end
    event = get_event()
    if not isinstance(event, yaml.StreamEndEvent):
        problem = "but found another document"
        raise ComposerError("expected a single document in the stream", mark, problem, event.start_mark)
    return value
