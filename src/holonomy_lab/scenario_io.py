"""Scenario file loading and validation.

Files are a plain nested key-value format (a YAML subset) and must carry
``format_version: 1``. A file either names a preset scenario
(``scenario: bell-static`` or ``bell-rotating`` plus parameter overrides)
or spells out states, an evolution, a grid, and which invariant index
sequences to assemble. Complex entries are written as [re, im] pairs.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass, field, replace
from types import GeneratorType

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
_SEQ, _MAP, _STR, _MERGE, _VALUE = (f"tag:yaml.org,2002:{name}" for name in ("seq", "map", "str", "merge", "value"))
# What an open collection reads next: a sequence's item, a mapping's key, or a merge key's value.
_ITEM, _KEY, _MERGE_KEY = object(), object(), object()


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
        _fail(fieldname, f"expected an integer, got {value!r}")
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
        H = _as_matrix(entry.get("hamiltonian"), f"{fieldname}.hamiltonian")
        tau = _as_number(entry.get("tau"), f"{fieldname}.tau")
        try:
            return StaticHamiltonian(H, tau=tau)
        except ValueError as exc:
            _fail(fieldname if tau > 0 else f"{fieldname}.tau", str(exc))
    if variant == "rotating":
        u = _as_number(entry.get("u", 1.0), f"{fieldname}.u")
        try:
            return RotatingFrame(u)
        except ValueError as exc:
            _fail(f"{fieldname}.u", str(exc))
    if variant == "sampled":
        mats = entry.get("unitaries")
        if not isinstance(mats, list) or len(mats) < 2:
            _fail(f"{fieldname}.unitaries", "expected a list of at least two matrices")
        us = [_as_matrix(m, f"{fieldname}.unitaries[{i}]") for i, m in enumerate(mats)]
        times = entry.get("times")
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
    if version != 1 or isinstance(version, bool):  # True == 1
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
        if str(key) in cfg.observables:  # e.g. the keys 1 and '1'
            _fail(f"observables.{key}", f"the name {str(key)!r} is used twice")
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


class _Open:
    """A sequence or mapping whose end event is still to come."""

    __slots__ = ("data", "mark", "key", "marks", "merges")

    def __init__(self, data, mark, key, marks):
        self.data, self.mark = data, mark
        self.key = key  # _ITEM, _KEY, _MERGE_KEY, or the key whose value comes next
        self.marks = marks  # a sequence's item marks, kept where a merge may need them
        self.merges = None  # a mapping's merge values, with their item marks


def _read_yaml(text: str):
    """The one YAML document in ``text`` as plain data, equal to ``yaml.load(text, Loader=_LOADER)``.

    The data is built straight from the parser's events, with no node
    graph in between. Each scalar's tag and value come from PyYAML's own
    resolver and constructors, and anchors, aliases, merge keys, the
    ``=`` key, repeated keys (the last wins) and empty text (None) read
    as with ``yaml.load``. Errors are ``yaml.YAMLError``s with a
    ``problem_mark``; as with ``yaml.load``, a parse error wins over an
    earlier construction error. Narrowings: a sequence or mapping with an
    explicit tag other than ``!!seq`` or ``!!map`` (``!!set``, ``!!omap``,
    ``!!pairs``) fails, naming the tag, and so does a mapping that merges
    itself; a scalar that its tag's constructor cannot read fails with
    its line instead of a bare ``ValueError``, ``KeyError`` or
    ``AttributeError``.
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
    anchors = {}  # anchor -> (value, start mark, item marks of a sequence)
    stack = []  # the open collections, innermost last
    merging = []  # (mapping, merge values, start mark) of each mapping with a merge key
    error = None  # the first construction error, raised once the text has parsed
    get_event()  # stream start
    if isinstance(get_event(), yaml.StreamEndEvent):  # empty or comment-only text
        return None
    while True:
        event = get_event()
        kind = event.__class__
        if kind is yaml.SequenceEndEvent or kind is yaml.MappingEndEvent:
            frame = stack.pop()
            value, mark, marks = frame.data, frame.mark, frame.marks
            if frame.merges is not None:
                merging.append((value, frame.merges, mark))
        elif kind is yaml.AliasEvent:
            if event.anchor not in anchors:
                raise ComposerError(None, None, f"found undefined alias {event.anchor!r}", event.start_mark)
            value, mark, marks = anchors[event.anchor]
            if isinstance(value, ScalarNode) and stack[-1].key is not _KEY:  # a merge key reused as a value
                problem = f"could not determine a constructor for the tag {_MERGE!r}"
                error, value = error or ConstructorError(None, None, problem, mark), None
        else:
            anchor, mark, marks, tag = event.anchor, event.start_mark, None, event.tag
            if anchor is not None and anchor in anchors:
                problem = f"found duplicate anchor {anchor!r}; first occurrence"
                raise ComposerError(problem, anchors[anchor][1], "second occurrence", mark)
            if kind is yaml.ScalarEvent:
                is_key = bool(stack) and stack[-1].key is _KEY
                if tag is None or tag == "!":
                    tag = resolve(ScalarNode, event.value, event.implicit)
                if is_key and tag == _VALUE:  # PyYAML reads a plain = key as the string "="
                    tag = _STR
                node = ScalarNode(tag, event.value, mark, event.end_mark, event.style)
                if is_key and tag == _MERGE:
                    value = node  # the mapping's next value is merged into it
                else:
                    try:
                        value = constructors.get(tag, undefined)(loader, node)
                        if isinstance(value, GeneratorType):  # a collection tag on a scalar: running it fails
                            value = list(value)[0]
                    except yaml.YAMLError as exc:
                        error, value = error or exc.with_traceback(None), None
                    except (ValueError, KeyError, AttributeError):  # e.g. !!int abc, !!bool maybe
                        problem = f"cannot read {event.value!r} as {_shown(tag)}"
                        error, value = error or ConstructorError(None, None, problem, mark), None
            else:
                sequence = kind is yaml.SequenceStartEvent
                if tag is not None and tag != "!" and tag != (_SEQ if sequence else _MAP):
                    found = "sequence" if sequence else "mapping"
                    problem = f"found a {found} tagged {_shown(tag)}; only !!seq and !!map are read"
                    error = error or ConstructorError(None, None, problem, mark)
                if sequence and (anchor is not None or (stack and stack[-1].key is _MERGE_KEY)):
                    marks = []
                frame = _Open([] if sequence else {}, mark, _ITEM if sequence else _KEY, marks)
                stack.append(frame)
                if anchor is not None:  # registered now, so the collection may alias itself
                    anchors[anchor] = (frame.data, mark, marks)
                continue
            if anchor is not None:
                anchors[anchor] = (value, mark, None)
        if not stack:
            break
        top = stack[-1]
        key = top.key
        if key is _ITEM:
            top.data.append(value)
            if top.marks is not None:
                top.marks.append(mark)
        elif key is _KEY:
            if isinstance(value, ScalarNode):
                top.key = _MERGE_KEY
            elif isinstance(value, Hashable):
                top.key = value
            else:
                problem = "found unhashable key"
                error = error or ConstructorError("while constructing a mapping", top.mark, problem, mark)
                top.key = None
        elif key is _MERGE_KEY:
            top.key = _KEY
            if not isinstance(value, (dict, list)):
                problem = "expected a mapping or list of mappings for merging, but found scalar"
                error = error or ConstructorError("while constructing a mapping", top.mark, problem, mark)
            if top.merges is None:
                top.merges = []
            top.merges.append((value, marks))
        else:
            top.data[key] = value
            top.key = _KEY
    get_event()  # document end
    event = get_event()
    if not isinstance(event, yaml.StreamEndEvent):
        problem = "but found another document"
        raise ComposerError("expected a single document in the stream", mark, problem, event.start_mark)
    if error is not None:
        raise error
    _complete_merges(merging)
    return value


def _shown(tag: str) -> str:
    return tag.replace("tag:yaml.org,2002:", "!!")


def _complete_merges(merging) -> None:
    """Put each mapping's merged keys before its own, as PyYAML does; its own keys win.

    Runs once every collection is read, so a merged mapping or list is
    whole even if it was still open at its merge key, and completes a
    merged mapping before the mappings that merge it.
    """
    pending = {}
    for data, merges, mark in merging:
        sources = []  # PyYAML's order: a list's mappings last to first, each merge key's after the one before
        for value, marks in merges:
            if isinstance(value, dict):
                sources.append(value)
                continue
            for item, item_mark in zip(value, marks):
                if not isinstance(item, dict):
                    found = "sequence" if isinstance(item, list) else "scalar"
                    problem = f"expected a mapping for merging, but found {found}"
                    raise ConstructorError("while constructing a mapping", mark, problem, item_mark)
            sources.extend(reversed(value))
        pending[id(data)] = (data, sources, mark)
    while pending:
        ready = [k for k, (_, sources, _) in pending.items() if not any(id(m) in pending for m in sources)]
        if not ready:
            mark = next(iter(pending.values()))[2]
            raise ConstructorError("while constructing a mapping", mark, "found a mapping that merges itself", mark)
        for k in ready:
            data, sources, _ = pending.pop(k)
            own = list(data.items())
            data.clear()
            for source in sources:
                data.update(source)
            data.update(own)
