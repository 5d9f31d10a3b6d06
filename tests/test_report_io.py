import dataclasses
import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from holonomy_lab import scenario_io
from holonomy_lab.errors import ScenarioFormatError
from holonomy_lab.report import encode_complex, fmt, to_csv_rows, to_json, to_text
from holonomy_lab.scenario_io import load_scenario, parse_scenario
from holonomy_lab.state import DensityOperator

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------- report

def test_fmt_uses_twelve_significant_digits():
    assert fmt(np.pi) == "3.14159265359"
    assert fmt(1.0) == "1"
    assert fmt(-5.0 / 9.0) == "-0.555555555556"


def test_encode_complex():
    assert encode_complex(1 - 2j) == [1.0, -2.0]


def test_json_is_parseable_and_deterministic():
    report = {
        "format_version": 1,
        "values": {"pi": float(np.pi), "flag": True, "none": None},
        "list": [1.0, 2.5],
        "nested": [{"a": 1}, {"a": 2}],
    }
    text = to_json(report)
    assert text == to_json(report)
    parsed = json.loads(text)
    assert parsed["values"]["pi"] == pytest.approx(np.pi, abs=1e-11)
    assert parsed["values"]["none"] is None
    assert parsed["list"] == [1.0, 2.5]


def test_json_and_csv_carry_identical_numbers():
    report = {"a": float(np.pi), "b": {"c": -5.0 / 9.0, "d": [1.25, 2.5]}}
    parsed = json.loads(to_json(report))
    csv_map = {}
    for line in to_csv_rows(report).splitlines()[1:]:
        key, value = line.split(",", 1)
        csv_map[key] = value
    assert csv_map["a"] == fmt(parsed["a"])
    assert csv_map["b.c"] == fmt(parsed["b"]["c"])
    assert csv_map["b.d"] == ";".join(fmt(v) for v in parsed["b"]["d"])


def test_text_format_contains_undefined_token():
    text = to_text({"nu": None})
    assert "undefined" in text


# ------------------------------------------------------------------ scenario_io

def _preset_file(tmp_path, body):
    p = tmp_path / "scenario.yaml"
    p.write_text(body, encoding="utf-8")
    return str(p)


def test_load_preset_scenario(tmp_path):
    path = _preset_file(
        tmp_path,
        "format_version: 1\nscenario: bell-static\nepsilon: 0.25\nsteps: 333\n",
    )
    cfg = load_scenario(path)
    assert cfg.preset is not None
    assert cfg.preset.epsilon == 0.25
    assert cfg.preset.n_steps == 333
    assert cfg.preset.variant == "static"


def test_missing_format_version(tmp_path):
    path = _preset_file(tmp_path, "scenario: bell-static\n")
    with pytest.raises(ScenarioFormatError, match="format_version"):
        load_scenario(path)


def test_format_version_true_is_not_version_one(tmp_path):
    # YAML reads true as a bool, and True == 1 in Python.
    path = _preset_file(tmp_path, "format_version: true\nscenario: bell-static\n")
    with pytest.raises(ScenarioFormatError, match=r"^format_version: expected 1, got True$"):
        load_scenario(path)


def test_observable_names_that_read_alike_fail(tmp_path):
    # The keys 1 and '1' are two YAML keys, but both would report as nu[1].
    body = (
        "format_version: 1\n"
        "states:\n  - preset: maximally-mixed\n    dimension: 2\n"
        "evolution: {variant: static, hamiltonian: [[0, 0], [0, 0]], tau: 1.0}\n"
        "observables:\n  1: [[1, 0], [0, 1]]\n  '1': [[1, 0], [0, 0]]\n"
    )
    with pytest.raises(ScenarioFormatError, match=r"^observables\.1: the name '1' is used twice$"):
        load_scenario(_preset_file(tmp_path, body))


def test_yaml_error_names_line(tmp_path):
    path = _preset_file(tmp_path, "format_version: 1\nstates: [unclosed\n")
    with pytest.raises(ScenarioFormatError, match="line"):
        load_scenario(path)


def test_generic_scenario_round_trip():
    data = {
        "format_version": 1,
        "dimension": 2,
        "states": [
            {"matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            {"vector": [[1, 0], [0, 0]]},
        ],
        "evolution": {
            "variant": "static",
            "hamiltonian": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            "tau": 1.0,
        },
        "grid": {"n_steps": 50},
        "invariants": [[1], [1, 2]],
        "observables": {"Z": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
        "tolerances": {"phase": 1e-8},
    }
    cfg = parse_scenario(data)
    assert cfg.dimension == 2
    assert len(cfg.states) == 2
    assert np.allclose(cfg.states[0].matrix, np.eye(2) / 2)
    assert cfg.invariants == [(1,), (1, 2)]
    assert cfg.grid.n_steps == 50
    assert "Z" in cfg.observables
    assert cfg.tolerances["phase"] == 1e-8


def test_non_unit_trace_state_mentions_trace():
    data = {
        "format_version": 1,
        "states": [{"matrix": [[[0.4, 0], [0, 0]], [[0, 0], [0.4, 0]]]}],
        "evolution": {"variant": "static", "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "tau": 1.0},
    }
    with pytest.raises(ScenarioFormatError, match="trace"):
        parse_scenario(data)


def test_invariant_index_out_of_range():
    data = {
        "format_version": 1,
        "states": [{"preset": "maximally-mixed", "dimension": 2}],
        "evolution": {"variant": "static", "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "tau": 1.0},
        "invariants": [[1, 2]],
    }
    with pytest.raises(ScenarioFormatError, match="out of range"):
        parse_scenario(data)


def test_eigenvector_states_must_be_orthonormal():
    data = {
        "format_version": 1,
        "states": [
            {
                "eigenvalues": [0.5, 0.5],
                "eigenvectors": [[[1, 0], [0, 0]], [[1, 0], [1, 0]]],
            }
        ],
        "evolution": {"variant": "static", "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "tau": 1.0},
    }
    with pytest.raises(ScenarioFormatError, match="orthonormal"):
        parse_scenario(data)


def test_unknown_preset_and_bad_variant():
    with pytest.raises(ScenarioFormatError, match="preset"):
        parse_scenario({"format_version": 1, "scenario": "bell-quartic"})
    data = {
        "format_version": 1,
        "states": [{"preset": "maximally-mixed", "dimension": 2}],
        "evolution": {"variant": "adiabatic"},
    }
    with pytest.raises(ScenarioFormatError, match="variant"):
        parse_scenario(data)


def test_dimension_cross_checks():
    data = {
        "format_version": 1,
        "dimension": 4,
        "states": [{"preset": "maximally-mixed", "dimension": 2}],
        "evolution": {"variant": "static", "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "tau": 1.0},
    }
    with pytest.raises(ScenarioFormatError, match="dimension"):
        parse_scenario(data)


def test_sampled_evolution_config():
    data = {
        "format_version": 1,
        "states": [{"preset": "maximally-mixed", "dimension": 2}],
        "evolution": {
            "variant": "sampled",
            "tau": 1.0,
            "unitaries": [
                [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            ],
        },
        "grid": {"n_steps": 1},
    }
    cfg = parse_scenario(data)
    assert cfg.spec.dim == 2
    assert cfg.grid.n_steps == 1


def test_sampled_evolution_grid_defaults_to_the_sample_times():
    data = {
        "format_version": 1,
        "states": [{"preset": "maximally-mixed", "dimension": 2}],
        "evolution": {
            "variant": "sampled",
            "times": [0.0, 0.1, 0.5],
            "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]] * 3,
        },
    }
    cfg = parse_scenario(data)
    assert np.array_equal(cfg.grid.times, [0.0, 0.1, 0.5])
    with pytest.raises(ScenarioFormatError, match=r"^grid: t = 0\.25 is not a sample point"):
        parse_scenario({**data, "grid": {"n_steps": 2}})


# ------------------------------------------------------- integer fields

_STATIC_2 = {"variant": "static", "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "tau": 1.0}


def _generic(**overrides):
    data = {
        "format_version": 1,
        "states": [{"preset": "maximally-mixed", "dimension": 2}],
        "evolution": _STATIC_2,
    }
    data.update(overrides)
    return data


def test_top_level_dimension_must_be_an_integer():
    with pytest.raises(ScenarioFormatError, match=r"^dimension: expected an integer"):
        parse_scenario(_generic(dimension="two"))
    with pytest.raises(ScenarioFormatError, match=r"^dimension: expected an integer"):
        parse_scenario(_generic(dimension=2.5))
    assert parse_scenario(_generic(dimension=2.0)).dimension == 2


@pytest.mark.parametrize("value", [10.7, "10.7", True, "ten", float("inf")], ids=repr)
def test_grid_steps_reject_non_integers(value):
    with pytest.raises(ScenarioFormatError, match=r"^grid\.n_steps: expected an integer"):
        parse_scenario(_generic(grid={"n_steps": value}))


@pytest.mark.parametrize("value", [10.7, True])
def test_preset_steps_reject_non_integers(value):
    with pytest.raises(ScenarioFormatError, match=r"steps: expected an integer"):
        parse_scenario({"format_version": 1, "scenario": "bell-static", "steps": value})


@pytest.mark.parametrize("value", [2.5, False])
def test_state_preset_dimension_rejects_non_integers(value):
    states = [{"preset": "maximally-mixed", "dimension": value}]
    with pytest.raises(ScenarioFormatError, match=r"^states\[0\]\.dimension: expected an integer"):
        parse_scenario(_generic(states=states))


@pytest.mark.parametrize("seq", [[True], True, [1, False]], ids=repr)
def test_invariant_indices_reject_non_integers(seq):
    with pytest.raises(ScenarioFormatError, match=r"^invariants\[0\]: expected an integer"):
        parse_scenario(_generic(invariants=[seq]))


def test_integer_fields_accept_yaml_scientific_strings(tmp_path):
    # YAML 1.1 reads bare 1e3 as a string; it still counts as 1000.
    path = _preset_file(tmp_path, "format_version: 1\nscenario: bell-static\nsteps: 1e3\n")
    assert load_scenario(path).preset.n_steps == 1000
    cfg = parse_scenario(_generic(dimension="2", grid={"n_steps": "1e3"}))
    assert (cfg.dimension, cfg.grid.n_steps) == (2, 1000)
    assert isinstance(cfg.grid.n_steps, int)


def test_matrix_entries_accept_yaml_scientific_strings(tmp_path):
    # YAML 1.1 reads bare 5e-1 and 1e5 as strings; as matrix entries they still count as numbers.
    body = (
        "format_version: 1\n"
        "states:\n  - matrix: [[5e-1, 0], [0, 5e-1]]\n"
        "evolution: {variant: static, hamiltonian: [[0, 0], [0, 0]], tau: 1.0}\n"
        "observables:\n  Z: [[1e5, 0], [0, -1e5]]\n"
    )
    cfg = load_scenario(_preset_file(tmp_path, body))
    assert np.array_equal(cfg.states[0].matrix, np.eye(2) / 2)
    assert np.array_equal(cfg.observables["Z"], np.diag([1e5, -1e5]))
    bad = _preset_file(tmp_path, body.replace("[0, 5e-1]]", "[0, half]]"))
    with pytest.raises(ScenarioFormatError, match=r"^states\[0\]\.matrix\[1\]\[1\]: expected a real number or \[re, im\] pair, got 'half'$"):
        load_scenario(bad)


# ----------------------------------------------------------- YAML loader

def _config_tree(value):
    """A ScenarioConfig as nested plain data, so two loads compare with ==."""
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.tolist())
    if isinstance(value, DensityOperator):
        return _config_tree(value.matrix)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, {f.name: _config_tree(getattr(value, f.name)) for f in dataclasses.fields(value)})
    if isinstance(value, dict):
        return {k: _config_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_config_tree(v) for v in value]
    return value


def _small_sampled_file(tmp_path):
    """A sampled scenario whose entries include bare 1e-05-style numbers."""
    lines = ["format_version: 1", "states:", "  - preset: maximally-mixed", "    dimension: 2",
             "  - vector: [[1, 0], [0, 0]]", "evolution:", "  variant: sampled", "  tau: 3e-05",
             "  unitaries:"]
    for k in range(4):
        s = k * 1e-05
        c = float(np.sqrt(1.0 - s * s))
        lines.append(f"    - [[[{c!r}, 0], [{-s!r}, 0]], [[{s!r}, 0], [{c!r}, 0]]]")
    lines += ["grid:", "  n_steps: 3", "invariants: [[1], [2], [1, 2]]", "tolerances:", "  phase: 1e-9"]
    path = tmp_path / "sampled.yaml"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "path", [os.path.join(REPO, "demos", "example_scenario.yaml"), os.path.join(REPO, "tests", "golden", "preset_override.yaml")],
    ids=["example", "preset"],
)
def test_loaders_give_equal_configs(path, monkeypatch):
    fast = load_scenario(path)
    monkeypatch.setattr(scenario_io, "_LOADER", yaml.SafeLoader)
    assert _config_tree(fast) == _config_tree(load_scenario(path))


@pytest.mark.parametrize(
    "path", [os.path.join(REPO, "demos", "example_scenario.yaml"), os.path.join(REPO, "tests", "golden", "preset_override.yaml")],
    ids=["example", "preset"],
)
def test_files_give_the_config_of_yaml_load(path):
    with open(path, encoding="utf-8") as handle:
        data = yaml.load(handle.read(), Loader=scenario_io._LOADER)
    assert _config_tree(load_scenario(path)) == _config_tree(parse_scenario(data, name=path))


def test_loaders_give_equal_sampled_configs(tmp_path, monkeypatch):
    path = _small_sampled_file(tmp_path)
    with open(path, encoding="utf-8") as handle:
        assert "1e-05" in handle.read()
    fast = load_scenario(path)
    assert fast.spec.unitaries[1][1, 0] == 1e-05
    assert fast.tolerances["phase"] == 1e-9
    monkeypatch.setattr(scenario_io, "_LOADER", yaml.SafeLoader)
    assert _config_tree(fast) == _config_tree(load_scenario(path))


def test_loader_is_libyaml_when_available():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert scenario_io._LOADER is expected


def test_python_tags_are_rejected(tmp_path):
    path = _preset_file(tmp_path, "format_version: 1\nscenario: !!python/object/apply:os.system ['true']\n")
    with pytest.raises(ScenarioFormatError, match=r"^line 2: "):
        load_scenario(path)


def test_syntax_error_names_its_line(tmp_path):
    path = _preset_file(tmp_path, "format_version: 1\nscenario: bell-static\nepsilon: [0.5\nsteps: 10\n")
    with pytest.raises(ScenarioFormatError, match=r"^line 4: "):
        load_scenario(path)


def test_falls_back_to_python_loader_without_libyaml():
    script = (
        "import yaml\n"
        "if hasattr(yaml, 'CSafeLoader'):\n"
        "    del yaml.CSafeLoader\n"
        "from holonomy_lab import scenario_io\n"
        "assert scenario_io._LOADER is yaml.SafeLoader\n"
        "cfg = scenario_io.load_scenario('demos/example_scenario.yaml')\n"
        "print(cfg.grid.n_steps, cfg.tolerances['phase'], len(cfg.states))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1000", "1e-09", "2"]


def _rotation_file(tmp_path, tail: str, samples: int = 400) -> str:
    """A sampled qubit scenario of ``samples`` rotations, with ``tail`` appended to its text."""
    lines = ["format_version: 1", "states:", "  - preset: maximally-mixed", "    dimension: 2",
             "  - vector: [1, 0]", "evolution:", "  variant: sampled", "  tau: 1.0", "  unitaries:"]
    for t in np.linspace(0.0, 1.0, samples):
        c, s = float(np.cos(t)), float(np.sin(t))
        lines.append(f"    - [[[{c!r}, 0], [{-s!r}, 0]], [[{s!r}, 0], [{c!r}, 0]]]")
    path = tmp_path / "rotation.yaml"
    path.write_text("\n".join(lines) + "\n" + tail, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "tail, error",
    [("invariants: [[1], [2], [1, 2]]\n", None),
     ("invariants: [[1, 2]\n", r"^line \d+: "),
     ("invariants: !!set {1, 2}\n", r"^line 410: found the tag 'tag:yaml.org,2002:set'"),
     ("invariants: [[1, 3]]\n", r"^invariants\[0\]: index 3 out of range")],
    ids=["good", "yaml-error", "tag-error", "field-error"],
)
def test_load_scenario_reads_a_400_sample_file(tmp_path, tail, error):
    path = _rotation_file(tmp_path, tail)
    enabled = gc.isenabled()
    if error is None:
        assert len(load_scenario(path).spec.unitaries) == 400
    else:
        with pytest.raises(ScenarioFormatError, match=error):
            load_scenario(path)
    assert gc.isenabled() is enabled  # the loader leaves the cyclic collector as it found it


def test_a_self_referential_alias_fails_naming_its_line(tmp_path):
    path = _preset_file(tmp_path, "format_version: 1\nstates: &a [*a]\n")
    with pytest.raises(ScenarioFormatError, match=r"^line 2: found the anchor &a;"):
        load_scenario(path)
    assert gc.isenabled()
