import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from holonomy_lab.cli import main
from holonomy_lab.evolution import MAX_STEPS, TimeGrid
from holonomy_lab.verify import property_groups

from conftest import angle_diff


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------------- run

def test_run_bell_static_json(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scenario", "bell-static", "--epsilon", "0.5",
        "--steps", "200", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["format_version"] == 1
    by_name = {inv["name"]: inv for inv in report["invariants"]}
    assert by_name["X1"]["nu"] == "undefined"
    assert by_name["X1"]["support_overlap"] < 1e-9
    assert angle_diff(by_name["X12"]["nu"], np.pi) < 1e-8
    assert by_name["X12"]["support_overlap"] > 0.1


def test_run_rotating_pure_limit_includes_comparison(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scenario", "bell-rotating", "--epsilon", "0",
        "--steps", "300", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert "comparison" in report
    comp = report["comparison"]
    assert angle_diff(comp["gamma"], np.pi) < 1e-6
    assert angle_diff(comp["nu"], np.pi) < 1e-6
    assert abs(comp["difference"]) < 1e-6


def test_run_rejects_invalid_state_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "format_version: 1\n"
        "states:\n"
        "  - matrix: [[[0.4, 0], [0, 0]], [[0, 0], [0.4, 0]]]\n"
        "evolution:\n"
        "  variant: static\n"
        "  hamiltonian: [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]\n"
        "  tau: 1.0\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "run", "--scenario", str(bad))
    assert code == 1
    assert "trace" in err


@pytest.mark.parametrize(
    "field, body",
    [
        ("dimension", "dimension: two\n"),
        ("grid.n_steps", "grid:\n  n_steps: 10.7\n"),
    ],
    ids=["dimension", "grid.n_steps"],
)
def test_run_rejects_non_integer_fields(tmp_path, capsys, field, body):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "format_version: 1\n"
        "states:\n"
        "  - preset: maximally-mixed\n"
        "    dimension: 2\n"
        "evolution:\n"
        "  variant: static\n"
        "  hamiltonian: [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]\n"
        "  tau: 1.0\n" + body,
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "run", "--scenario", str(bad))
    assert code == 1
    assert out == ""
    assert f"error: {field}: expected an integer" in err


_STATIC_QUBIT = "evolution:\n  variant: static\n  hamiltonian: [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]\n  tau: 1.0\n"
_SAMPLED_QUBIT = (
    "evolution:\n  variant: sampled\n  tau: 1.0\n  unitaries:\n"
    "    - [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]\n"
    "    - [[[0.8, 0], [-0.6, 0]], [[0.6, 0], [0.8, 0]]]\n"
    "    - [[[0.28, 0], [-0.96, 0]], [[0.96, 0], [0.28, 0]]]\n"
)


@pytest.mark.parametrize(
    "field, body",
    [
        ("states[0].eigenvalues",
         "states:\n  - eigenvalues: 5\n    eigenvectors: [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]\n" + _STATIC_QUBIT),
        ("states[0].eigenvectors",
         "states:\n  - eigenvalues: [0.5, 0.5]\n    eigenvectors: 5\n" + _STATIC_QUBIT),
        ("evolution.times",
         "states:\n  - vector: [[1, 0], [0, 0]]\n" + _SAMPLED_QUBIT.replace("  tau: 1.0\n", "  times: 5\n")),
    ],
    ids=["eigenvalues", "eigenvectors", "times"],
)
def test_run_rejects_non_list_fields(tmp_path, capsys, field, body):
    bad = tmp_path / "bad.yaml"
    bad.write_text("format_version: 1\n" + body, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--scenario", str(bad))
    assert code == 1
    assert out == ""
    assert err == f"error: {field}: expected a list\n"


@pytest.mark.parametrize(
    "body, err",
    [
        ("states:\n  - eigenvalues: [0.5, 0.5]\n    eigenvectors: [[1, 0]]\n" + _STATIC_QUBIT,
         "states[0].eigenvectors: expected 2, one per eigenvalue, got 1"),
        ("states:\n  - eigenvalues: [0.5, 0.5]\n    eigenvectors: [[1, 0], [0, 1, 0]]\n" + _STATIC_QUBIT,
         "states[0].eigenvectors[1]: expected 2 entries, got 3"),
        ("states:\n  - vector: [1, 0]\n" + _SAMPLED_QUBIT.replace("  tau: 1.0\n", "  times: [0, 0, 1]\n"),
         "evolution.times: time grid must be strictly increasing"),
        ("states:\n  - vector: [1, 0]\n" + _SAMPLED_QUBIT.replace("  tau: 1.0\n", "  times: [0.5, 0.75, 1]\n"),
         "evolution.times: time grid must start at 0"),
        ("states:\n  - vector: [1, 0]\n" + _SAMPLED_QUBIT.replace("  tau: 1.0\n", "  times: [0]\n"),
         "evolution.times: a time grid needs at least two points"),
        ("states:\n  - vector: [1, 0]\n" + _SAMPLED_QUBIT.replace("  tau: 1.0\n", "  tau: 0\n"),
         "evolution.tau: time grid must be strictly increasing"),
        ("states:\n  - vector: [1, 0]\n" + _STATIC_QUBIT.replace("  tau: 1.0\n", "  tau: 0\n"),
         "evolution.tau: tau must be positive, got 0.0"),
        # Samples within twice the time slack would both match one time, so the later one could never be reached.
        ("states:\n  - vector: [1, 0]\n" + _SAMPLED_QUBIT.replace("  tau: 1.0\n", "  times: [0, 1.0e-13, 1]\n"),
         "evolution: samples 0 and 1 lie within 2 * time_slack = 2e-12 of each other"),
        ("states:\n  - vector: [1, 0]\nevolution:\n  variant: sampled\n  tau: 1.0e-9\n  unitaries:\n"
         + "    - [[1, 0], [0, 1]]\n" * 2001,
         "evolution: samples 0 and 1 lie within 2 * time_slack = 2e-12 of each other"),
    ],
    ids=["eigenvector-count", "ragged-eigenvectors", "times-repeated", "times-late-start", "times-one-point",
         "tau-zero", "tau-zero-static", "times-within-slack", "tau-within-slack"],
)
def test_run_rejects_mismatched_shapes_naming_the_field(tmp_path, capsys, body, err):
    bad = tmp_path / "bad.yaml"
    bad.write_text("format_version: 1\n" + body, encoding="utf-8")
    assert run_cli(capsys, "run", "--scenario", str(bad)) == (1, "", f"error: {err}\n")


def test_sampled_run_without_grid_uses_the_sample_times(tmp_path, capsys):
    path = tmp_path / "sampled.yaml"
    path.write_text("format_version: 1\nstates:\n  - vector: [[1, 0], [0, 0]]\n" + _SAMPLED_QUBIT, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--scenario", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["parameters"]["steps"] == 2
    # The same file with the matching grid spelled out reports the same numbers.
    path.write_text(path.read_text() + "grid:\n  n_steps: 2\n", encoding="utf-8")
    code, explicit, _ = run_cli(capsys, "run", "--scenario", str(path), "--format", "json")
    assert code == 0
    assert explicit == out


def test_sampled_run_with_a_grid_off_the_samples_exits_one(tmp_path, capsys):
    path = tmp_path / "sampled.yaml"
    path.write_text(
        "format_version: 1\nstates:\n  - vector: [[1, 0], [0, 0]]\n" + _SAMPLED_QUBIT + "grid:\n  n_steps: 4\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "run", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: grid: t = 0.25 is not a sample point; resample instead of interpolating\n"


def test_run_generic_scenario_file(tmp_path, capsys):
    body = (
        "format_version: 1\n"
        "states:\n"
        "  - preset: bell-mixture\n"
        "    epsilon: 0.5\n"
        "  - matrix: [[[0.6666666666666666, 0], [0, 0], [0, 0], [0, 0]],"
        " [[0, 0], [0, 0], [0, 0], [0, 0]],"
        " [[0, 0], [0, 0], [0.16666666666666666, 0], [0.16666666666666666, 0]],"
        " [[0, 0], [0, 0], [0.16666666666666666, 0], [0.16666666666666666, 0]]]\n"
        "evolution:\n"
        "  variant: rotating\n"
        "  u: 1.0\n"
        "grid:\n"
        "  n_steps: 120\n"
        "invariants:\n"
        "  - [1]\n"
        "  - [1, 2]\n"
    )
    path = tmp_path / "generic.yaml"
    path.write_text(body, encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--scenario", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    names = [inv["name"] for inv in report["invariants"]]
    assert names == ["X_1", "X_12"]


def test_run_numerical_failure_exit_two(tmp_path, capsys):
    # A sampled evolution jumping to an orthogonal state breaks transport.
    body = (
        "format_version: 1\n"
        "states:\n"
        "  - vector: [[1, 0], [0, 0]]\n"
        "evolution:\n"
        "  variant: sampled\n"
        "  tau: 1.0\n"
        "  unitaries:\n"
        "    - [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]\n"
        "    - [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]\n"
        "grid:\n"
        "  n_steps: 1\n"
    )
    path = tmp_path / "orthogonal.yaml"
    path.write_text(body, encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--scenario", str(path))
    assert code == 2
    assert "numerical failure" in err


def test_run_svd_failure_exits_two(capsys, monkeypatch):
    # LinAlgError is a ValueError, but a failed SVD is a numerical failure.
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    code, _, err = run_cli(capsys, "run", "--scenario", "bell-static", "--steps", "8")
    assert code == 2
    assert "numerical failure: SVD did not converge" in err


def test_run_out_of_memory_exits_two(capsys, monkeypatch):
    # Never a real oversized grid: an allocation the OS accepts can get the process killed later.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 22.4 GiB for an array with shape (3000000001,)")

    monkeypatch.setattr(TimeGrid, "uniform", no_memory)
    code, out, err = run_cli(capsys, "run", "--scenario", "bell-static", "--steps", "3000000000")
    assert (code, out) == (2, "")
    assert err == "numerical failure: out of memory: Unable to allocate 22.4 GiB for an array with shape (3000000001,)\n"


_MIXED_QUBIT = "format_version: 1\nstates:\n  - preset: maximally-mixed\n    dimension: 2\n"
_BELL_STATE = "format_version: 1\nstates:\n  - preset: bell-mixture\n    epsilon: 0.5\n"


@pytest.mark.parametrize(
    "field, argv, body",
    [
        ("--u", ("run", "--scenario", "bell-rotating", "--u", "nan"), None),
        ("--u", ("run", "--scenario", "bell-rotating", "--u", "inf"), None),
        ("--epsilon", ("run", "--scenario", "bell-static", "--epsilon", "nan"), None),
        ("values", ("sweep", "--scenario", "bell-static", "--parameter", "u", "--values", "1,nan"), None),
        ("evolution.tau", ("run",), _MIXED_QUBIT + _STATIC_QUBIT.replace("tau: 1.0", "tau: .nan")),
        ("evolution.tau", ("run",), _MIXED_QUBIT + _STATIC_QUBIT.replace("tau: 1.0", "tau: .inf")),
        ("grid.tau", ("run",), _MIXED_QUBIT + _STATIC_QUBIT + "grid: {tau: .nan}\n"),
        ("evolution.times", ("run",), _MIXED_QUBIT + _SAMPLED_QUBIT.replace("  tau: 1.0\n", "  times: [0, .nan, 1]\n")),
        ("observables.A[0][0]", ("run",), _MIXED_QUBIT + _STATIC_QUBIT + "observables:\n  A: [[.nan, 0], [0, 1]]\n"),
        ("epsilon", ("run",), "format_version: 1\nscenario: bell-static\nepsilon: 1" + "0" * 400 + "\n"),
        # tau = pi/u overflows to inf.
        ("u", ("run", "--scenario", "bell-rotating", "--u", "1e-320", "--steps", "10"), None),
        ("evolution.u", ("run",), _BELL_STATE + "evolution:\n  variant: rotating\n  u: 1e-320\n"),
    ],
    ids=["u-nan", "u-inf", "epsilon-nan", "sweep-values", "static-tau-nan", "static-tau-inf",
         "grid-tau-nan", "sampled-times-nan", "matrix-entry-nan", "integer-beyond-float",
         "u-tiny", "rotating-u-tiny"],
)
def test_non_finite_numbers_exit_one_naming_the_input(tmp_path, capsys, field, argv, body):
    if body is not None:
        path = tmp_path / "nonfinite.yaml"
        path.write_text(body, encoding="utf-8")
        argv = argv + ("--scenario", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field}") and "finite" in err, err


_SIGMA_Z_QUBIT = "evolution:\n  variant: static\n  hamiltonian: [[1, 0], [0, -1]]\n  tau: 1.0\n"
_TWO_QUBIT_STATES = "states:\n  - matrix: [[0.5, 0], [0, 0.5]]\n  - vector: [1, 0]\n"
_ONE_OBSERVABLE = "invariants: [[1], [2], [1, 2]]\nobservables:\n  A: [[1, 0], [0, 0]]\n"


# YAML 1.1 reads 1.0e+308 as a float; it needs the exponent's sign.
@pytest.mark.parametrize(
    "code, field, body",
    [
        (1, "states[1]", _TWO_QUBIT_STATES.replace("vector: [1, 0]", "matrix: [[0.5, 1.0e+308], [0, 0.5]]")
         + _SIGMA_Z_QUBIT + _ONE_OBSERVABLE),
        (0, None, _TWO_QUBIT_STATES.replace("[1, 0]", "[1.0e+308, 1]") + _SIGMA_Z_QUBIT + _ONE_OBSERVABLE),
        (0, None, _TWO_QUBIT_STATES.replace("[1, 0]", "[1.0e-320, 0]") + _SIGMA_Z_QUBIT + _ONE_OBSERVABLE),
        (1, "states[1].eigenvectors",
         _TWO_QUBIT_STATES.replace("vector: [1, 0]", "eigenvalues: [0.5, 0.5]\n    eigenvectors: [[1, 0], [1.0e+308, 1]]")
         + _SIGMA_Z_QUBIT + _ONE_OBSERVABLE),
        (0, None, _TWO_QUBIT_STATES + _SIGMA_Z_QUBIT.replace("[[1, 0]", "[[1.0e+308, 0]") + _ONE_OBSERVABLE),
        (1, "evolution", _TWO_QUBIT_STATES
         + "evolution:\n  variant: sampled\n  tau: 1.0\n  unitaries:\n    - [[1, 0], [0, 1]]\n    - [[1, 0], [0, 1.0e+308]]\n"
         + _ONE_OBSERVABLE),
        (0, None, _TWO_QUBIT_STATES + _SIGMA_Z_QUBIT + _ONE_OBSERVABLE.replace("[[1, 0]", "[[1.0e+308, 0]")),
    ],
    ids=["states.matrix", "states.vector", "states.vector-subnormal", "states.eigenvectors",
         "evolution.hamiltonian", "evolution.unitaries", "observables"],
)
def test_an_entry_near_the_float_limit_runs_or_exits_one_naming_its_field(tmp_path, capsys, code, field, body):
    path = tmp_path / "huge.yaml"
    path.write_text("format_version: 1\n" + body, encoding="utf-8")
    exit_code, out, err = run_cli(capsys, "run", "--scenario", str(path))
    assert exit_code == code, err
    if code == 1:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {field}: "), err
    else:
        assert err == "" and "X_12" in out


def _numbers(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, (int, float)) else []


@pytest.mark.parametrize("scenario", ["bell-static", "bell-rotating"])
@pytest.mark.parametrize("epsilon", ["1e155", "1e300"])
def test_a_huge_epsilon_runs_with_finite_numbers(tmp_path, capsys, scenario, epsilon):
    code, out, err = run_cli(capsys, "run", "--scenario", scenario, "--epsilon", epsilon, "--steps", "20",
                             "--format", "json")
    assert (code, err) == (0, ""), err
    report = json.loads(out)
    assert report["forms"]["variant_form_distance"] == pytest.approx(1.0)
    assert all(np.isfinite(_numbers(report)))
    path = tmp_path / "preset.yaml"
    path.write_text(f"format_version: 1\nscenario: {scenario}\nepsilon: {epsilon}\nsteps: 20\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--scenario", str(path), "--format", "json")
    assert (code, err) == (0, ""), err
    assert all(np.isfinite(_numbers(json.loads(out))))
    code, out, err = run_cli(capsys, "sweep", "--scenario", scenario, "--parameter", "epsilon",
                             "--values", f"0.5,{epsilon}", "--steps", "20")
    assert (code, err) == (0, ""), err
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("command", [
    ("run", "--scenario", "bell-static"),
    ("sweep", "--scenario", "bell-static", "--parameter", "epsilon", "--values", "0.5"),
])
def test_seed_flag_is_verify_only(capsys, command):
    code, _, err = run_cli(capsys, *command, "--seed", "3")
    assert code == 1
    assert "--seed" in err


def test_verify_rejects_a_negative_seed_naming_the_flag(capsys):
    assert run_cli(capsys, "verify", "--seed", "-1") == (
        1, "", "error: --seed: expected a non-negative integer, got -1\n"
    )


@pytest.mark.parametrize("flag, value", [("--epsilon", "0.3"), ("--u", "2"), ("--steps", "7")])
def test_preset_flags_on_a_file_scenario_exit_one(capsys, flag, value):
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "demos" / "example_scenario.yaml"
    code, out, err = run_cli(capsys, "run", "--scenario", str(path), flag, value)
    assert (code, out) == (1, "")
    assert err == f"error: {flag}: applies to preset scenarios only; {path} is not one\n"


def test_preset_and_file_routes_agree(capsys):
    # The example file is bell-rotating at eps = 0.5 with rho_2(0) written out as a matrix.
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "demos" / "example_scenario.yaml"
    code, out, _ = run_cli(
        capsys, "run", "--scenario", "bell-rotating", "--epsilon", "0.5", "--steps", "1000", "--format", "json",
    )
    assert code == 0
    preset = json.loads(out)
    code, out, _ = run_cli(capsys, "run", "--scenario", str(path), "--format", "json")
    assert code == 0
    generic = json.loads(out)
    by_name = {inv["name"]: inv for inv in generic["invariants"]}
    for inv in preset["invariants"]:
        other = by_name["X_" + inv["name"][1:]]
        assert inv["indices"] == other["indices"]
        assert np.allclose(inv["trace"], other["trace"], rtol=0, atol=1e-12)
        assert inv["support_overlap"] == pytest.approx(other["support_overlap"], rel=0, abs=1e-12)
        if inv["nu"] == "undefined":
            assert other["nu"] == "undefined"
        else:
            assert angle_diff(inv["nu"], other["nu"]) < 1e-12
    assert preset["transport"]["per_path"].keys() == generic["transport"]["per_path"].keys()
    for key, value in preset["transport"]["per_path"].items():
        assert value == pytest.approx(generic["transport"]["per_path"][key], rel=0, abs=1e-12)


def test_run_dump_isometry(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scenario", "bell-static", "--steps", "64",
        "--format", "json", "--dump-isometry",
    )
    assert code == 0
    report = json.loads(out)
    iso = np.array(
        [[complex(re, im) for re, im in row] for row in report["invariants"][2]["isometry"]]
    )
    # Holonomy isometry of X12: minus the Phi-plane projector, which is
    # diag(1, 0, 0, 1) in the computational basis.
    assert np.allclose(iso, -np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-8)


def test_dump_isometry_of_a_vanishing_invariant_is_undefined(capsys):
    from pathlib import Path

    # At tol 0.5 every invariant of the shipped file has ||X|| <= tol
    # (0.487, 0.473 and 0.224), while its phase threshold stays 1e-9.
    path = Path(__file__).resolve().parent.parent / "demos" / "example_scenario.yaml"
    code, out, _ = run_cli(
        capsys, "run", "--scenario", str(path), "--tol", "0.5", "--format", "json", "--dump-isometry"
    )
    assert code == 0
    by_name = {inv["name"]: inv for inv in json.loads(out)["invariants"]}
    assert [by_name[n]["isometry"] for n in ("X_1", "X_2", "X_12")] == ["undefined"] * 3
    assert angle_diff(by_name["X_12"]["nu"], np.pi) < 1e-8


def test_dump_isometry_on_a_preset_uses_the_transport_tol(capsys):
    # ||X1|| = ||X2|| = 2/3 > 0.5 >= ||X12|| = 4/9.
    code, out, _ = run_cli(
        capsys, "run", "--scenario", "bell-static", "--tol", "0.5", "--format", "json", "--dump-isometry"
    )
    assert code == 0
    by_name = {inv["name"]: inv for inv in json.loads(out)["invariants"]}
    for name in ("X1", "X2"):
        iso = np.array([[complex(re, im) for re, im in row] for row in by_name[name]["isometry"]])
        assert iso.shape == (4, 4) and np.allclose(iso @ iso.conj().T @ iso, iso, atol=1e-8)
    assert by_name["X12"]["isometry"] == "undefined"


def test_run_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for target in (out1, out2):
        code, _, _ = run_cli(
            capsys, "run", "--scenario", "bell-rotating", "--epsilon", "0.5",
            "--steps", "150", "--format", "json", "--output", str(target),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", [
    ("run", "--scenario", "bell-static", "--steps", "10"),
    ("sweep", "--scenario", "bell-static", "--parameter", "epsilon", "--values", "0.5", "--steps", "10"),
    ("verify", "--only", "trace-cyclic"),
])
def test_unwritable_output_exits_one_naming_the_flag(tmp_path, capsys, command):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, *command, "--output", str(target))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --output: cannot write {str(target)!r}: ") and err.count("\n") == 1, err
    assert not target.parent.exists()


def test_json_and_csv_numbers_agree(capsys):
    args = ("run", "--scenario", "bell-static", "--epsilon", "1", "--steps", "100")
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    report = json.loads(out_json)
    csv_map = dict(line.split(",", 1) for line in out_csv.splitlines()[1:])
    from holonomy_lab.report import fmt

    assert csv_map["parameters.tau"] == fmt(report["parameters"]["tau"])
    assert csv_map["invariants.2.trace_magnitude"] == fmt(
        report["invariants"][2]["trace_magnitude"]
    )
    assert csv_map["transport.max_step_parallelity_residual"] == fmt(
        report["transport"]["max_step_parallelity_residual"]
    )


# ------------------------------------------------------------------------ sweep

def test_sweep_epsilon_static(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--scenario", "bell-static", "--parameter", "epsilon",
        "--values", "0,0.25,0.5,1,2", "--steps", "64",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("parameter,abs_trace_X1,")
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) < 1e-10  # |Tr X1| vanishes across the sweep
        assert angle_diff(float(cells[3]), np.pi) < 1e-8
    # Rows ordered by input value.
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 0.25, 0.5, 1.0, 2.0]


def test_sweep_steps_rotating_error_decreases(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--scenario", "bell-rotating", "--parameter", "steps",
        "--values", "250,500,1000,2000", "--epsilon", "0.5",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    errors = [float(r[6]) for r in rows]
    assert errors == sorted(errors, reverse=True)


def test_sweep_steps_must_be_integers(capsys):
    # Read like steps: in a scenario file, so a non-integer count exits 1.
    code, out, err = run_cli(
        capsys, "sweep", "--scenario", "bell-static", "--parameter", "steps", "--values", "10.5",
    )
    assert code == 1
    assert out == ""
    assert "values: expected an integer, got '10.5'" in err
    code, out, _ = run_cli(
        capsys, "sweep", "--scenario", "bell-static", "--parameter", "steps", "--values", "16,32",
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["16", "32"]


def test_sweep_empty_values(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--scenario", "bell-static", "--parameter", "epsilon",
        "--values", "",
    )
    assert code == 0
    assert out.strip().splitlines() == [out.strip().splitlines()[0]]


def test_sweep_unknown_parameter(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--scenario", "bell-static", "--parameter", "coupling",
        "--values", "1,2",
    )
    assert code == 1
    assert "parameter" in err


def test_sweep_honours_tolerance(capsys):
    # Like run, a tolerance of 0.6 leaves the phase of X12 undefined: at most
    # |Tr X12| = 5/9 < 0.6 * ||I||.
    code, out, _ = run_cli(
        capsys, "sweep", "--scenario", "bell-static", "--parameter", "epsilon",
        "--values", "0.5", "--tol", "0.6",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[3] == "undefined"


def test_sweep_deterministic_apart_from_timing(capsys):
    args = (
        "sweep", "--scenario", "bell-static", "--parameter", "epsilon",
        "--values", "0.5,1", "--steps", "50",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)

    def strip_timing(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert strip_timing(out1) == strip_timing(out2)


@pytest.mark.parametrize(
    "scenario, parameter, values",
    [("bell-static", "epsilon", ("0", "0.5")), ("bell-rotating", "steps", ("100", "200"))],
)
def test_sweep_cells_match_run(capsys, scenario, parameter, values):
    code, out, _ = run_cli(
        capsys, "sweep", "--scenario", scenario, "--parameter", parameter, "--values", ",".join(values),
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == list(values)
    for value, row in zip(values, rows):
        code, out, _ = run_cli(capsys, "run", "--scenario", scenario, f"--{parameter}", value, "--format", "csv")
        assert code == 0
        report = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert row[1:7] == [
            report["invariants.0.trace_magnitude"],
            report["invariants.2.trace_magnitude"],
            report["invariants.2.nu"],
            report["invariants.0.support_overlap"],
            report["invariants.2.support_overlap"],
            max((report[f"invariants.{i}.closed_form_error"] for i in range(3)), key=float),
        ]


@pytest.mark.parametrize(
    "argv, body",
    [
        (("run", "--scenario", "bell-static", "--u", "7"), None),
        (("run",), "format_version: 1\nscenario: bell-static\nu: 7\n"),
        (("sweep", "--scenario", "bell-static", "--parameter", "u", "--values", "1,3"), None),
    ],
    ids=["flag", "file-key", "sweep-value"],
)
def test_u_on_the_static_variant_exits_one_naming_u(tmp_path, capsys, argv, body):
    if body is not None:
        path = tmp_path / "static.yaml"
        path.write_text(body, encoding="utf-8")
        argv = argv + ("--scenario", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "u applies to the rotating variant only; the static variant takes u = 1.0, got" in err


@pytest.mark.parametrize(
    "argv, body",
    [
        (("run", "--scenario", "bell-static", "--steps", "1"), None),
        (("run",), "format_version: 1\nscenario: bell-rotating\nsteps: 1\n"),
        (("sweep", "--scenario", "bell-static", "--parameter", "steps", "--values", "1"), None),
    ],
    ids=["flag", "file-key", "sweep-value"],
)
def test_one_step_exits_one_naming_steps(tmp_path, capsys, argv, body):
    if body is not None:
        path = tmp_path / "one-step.yaml"
        path.write_text(body, encoding="utf-8")
        argv = argv + ("--scenario", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    prefix = "scenario: " if body is not None else ""
    assert err == f"error: {prefix}steps must be at least 2, got 1\n"


_HUGE = "99999999999999999999"
_GRID_FILE = _MIXED_QUBIT + _STATIC_QUBIT + "grid:\n  n_steps: {}\n"


@pytest.mark.parametrize(
    "argv, body, steps",
    [
        (("run", "--scenario", "bell-static", "--steps", "{}"), None, _HUGE),
        (("run",), "format_version: 1\nscenario: bell-static\nsteps: {}\n", _HUGE),
        (("sweep", "--scenario", "bell-static", "--parameter", "steps", "--values", "{}"), None, _HUGE),
        # linspace fails on these with an IndexError or "array is too big", which names no field.
        (("run", "--scenario", "bell-static", "--steps", "{}"), None, "9223372036854775806"),
        (("run", "--scenario", "bell-static", "--steps", "{}"), None, "4611686018427387904"),
        (("run", "--scenario", "bell-static", "--steps", "{}"), None, "1152921504606846974"),
        (("run",), "format_version: 1\nscenario: bell-static\nsteps: {}\n", "9223372036854775806"),
        (("sweep", "--scenario", "bell-static", "--parameter", "steps", "--values", "{}"), None, "9223372036854775806"),
        (("run",), _GRID_FILE, "9223372036854775806"),
        (("run",), _GRID_FILE, "9223372036854775807"),
        (("run",), _GRID_FILE, str(MAX_STEPS + 1)),
    ],
    ids=["flag", "file-key", "sweep-value", "flag-intp", "flag-2pow62", "flag-2pow60", "file-key-intp",
         "sweep-value-intp", "file-grid-intp", "file-grid-intp-max", "file-grid-bound"],
)
def test_huge_step_count_exits_one_naming_steps(tmp_path, capsys, argv, body, steps):
    # Beyond MAX_STEPS: rejected before a grid is built. A count at or below it would try to
    # allocate its grid, so none is run here.
    argv = tuple(arg.format(steps) for arg in argv)
    if body is not None:
        path = tmp_path / "huge.yaml"
        path.write_text(body.format(steps), encoding="utf-8")
        argv = argv + ("--scenario", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    if body is None:
        assert err == f"error: steps must be at most {MAX_STEPS}, got {steps}\n"
    elif "grid" in body:
        assert err == f"error: grid: n_steps must be at most {MAX_STEPS}, got {steps}\n"
    else:
        assert err == f"error: scenario: steps must be at most {MAX_STEPS}, got {steps}\n"


# ----------------------------------------------------------------------- verify

_VERIFY_SEED0 = (Path(__file__).parent / "golden" / "verify-seed0.txt").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("group", property_groups())
def test_verify_single_group(capsys, group):
    # The group's lines of the full run, with the same rng: a drifting name or offset fails.
    lines = [line for line in _VERIFY_SEED0 if line.split()[1].startswith(f"{group}::")]
    code, out, _ = run_cli(capsys, "verify", "--only", group, "--seed", "0")
    assert code == 0
    assert lines and out.splitlines() == lines + [f"{len(lines)}/{len(lines)} properties passed (seed=0)"]


def test_verify_seeded_determinism(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--only", "nodal-necessity", "--seed", "5")
    _, out2, _ = run_cli(capsys, "verify", "--only", "nodal-necessity", "--seed", "5")
    assert out1 == out2


def test_verify_unknown_group(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "no-such-group")
    assert code == 1
    assert "property group" in err


def test_bad_flag_exits_one(capsys):
    code, _, _ = run_cli(capsys, "run", "--scenario", "bell-static", "--format", "xml")
    assert code == 1


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", "/no/such/file.yaml")
    assert code == 1


def test_shipped_example_scenario(capsys):
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "demos" / "example_scenario.yaml"
    code, out, _ = run_cli(capsys, "run", "--scenario", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    by_name = {inv["name"]: inv for inv in report["invariants"]}
    assert by_name["X_1"]["nu"] == "undefined"
    assert by_name["X_12"]["nu"] != "undefined"
    assert "nu[phi_plus_projector]" in by_name["X_12"]


# ------------------------------------------------------------------- tolerances

def test_run_tolerance_near_one_truncates_to_rank_one(capsys):
    # Every rank decision is relative to the largest eigenvalue, so at tol 0.9
    # each Bell mixture (weights 2/3, 1/3) keeps only its top direction.
    code, out, err = run_cli(capsys, "run", "--scenario", "bell-static", "--tol", "0.9", "--format", "json")
    assert (code, err) == (0, "")
    by_name = {inv["name"]: inv for inv in json.loads(out)["invariants"]}
    assert by_name["X1"]["support_overlap"] < 1e-9
    assert by_name["X2"]["support_overlap"] < 1e-9
    # X12 is the product of the rank-1 truncations onto Psi- and Phi+.
    assert abs(complex(*by_name["X12"]["trace"]) - (-4 / 9)) < 1e-9
    assert abs(by_name["X1"]["closed_form_error"] - 1 / 3) < 1e-9


def test_run_phase_threshold_is_relative_to_the_observable_norm(capsys):
    # At tol 0.4 both Bell mixtures keep rank 2 and |Tr X12| = 5/9 > 0.4 * ||I||.
    code, out, err = run_cli(capsys, "run", "--scenario", "bell-static", "--tol", "0.4", "--format", "json")
    assert (code, err) == (0, "")
    x12 = json.loads(out)["invariants"][2]
    assert abs(x12["trace_magnitude"] - 5 / 9) < 1e-9
    assert x12["nu"] == pytest.approx(np.pi, abs=1e-12)


def test_run_checks_file_states_at_the_fixed_slack(tmp_path, capsys):
    # A large --tol loosens decisions, never the check that a state has unit trace.
    path = tmp_path / "trace.yaml"
    path.write_text(
        "format_version: 1\nstates:\n  - matrix: [[0.9, 0], [0, 0.5]]\n" + _STATIC_QUBIT, encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "run", "--scenario", str(path), "--tol", "0.5")
    assert (code, out, err) == (1, "", "error: states[0]: density matrix trace must be 1, got 1.4\n")


_BAD_TOLERANCES = ["0", "-1", "1", "1.5", "inf", "nan"]


@pytest.mark.parametrize("value", _BAD_TOLERANCES)
def test_run_rejects_tol_flag_outside_unit_interval(capsys, value):
    code, out, err = run_cli(capsys, "run", "--scenario", "bell-static", "--tol", value)
    assert (code, out) == (1, "")
    assert err.startswith("error: --tol: expected a finite number with 0 < tol < 1")


@pytest.mark.parametrize("name", ["phase", "transport"])
@pytest.mark.parametrize("value", _BAD_TOLERANCES)
def test_run_rejects_file_tolerance_outside_unit_interval(tmp_path, capsys, name, value):
    path = tmp_path / "tol.yaml"
    path.write_text(f"format_version: 1\nscenario: bell-static\ntolerances:\n  {name}: {value}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: tolerances.{name}: expected a finite number with 0 < tol < 1")


@pytest.mark.parametrize("flag", ["--tol", "--epsilon"])
def test_a_flag_that_is_not_a_number_fails_in_one_line(capsys, flag):
    # --tol is read by as_tolerance, as tolerances.* is in a file, not by argparse.
    code, out, err = run_cli(capsys, "run", "--scenario", "bell-static", flag, "abc")
    assert (code, out, err) == (1, "", f"error: {flag}: expected a number, got 'abc'\n")


def test_sweep_rejects_tol_flag_outside_unit_interval(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--scenario", "bell-static", "--parameter", "epsilon", "--values", "0.5", "--tol", "0",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --tol: expected a finite number with 0 < tol < 1")


def test_run_rejects_support_tolerance(tmp_path, capsys):
    path = tmp_path / "tol.yaml"
    path.write_text("format_version: 1\nscenario: bell-static\ntolerances:\n  support: 1e-9\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--scenario", str(path))
    assert (code, out, err) == (1, "", "error: tolerances.support: unknown key\n")


def test_run_rejects_eigenvectors_off_by_more_than_tol(tmp_path, capsys):
    # Norms 1 +- 4e-6: inside np.allclose's default rtol, far outside 1e-9.
    path = tmp_path / "eig.yaml"
    path.write_text(
        "format_version: 1\nstates:\n  - eigenvalues: [0.5, 0.5]\n"
        "    eigenvectors: [[1.000004, 0], [0, 0.999996]]\n" + _STATIC_QUBIT,
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "run", "--scenario", str(path))
    assert (code, out, err) == (1, "", "error: states[0].eigenvectors: must be orthonormal\n")


# ------------------------------------------------------------------- scenario files

_QUBIT = _MIXED_QUBIT + _STATIC_QUBIT
_IDENTITY_4 = "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"
_STATES = "format_version: 1\nstates:\n"


@pytest.mark.parametrize(
    "command, body, error",
    [
        ("run", "- 1\n", "file: top level must be a mapping"),
        ("run", "format_version: 1\nscenario: bell-static\ntolerances: 1e-9\n", "tolerances: expected a mapping"),
        ("run", _MIXED_QUBIT + "  - preset: bell-mixture\n" + _STATIC_QUBIT, "states: states differ in dimension: [2, 4]"),
        ("run", _MIXED_QUBIT, "evolution: required for non-preset scenarios"),
        ("run", _MIXED_QUBIT + "evolution: static\n", "evolution: expected a mapping"),
        ("run", _BELL_STATE + _STATIC_QUBIT, "evolution: evolution dimension 2 vs states 4"),
        ("run", _MIXED_QUBIT + "evolution:\n  variant: sampled\n  tau: 1.0\n  unitaries: [[[1, 0], [0, 1]]]\n",
         "evolution.unitaries: expected a list of at least two matrices"),
        ("run", _QUBIT + "grid: 10\n", "grid: expected a mapping"),
        ("run", _QUBIT + "grid: {tau: 2.0}\n", "grid.tau: grid end 2.0 exceeds evolution duration 1.0"),
        ("run", _QUBIT + "invariants: []\n", "invariants: expected a non-empty list of index sequences"),
        ("run", _QUBIT + "invariants: [[]]\n", "invariants[0]: expected a non-empty index sequence"),
        ("run", _QUBIT + "observables: [1]\n", "observables: expected a mapping of name -> matrix"),
        ("run", _QUBIT + f"observables:\n  A: {_IDENTITY_4}\n", "observables.A: dimension 4 vs states 2"),
        ("run", _QUBIT.replace("[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]", "[]"),
         "evolution.hamiltonian: expected a non-empty list of rows"),
        ("run", _QUBIT.replace("[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]", "[1, 0]"),
         "evolution.hamiltonian[0]: expected a list of entries"),
        ("run", _QUBIT.replace("[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]", "[[1, 0]]"),
         "evolution.hamiltonian: expected a square matrix, got shape (1, 2)"),
        ("run", _STATES + "  - vector: []\n" + _STATIC_QUBIT, "states[0].vector: expected a non-empty list of entries"),
        ("run", _STATES + "  - preset: thermal\n" + _STATIC_QUBIT, "states[0].preset: unknown state preset 'thermal'"),
        ("run", _STATES + "  - eigenvalues: [1, 0]\n" + _STATIC_QUBIT,
         "states[0].eigenvectors: required alongside eigenvalues"),
        ("run", _STATES + "  - epsilon: 0.5\n" + _STATIC_QUBIT,
         "states[0]: needs one of: preset, matrix, vector, eigenvalues"),
        ("run", _MIXED_QUBIT.replace("dimension: 2", "dimension: 0") + _STATIC_QUBIT,
         "states[0].dimension: expected a positive integer, got 0"),
        ("run", _MIXED_QUBIT.replace("dimension: 2", "dimension: -1") + _STATIC_QUBIT,
         "states[0].dimension: expected a positive integer, got -1"),
        ("run", _STATES + "  - eigenvalues: []\n    eigenvectors: []\n" + _STATIC_QUBIT,
         "states[0].eigenvalues: expected a non-empty list"),
        ("sweep", _QUBIT, "sweep: only preset scenarios can be swept"),
    ],
    ids=["top-level", "tolerances", "state-dimensions", "evolution-missing", "evolution-not-a-mapping",
         "evolution-dimension", "one-unitary", "grid-not-a-mapping", "grid-tau", "invariants-empty",
         "invariant-empty", "observables-not-a-mapping", "observable-dimension", "matrix-empty", "matrix-row",
         "matrix-not-square", "vector-empty", "state-preset", "eigenvectors-missing", "state-form", "dimension-zero",
         "dimension-negative", "eigenvalues-empty", "sweep-file"],
)
def test_a_bad_scenario_file_exits_one_naming_its_field(tmp_path, capsys, command, body, error):
    path = tmp_path / "bad.yaml"
    path.write_text(body, encoding="utf-8")
    argv = (command, "--scenario", str(path))
    if command == "sweep":
        argv += ("--parameter", "epsilon", "--values", "0.5")
    assert run_cli(capsys, *argv) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "body, field",
    [
        ("format_version: 1\nscenario: bell-static\nepsilom: 0.9\n", "epsilom"),
        ("format_version: 1\nscenario: bell-static\nstates: 5\n", "states"),
        (_QUBIT + "invariant: [[1]]\n", "invariant"),
        (_QUBIT + "steps: 10\n", "steps"),
        (_QUBIT + "grid: {n_step: 10}\n", "grid.n_step"),
        (_QUBIT.replace("  tau: 1.0\n", "  tau: 1.0\n  u: 2\n"), "evolution.u"),
        (_MIXED_QUBIT + "evolution:\n  variant: rotating\n  tau: 1.0\n", "evolution.tau"),
        (_MIXED_QUBIT + _SAMPLED_QUBIT.replace("  tau: 1.0\n", "  tau: 1.0\n  times: [0, 0.5, 1]\n"), "evolution.tau"),
        (_STATES + "  - matrix: [[1, 0], [0, 0]]\n    vector: [0, 1]\n" + _STATIC_QUBIT, "states[0].vector"),
        (_STATES + "  - preset: maximally-mixed\n    epsilon: 0.5\n" + _STATIC_QUBIT, "states[0].epsilon"),
        (_STATES + "  - eigenvalues: [1, 0]\n    eigenvectors: [[1, 0], [0, 1]]\n    vectors: 1\n" + _STATIC_QUBIT,
         "states[0].vectors"),
    ],
    ids=["preset-misspelt", "preset-states", "file-misspelt", "file-steps", "grid", "static", "rotating",
         "sampled-times-and-tau", "matrix-and-vector", "state-preset", "eigen-data"],
)
def test_an_unknown_key_exits_one_naming_it(tmp_path, capsys, body, field):
    path = tmp_path / "unknown.yaml"
    path.write_text(body, encoding="utf-8")
    assert run_cli(capsys, "run", "--scenario", str(path)) == (1, "", f"error: {field}: unknown key\n")


def test_steps_read_alike_as_flag_file_key_and_sweep_value(tmp_path, capsys):
    code, flag_out, err = run_cli(capsys, "run", "--scenario", "bell-static", "--steps", "2e2", "--format", "csv")
    assert (code, err) == (0, "")
    path = tmp_path / "steps.yaml"
    path.write_text("format_version: 1\nscenario: bell-static\nsteps: 2e2\n", encoding="utf-8")
    code, file_out, err = run_cli(capsys, "run", "--scenario", str(path), "--format", "csv")
    assert (code, err) == (0, "")
    assert file_out.replace(str(path), "bell-static") == flag_out
    report = dict(line.split(",", 1) for line in flag_out.splitlines()[1:])
    assert report["parameters.steps"] == "200"
    code, sweep_out, err = run_cli(capsys, "sweep", "--scenario", "bell-static", "--parameter", "steps",
                                   "--values", "2e2")
    assert (code, err) == (0, "")
    row = sweep_out.splitlines()[1].split(",")
    assert row[:3] == ["200", report["invariants.0.trace_magnitude"], report["invariants.2.trace_magnitude"]]


def test_an_eigen_data_state_is_its_matrix(tmp_path, capsys):
    from holonomy_lab.scenario_io import parse_scenario

    theta, phi = 0.3, 1.1
    c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    V = np.array([[c, -s / e], [s * e, c]])  # a complex rotated eigenbasis, one eigenvector per column
    lam = [0.7, 0.3]
    # (V diag(lam) V^dag), written out entry by entry.
    m = np.array([[0.7 * c * c + 0.3 * s * s, 0.4 * c * s / e], [0.4 * c * s * e, 0.7 * s * s + 0.3 * c * c]])

    def pair(z):
        return f"[{float(z.real)!r}, {float(z.imag)!r}]"

    vectors = "[" + ", ".join("[" + ", ".join(pair(z) for z in col) + "]" for col in V.T) + "]"
    matrix = "[" + ", ".join("[" + ", ".join(pair(z) for z in row) + "]" for row in m) + "]"
    tail = _SIGMA_Z_QUBIT + "invariants: [[1], [1, 2]]\n"
    second = "  - vector: [[0.6, 0], [0, 0.8]]\n"
    eigen = f"{_STATES}  - eigenvalues: {lam}\n    eigenvectors: {vectors}\n{second}{tail}"
    dense = f"{_STATES}  - matrix: {matrix}\n{second}{tail}"
    state = parse_scenario(yaml.safe_load(eigen)).states[0]
    assert np.abs(state.matrix - m).max() < 1e-15
    path = tmp_path / "state.yaml"
    reports = []
    for body in (eigen, dense):
        path.write_text(body, encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--scenario", str(path), "--format", "json")
        assert (code, err) == (0, "")
        reports.append(out)
    assert reports[0] == reports[1]


def _readme_yaml_blocks():
    from pathlib import Path

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```yaml\n(.*?)```", text, flags=re.S)


@pytest.mark.parametrize("block", _readme_yaml_blocks(), ids=lambda block: block.splitlines()[1].split(":")[0])
def test_each_readme_scenario_runs(tmp_path, capsys, block):
    path = tmp_path / "readme.yaml"
    path.write_text(block, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--scenario", str(path))
    assert (code, err) == (0, ""), err
