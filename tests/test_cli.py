import json

import numpy as np
import pytest

from holonomy_lab.cli import main
from holonomy_lab.evolution import TimeGrid

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


@pytest.mark.parametrize(
    "field, argv, body",
    [
        ("u", ("run", "--scenario", "bell-rotating", "--u", "nan"), None),
        ("u", ("run", "--scenario", "bell-rotating", "--u", "inf"), None),
        ("epsilon", ("run", "--scenario", "bell-static", "--epsilon", "nan"), None),
        ("values", ("sweep", "--scenario", "bell-static", "--parameter", "u", "--values", "1,nan"), None),
        ("evolution.tau", ("run",), _MIXED_QUBIT + _STATIC_QUBIT.replace("tau: 1.0", "tau: .nan")),
        ("evolution.tau", ("run",), _MIXED_QUBIT + _STATIC_QUBIT.replace("tau: 1.0", "tau: .inf")),
        ("grid.tau", ("run",), _MIXED_QUBIT + _STATIC_QUBIT + "grid: {tau: .nan}\n"),
        ("evolution.times", ("run",), _MIXED_QUBIT + _SAMPLED_QUBIT.replace("  tau: 1.0\n", "  times: [0, .nan, 1]\n")),
        ("observables.A[0][0]", ("run",), _MIXED_QUBIT + _STATIC_QUBIT + "observables:\n  A: [[.nan, 0], [0, 1]]\n"),
        ("epsilon", ("run",), "format_version: 1\nscenario: bell-static\nepsilon: 1" + "0" * 400 + "\n"),
    ],
    ids=["u-nan", "u-inf", "epsilon-nan", "sweep-values", "static-tau-nan", "static-tau-inf",
         "grid-tau-nan", "sampled-times-nan", "matrix-entry-nan", "integer-beyond-float"],
)
def test_non_finite_numbers_exit_one_naming_the_input(tmp_path, capsys, field, argv, body):
    if body is not None:
        path = tmp_path / "nonfinite.yaml"
        path.write_text(body, encoding="utf-8")
        argv = argv + ("--scenario", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field}") and "finite" in err, err


@pytest.mark.parametrize("command", [
    ("run", "--scenario", "bell-static"),
    ("sweep", "--scenario", "bell-static", "--parameter", "epsilon", "--values", "0.5"),
])
def test_seed_flag_is_verify_only(capsys, command):
    code, _, err = run_cli(capsys, *command, "--seed", "3")
    assert code == 1
    assert "--seed" in err


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


# ----------------------------------------------------------------------- verify

def test_verify_single_group(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "gauge-invariance")
    assert code == 0
    assert "PASS gauge-invariance" in out


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


def test_env_var_sets_global_tolerance(capsys, monkeypatch):
    # A huge global tolerance pushes |Tr X12| <= 5/9 below the phase threshold.
    monkeypatch.setenv("HOLONOMY_LAB_TOL", "0.6")
    code, out, _ = run_cli(
        capsys, "run", "--scenario", "bell-static", "--steps", "50", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["invariants"][2]["nu"] == "undefined"
    # An explicit flag wins over the environment.
    code, out, _ = run_cli(
        capsys, "run", "--scenario", "bell-static", "--steps", "50",
        "--format", "json", "--tol", "1e-9",
    )
    assert json.loads(out)["invariants"][2]["nu"] != "undefined"


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


@pytest.mark.parametrize("value", _BAD_TOLERANCES)
def test_run_rejects_env_tolerance_outside_unit_interval(capsys, monkeypatch, value):
    monkeypatch.setenv("HOLONOMY_LAB_TOL", value)
    code, out, err = run_cli(capsys, "run", "--scenario", "bell-static")
    assert (code, out) == (1, "")
    assert err.startswith("error: HOLONOMY_LAB_TOL: expected a finite number with 0 < tol < 1")


@pytest.mark.parametrize("name", ["phase", "transport"])
@pytest.mark.parametrize("value", _BAD_TOLERANCES)
def test_run_rejects_file_tolerance_outside_unit_interval(tmp_path, capsys, name, value):
    path = tmp_path / "tol.yaml"
    path.write_text(f"format_version: 1\nscenario: bell-static\ntolerances:\n  {name}: {value}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: tolerances.{name}: expected a finite number with 0 < tol < 1")


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
    assert (code, out, err) == (1, "", "error: tolerances.support: unknown tolerance name\n")


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
