"""Tests of the benchmark itself: deterministic inputs and oracles that reject bad output.

    python3 -m pytest -q holobench
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from layers import PER_LAYER, VERIFY_GROUPS
from run import END_TO_END, ROOT, SRC, Proc, Runner, check
from workloads import WORKLOADS, Op, _bell_mixture, _propagators, build_ops, generic_input, scenario_text

sys.path.insert(0, str(SRC))


def _cli(*argv) -> tuple[int, str]:
    from holonomy_lab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


# ---------------------------------------------------------------- generator

@pytest.mark.parametrize("workload", ["sampled-file", "wide-generic"])
def test_generator_is_deterministic(tmp_path, workload):
    files = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        files.append(Path(build_ops(workload, 7, tmp_path / name)[0].argv[2]).read_bytes())
    assert files[0] == files[1]
    assert scenario_text(generic_input(workload, 8)).encode() != files[0]


def test_generated_states_are_valid():
    inp = generic_input("wide-generic", 3)
    ranks = [np.linalg.matrix_rank(rho, tol=1e-9) for rho in inp.states]
    assert ranks == [16, 16, 32]
    for rho in inp.states:
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1) < 1e-12


# ---------------------------------------------------------------- reference

def test_reference_transporter_matches_static_closed_form():
    # The static Bell path ends at the spin flip U(tau); its invariant is U(tau) rho(0).
    rho = _bell_mixture(0.5)
    h = np.kron(np.array([[0, -1j], [1j, 0]]), np.eye(2))
    us = _propagators(h, np.linspace(0.0, np.pi / 2, 601))
    assert np.max(np.abs(oracles.reference_invariant(rho, us) - us[-1] @ rho)) < 1e-10


# ---------------------------------------------------------------- preset oracle

@pytest.fixture(scope="module")
def preset_reports():
    reports = {}
    for variant, eps in (("static", 0.5), ("rotating", 0.0)):
        code, out = _cli("run", "--scenario", f"bell-{variant}", "--epsilon", f"{eps:g}",
                         "--steps", "400", "--format", "json")
        assert code == 0
        reports[eps] = json.loads(out)
    return reports


def _check_preset(report, eps, code=0):
    return oracles.check_preset(code, json.dumps(report), {"epsilon": eps, "steps": 400})


def _invariant(report, name):
    return next(inv for inv in report["invariants"] if inv["name"] == name)


def test_preset_oracle_accepts_real_output(preset_reports):
    for eps, report in preset_reports.items():
        assert _check_preset(report, eps) == []


@pytest.mark.parametrize("corrupt", [
    "x12_trace_sign", "x12_phase", "x1_defined", "closed_form", "residual", "steps",
])
def test_preset_oracle_rejects_corruption(preset_reports, corrupt):
    report = copy.deepcopy(preset_reports[0.5])
    x12 = _invariant(report, "X12")
    if corrupt == "x12_trace_sign":
        x12["trace"] = [-x12["trace"][0], x12["trace"][1]]
    elif corrupt == "x12_phase":
        x12["nu"] = 3.0
    elif corrupt == "x1_defined":
        _invariant(report, "X1")["nu"] = 0.0
    elif corrupt == "closed_form":
        x12["closed_form_error"] = 1e-3
    elif corrupt == "residual":
        report["transport"]["max_step_parallelity_residual"] = 1e-3
    else:
        report["parameters"]["steps"] = 399
    assert _check_preset(report, 0.5)


def test_preset_oracle_rejects_comparison_and_exit_code(preset_reports):
    report = copy.deepcopy(preset_reports[0.0])
    report["comparison"]["difference"] = 1e-3
    assert _check_preset(report, 0.0)
    assert _check_preset(preset_reports[0.0], 0.0, code=2)
    assert oracles.check_preset(0, "not json", {"epsilon": 0.0, "steps": 400})


# ---------------------------------------------------------------- generic oracle

@pytest.fixture(scope="module")
def generic_case(tmp_path_factory):
    inp = generic_input("wide-generic", 0)
    times = np.linspace(0.0, inp.tau, 41)
    inp = dataclasses.replace(inp, n_steps=40, unitaries=_propagators(inp.hamiltonian, times))
    path = tmp_path_factory.mktemp("generic") / "small.yaml"
    path.write_text(scenario_text(inp), encoding="utf-8")
    code, out = _cli("run", "--scenario", str(path), "--format", "json", "--dump-isometry")
    assert code == 0
    return inp, oracles.reference_report(inp), json.loads(out)


def test_generic_oracle_accepts_real_output(generic_case):
    inp, expected, report = generic_case
    assert oracles.check_generic(0, json.dumps(report), inp, expected) == []


@pytest.mark.parametrize("corrupt", ["trace_sign", "observable_phase", "undefined", "isometry", "names"])
def test_generic_oracle_rejects_corruption(generic_case, corrupt):
    inp, expected, report = generic_case
    report = copy.deepcopy(report)
    x12 = report["invariants"][3]
    if corrupt == "trace_sign":
        x12["trace"] = [-x12["trace"][0], -x12["trace"][1]]
    elif corrupt == "observable_phase":
        x12["nu[A]"] = x12["nu[A]"] + 1e-6
    elif corrupt == "undefined":
        x12["nu"] = "undefined"
    elif corrupt == "isometry":
        x12["isometry"][0][0][0] += 1e-6
    else:
        report["invariants"].pop()
    assert oracles.check_generic(0, json.dumps(report), inp, expected)


def test_malformed_report_counts_as_a_failure(generic_case):
    inp, expected, report = generic_case
    report = copy.deepcopy(report)
    del report["invariants"][0]["isometry"]
    op = Op(name="small", argv=(), kind="generic", generic=inp)
    problems = check(op, Proc(0, 1.0, 1.0, json.dumps(report)), {"small": expected})
    assert problems and problems[0].startswith("malformed output")


def test_generic_oracle_rejects_a_different_path(generic_case):
    # The report of one path must not pass against another path's reference.
    inp, _, report = generic_case
    other = dataclasses.replace(inp, unitaries=inp.unitaries.conj())
    assert oracles.check_generic(0, json.dumps(report), inp, oracles.reference_report(other))


# ---------------------------------------------------------------- verify oracle

@pytest.fixture(scope="module")
def verify_output():
    code, out = _cli("verify", "--seed", "4", "--only", "hermitian-sqrt")
    assert code == 0
    return out


def test_verify_oracle_accepts_real_output(verify_output):
    assert oracles.check_verify(0, verify_output, {"seed": 4}) == []


def test_verify_oracle_rejects_corruption(verify_output):
    lines = verify_output.rstrip("\n").split("\n")
    n = len(lines) - 1
    failing = ["FAIL" + lines[0].removeprefix("PASS"), *lines[1:]]
    short = [*lines[:-1], f"{n - 1}/{n} properties passed (seed=4)"]
    assert oracles.check_verify(3, verify_output, {"seed": 4})
    assert oracles.check_verify(0, verify_output, {"seed": 5})
    assert oracles.check_verify(0, "\n".join(failing) + "\n", {"seed": 4})
    assert oracles.check_verify(0, "\n".join(short) + "\n", {"seed": 4})
    assert oracles.check_verify(0, "\n".join(lines[:-1]) + "\n", {"seed": 4})


def test_version_oracle():
    assert oracles.check_version(0, "holonomy-lab 0.1.0\n") == []
    assert oracles.check_version(1, "holonomy-lab 0.1.0\n")
    assert oracles.check_version(0, "")


def test_wrapped_angles():
    assert oracles.wrapped(math.pi - (-math.pi)) < 1e-15
    assert abs(oracles.wrapped(0.25) - 0.25) < 1e-15


# ---------------------------------------------------------------- children

def test_runner_reports_a_childs_own_peak_rss(tmp_path):
    ballast = np.ones(64 * 2**20 // 8)  # this process's peak RSS must not leak into the child's
    with Runner(tmp_path) as runner:
        proc = runner.spawn(["-c", "import sys; print('hi'); sys.exit(3)"])
    assert (proc.code, proc.out) == (3, "hi\n")
    assert 0 < proc.rss_mib < 32 < ballast.nbytes / 2**20
    assert proc.wall > 0


# ---------------------------------------------------------------- tracing

def test_traced_replay_counts_spans(tmp_path):
    spec = tmp_path / "spec.json"
    stats = tmp_path / "stats.json"
    argv = ["run", "--scenario", "bell-static", "--steps", "50", "--format", "json"]
    spec.write_text(json.dumps({"kind": "preset", "argv": argv, "seed": 0}))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "traced.py"), "replay", str(spec), str(stats)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert oracles.check_preset(0, proc.stdout, {"epsilon": 0.5, "steps": 50}) == []
    data = json.loads(stats.read_text())
    counts = {name: calls for name, (_, calls) in data["stats"].items()}
    assert counts["evolution.density_path"] == 2
    assert counts["evolution.unitary_at"] == 2 * 51
    assert counts["transport.discrete_holonomy"] == 2
    assert counts["state.parallelity_residual"] == 2 * 50
    assert 0 < data["covered_s"] <= data["root_s"]


# ---------------------------------------------------------------- declaration

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in PER_LAYER]
    from holonomy_lab.verify import property_groups

    assert tuple(property_groups()) == VERIFY_GROUPS
