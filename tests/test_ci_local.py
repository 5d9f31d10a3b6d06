import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKFLOW = """\
jobs:
  tests:
    steps:
      - uses: actions/checkout@v4
      - name: Install
        run: exit 7
      - name: Step env, temp dir and shim
        env:
          GREETING: hello
        run: |
          test "$GREETING" = hello
          test -d "$RUNNER_TEMP"
          test "$PYTHONPATH" = src
          holonomy-lab --version
      - name: Failing step
        run: |
          false
          echo unreachable
      - name: Later step
        run: echo later
"""


def test_ci_local_runs_every_run_step_and_reports_each(tmp_path):
    workflow = tmp_path / "tests.yml"
    workflow.write_text(WORKFLOW, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "ci_local.py"), "--workflow", str(workflow)],
        capture_output=True, text=True,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    status = [line for line in done.stdout.splitlines() if line.startswith(("SKIP", "PASS", "FAIL"))]
    assert [line.split("  [")[0] for line in status] == [
        "SKIP  actions/checkout@v4",
        "SKIP  Install",
        "PASS  Step env, temp dir and shim",
        "FAIL (exit 1)  Failing step",
        "PASS  Later step",
    ]
    assert "holonomy-lab" in done.stdout and "unreachable" not in done.stdout
    assert done.stdout.splitlines()[-1] == "2/3 steps passed; failed: Failing step"
