"""Run the ``run:`` steps of the CI workflow locally, in order, from the repository root.

    python3 tools/ci_local.py [--workflow .github/workflows/tests.yml]

Each step runs under ``bash --noprofile --norc -eo pipefail``, as on a
hosted runner, with the step's own ``env``, ``PYTHONPATH=src``, a fresh
temporary ``RUNNER_TEMP`` and a ``holonomy-lab`` shim on ``PATH`` that
starts the command line from ``src`` with this interpreter, so nothing
needs to be installed. The ``Install`` step and the ``uses:`` steps are
skipped. Every step runs even after a failure; each one's name and
status are printed, and the exit status is 1 if any step failed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = ("Install",)
SHIM = """#!/bin/sh
PYTHONPATH="{src}${{PYTHONPATH:+:$PYTHONPATH}}" exec "{python}" -c \\
    "import sys; from holonomy_lab.cli import main; sys.exit(main())" "$@"
"""


def steps(workflow: Path) -> list:
    """Every step of every job, in file order."""
    jobs = yaml.safe_load(workflow.read_text(encoding="utf-8"))["jobs"]
    return [step for job in jobs.values() for step in job["steps"]]


def run_step(step: dict, shim_dir: str) -> int:
    with tempfile.TemporaryDirectory(prefix="runner-temp-") as runner_temp:
        env = dict(os.environ, PYTHONPATH="src", RUNNER_TEMP=runner_temp)
        env["PATH"] = shim_dir + os.pathsep + env.get("PATH", "")
        env.update({key: str(value) for key, value in step.get("env", {}).items()})
        argv = ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", step["run"]]
        return subprocess.run(argv, cwd=ROOT, env=env).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workflow", type=Path, default=ROOT / ".github" / "workflows" / "tests.yml")
    args = parser.parse_args(argv)
    results = []
    with tempfile.TemporaryDirectory(prefix="ci-shim-") as shim_dir:
        shim = Path(shim_dir) / "holonomy-lab"
        shim.write_text(SHIM.format(src=ROOT / "src", python=sys.executable), encoding="utf-8")
        shim.chmod(0o755)
        for step in steps(args.workflow):
            name = step.get("name") or step.get("uses") or step.get("run", "").splitlines()[0]
            if "run" not in step or name in SKIPPED:
                print(f"SKIP  {name}", flush=True)
                continue
            print(f"----  {name}", flush=True)
            start = time.perf_counter()
            code = run_step(step, shim_dir)
            status = "PASS" if code == 0 else f"FAIL (exit {code})"
            results.append((name, code))
            print(f"{status}  {name}  [{time.perf_counter() - start:.1f} s]", flush=True)
    failed = [name for name, code in results if code != 0]
    print(f"{len(results) - len(failed)}/{len(results)} steps passed" + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
