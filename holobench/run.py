"""Benchmark of the holonomy-lab command line.

    python3 holobench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 holobench/run.py --workload all --seed N --seconds S   # every workload in turn

Run from a checkout of the repository; the package is imported from its
``src`` directory, nothing needs to be installed. The workloads are
defined in ``workloads.py``; inputs are generated from ``--seed``, and
the program receives only the generated files and flags.

With ``--trace 0`` each workload's ops run as fresh ``holonomy-lab``
processes, one at a time from this one benchmark process (a closed loop
with one client). Whole repetitions of the workload repeat for about
``--seconds`` (the repetition boundary nearest to it), and at least
``MIN_REPS`` times. Every output is checked by an oracle (``oracles.py``)
outside the timed region. The end-to-end metrics are:

- ``wall_s``: summed wall time of the workload's CLI processes, spawn to
  exit, taking each op's median over the repetitions;
- ``steps_per_s``: transported path steps (paths x n_steps) per second of
  ``wall_s``. The property suite's path steps are not visible from
  outside the program, so on verify-suite one whole suite counts as one
  step and the metric is suite runs per second;
- ``setup_s``: median wall time of ``holonomy-lab --version`` processes
  (interpreter start, package import, parser build);
- ``peak_rss_mb``: largest resident set among one repetition's CLI
  processes, from each child's own rusage, median over repetitions.
  Children are started by ``spawner.py``, so the benchmark's own memory
  does not count.

Failed ops (nonzero exit or an output its oracle rejects) are counted in
``failed`` out of ``attempted``; their ratio, the error rate, is printed
with the metrics.

With ``--trace 1`` each op runs once untraced and then once as a traced
replay (``traced.py``): a fresh process that wraps the package's public
functions in spans. ``--seconds`` does not apply. The per-layer metrics
listed in ``layers.py`` come from that replay and from per-call timings
of the linalg primitives on the workload's own matrices.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from layers import PER_LAYER
from workloads import WORKLOADS, build_ops, linalg_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPS = 2
SETUP_FIRST = 3
SETUP_PER_REP = 2
IMPORT_SAMPLES = 5
# No new repetition starts once it would end past this, so a run ends within 180 s.
RUN_BUDGET_S = 150.0
SPAWNER_EXIT_S = 10.0
CLI = ("-c", "import sys; from holonomy_lab.cli import main; sys.exit(main())")
IMPORT_PROBE = (
    "-c",
    "import time; t = time.perf_counter(); import holonomy_lab.cli; print(time.perf_counter() - t)",
)

END_TO_END = (
    ("wall_s", "s"),
    ("steps_per_s", "steps/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Proc:
    """A finished child: exit code, wall time, peak RSS and its standard output."""

    code: int
    wall: float
    rss_mib: float
    out: str


class Runner:
    """Starts children through ``spawner.py`` and keeps the failure tally."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        # The program's inputs are the generated files and flags, nothing else.
        env.pop("HOLONOMY_LAB_TOL", None)
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=SPAWNER_EXIT_S)
        self.spawner.stdout.close()

    def spawn(self, argv) -> Proc:
        out_path = self.workdir / "stdout.txt"
        request = {"argv": [sys.executable, *argv], "out": str(out_path), "err": str(self.workdir / "stderr.txt")}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        out = out_path.read_text(encoding="utf-8", errors="replace")
        return Proc(reply["code"], reply["wall"], reply["maxrss_kb"] / 1024.0, out)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            err = (self.workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
            detail = f" (stderr: {err.splitlines()[-1]})" if err else ""
            self.problems.append(f"{label}: {'; '.join(problems[:3])}{detail}")


def check(op, proc: Proc, expected) -> list[str]:
    try:
        if op.kind == "preset":
            return oracles.check_preset(proc.code, proc.out, op.expect)
        if op.kind == "generic":
            return oracles.check_generic(proc.code, proc.out, op.generic, expected[op.name])
        return oracles.check_verify(proc.code, proc.out, op.expect)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def run_op(runner: Runner, op, expected) -> Proc:
    proc = runner.spawn([*CLI, *op.argv])
    runner.record(op.name, check(op, proc, expected))
    return proc


def version(runner: Runner) -> float:
    proc = runner.spawn([*CLI, "--version"])
    runner.record("--version", oracles.check_version(proc.code, proc.out))
    return proc.wall


def end_to_end(runner: Runner, ops, expected, seconds: float, started: float) -> dict:
    """Repeat the workload for ``seconds``; ``--version`` samples go between repetitions.

    Set-up samples are spread over the whole run, so a slow spell of the
    machine weighs on them no more than on the workload. The first
    ``--version`` is a warm-up that writes the bytecode cache every later
    process reuses.
    """
    version(runner)
    setup = [version(runner) for _ in range(SETUP_FIRST)]
    reps = []
    loop_start = time.perf_counter()
    while True:
        reps.append([run_op(runner, op, expected) for op in ops])
        setup += [version(runner) for _ in range(SETUP_PER_REP)]
        now = time.perf_counter()
        per_rep = (now - loop_start) / len(reps)
        # Stop at the repetition boundary nearest to ``seconds``.
        if len(reps) >= MIN_REPS and now - loop_start + per_rep / 2 >= seconds:
            break
        if now - started + per_rep > RUN_BUDGET_S:
            break
    wall = sum(statistics.median(rep[i].wall for rep in reps) for i in range(len(ops)))
    steps = sum(op.steps for op in ops) or len(ops)
    return {
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(p.rss_mib for p in rep) for rep in reps),
        "reps": len(reps),
    }


def traced_run(runner: Runner, workload: str, seed: int, ops, expected) -> dict:
    totals: dict[str, list] = {}
    root = covered = traced_wall = untraced = 0.0
    per_op = []
    for op in ops:
        # Each op runs untraced right before its traced replay, so that
        # both see the machine in the same state.
        untraced += run_op(runner, op, expected).wall
        spec_path = runner.workdir / "spec.json"
        stats_path = runner.workdir / "stats.json"
        spec_path.write_text(json.dumps({"kind": op.kind, "argv": list(op.argv), "seed": seed}))
        proc = runner.spawn([str(HERE / "traced.py"), "replay", str(spec_path), str(stats_path)])
        runner.record(f"{op.name} (traced)", check(op, proc, expected))
        traced_wall += proc.wall
        if not stats_path.exists():
            continue
        data = json.loads(stats_path.read_text())
        stats_path.unlink()
        root += data["root_s"]
        covered += data["covered_s"]
        for name, (secs, calls) in data["stats"].items():
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += secs
            entry[1] += calls
            if calls:
                per_op.append((op.name, name, secs, calls))

    inputs_path = runner.workdir / "linalg.npz"
    np.savez(inputs_path, **linalg_inputs(workload, seed, ops))
    stats_path = runner.workdir / "linalg.json"
    proc = runner.spawn([str(HERE / "traced.py"), "linalg", str(inputs_path), str(stats_path)])
    runner.record("linalg timings", [] if proc.code == 0 else [f"exit code {proc.code}"])
    linalg = json.loads(stats_path.read_text()) if stats_path.exists() else {}

    imports = []
    for _ in range(IMPORT_SAMPLES):
        proc = runner.spawn(IMPORT_PROBE)
        try:
            imports.append(float(proc.out))
            problems = [] if proc.code == 0 else [f"exit code {proc.code}"]
        except ValueError:
            problems = [f"exit code {proc.code}, output {proc.out[:60]!r}"]
        runner.record("import probe", problems)

    values = {}
    for name, _unit, _moves in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if layer.startswith("linalg."):
            values[name] = linalg.get(layer.removeprefix("linalg."), 0.0)
        elif name == "cli.import.s":
            values[name] = statistics.median(imports) if imports else 0.0
        elif name == "trace.overhead_s":
            values[name] = traced_wall - untraced
        elif name == "trace.unaccounted_frac":
            values[name] = (root - covered) / root if root else 0.0
        else:
            secs, calls = totals.get(layer, (0.0, 0))
            values[name] = calls if field == "calls" else secs
    return {"values": values, "per_op": per_op, "untraced_s": untraced, "traced_s": traced_wall}


def blas_info() -> tuple[str, str]:
    """The BLAS numpy links against, and its thread count."""
    import ctypes

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        name = "unknown"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return name, f"{os.environ[var]} ({var})"
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "openblas_get_num_threads")
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in symbols:
            if hasattr(handle, symbol):
                return name, str(getattr(handle, symbol)())
    return name, "unknown"


def machine() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    blas, threads = blas_info()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": commit,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with Runner(workdir) as runner:
            ops = build_ops(workload, seed, workdir)
            expected = {op.name: oracles.reference_report(op.generic) for op in ops if op.generic}
            if trace:
                traced = traced_run(runner, workload, seed, ops, expected)
                metrics = {name: (traced["values"][name], unit) for name, unit, _ in PER_LAYER}
                notes = [f"untraced {traced['untraced_s']:.4f} s, traced replay {traced['traced_s']:.4f} s"]
                notes += [f"  {op:24s} {name:40s} {secs:10.4f} s {calls:9d} calls"
                          for op, name, secs, calls in traced["per_op"]]
            else:
                e2e = end_to_end(runner, ops, expected, seconds, started)
                metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
                notes = [f"{e2e['reps']} repetitions of {len(ops)} ops"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "notes": notes,
    }


def _print_result(res: dict) -> None:
    print(f"workload {res['workload']}: {res['attempted']} ops checked, {res['failed']} failed")
    for note in res["notes"]:
        print(f"  {note}")
    moves = {name: text for name, _, text in PER_LAYER}
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:40s} {value!r:>24} {unit:8s} {moves.get(name, '')}".rstrip())
    print(f"  {'error_rate':40s} {res['failed'] / res['attempted']!r:>24} fraction")
    for problem in res["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the holonomy-lab command line.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "holonomy_lab" / "cli.py").is_file():
        print(f"error: {SRC / 'holonomy_lab'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    print(f"machine {json.dumps(machine())}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    for res in results:
        _print_result(res)
    prefix = len(results) > 1
    metrics = {
        (f"{res['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
        for res in results for name, (value, unit) in res["metrics"].items()
    }
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
