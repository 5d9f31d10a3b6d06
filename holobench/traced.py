"""Child process of the traced run: one op replayed with spans, or linalg timings.

    python3 traced.py replay SPEC.json STATS.json   # SPEC: {"kind", "argv", "seed"}
    python3 traced.py linalg INPUTS.npz STATS.json

``replay`` wraps the public functions listed in ``layers.TRACED`` in
spans, then runs the op through ``holonomy_lab.cli.main`` (or, for the
property suite, ``run_properties`` once per group, printing the lines
the CLI would print). Spans are aggregated in memory per name and
written to STATS.json when the op ends. ``holonomy_lab`` must be
importable, i.e. on PYTHONPATH.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

from layers import LINALG, TRACED


class Tracer:
    """Summed seconds and call counts per span name.

    A recursive call (``to_json`` on nested values) runs inside the span
    of its outermost call and is not counted again. ``covered`` is the
    time inside outermost spans, so the root time not covered by any span
    is the replay's unaccounted time.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.depth = 0
        self.covered = 0.0

    def wrap(self, name: str, fn):
        entry = self.stats.setdefault(name, [0.0, 0])
        active = []
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active:
                return fn(*args, **kwargs)
            active.append(True)
            self.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.depth -= 1
                active.pop()
                entry[0] += elapsed
                entry[1] += 1
                if not self.depth:
                    self.covered += elapsed

        return traced

    def install(self) -> None:
        """Replace every package-level binding of each traced function.

        ``from .x import f`` copies f into the importing module, so every
        module of the package is searched for the original object.
        """
        importlib.import_module("holonomy_lab.cli")
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "holonomy_lab"]
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"holonomy_lab.{mod_name}")
            for name in names:
                target = getattr(module, name, None)
                if target is None:
                    continue
                label = f"{mod_name}.{name}"
                if isinstance(target, type):
                    target.__init__ = self.wrap(label, target.__init__)
                    continue
                wrapper = self.wrap(label, target)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is target:
                            setattr(m, attr, wrapper)


def _replay_verify(tracer: Tracer, seed: int) -> int:
    from holonomy_lab.verify import property_groups, run_properties

    results = []
    for group in property_groups():
        results += tracer.wrap(f"verify.{group}", run_properties)(seed=seed, only=group)
    passed = sum(r.passed for r in results)
    lines = [r.line() for r in results]
    lines.append(f"{passed}/{len(results)} properties passed (seed={seed})")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if passed == len(results) else 3


def replay(spec_path: str, stats_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    if spec["kind"] == "verify":
        code = _replay_verify(tracer, spec["seed"])
    else:
        from holonomy_lab.cli import main

        code = main(spec["argv"])
    root = time.perf_counter() - start
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump({"root_s": root, "covered_s": tracer.covered, "stats": tracer.stats}, handle)
    return code


def _per_call_us(fn, batches: int = 7, batch_s: float = 0.02) -> float:
    """Median over batches of the time per call, after sizing a batch to ~batch_s."""
    clock = time.perf_counter
    n = 1
    while True:
        start = clock()
        for _ in range(n):
            fn()
        if clock() - start >= batch_s:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        start = clock()
        for _ in range(n):
            fn()
        samples.append((clock() - start) / n)
    return statistics.median(samples) * 1e6


def linalg_timings(inputs_path: str, stats_path: str) -> int:
    import numpy as np

    from holonomy_lab import linalg

    data = np.load(inputs_path)
    rho, h, m, t = data["rho"], data["h"], data["m"], float(data["t"])
    args = {"op_norm": (m,), "unitary_exp": (h, t), "hermitian_sqrt": (rho,), "polar_isometry": (m,)}
    timings = {}
    for name in LINALG:
        fn = getattr(linalg, name, None)
        # A function a later version removed costs nothing; report 0.
        timings[name] = 0.0 if fn is None else _per_call_us(functools.partial(fn, *args[name]))
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(timings, handle)
    return 0


if __name__ == "__main__":
    mode, first, second = sys.argv[1:4]
    sys.exit(replay(first, second) if mode == "replay" else linalg_timings(first, second))
