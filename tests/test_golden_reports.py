"""Golden CLI reports: each case must reproduce its committed file.

Non-numeric text (keys, tokens, layout, key order) must match exactly;
numbers must match to abs 1e-12 / rel 1e-9, so the comparison survives a
different BLAS. The ``scenario`` field echoes the path given on the
command line, so every case runs from the repository root.

Regenerate the files (only when a report change is intended and
explained) from the repository root with:

    PYTHONPATH=src python3 tests/test_golden_reports.py
"""

import math
import re
import sys
from pathlib import Path

import pytest

from holonomy_lab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests") / "golden"
STEPS = "100"

CASES = {}
for _preset in ("bell-static", "bell-rotating"):
    for _eps in ("0", "0.5"):
        for _fmt, _ext in (("json", "json"), ("csv", "csv"), ("text", "txt")):
            CASES[f"{_preset}-eps{_eps}.{_ext}"] = (
                "run", "--scenario", _preset, "--epsilon", _eps, "--steps", STEPS, "--format", _fmt,
            )
CASES["bell-static-eps0.5-isometry.json"] = (
    "run", "--scenario", "bell-static", "--epsilon", "0.5", "--steps", STEPS,
    "--format", "json", "--dump-isometry",
)
CASES["example-scenario-isometry.json"] = (
    "run", "--scenario", "demos/example_scenario.yaml", "--format", "json", "--dump-isometry",
)
CASES["preset-file-override.json"] = (
    "run", "--scenario", str(GOLDEN / "preset_override.yaml"), "--epsilon", "0.5",
    "--steps", STEPS, "--format", "json",
)
CASES["verify-seed0.txt"] = ("verify", "--seed", "0")

# A number not glued to a word or a key path ("X12", "invariants.0").
_NUMBER = re.compile(r"(?<![\w.])(-?\d+(?:\.\d+)?(?:e[+-]?\d+)?)(?![\w.])")


def assert_reports_match(actual: str, expected: str) -> None:
    got = _NUMBER.split(actual)
    want = _NUMBER.split(expected)
    assert len(got) == len(want), "reports differ in their number of numeric tokens"
    for i, (g, w) in enumerate(zip(got, want)):
        if i % 2 == 0:
            assert g == w, f"text differs: {g!r} != {w!r}"
        else:
            assert math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=1e-12), (
                f"number differs after {got[i - 1]!r}: {g} != {w}"
            )


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(list(CASES[name])) == 0
    assert_reports_match(capsys.readouterr().out, (GOLDEN / name).read_text(encoding="utf-8"))


def test_comparison_ignores_number_noise_but_not_text():
    assert_reports_match('{"nu": 3.14159265359}', '{"nu": 3.14159265358999}')
    with pytest.raises(AssertionError):
        assert_reports_match('{"nu": 3.1416}', '{"nu": 3.14159265359}')
    with pytest.raises(AssertionError):
        assert_reports_match('{"nu": "undefined"}', '{"nu": 3.14159265359}')
    with pytest.raises(AssertionError):
        assert_reports_match("X13  1", "X12  1")


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        code = main([*argv, "--output", str(GOLDEN / name)])
        print(f"{name}: exit {code}", file=sys.stderr)
