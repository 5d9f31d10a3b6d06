"""The scenario reader builds plain data straight from the YAML parser's events; ``yaml.load`` is its reference."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy_lab import scenario_io
from holonomy_lab.cli import main
from holonomy_lab.errors import ScenarioFormatError
from holonomy_lab.scenario_io import _read_yaml, load_scenario

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.fixture(params=LOADERS, ids=lambda loader: loader.__name__)
def loader(request, monkeypatch):
    monkeypatch.setattr(scenario_io, "_LOADER", request.param)
    return request.param


def _typed(value):
    """``value`` as nested tuples that spell out each type."""
    if isinstance(value, list):
        return ("list", [_typed(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(_typed(k), _typed(v)) for k, v in value.items()])
    return (type(value).__name__, repr(value))


def _outcome(read, text):
    """The data ``read`` makes of ``text``, or its error's class and line."""
    try:
        return _typed(read(text))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        return type(exc), None if mark is None else mark.line


def _reference(loader):
    return lambda text: yaml.load(text, Loader=loader)


def _run_file(tmp_path, capsys, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    code = main(["run", "--scenario", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- equal data

@pytest.mark.parametrize(
    "text",
    [
        "a: 1\nb: 2\na: 3\n",
        "",
        "# only a comment\n",
        "\n\n",
        "---\n",
        "--- \n...\n",
        "5\n",
        "- 1\n- [2, 3]\n",
        "[1, 1.5, 1e5, 1.0e+5, .inf, -.inf, yes, No, ~, null, 0x1F, 0o17, 017, 1_000, 12:30, +1, .5,\n"
        " 2001-12-14, 2001-12-14t21:59:43.10-05:00, '1', \"x\"]\n",
        "{'<<': 1, \"=\": 2, '&a': '*a', '!t': 3}\n",
    ],
    ids=["duplicate-keys", "empty", "comment-only", "blank", "empty-document", "empty-document-end", "scalar-root",
         "list-root", "plain-scalars", "quoted-keys"],
)
def test_reads_the_data_yaml_load_reads(text, loader):
    expected = _outcome(_reference(loader), text)
    assert expected[0] in ("dict", "list", "int", "NoneType")
    assert _outcome(_read_yaml, text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "a: 1\n---\nb: 2\n",
        "a: 1\n? [1, 2]\n: 3\n",
        "a: &l [1]\nb:\n  *l : 1\n",
        "a: 1\nb: !foo 2\n",
        "a: 1\nb: !foo [2]\n",
        "a: 1\nb: !!python/object/apply:os.system [true]\n",
        "a: 1\nb: !!python/none ''\n",
        "a: 1\nb: [1\n",
        "a: 1\nb: {<<: 5}\n",
        "a: =\n",
        "a: !!seq abc\n",
    ],
    ids=[
        "two-documents", "unhashable-key", "unhashable-alias-key", "unknown-scalar-tag", "unknown-collection-tag",
        "python-collection-tag", "python-scalar-tag", "syntax", "merge-scalar", "equals-value", "seq-tag-on-scalar",
    ],
)
def test_fails_where_yaml_load_fails_on_the_same_line(text, loader):
    with pytest.raises(yaml.YAMLError):
        yaml.load(text, Loader=loader)
    assert _outcome(_read_yaml, text) == _outcome(_reference(loader), text)


# ------------------------------------------------------------- plain data only

@pytest.mark.parametrize(
    "text, line",
    [
        ("scenario: bell-static\nepsilon: &e 0.5\n", 3),
        ("scenario: bell-static\nepsilon: *e\n", 3),
        ("scenario: bell-static\nsteps: &s [*s]\n", 3),
        ("scenario: bell-static\nepsilon: !!float 0.5\n", 3),
        ("scenario: bell-static\nsteps: !!seq [10]\n", 3),
        ("scenario: bell-static\ntolerances: !!map {phase: 1e-9}\n", 3),
        ("scenario: bell-static\nepsilon: ! 12\n", 3),
        ("scenario: bell-static\ntolerances:\n  phase: 1e-9\n  <<: {transport: 1e-9}\n", 5),
        ("scenario: bell-static\n=: 1\n", 3),
        ("scenario: bell-static\nepsilon: !!float 0.5\nsteps: [10\n", 3),
    ],
    ids=["anchor", "alias", "self-alias", "scalar-tag", "collection-tag", "map-tag", "non-specific-tag", "merge-key",
         "equals-key", "before-a-syntax-error"],
)
def test_anchors_aliases_tags_and_merge_keys_fail_on_their_line(tmp_path, capsys, loader, text, line):
    text = "format_version: 1\n" + text
    with pytest.raises(yaml.constructor.ConstructorError) as caught:
        _read_yaml(text)
    assert caught.value.problem_mark.line + 1 == line
    code, out, err = _run_file(tmp_path, capsys, text)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: line {line}: ") and "Traceback" not in err, err


@pytest.mark.parametrize(
    "body, tag",
    [("!!set {x, y}", "!!set"), ("!!omap [x: 1]", "!!omap"), ("!!pairs [x: 1, x: 2]", "!!pairs")],
)
def test_an_explicit_collection_tag_other_than_seq_or_map_fails_naming_it(tmp_path, loader, body, tag):
    text = f"format_version: 1\nscenario: {body}\n"
    assert yaml.load(text, Loader=loader)["scenario"]  # yaml.load builds a set or a list of tuples
    full = tag.replace("!!", "tag:yaml.org,2002:")
    with pytest.raises(yaml.constructor.ConstructorError, match=full) as caught:
        _read_yaml(text)
    assert caught.value.problem_mark.line == 1
    path = tmp_path / "tagged.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match=rf"^line 2: found the tag '{full}';"):
        load_scenario(str(path))


@pytest.mark.parametrize(
    "text",
    ["a: &a {<<: *a}\n", "l: &l [{<<: *l}, {a: 1}]\n", "r: &r {p: &x {<<: *r}, <<: *x}\n"],
    ids=["itself", "through-a-list", "cycle"],
)
def test_a_mapping_that_merges_itself_fails(text, loader):
    # yaml.load merges such a mapping's keys as far as it has read them (here {'a': {}}); the reader refuses
    # the file at its first anchor.
    yaml.load(text, Loader=loader)
    with pytest.raises(yaml.constructor.ConstructorError, match="found the anchor &") as caught:
        _read_yaml(text)
    assert caught.value.problem_mark.line == 0


@pytest.mark.parametrize(
    "text, raised",
    [("a: !!bool maybe\n", KeyError), ("a: !!int abc\n", ValueError), ("a: !!timestamp soon\n", AttributeError)],
    ids=["bool", "int", "timestamp"],
)
def test_unreadable_tagged_scalars_fail_naming_their_line(tmp_path, loader, text, raised):
    with pytest.raises(raised):  # yaml.load's own error carries no line
        yaml.load(text, Loader=loader)
    path = tmp_path / "scalar.yaml"
    path.write_text("format_version: 1\n" + text, encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match=r"^line 2: found the tag 'tag:yaml.org,2002:\w+';"):
        load_scenario(str(path))


def test_an_unreadable_scalar_fails_naming_its_line(tmp_path, capsys, loader):
    text = "format_version: 1\nscenario: bell-static\nepsilon: 2001-13-45\n"
    with pytest.raises(ValueError):  # yaml.load's own error carries no line
        yaml.load(text, Loader=loader)
    code, out, err = _run_file(tmp_path, capsys, text)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 3: cannot read '2001-13-45' as tag:yaml.org,2002:timestamp\n"), err


def test_a_deep_nesting_fails_without_recursion(tmp_path, capsys):
    depth = 20000  # the pure-Python scanner takes about 30 s on this, so only the default loader reads it
    code, out, err = _run_file(tmp_path, capsys, "format_version: 1\nstates: " + "[" * depth + "]" * depth + "\n")
    assert (code, out, err) == (1, "", "error: states[0]: expected a mapping describing one state\n")


_DEEP = "[" * 20000 + "]" * 20000


@pytest.mark.parametrize(
    "field, text",
    [
        ("scenario", f"format_version: 1\nscenario: {_DEEP}\n"),
        ("epsilon", f"format_version: 1\nscenario: bell-static\nepsilon: {_DEEP}\n"),
        ("format_version", f"format_version: {_DEEP}\nscenario: bell-static\n"),
        (
            "evolution.u",
            f"format_version: 1\nstates: [{{preset: bell-mixture}}]\nevolution: {{variant: rotating, u: {_DEEP}}}\n",
        ),
    ],
    ids=["scenario", "epsilon", "format_version", "evolution.u"],
)
def test_a_deep_value_is_quoted_cut_in_one_error_line(tmp_path, capsys, field, text):
    code, out, err = _run_file(tmp_path, capsys, text)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1, err
    assert "[[[[[[[...]]]]]]]" in err


def test_a_short_bad_value_is_quoted_as_repr(tmp_path, capsys):
    code, out, err = _run_file(tmp_path, capsys, "format_version: 1\nscenario: bell-static\nepsilon: [1, [2, 'x']]\n")
    assert (code, out, err) == (1, "", "error: epsilon: expected a number, got [1, [2, 'x']]\n")


# ------------------------------------------------------------- differential

_BARE = st.sampled_from(
    ["1e5", "5e-1", "-2E+3", "1e-05", "=", "<<", "~", "yes", "0x1F", "1_000", "12:30", "2001-01-01", "&a", "*a", "!t"]
)
_KEYS = st.one_of(st.integers(), st.floats(allow_nan=False), _BARE, st.text(max_size=6), st.booleans(), st.none())
_LEAVES = st.one_of(st.integers(), st.floats(allow_nan=False), _BARE, st.text(max_size=8), st.booleans(), st.none())
_TREES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4), max_leaves=12
)


@st.composite
def _documents(draw):
    """YAML text of plain nested data, written block or flow; some texts are cut short or followed by a second document."""
    data = draw(st.dictionaries(_KEYS, _TREES, min_size=2, max_size=5) | st.lists(_TREES, min_size=2, max_size=5))
    text = yaml.safe_dump(data, default_flow_style=draw(st.booleans()), sort_keys=False)
    ending = draw(st.sampled_from(["whole", "cut", "second document"]))
    if ending == "cut":
        return text[: draw(st.integers(0, len(text)))]
    return text + "--- 1\n" if ending == "second document" else text


@pytest.mark.parametrize("reference", LOADERS, ids=lambda loader: loader.__name__)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=_documents())
def test_reads_generated_documents_as_yaml_load_does(reference, text):
    with mock.patch.object(scenario_io, "_LOADER", reference):
        assert _outcome(_read_yaml, text) == _outcome(_reference(reference), text)


_FEATURES = ["x: &a 1", "x: *a", "x: !!str 1", "x: !t [1]", "x: !!map {y: 1}", "x: ! 12", "<<: {y: 1}", "=: 1"]


@st.composite
def _documents_with_a_feature(draw):
    """A block mapping of plain data with one line inserted before a top-level entry; returns (text, that line)."""
    data = {f"k{i}": tree for i, tree in enumerate(draw(st.lists(_TREES, min_size=1, max_size=4)))}
    lines = yaml.safe_dump(data, default_flow_style=False, sort_keys=False).splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("k")] + [len(lines)]
    at = draw(st.sampled_from(starts))
    lines.insert(at, draw(st.sampled_from(_FEATURES)))
    return "\n".join(lines) + "\n", at


@pytest.mark.parametrize("reference", LOADERS, ids=lambda loader: loader.__name__)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(document=_documents_with_a_feature())
def test_a_generated_anchor_alias_tag_or_merge_key_fails_on_its_line(reference, document):
    text, line = document
    with mock.patch.object(scenario_io, "_LOADER", reference):
        assert _outcome(_read_yaml, text) == (yaml.constructor.ConstructorError, line)


# ------------------------------------------------------------- memory

def test_a_sampled_file_loads_within_ten_times_its_size(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["format_version: 1", "states:", "  - preset: maximally-mixed", "    dimension: 4", "evolution:",
             "  variant: sampled", "  tau: 1.0", "  unitaries:"]
    unitaries, _ = np.linalg.qr(rng.normal(size=(2001, 4, 4)) + 1j * rng.normal(size=(2001, 4, 4)))
    unitaries[0] = np.eye(4)
    for u in unitaries.tolist():
        rows = ("[" + ", ".join(f"[{z.real!r}, {z.imag!r}]" for z in row) + "]" for row in u)
        lines.append("    - [" + ", ".join(rows) + "]")
    path = tmp_path / "sampled.yaml"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        cfg = load_scenario(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cfg.spec.unitaries) == 2001
    assert peak < 10 * size, peak / size
