"""The scenario reader builds data straight from the YAML parser's events; ``yaml.load`` is its reference."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy_lab import scenario_io
from holonomy_lab.errors import ScenarioFormatError
from holonomy_lab.scenario_io import _read_yaml, load_scenario

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.fixture(params=LOADERS, ids=lambda loader: loader.__name__)
def loader(request, monkeypatch):
    monkeypatch.setattr(scenario_io, "_LOADER", request.param)
    return request.param


def _typed(value, seen=None):
    """``value`` as nested tuples that spell out each type and each shared or recursive collection."""
    seen = {} if seen is None else seen
    if isinstance(value, (list, dict)):
        if id(value) in seen:
            return ("ref", seen[id(value)])
        seen[id(value)] = len(seen)
        if isinstance(value, list):
            return ("list", [_typed(v, seen) for v in value])
        return ("dict", [(_typed(k, seen), _typed(v, seen)) for k, v in value.items()])
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


# ------------------------------------------------------------- equal data

@pytest.mark.parametrize(
    "text",
    [
        "a: &x [1, {b: 2}]\nc: *x\nd: [*x, *x]\n",
        "a: &x [*x, 1]\n",
        "a: &m {self: *m}\n",
        "base: &b {x: 1, y: 2}\nm: {<<: *b, y: 3}\n",
        "a: &a {k: 1, p: 1}\nb: &b {k: 2, q: 2}\nm:\n  z: 0\n  <<: [*a, *b]\n  k: 9\n",
        "a: &a {k: 1}\nb: &b {k: 2, j: 2}\nm: {<<: *a, <<: *b, z: 0}\n",
        "a: &a {x: 1}\nb: &b {<<: *a, y: 2}\nc: {<<: *b, z: 3}\n",
        "a: &a {x: {<<: *a}, y: 1}\n",
        "l: &l [{a: 1}, {x: {<<: *l}}]\n",
        "a: &a {x: 1}\nb: {!!merge m: *a}\nc: {'<<': 1, \"=\": 2}\n",
        "a: &a {x: 1}\nb: {&m <<: *a, y: 2}\nc: {*m : *a}\n",
        "=: 1\n",
        "{a: 1, =: 2}\n",
        "a: 1\nb: 2\na: 3\n",
        "",
        "# only a comment\n",
        "\n\n",
        "---\n",
        "--- \n...\n",
        "5\n",
        "- 1\n- [2, 3]\n",
        "[1, 1.5, 1e5, 1.0e+5, .inf, -.inf, yes, No, ~, null, 0x1F, 0o17, 017, 1_000, 12:30, +1, .5]\n",
        "[2001-12-14, 2001-12-14t21:59:43.10-05:00, !!binary aGVsbG8=, !!str 1, !!float 1, ! 12, '1', \"x\"]\n",
        "a: !!seq [1]\nb: !!map {c: 1}\n",
    ],
    ids=[
        "aliases", "self-alias-list", "self-alias-map", "merge-single", "merge-list-order", "merge-twice",
        "merge-chain", "merge-open-mapping", "merge-open-list", "merge-explicit-tag", "merge-key-alias",
        "equals-key", "equals-key-flow", "duplicate-keys", "empty", "comment-only", "blank", "empty-document",
        "empty-document-end", "scalar-root", "list-root", "plain-scalars", "tagged-scalars", "default-collection-tags",
    ],
)
def test_reads_the_data_yaml_load_reads(text, loader):
    expected = _outcome(_reference(loader), text)
    assert expected[0] in ("dict", "list", "int", "NoneType")
    assert _outcome(_read_yaml, text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "a: 1\n---\nb: 2\n",
        "a: &x 1\nb: &x 2\n",
        "a: 1\nb: *x\n",
        "a: 1\n? [1, 2]\n: 3\n",
        "a: &l [1]\nb:\n  *l : 1\n",
        "a: 1\nb: !foo 2\n",
        "a: 1\nb: !foo [2]\n",
        "a: 1\nb: !!python/object/apply:os.system [true]\n",
        "a: 1\nb: !!python/none ''\n",
        "a: 1\nb: [1\n",
        "a: !foo 1\nb: [1\n",
        "a: 1\nb: {<<: 5}\n",
        "a: &m {x: 1}\nb:\n  <<:\n    - *m\n    - 5\n",
        "a: =\n",
        "a: !!seq abc\n",
        "a: &a {x: 1}\nb: {&m <<: *a}\nc: [*m]\n",
    ],
    ids=[
        "two-documents", "duplicate-anchor", "undefined-alias", "unhashable-key", "unhashable-alias-key",
        "unknown-scalar-tag", "unknown-collection-tag", "python-collection-tag", "python-scalar-tag", "syntax",
        "syntax-after-tag-error", "merge-scalar", "merge-list-scalar", "equals-value", "seq-tag-on-scalar",
        "merge-key-as-value",
    ],
)
def test_fails_where_yaml_load_fails_on_the_same_line(text, loader):
    with pytest.raises(yaml.YAMLError):
        yaml.load(text, Loader=loader)
    assert _outcome(_read_yaml, text) == _outcome(_reference(loader), text)


# ------------------------------------------------------------- narrowings

@pytest.mark.parametrize(
    "body, tag",
    [("!!set {x, y}", "!!set"), ("!!omap [x: 1]", "!!omap"), ("!!pairs [x: 1, x: 2]", "!!pairs")],
)
def test_an_explicit_collection_tag_other_than_seq_or_map_fails_naming_it(tmp_path, loader, body, tag):
    text = f"format_version: 1\nscenario: {body}\n"
    assert yaml.load(text, Loader=loader)["scenario"]  # yaml.load builds a set or a list of tuples
    with pytest.raises(yaml.constructor.ConstructorError, match=tag) as caught:
        _read_yaml(text)
    assert caught.value.problem_mark.line == 1
    path = tmp_path / "tagged.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match=rf"^line 2: found a (sequence|mapping) tagged {tag};"):
        load_scenario(str(path))


@pytest.mark.parametrize(
    "text",
    ["a: &a {<<: *a}\n", "l: &l [{<<: *l}, {a: 1}]\n", "r: &r {p: &x {<<: *r}, <<: *x}\n"],
    ids=["itself", "through-a-list", "cycle"],
)
def test_a_mapping_that_merges_itself_fails(text, loader):
    # yaml.load merges such a mapping's keys as far as it has read them (here {'a': {}}); the reader refuses it.
    yaml.load(text, Loader=loader)
    with pytest.raises(yaml.constructor.ConstructorError, match="merges itself"):
        _read_yaml(text)


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
    with pytest.raises(ScenarioFormatError, match=r"^line 2: cannot read '\w+' as !!\w+"):
        load_scenario(str(path))


# ------------------------------------------------------------- differential

_BARE = st.sampled_from(
    ["1e5", "5e-1", "-2E+3", "1e-05", "=", "<<", "~", "yes", "0x1F", "1_000", "12:30", "2001-01-01"]
)
_KEYS = st.one_of(st.integers(), st.floats(allow_nan=False), _BARE, st.text(max_size=6), st.booleans(), st.none())
_LEAVES = st.one_of(st.integers(), st.floats(allow_nan=False), _BARE, st.text(max_size=8), st.booleans(), st.none())
_TREES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4), max_leaves=12
)


@st.composite
def _documents(draw):
    """YAML text of nested data in which some collections appear more than once, so it has anchors and aliases.

    Some texts are cut short or followed by a second document, so that they fail.
    """
    shared = []
    for _ in range(draw(st.integers(1, 3))):
        parts = draw(st.lists((st.sampled_from(shared) | _TREES) if shared else _TREES, max_size=3))
        shared.append(parts if draw(st.booleans()) else {f"k{i}": part for i, part in enumerate(parts)})
    entries = st.one_of(st.sampled_from(shared), st.sampled_from(shared), _TREES)  # two in three are shared
    data = draw(st.dictionaries(_KEYS, entries, min_size=2, max_size=5) | st.lists(entries, min_size=2, max_size=5))
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
