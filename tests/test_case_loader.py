"""Case-file loading against PyYAML's full loader.

``caseio`` reads the two layouts its files come in, one flow mapping per
sequence item (``  - {id: 1, kind: zip}``) and ``dump_case``'s block
mappings (``- id: 1`` then ``  kind: zip``), straight into columns with
``_read_columns``, once more without full-line comments and blank lines
when it declines a text that has them.  ``_load_document`` reads every
other text: ``yaml.load``, behind a guard that refuses nesting deeper
than ``_MAX_DEPTH`` before the loader's composer recurses into it.  The
properties below check that ``_load_document`` gives the object
``yaml.load`` gives, or raises the same error, on generated case-shaped
documents and on generic YAML, with the libyaml parser and again with the
pure-Python one, and that the column reader reads the clean layouts.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casegen
from rectpf import CaseValidationError, caseio, dump_case, parse_case

# Plain spellings of every implicit type, plus strings that look like them.
SPELLINGS = [
    "0", "7", "-1", "+12", "0x1f", "-0x_1F", "0b101", "017", "09", "1_000",
    "1:30", "-190:20:30", "0x_", "1.5", "-0.0", "3.", ".5", "+.25", "1_0.5",
    "6.8523015e+5", "1.0e+308", "1e-3", "-1e-3", "1E+5", "1.0e308", ".5e3",
    "-.5E-3", "1e999", "1.5e", "1e-", "1_0e5", ".inf", "-.Inf", "+.INF",
    ".nan", ".NaN", ".NAN", "~", "null", "Null", "NULL", "", "yes", "No",
    "on", "OFF", "true", "False", "TRUE", "y", "n", "2001-12-14",
    "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10", "=", "zip",
    "slack", "id", "a b", "-", "1.2.3", "0o17", "inf", "-Infinity", "nan",
    "NaN", "1_0", "0_1.5", "1.5_0", "1e1_0", "00.5", "-012", "1.5e+",
    "1234567890123456789", "-12345678901234567890", "1.E5",
]
# Strings that cannot be plain scalars anywhere, used quoted only, among them
# flow-mapping separators (", ", ": ") inside quotes.
QUOTED_ONLY = [" lead", "a: b", "#x", "[1]", "{a: 1}", "'", "line\\nbreak",
               "a, b", "x: y, z", ", : "]

ANCHORS = ["a1", "a2"]


def _quote(text: str, style: str) -> str:
    if style == "single":
        return "'" + text.replace("'", "''") + "'"
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


scalars = st.one_of(
    st.sampled_from(SPELLINGS),
    st.tuples(st.sampled_from(SPELLINGS + QUOTED_ONLY),
              st.sampled_from(["single", "double"])).map(
        lambda ts: _quote(*ts)),
    st.tuples(st.sampled_from(["!!float", "!!str", "!!int", "!", "!!bool"]),
              st.sampled_from(SPELLINGS[:40])).map(" ".join),
    st.sampled_from(ANCHORS).map(lambda a: "*" + a),
)
keys = st.one_of(
    st.sampled_from(SPELLINGS + ["<<", "[1, 2]", "{k: 1}"]),
    st.sampled_from(SPELLINGS).map(lambda s: _quote(s, "double")),
)


def _nodes(children):
    """Sequences and mappings, each in block or flow style."""
    return st.one_of(
        st.tuples(st.just("seq"), st.lists(children, max_size=4),
                  st.booleans()),
        st.tuples(st.just("map"),
                  st.lists(st.tuples(keys, children), max_size=4),
                  st.booleans()),
        st.tuples(st.just("anchor"), st.sampled_from(ANCHORS), children),
    )


trees = st.recursive(scalars.map(lambda s: ("scalar", s)), _nodes,
                     max_leaves=14)


def _inline(node) -> str:
    kind = node[0]
    if kind == "scalar":
        return node[1]
    if kind == "anchor":
        return f"&{node[1]} {_inline(node[2])}"
    if kind == "seq":
        return "[" + ", ".join(map(_inline, node[1])) + "]"
    return "{" + ", ".join(f"{k}: {_inline(v)}" for k, v in node[1]) + "}"


def _is_block(node) -> bool:
    return node[0] in ("seq", "map") and node[2] and bool(node[1])


def _block(node, indent: int) -> list[str]:
    pad = " " * indent
    lines = []
    for item in node[1]:
        head, child = ((pad + "-", item) if node[0] == "seq"
                       else (f"{pad}{item[0]}:", item[1]))
        if _is_block(child):
            lines.append(head)
            lines += _block(child, indent + 2)
        else:
            lines.append(f"{head} {_inline(child)}")
    return lines


def _render(node) -> str:
    if _is_block(node):
        return "\n".join(_block(node, 0)) + "\n"
    return _inline(node) + "\n"


@st.composite
def documents(draw) -> str:
    """YAML text: one or two documents, sometimes truncated or mangled."""
    docs = [_render(draw(trees))]
    if draw(st.integers(0, 9)) == 0:
        docs.append(_render(draw(trees)))
    text = ("--- " if draw(st.booleans()) else "") + "---\n".join(docs)
    return _mangle(draw, text)


def _mangle(draw, text: str) -> str:
    """Sometimes truncate ``text`` or insert one junk character."""
    mangle = draw(st.integers(0, 7))
    if mangle == 6:
        text = text[:draw(st.integers(0, len(text)))]
    elif mangle == 7:
        at = draw(st.integers(0, len(text)))
        junk = draw(st.sampled_from([":", "[", "]", "{", "-", '"', "'", "\t",
                                     "&", "*", "!", "%", "\n  ", ",", "\x00"]))
        text = text[:at] + junk + text[at:]
    return text


def _outcome(load):
    try:
        value = load()
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("loaded", type(value), repr(value))


def _pure_python_loader():
    """The case loader's table on PyYAML's pure-Python safe loader."""
    return type("PureCaseLoader", (yaml.SafeLoader,), {
        "yaml_implicit_resolvers": caseio._CaseLoader.yaml_implicit_resolvers})


LOADERS = {"libyaml": lambda: caseio._CaseLoader,
           "pure-python": _pure_python_loader}


def _check_against_full_loader(which, text):
    """``_load_document`` agrees with ``yaml.load``."""
    loader = LOADERS[which]()
    with mock.patch.object(caseio, "_CaseLoader", loader):
        full = _outcome(lambda: yaml.load(text, Loader=loader))
        assert _outcome(lambda: caseio._load_document(text)) == full


@pytest.mark.parametrize("which", sorted(LOADERS))
@settings(max_examples=400, deadline=None)
@given(text=documents())
# Anchors, tags, merge keys, timestamps, odd keys, two documents, a broken
# flow sequence and a scalar no constructor converts.
@example(text="a: &x 1\nb: *x\n")
@example(text="a: !!float 1\n")
@example(text="c:\n  <<: {q: 2}\n  r: 3\n")
@example(text="t: 2001-12-14\n")
@example(text="= : 1\n")
@example(text="? [1, 2]\n: x\n")
@example(text="a: 1\n---\nb: 2\n")
@example(text="a: [1\n")
@example(text="a: 0x_\n")
def test_loader_matches_full_loader(which, text):
    _check_against_full_loader(which, text)


# Scalars case files hold, and every spelling of the generic property.
common_scalars = st.one_of(
    st.sampled_from(["id", "kind", "zip", "p", "from", "a-b", "x.y", "_1",
                     "'1'", '"a b"', "''", "+12", "-0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
)
any_scalars = st.one_of(
    st.sampled_from(SPELLINGS),
    st.tuples(st.sampled_from(SPELLINGS + QUOTED_ONLY),
              st.sampled_from(["single", "double"])).map(
        lambda ts: _quote(*ts)),
    st.integers(-10 ** 25, 10 ** 25).map(str),
    common_scalars,
)
FILLER = ["", "   ", "#", "# a comment", "  # indented: comment", "#x: 1"]


@st.composite
def case_documents(draw) -> str:
    """Text in the case layouts: top-level ``key: scalar`` and ``key:``
    lines, the latter followed by flow-mapping or block-mapping items, with
    comments, blank lines, mixed indents, CRLF endings, truncation and
    junk."""
    odd = draw(st.integers(0, 2)) == 2      # any spelling; empty sequences
    jittery = draw(st.integers(0, 3)) == 3  # indents off by one or two
    scalars = any_scalars if odd else common_scalars

    def pad(indent):
        if jittery:
            indent += draw(st.sampled_from([0, 0, 0, 1, 2, -1]))
        return " " * max(indent, 0)

    lines = []
    for _ in range(draw(st.integers(1, 4))):
        key = draw(scalars)
        if draw(st.integers(0, 2)) == 0:
            lines.append(f"{key}: {draw(scalars)}")
            continue
        lines.append(f"{key}:")
        indent = draw(st.sampled_from([0, 2, 4]))
        for _ in range(draw(st.integers(0 if odd else 1, 3))):
            pairs = [f"{k}: {v}" for k, v in draw(st.lists(
                st.tuples(scalars, scalars), min_size=1, max_size=4))]
            if draw(st.booleans()):
                lines.append(pad(indent) + "- {" + ", ".join(pairs) + "}")
            else:
                lines.append(pad(indent) + "- " + pairs[0])
                lines += [pad(indent + 2) + pair for pair in pairs[1:]]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(FILLER)))
    end = "\r\n" if draw(st.integers(0, 9)) == 9 else "\n"
    text = end.join(lines) + (end if draw(st.integers(0, 5)) else "")
    return _mangle(draw, text)


@pytest.mark.parametrize("which", sorted(LOADERS))
@settings(max_examples=400, deadline=None)
@given(text=case_documents())
def test_case_layouts_match_full_loader(which, text):
    _check_against_full_loader(which, text)


# Each place a scalar takes in the case layouts; "@" stands for it.
SLOTS = ["@: 1\n", "a: @\n", "a:\n- {@: 1, b: 2}\n", "a:\n  - {b: 2, c: @}\n",
         "a:\n- @: 1\n  b: 2\n", "a:\n- b: 2\n  @: 1\n",
         "a:\n  - b: @\n    c: 2\n", "a:\n- b: 2\n  c: @\n"]


@pytest.mark.parametrize("which", sorted(LOADERS))
def test_every_spelling_in_every_slot(which):
    quoted = [_quote(text, style) for text in SPELLINGS + QUOTED_ONLY
              for style in ("single", "double")]
    for spelling in SPELLINGS + quoted:
        for slot in SLOTS:
            _check_against_full_loader(which, slot.replace("@", spelling))


def _flow_layout(doc: dict, indent: int) -> str:
    """``doc`` with each sequence item as a flow mapping on one line."""
    lines = []
    for key, value in doc.items():
        if not isinstance(value, list):
            lines.append(yaml.safe_dump({key: value}).strip())
            continue
        lines.append(f"{key}:")
        lines += [" " * indent + "- " + yaml.safe_dump(
            item, default_flow_style=True, width=math.inf).strip()
            for item in value]
    return "\n".join(lines) + "\n"


def _readme_case() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Case files"):]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


def _commented(text: str) -> str:
    """``text`` with a full-line comment, indented or not, or a blank or
    space-only line before each line and after the last."""
    filler = ["# a comment", "", "    # indented: comment", "  "]
    return "".join(f"{filler[k % 4]}\n{line}\n" for k, line in
                   enumerate(text.splitlines())) + "#\n"


def test_generated_feeder_loads_without_the_full_loader(monkeypatch):
    case = casegen.random_feeder_case(np.random.default_rng(5), n_min=200,
                                      n_max=200)
    block = dump_case(case)
    doc = yaml.safe_load(block)
    big = casegen.random_feeder_case(np.random.default_rng(6), n_min=1200,
                                     n_max=1200, load_scale=0.01,
                                     with_shunts=False)
    grid = casegen.random_lossless_case(np.random.default_rng(5), 6, 9,
                                        pv_fraction=0.4)
    mesh = casegen.random_feeder_case(np.random.default_rng(7), 12, 12,
                                      with_shunt_g=True)
    assert any(bus.kind == "pv" for bus in grid.buses)
    assert len(mesh.branches) > mesh.n          # a mesh, not a tree
    # The column reader reads both layouts, at any indent, and the README's
    # example; with comment and blank lines, it reads them once stripped.
    clean = [(block, case), (_flow_layout(doc, 0), case),
             (_flow_layout(doc, 2), case), (_readme_case(), None),
             (_flow_layout(yaml.safe_load(dump_case(big)), 2), big)] + [
        (_flow_layout(yaml.safe_load(dump_case(c)), indent), c)
        for c, indent in ((grid, 4), (mesh, 0))]
    for text, _ in clean:
        assert caseio._read_columns(text) is not None
    commented = [(_commented(text), want) for text, want in clean[:3]]
    for text, _ in commented:
        assert caseio._read_columns(text) is None
    unknown = _readme_case().replace("kind: pv,", "kind: pv, colour: red,")
    assert caseio._read_columns(unknown) is None
    with pytest.raises(CaseValidationError, match=r"unknown field.*colour"):
        parse_case(unknown)

    def refuse(*args, **kwargs):
        raise AssertionError("the full loader ran")
    monkeypatch.setattr(yaml, "load", refuse)
    for name in ("_CaseLoader", "_load_document", "_bus_columns",
                 "_branch_columns"):
        monkeypatch.setattr(caseio, name, refuse)
    for text, want in clean + commented:
        got = parse_case(text)
        assert got == want if want is not None else got.n == 2


# Nesting at which the CLI crashed in libyaml's composer (SIGSEGV) before
# the depth limit: 25 000 flow sequences, or 30 000 block sequences.
CRASH_DEPTHS = [("check", "a: " + "[" * 25000 + "]" * 25000 + "\n"),
                ("solve", "- " * 30000 + "x\n")]


@pytest.mark.parametrize("command, text", CRASH_DEPTHS, ids=["flow", "block"])
def test_deep_nesting_is_a_parse_error(tmp_path, command, text):
    path = tmp_path / "deep.yaml"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(caseio.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-m", "rectpf.cli", command,
                          str(path)], capture_output=True, text=True,
                         env=env, timeout=120)
    assert (res.returncode, res.stdout, res.stderr) == (
        2, "", f"PARSE_ERROR: {path}: not valid YAML: collections nested "
               f"deeper than {caseio._MAX_DEPTH}\n")


@pytest.mark.parametrize("which", sorted(LOADERS))
def test_nesting_up_to_the_limit_loads_as_before(which):
    def nested(depth):      # a mapping holding flow sequences; block ones
        return ["a: " + "[" * (depth - 1) + "1" + "]" * (depth - 1) + "\n",
                "- " * depth + "x\n"]
    for text in nested(caseio._MAX_DEPTH):
        _check_against_full_loader(which, text)
    with mock.patch.object(caseio, "_CaseLoader", LOADERS[which]()):
        for text in nested(caseio._MAX_DEPTH + 1):
            with pytest.raises(yaml.YAMLError, match="nested deeper than"):
                caseio._load_document(text)


@pytest.mark.parametrize("spelling, value", [
    ("-1e-3", -0.001), ("1E+5", 100000.0), ("1.0e308", 1.0e308),
    (".5e3", 500.0), ("1e5", 100000.0),
])
def test_scientific_notation_is_a_float(spelling, value):
    doc = caseio._load_document(f"x: {spelling}\n")
    assert type(doc["x"]) is float and doc["x"] == value
    case = parse_case(f"""
schema_version: "1"
buses:
  - {{id: 1, kind: zip, p: {spelling}}}
  - {{id: 2, kind: slack}}
branches:
  - {{from: 1, to: 2, series_g: 1.0, series_b: {spelling}}}
""")
    assert case.buses[0].load.power == complex(value, 0.0)
    assert case.branches[0].series_admittance == complex(1.0, value)


def test_scientific_notation_leaves_other_scalars_alone():
    doc = caseio._load_document(
        "a: 09\nb: 1_0e5\nc: '1e-3'\nd: 1.5e\ne: 0x1f\nf: 1.0e+3\n")
    assert doc == {"a": "09", "b": "1_0e5", "c": "1e-3", "d": "1.5e",
                   "e": 31, "f": 1000.0}


def test_dump_case_text_loads_as_before():
    rng = np.random.default_rng(23)
    for _ in range(10):
        case = casegen.random_feeder_case(rng, load_scale=1e-7)
        text = dump_case(case)
        assert "e-" in text
        assert (repr(caseio._load_document(text))
                == repr(yaml.load(text, Loader=caseio._SafeLoader)))
        assert parse_case(text).branches == case.branches
