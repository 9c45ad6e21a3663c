"""The event-built case loader against PyYAML's full loader.

``caseio`` builds case documents from the loader's event stream and leaves
anchors, aliases, tags, merge keys, non-scalar keys, extra documents and
malformed text to ``yaml.load``.  The property below checks that the two
give the same object, or the same error, on generated documents, with the
libyaml parser and again with the pure-Python one.
"""

from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import casegen
from rectpf import caseio, dump_case, parse_case

# Plain spellings of every implicit type, plus strings that look like them.
SPELLINGS = [
    "0", "7", "-1", "+12", "0x1f", "-0x_1F", "0b101", "017", "09", "1_000",
    "1:30", "-190:20:30", "0x_", "1.5", "-0.0", "3.", ".5", "+.25", "1_0.5",
    "6.8523015e+5", "1.0e+308", "1e-3", "-1e-3", "1E+5", "1.0e308", ".5e3",
    "-.5E-3", "1e999", "1.5e", "1e-", "1_0e5", ".inf", "-.Inf", "+.INF",
    ".nan", ".NaN", ".NAN", "~", "null", "Null", "NULL", "", "yes", "No",
    "on", "OFF", "true", "False", "TRUE", "y", "n", "2001-12-14",
    "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10", "=", "zip",
    "slack", "id", "a b", "-", "1.2.3", "0o17",
]
# Strings that cannot be plain scalars anywhere, used quoted only.
QUOTED_ONLY = [" lead", "a: b", "#x", "[1]", "{a: 1}", "'", "line\\nbreak"]

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
    mangle = draw(st.integers(0, 7))
    if mangle == 0:
        text = text[:draw(st.integers(0, len(text)))]
    elif mangle == 1:
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


def _events_only(text):
    loader = caseio._CaseLoader(text)
    try:
        return caseio._document_from_events(loader)
    finally:
        loader.dispose()


def _pure_python_loader():
    """The case loader's table on PyYAML's pure-Python safe loader."""
    return type("PureCaseLoader", (yaml.SafeLoader,), {
        "yaml_implicit_resolvers": caseio._CaseLoader.yaml_implicit_resolvers})


LOADERS = {"libyaml": lambda: caseio._CaseLoader,
           "pure-python": _pure_python_loader}


@pytest.mark.parametrize("which", sorted(LOADERS))
@settings(max_examples=400, deadline=None)
@given(text=documents())
def test_event_path_matches_full_loader(which, text):
    loader = LOADERS[which]()
    with mock.patch.object(caseio, "_CaseLoader", loader):
        full = _outcome(lambda: yaml.load(text, Loader=loader))
        assert _outcome(lambda: caseio._load_document(text)) == full
        events = _outcome(lambda: _events_only(text))
    # What the event path builds on its own, the full loader builds too.
    if events[0] == "loaded":
        assert events == full


@pytest.mark.parametrize("text, error", [
    ("a: &x 1\nb: *x\n", caseio._NotCovered),
    ("a: !!float 1\n", caseio._NotCovered),
    ("c:\n  <<: {q: 2}\n  r: 3\n", caseio._NotCovered),
    ("t: 2001-12-14\n", caseio._NotCovered),
    ("= : 1\n", caseio._NotCovered),
    ("? [1, 2]\n: x\n", caseio._NotCovered),
    ("a: 1\n---\nb: 2\n", caseio._NotCovered),
    ("a: [1\n", yaml.YAMLError),
    ("a: 0x_\n", ValueError),
])
def test_inputs_the_event_path_leaves_to_the_full_loader(text, error):
    with pytest.raises(error):
        _events_only(text)


def test_generated_feeder_loads_without_the_full_loader(monkeypatch):
    case = casegen.random_feeder_case(np.random.default_rng(5), n_min=200,
                                      n_max=200)
    block = dump_case(case)
    flow = yaml.safe_dump(yaml.safe_load(block), sort_keys=False,
                          default_flow_style=None)
    expected = {text: yaml.load(text, Loader=caseio._CaseLoader)
                for text in (block, flow)}

    def refuse(*args, **kwargs):
        raise AssertionError("the full loader ran")
    monkeypatch.setattr(yaml, "load", refuse)
    for text, doc in expected.items():
        assert repr(caseio._load_document(text)) == repr(doc)
    assert parse_case(block).branches == case.branches


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
