"""Case-file parsing and emission (YAML, schema_version "1").

A case is one human-writable YAML document.  Angles are in degrees, in the
file and in the data model; every other quantity is a plain per-unit float.
Unknown fields are rejected at every level, missing optional numerics
default to zero, and validation reports every problem it finds at once.  A
clean file in the layouts of case files, one flow mapping per sequence item,
as below, or ``dump_case``'s block mappings, is read straight into columns,
and so is one whose only other lines are blank or full-line comments.
``yaml.load`` reads every other text.

Example::

    schema_version: "1"
    base_mva: 100.0
    buses:
      - {id: 1, kind: zip, p: -0.1, q: -0.05}
      - {id: 2, kind: slack, v_setpoint: 1.0, theta_deg: 0.0}
    branches:
      - {from: 1, to: 2, series_g: 1.0, series_b: -5.0}
"""

from __future__ import annotations

import math
import re
from itertools import accumulate, repeat
from pathlib import Path

import numpy as np
import yaml

from .errors import CaseValidationError
from .netmodel import _PV, _SLACK, _ZIP, KINDS, NetworkCase, _raise_problems

SCHEMA_VERSION = "1"

_TOP_FIELDS = {"schema_version", "base_mva", "buses", "branches"}
_BUS_COMMON = {"id", "kind"}
_BUS_FIELDS = {
    "slack": {"v_setpoint", "theta_deg"},
    "pv": {"v_setpoint", "p", "shunt_g", "shunt_b", "i_load_re", "i_load_im"},
    "zip": {"p", "q", "shunt_g", "shunt_b", "i_load_re", "i_load_im"},
}
_BUS_ALLOWED = {kind: _BUS_COMMON | fields
                for kind, fields in _BUS_FIELDS.items()}
_BRANCH_KEYS = ["from", "to", "series_g", "series_b", "shunt_b_total"]
_BRANCH_FIELDS = set(_BRANCH_KEYS)
_CODES = {kind: code for code, kind in enumerate(KINDS)}

# libyaml's parser and emitter when PyYAML was built with them; each pairs
# the C code with the same resolver and safe constructor or representer, so
# documents load to equal objects and dump to the same text.
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_SafeDumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class _CaseLoader(_SafeLoader):
    """The safe loader, reading YAML 1.2 scientific notation as floats.

    YAML 1.1 floats need a decimal point and a signed exponent, so ``1e-3``
    and ``1.0e308`` would load as strings.  The extra resolver comes after
    the 1.1 ones in the table, so it only claims scalars that resolved to
    ``str`` before, and ``dump_case`` output loads as it always did.
    """


_CaseLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))

# The column reader's numbers: a decimal int as YAML reads it, of at most 18
# digits, and a decimal float.
_INT = r"[-+]?(?:0|[1-9][0-9]{0,17})"
_FLOAT = r"[-+]?[0-9]+(?:\.[0-9]*(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_NUMBER = re.compile(rf"({_INT})|{_FLOAT}")
# A blank, space-only or full-line comment line, with its line break.
_FILLER = re.compile(r"^ *(?:#[ -~]*)?\n", re.MULTILINE)
_MAX_DEPTH = 100        # yaml.load's composer recurses per level (C stack)


def _load_document(text: str):
    """``yaml.load(text, Loader=_CaseLoader)``, which reads every text the
    column reader declines and raises every parse error, but is not given
    nesting over _MAX_DEPTH."""
    depths = accumulate(isinstance(event, yaml.CollectionStartEvent)
                        - isinstance(event, yaml.CollectionEndEvent)
                        for event in yaml.parse(text, Loader=_CaseLoader))
    try:
        deep = any(depth > _MAX_DEPTH for depth in depths)
    except yaml.YAMLError:          # yaml.load reports it
        deep = False
    if deep:
        raise yaml.YAMLError(f"collections nested deeper than {_MAX_DEPTH}")
    return yaml.load(text, Loader=_CaseLoader)


def _float(value) -> float:
    """``float(value)``, reading an int beyond the float range as +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _unknown(entry: dict, allowed: set) -> str:
    unknown = set(entry) - allowed
    try:
        unknown = sorted(unknown)
    except TypeError:               # keys of types that do not compare
        unknown = sorted(unknown, key=repr)
    return f"unknown field(s) {unknown}"


def _numbers(entries: list, check: int, key: str, default: float, flag,
             read) -> np.ndarray:
    """Field ``key`` of ``entries`` as floats, ``default`` where it is absent
    or no number; ``flag(j, check, text)`` reports that where ``read[j]``."""
    values = [entry.get(key, default) for entry in entries]
    if not set(map(type, values)) <= {int, float}:
        for j, value in enumerate(values):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                if read[j]:
                    flag(j, check, f"field '{key}' must be a number, "
                                   f"got {value!r}")
                values[j] = default
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return np.array([_float(value) for value in values])


def _complex(real, imag) -> np.ndarray:
    """Both parts kept bit for bit, where ``real + 1j * imag`` can flip a
    zero's sign and turns ``inf * 0`` into nan."""
    column = np.empty(len(real), dtype=complex)
    column.real, column.imag = real, imag
    return column


# The numeric bus fields: check order, name, default and, by kind code,
# whether a bus of that kind reads it.  A pv bus reads "q" too, which its
# unknown-field check rejects; a pv bus's missing fields are checks 10, 11.
_BUS_NUMBERS = [(check, key, default, np.isin(range(len(KINDS)), kinds))
                for check, key, default, kinds in [*(
    (4 + k, key, 0.0, (_ZIP, _PV)) for k, key in enumerate(
        ("shunt_g", "shunt_b", "i_load_re", "i_load_im", "p", "q"))),
    (12, "v_setpoint", 1.0, (_PV, _SLACK)), (13, "theta_deg", 0.0, (_SLACK,))]]


def _bus_columns(raw: list, keyed: list) -> tuple[np.ndarray, dict]:
    """The ids and bus columns of the entries ``raw`` in file order, each
    schema problem added to ``keyed`` under its entry and check."""
    def flag(i, check, text):
        keyed.append((1, i, check, f"buses[{i}]{text}"))

    at = []                         # the entries that have an id and kind
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            flag(i, 0, f": expected a mapping, got {type(entry).__name__}")
            continue
        bus_id, kind = entry.get("id"), entry.get("kind")
        if isinstance(bus_id, bool) or not isinstance(bus_id, int):
            flag(i, 1, ": 'id' must be an integer")
        elif not isinstance(kind, str) or kind not in _BUS_FIELDS:
            flag(i, 2, f" (id {bus_id}): 'kind' must be one of "
                       f"{sorted(_BUS_FIELDS)}, got {kind!r}")
        else:
            if not entry.keys() <= _BUS_ALLOWED[kind]:
                flag(i, 3, f" (id {bus_id}): "
                           f"{_unknown(entry, _BUS_ALLOWED[kind])}")
            at.append(i)
    entries = [raw[i] for i in at]

    def flag_entry(j, check, text):
        flag(at[j], check, f" (id {entries[j]['id']}): {text}")

    codes = np.array([_CODES[entry["kind"]] for entry in entries], np.int8)
    col = {key: _numbers(entries, check, key, default, flag_entry,
                         read_by[codes])
           for check, key, default, read_by in _BUS_NUMBERS}
    for j in np.flatnonzero(codes == _PV).tolist():
        for check, key in ((10, "v_setpoint"), (11, "p")):
            if key not in entries[j]:
                flag_entry(j, check, f"pv bus requires '{key}'")
    return [entry["id"] for entry in entries], _bus_fields(codes, col)


def _bus_fields(codes: np.ndarray, col: dict) -> dict:
    """The bus columns of the kind codes and numeric fields ``col``."""
    pv = codes == _PV
    return {
        "kind": codes, "shunt": _complex(col["shunt_g"], col["shunt_b"]),
        "current": _complex(col["i_load_re"], col["i_load_im"]),
        "power": _complex(np.where(pv, 0.0, col["p"]), col["q"]),
        "p_set": np.where(pv, col["p"], 0.0), "v_set": col["v_setpoint"],
        "theta_deg": col["theta_deg"]}


def _branch_columns(raw: list, keyed: list) -> dict:
    """The branch columns of the entries ``raw``, as ``_bus_columns``."""
    def flag(i, check, text):
        keyed.append((2, i, check, f"branches[{i}]: {text}"))

    at = []                         # the entries that have ends and series
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            flag(i, 0, f"expected a mapping, got {type(entry).__name__}")
            continue
        if not entry.keys() <= _BRANCH_FIELDS:
            flag(i, 1, _unknown(entry, _BRANCH_FIELDS))
        count = len(keyed)
        for check, key in ((2, "from"), (3, "to")):
            value = entry.get(key)
            if isinstance(value, bool) or not isinstance(value, int):
                flag(i, check, f"'{key}' must be an integer bus id")
        for check, key in ((4, "series_g"), (5, "series_b")):
            if key not in entry:
                flag(i, check, f"'{key}' is required")
        if len(keyed) == count:
            at.append(i)
    entries = [raw[i] for i in at]
    def flag_entry(j, check, text):
        flag(at[j], check, text)
    read = [True] * len(entries)
    g, b, shunt = (_numbers(entries, check, key, 0.0, flag_entry, read)
                   for check, key in ((6, "series_g"), (7, "series_b"),
                                      (8, "shunt_b_total")))
    return _branch_fields([entry["from"] for entry in entries],
                          [entry["to"] for entry in entries], g, b, shunt)


def _branch_fields(from_bus: list, to_bus: list, g, b, shunt) -> dict:
    """The branch columns of the ends and numeric fields of the branches."""
    return {"from_bus": from_bus, "to_bus": to_bus, "series": _complex(g, b),
            "line_shunt": _complex(np.zeros_like(shunt), shunt)}


# Key codes index these lists; _BUS_TAKES[kind, key] says if the kind takes it
_BUS_KEYS = ["id", "kind", *(key for _, key, _, _ in _BUS_NUMBERS)]
_BUS_DEFAULTS = [default for _, _, default, _ in _BUS_NUMBERS]
_BUS_TAKES = np.array([[key in _BUS_ALLOWED[kind] for key in _BUS_KEYS]
                       for kind in KINDS])
_PV_NEEDS = [_BUS_KEYS.index("v_setpoint"), _BUS_KEYS.index("p")]
# A top-level key line and its scalar.
_TOP_LINE = re.compile(
    r"\n(schema_version|base_mva|buses|branches):(?: ([^\n]*))?(?=\n|$)")


def _pairs(keys: list, second: str) -> re.Pattern:
    """A section's "key: value" pairs joined by ", ": key 0 takes an int,
    key 1 what ``second`` matches, every other key an int or a number."""
    pair = (f"{keys[0]}: {_INT}|{keys[1]}: (?:{second})|"
            f"(?:{'|'.join(keys[2:])}): (?:{_FLOAT}|{_INT})")
    return re.compile(f"(?:{pair})(?:, (?:{pair}))*")


_BUS_PAIRS = _pairs(_BUS_KEYS, "|".join(KINDS))
_BRANCH_PAIRS = _pairs(_BRANCH_KEYS, _INT)


def _section(body: str, pairs: re.Pattern, keys: list, needed: int,
             defaults: list) -> tuple | None:
    """Key 0's and key 1's tokens, one per item, the number keys' floats by
    key and item (``defaults`` where absent), each pair's item and key code,
    the keys each item has; None for another body shape, pairs ``pairs``
    declines, a repeated key or a missing one of the first ``needed``."""
    pad = body[:len(body) - len(body[1:].lstrip(" "))]   # "\n", indent
    if body.startswith(pad + "- {") and body.endswith("}"):
        items = body[len(pad) + 3:-1].split("}" + pad + "- {")
    elif body.startswith(pad + "- ") and ", " not in body:
        items = body[len(pad) + 2:].replace(pad + "  ", ", ").split(pad + "- ")
    else:
        return None
    flat = ", ".join(items)
    if pairs.fullmatch(flat) is None:
        return None
    tokens = flat.replace(", ", ": ").split(": ")
    code = np.fromiter(map({key: k for k, key in enumerate(keys)}.__getitem__,
                           tokens[::2]), np.intp)
    n, m = len(items), len(keys)
    item = np.repeat(np.arange(n), np.fromiter(
        map(str.count, items, repeat(": ")), np.intp, n))
    has = np.bincount(item * m + code, minlength=n * m).reshape(n, m)
    if has.max() > 1 or not has[:, :needed].all():
        return None
    value, rest = np.array(tokens[1::2], object), code > 1
    numbers, at = value[rest], (code[rest] - 2, item[rest])
    table = np.repeat(np.array(defaults)[:, None], n, axis=1)
    table[at] = np.fromiter(map(float, numbers), float, len(numbers))
    table[tuple(x[numbers == "-0"] for x in at)] = 0.0    # YAML's int 0
    return value[code == 0], value[code == 1], table, item, code, has == 1


def _read_columns(text: str) -> tuple | None:
    """The dict path's ``(base_mva, ids, columns)`` of a clean file, or None:
    known keys, each taken by the item's kind, given once, needed ones all
    given, every value a bare kind or a ``_NUMBER``, and no other line."""
    parts = _TOP_LINE.split("\n" + text.removesuffix("\n"))
    top = dict(zip(parts[1::3], zip(parts[2::3], parts[3::3])))
    word, body = top.get("base_mva", ("100.0", ""))
    number = _NUMBER.fullmatch(word or "")
    if (parts[0] or 3 * len(top) + 1 != len(parts) or body or number is None
            or top.get("schema_version") not in (
                ('"1"', ""), ("'1'", ""), ("1", ""))
            or {key for key, (w, _) in top.items() if w is None}
            != {"buses", "branches"}      # the "key:" lines, no scalar
            or (bus := _section(top["buses"][1], _BUS_PAIRS, _BUS_KEYS, 2,
                                _BUS_DEFAULTS)) is None
            or (br := _section(top["branches"][1], _BRANCH_PAIRS,
                               _BRANCH_KEYS, 4, [0.0] * 3)) is None):
        return None
    ids, kinds, table, item, code, has = bus
    kind = np.fromiter(map(_CODES.__getitem__, kinds), np.int8, len(kinds))
    if (not _BUS_TAKES[kind[item], code].all()
            or not has[kind == _PV][:, _PV_NEEDS].all()):
        return None
    ids, ends, to = (list(map(int, x)) for x in (ids, *br[:2]))
    return _float(int(word) if number[1] else float(word)), ids, (
        _bus_fields(kind, dict(zip(_BUS_KEYS[2:], table)))
        | _branch_fields(ends, to, *br[2]))


def parse_case(text: str, source: str = "<case>") -> NetworkCase:
    """Parse a case document straight into :class:`NetworkCase` columns.
    PARSE_ERROR for bad YAML; VALIDATION_ERROR lists every schema problem
    in file order or, if there is none, every model problem.  A clean file
    is read by ``_read_columns``, once more without its blank and comment
    lines if it has any; a None sends it down the dict path."""
    if (read := _read_columns(text)) is None and _FILLER.search(text):
        read = _read_columns(_FILLER.sub("", text))
    if read is not None:
        return NetworkCase(*read)
    try:
        doc = _load_document(text)
    except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
        # PyYAML's constructors raise bare exceptions, with no position and
        # a text that names no input, for scalars they cannot convert:
        # ``0x_``, ``!!bool 1``, ``!!int ''`` or ``!!timestamp a``.
        mark = getattr(exc, "problem_mark", None)
        detail = ("" if mark is None else
                  f" at line {mark.line + 1}, column {mark.column + 1}")
        what = str(exc) if isinstance(exc, yaml.YAMLError) else (
            f"a scalar could not be converted ({type(exc).__name__}: {exc})")
        raise CaseValidationError(
            [f"{source}: not valid YAML{detail}: {what}"],
            code="PARSE_ERROR") from exc
    if not isinstance(doc, dict):
        raise CaseValidationError(
            [f"{source}: document root must be a mapping"],
            code="PARSE_ERROR")

    head: list[str] = []
    if not doc.keys() <= _TOP_FIELDS:
        head.append(f"{source}: {_unknown(doc, _TOP_FIELDS)}")
    version = doc.get("schema_version")
    if version not in (SCHEMA_VERSION, int(SCHEMA_VERSION)):
        head.append(
            f"{source}: schema_version must be \"{SCHEMA_VERSION}\", "
            f"got {version!r}")
    base_mva = doc.get("base_mva", 100.0)
    if isinstance(base_mva, bool) or not isinstance(base_mva, (int, float)):
        head.append(f"{source}: field 'base_mva' must be a number, "
                    f"got {base_mva!r}")
        base_mva = 100.0

    raw_buses = doc.get("buses")
    raw_branches = doc.get("branches")
    if not isinstance(raw_buses, list) or not raw_buses:
        head.append(f"{source}: 'buses' must be a non-empty list")
        raw_buses = []
    if not isinstance(raw_branches, list) or not raw_branches:
        head.append(f"{source}: 'branches' must be a non-empty list")
        raw_branches = []

    keyed: list[tuple] = []
    ids, columns = _bus_columns(raw_buses, keyed)
    columns |= _branch_columns(raw_branches, keyed)
    _raise_problems(head, keyed)
    return NetworkCase(_float(base_mva), ids, columns)


def load_case(path) -> NetworkCase:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CaseValidationError(
            [f"{path}: not valid UTF-8: {exc.reason} at byte {exc.start}"],
            code="PARSE_ERROR") from exc
    return parse_case(text, source=str(path))


# The optional fields of a pv or zip bus, in file order: the real and
# imaginary parts of its power, shunt and current columns.
_OPTIONAL = ("p", "q", "shunt_g", "shunt_b", "i_load_re", "i_load_im")


def _rows(*columns):
    return zip(*(column.tolist() for column in columns))


def dump_case(case: NetworkCase) -> str:
    """Serialize a case from its columns; parsing the result reproduces the
    case exactly, the slack's ``theta_deg`` included.  Zero-valued optional
    fields are omitted.  A conductive line shunt has no field in the format:
    the error lists every such branch.
    """
    conductive = np.flatnonzero(case.line_shunt.real).tolist()
    if conductive:
        raise CaseValidationError(
            [f"branch {case.from_bus[i]}-{case.to_bus[i]}: conductive line "
             "shunts cannot be represented in the case-file format"
             for i in conductive])
    buses = []
    for k, (code, p, v, theta, *values) in enumerate(_rows(
            case.kind, case.p_set, case.v_set, case.theta_deg,
            *(part for column in (case.power, case.shunt, case.current)
              for part in (column.real, column.imag))), 1):
        entry = {"id": k, "kind": KINDS[code]}
        if code == _SLACK:
            entry |= {"v_setpoint": v, "theta_deg": theta}
        else:               # a pv bus's power is zero, its p the setpoint
            entry |= {"v_setpoint": v, "p": p} if code == _PV else {}
            entry |= {key: x for key, x in zip(_OPTIONAL, values) if x}
        buses.append(entry)
    branches = [{"from": f, "to": t, "series_g": g, "series_b": b,
                 **({"shunt_b_total": shunt} if shunt else {})}
                for f, t, g, b, shunt in _rows(
                    case.from_bus, case.to_bus, case.series.real,
                    case.series.imag, case.line_shunt.imag)]
    doc = {"schema_version": SCHEMA_VERSION, "base_mva": float(case.base_mva),
           "buses": buses, "branches": branches}
    return yaml.dump(doc, Dumper=_SafeDumper, sort_keys=False,
                     default_flow_style=False)


def save_case(case: NetworkCase, path) -> None:
    Path(path).write_text(dump_case(case), encoding="utf-8")
