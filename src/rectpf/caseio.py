"""Case-file parsing and emission (YAML, schema_version "1").

A case is one human-writable YAML document.  Angles live in degrees at this
boundary and radians inside the data model; every other quantity is a plain
per-unit float.  Unknown fields are rejected at every level, missing
optional numerics default to zero, and validation reports every problem it
finds at once.  A clean file in the layouts of case files, one flow
mapping per sequence item, as below, or ``dump_case``'s block mappings, is
read straight into columns; a line scanner loads other text in them as a
document.  It declines the rest (bool or null scalars, hex, octal, tabs,
escapes, trailing comments, anchors, tags, ...), read by ``yaml.load``.

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
_DEG = math.pi / 180.0

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

# The line scanner's grammar.  Every character class is printable ASCII, so
# tabs, line breaks other than "\n" and characters the YAML reader rejects
# never match.  A token is a quoted scalar without escapes or a plain word
# of characters that end no scalar, such as _NUMBER's ints and floats.
_INT = r"[-+]?(?:0|[1-9][0-9]{0,17})"
_FLOAT = r"[-+]?[0-9]+(?:\.[0-9]*(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_TOKEN = (r"""(?:'[ -&(-~]*'|"[ !#-\[\]-~]*"|"""
          r"[-+]?[0-9A-Za-z_][-+.0-9A-Za-z_]*)")
_NUMBER = re.compile(rf"({_INT})|{_FLOAT}")
# A blank or comment line; or an indent, then a flow mapping's pairs, or a
# block line's dash, key and value.
_LINE = re.compile(rf" *(?:#[ -~]*)?|( *)(?:- \{{({_TOKEN}: {_TOKEN}(?:, "
                   rf"{_TOKEN}: {_TOKEN})*)\}}|(- )?({_TOKEN}):"
                   rf"(?: ({_TOKEN}))?)")
_RESOLVERS = _CaseLoader.yaml_implicit_resolvers
_WILDCARD = _RESOLVERS.get(None, [])
_MAX_DEPTH = 100        # yaml.load's composer recurses per level (C stack)


def _scan_document(text: str) -> dict | None:
    """What ``yaml.load(text, Loader=_CaseLoader)`` builds, read line by
    line, or None where ``text`` leaves the scanner's grammar.

    That is a mapping of ``key: scalar`` and ``key:`` lines, each ``key:``
    followed by a sequence of flow mappings, one per line, or of block
    mappings of scalars, with full-line comments and blank lines anywhere.
    A plain word is kept only where the loader's implicit resolvers leave
    it a string; a token is at most 256 characters, as YAML limits keys.
    A flow mapping is split at ", " and ": " and declined where a fragment
    opens a quote it does not close.  A value with "." or "e"/"E", a final
    digit (so no "inf") and no "_" that ``float`` reads is a _FLOAT token.
    """
    doc: dict = {}
    built: dict = {}                  # token -> value, for keys and words
    items = indent = entry = None     # open sequence, its indent, block item

    def scalar(token):
        value = built.get(token)
        if value is None and 0 < len(token) <= 256:
            number = _NUMBER.fullmatch(token)
            if number is not None:
                value = int(token) if number[1] else float(token)
            elif token[0] in "'\"":  # None for a fragment of a split one
                value = token[1:-1] if token[1:].endswith(token[0]) else None
            elif not any(regexp.match(token) for _, regexp in
                         _RESOLVERS.get(token[0], []) + _WILDCARD):
                value = token         # the resolvers leave it a string
            built[token] = value
        return value

    for line in text.split("\n"):
        match = _LINE.fullmatch(line)
        if match is None:
            return None
        pad, flow, dash, key, word = match.groups()
        if flow is None and key is None:
            continue                  # a blank line or a comment
        if flow is not None or dash is not None:      # a sequence item
            if items is None or indent not in (None, len(pad)):
                return None
            indent, target = len(pad), {}
            items.append(target)
            entry = target if dash else None
        elif pad:                     # the next line of a block item
            if entry is None or len(pad) != indent + 2:
                return None
            target = entry
        else:                         # a top-level key
            if items == []:
                return None
            items = indent = entry = None
            target = doc
        if flow is None and word is None:   # a "key:" line opens a sequence
            if target is not doc or scalar(key) is None:
                return None
            doc[scalar(key)] = items = []
            continue
        tokens = flow.replace(", ", ": ").split(": ") if flow else (key, word)
        for key, token in zip(tokens[::2], tokens[1::2]):
            fast = (("." in token or "e" in token or "E" in token)
                    and "_" not in token and token[-1] in "0123456789")
            try:
                value = float(token) if fast else scalar(token)
            except ValueError:        # such as "1.2.3"
                value = scalar(token)
            key = built.get(key) or scalar(key)  # miss or falsy: scalar()
            if key is None or value is None:
                return None
            target[key] = value
    return doc if doc and items != [] else None


def _load_document(text: str):
    """``yaml.load(text, Loader=_CaseLoader)``, from the line scanner when
    ``text`` keeps to its grammar; the full loader alone reads the rest and
    raises every parse error, but is not given nesting over _MAX_DEPTH."""
    doc = _scan_document(text)
    depths = accumulate(isinstance(event, yaml.CollectionStartEvent)
                        - isinstance(event, yaml.CollectionEndEvent)
                        for event in yaml.parse(text, Loader=_CaseLoader))
    try:
        deep = doc is None and any(depth > _MAX_DEPTH for depth in depths)
    except yaml.YAMLError:          # yaml.load reports it
        deep = False
    if deep:
        raise yaml.YAMLError(f"collections nested deeper than {_MAX_DEPTH}")
    return doc if doc is not None else yaml.load(text, Loader=_CaseLoader)


def _degrees_exact(rad: float) -> float:
    """Degrees value whose parse (multiplication by pi/180) returns ``rad``.

    Division and multiplication by the conversion factor are each correctly
    rounded but not mutually inverse; nudging by up to two ulps recovers an
    exact preimage whenever one exists -- in particular always, when ``rad``
    itself came from parsing a degree value.
    """
    deg = rad / _DEG
    if deg * _DEG == rad:
        return deg
    up1 = math.nextafter(deg, math.inf)
    dn1 = math.nextafter(deg, -math.inf)
    for cand in (up1, dn1, math.nextafter(up1, math.inf),
                 math.nextafter(dn1, -math.inf)):
        if cand * _DEG == rad:
            return cand
    return deg


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
        "theta": col["theta_deg"] * _DEG}


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
_BUS_TAKES = np.array([[key in _BUS_ALLOWED[kind] for key in _BUS_KEYS]
                       for kind in KINDS])
_PV_NEEDS = [_BUS_KEYS.index("v_setpoint"), _BUS_KEYS.index("p")]
# A top-level key line and its scalar; "key: value" pairs joined by ", " of
# tokens without ",", ":" or line breaks; int or number tokens, "\n"-joined.
_TOP_LINE = re.compile(
    r"\n(schema_version|base_mva|buses|branches):(?: ([^\n]*))?(?=\n|$)")
_PAIRS = re.compile(r"[^\n,:]+: [^\n,:]+(?:, [^\n,:]+: [^\n,:]+)*")
_INT_LINES = re.compile(rf"{_INT}(?:\n{_INT})*")
_NUMBER_LINES = re.compile(rf"(?:{_FLOAT}|{_INT})(?:\n(?:{_FLOAT}|{_INT}))*")


def _section(body: str, keys: list, needed: int) -> tuple | None:
    """Each pair's item, key code and value token in a section's items, and
    the keys each item has; None for any other shape of ``body``, a key not
    in ``keys``, one an item repeats or lacks of the first ``needed``."""
    pad = body[:len(body) - len(body[1:].lstrip(" "))]   # "\n", indent
    if body.startswith(pad + "- {") and body.endswith("}"):
        items = body[len(pad) + 3:-1].split("}" + pad + "- {")
    elif body.startswith(pad + "- ") and ", " not in body:
        items = body[len(pad) + 2:].replace(pad + "  ", ", ").split(pad + "- ")
    else:
        return None
    flat = ", ".join(items)
    tokens = flat.replace(", ", ": ").split(": ")
    code = np.fromiter(map({key: k for k, key in enumerate(keys)}.get,
                           tokens[::2], repeat(-1)), np.intp)
    if _PAIRS.fullmatch(flat) is None or code.min() < 0:
        return None
    n, m = len(items), len(keys)
    item = np.repeat(np.arange(n), np.fromiter(
        map(str.count, items, repeat(": ")), np.intp, n))
    has = np.bincount(item * m + code, minlength=n * m).reshape(n, m)
    if has.max() > 1 or not has[:, :needed].all():
        return None
    return item, code, np.array(tokens[1::2], object), has == 1


def _column(section: tuple, k: int, default: float | None = None):
    """Key ``k``'s ints, or float column given a default; None if one is bad"""
    item, code, value, has = section
    tokens = value[code == k]
    if len(tokens) and (_INT_LINES if default is None else _NUMBER_LINES
                        ).fullmatch("\n".join(tokens)) is None:
        return None
    if default is None:
        return list(map(int, tokens))
    column = np.full(len(has), default)
    column[item[code == k]] = np.fromiter(map(float, tokens), float)
    column[item[code == k][tokens == "-0"]] = 0.0    # YAML's int 0
    return column


def _read_columns(text: str) -> tuple | None:
    """The dict path's ``(base_mva, ids, columns)`` of a clean file, or None:
    known keys, each taken by the item's kind, given once, needed ones all
    given, and every value a bare kind or ``_scan_document``'s number."""
    parts = _TOP_LINE.split("\n" + text.removesuffix("\n"))
    top = dict(zip(parts[1::3], zip(parts[2::3], parts[3::3])))
    word, body = top.get("base_mva", ("100.0", ""))
    number = _NUMBER.fullmatch(word or "")
    if (parts[0] or 3 * len(top) + 1 != len(parts) or body or number is None
            or top.get("schema_version") not in (
                ('"1"', ""), ("'1'", ""), ("1", ""))
            or {key for key, (w, _) in top.items() if w is None}
            != {"buses", "branches"}      # the "key:" lines, no scalar
            or (bus := _section(top["buses"][1], _BUS_KEYS, 2)) is None
            or (br := _section(top["branches"][1], _BRANCH_KEYS, 4)) is None):
        return None
    item, code, value, has = bus
    kind = np.fromiter(map(_CODES.get, value[code == 1], repeat(-1)), np.int8)
    if (kind.min() < 0 or not _BUS_TAKES[kind[item], code].all()
            or not has[kind == _PV][:, _PV_NEEDS].all()):
        return None
    ids, *ends = _column(bus, 0), _column(br, 0), _column(br, 1)
    col = {key: _column(bus, k, default)
           for k, (_, key, default, _) in enumerate(_BUS_NUMBERS, 2)}
    g, b, shunt = (_column(br, k, 0.0) for k in (2, 3, 4))
    if any(x is None for x in [ids, *ends, *col.values(), g, b, shunt]):
        return None
    return _float(int(word) if number[1] else float(word)), ids, (
        _bus_fields(kind, col) | _branch_fields(*ends, g, b, shunt))


def parse_case(text: str, source: str = "<case>") -> NetworkCase:
    """Parse a case document straight into :class:`NetworkCase` columns.
    PARSE_ERROR for bad YAML; VALIDATION_ERROR lists every schema problem
    in file order or, if there is none, every model problem; a clean file
    is read by ``_read_columns``, whose None sends it down the dict path."""
    if (read := _read_columns(text)) is not None:
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
    case exactly.  Zero-valued optional fields are omitted, and the angle
    round-trip is exact through :func:`_degrees_exact`.  A conductive line
    shunt has no field in the format: the error lists every such branch.
    """
    conductive = np.flatnonzero(case.line_shunt.real).tolist()
    if conductive:
        raise CaseValidationError(
            [f"branch {case.from_bus[i]}-{case.to_bus[i]}: conductive line "
             "shunts cannot be represented in the case-file format"
             for i in conductive])
    buses = []
    for k, (code, p, v, theta, *values) in enumerate(_rows(
            case.kind, case.p_set, case.v_set, case.theta,
            *(part for column in (case.power, case.shunt, case.current)
              for part in (column.real, column.imag))), 1):
        entry = {"id": k, "kind": KINDS[code]}
        if code == _SLACK:
            entry |= {"v_setpoint": v, "theta_deg": _degrees_exact(theta)}
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
