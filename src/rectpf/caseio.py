"""Case-file parsing and emission (YAML, schema_version "1").

A case is one human-writable YAML document.  Angles live in degrees at this
boundary and radians inside the data model; every other quantity is a plain
per-unit float.  Unknown fields are rejected at every level, missing
optional numerics default to zero, and validation reports every problem it
finds at once.

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
from pathlib import Path

import yaml
from yaml.events import (DocumentEndEvent, MappingEndEvent, MappingStartEvent,
                         ScalarEvent, SequenceEndEvent, SequenceStartEvent,
                         StreamEndEvent)
from yaml.nodes import ScalarNode

from .errors import CaseValidationError
from .netmodel import (Branch, Bus, BusKind, NetworkCase, PvSetpoint,
                       SlackVoltage, ZipLoad)

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
_BRANCH_FIELDS = {"from", "to", "series_g", "series_b", "shunt_b_total"}

# libyaml's parser when PyYAML was built with it; it pairs the C parser with
# the same resolver and safe constructor, so documents load to equal objects.
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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

_STR_TAG = "tag:yaml.org,2002:str"
# Plain scalars with these tags are built by the loader's own constructors.
_BUILT_TAGS = frozenset(f"tag:yaml.org,2002:{name}"
                        for name in ("int", "float", "bool", "null"))
_NO_KEY = object()


class _NotCovered(Exception):
    """The document uses YAML the event path leaves to the full loader."""


def _document_from_events(loader):
    """Build the document from ``loader``'s events, skipping the node tree.

    Covers one document of plain and quoted scalars in nested mappings and
    sequences, with scalar mapping keys.  Anchors, aliases, explicit tags,
    merge keys, other resolved tags and further documents raise
    :class:`_NotCovered`.
    """
    get_event = loader.get_event
    # As BaseResolver.resolve: the resolvers for a plain scalar's first
    # character, then the wildcard ones, in table order.
    table = loader.yaml_implicit_resolvers
    wildcard = table.get(None, [])
    resolvers = {first: found + wildcard for first, found in table.items()}
    build = {tag: loader.yaml_constructors[tag] for tag in _BUILT_TAGS}
    get_event()                     # stream start
    if type(get_event()) is StreamEndEvent:
        return None                 # an empty stream loads as None
    root: list = []
    top, key, parents = root, _NO_KEY, []   # key: pending mapping key
    while True:
        event = get_event()
        kind = type(event)
        if kind is ScalarEvent:
            if event.anchor is not None or event.tag is not None:
                raise _NotCovered
            value = event.value
            if event.implicit[0]:
                for tag, regexp in resolvers.get(value[:1], wildcard):
                    if regexp.match(value):
                        break
                else:
                    tag = _STR_TAG
                if tag in build:
                    value = build[tag](loader, ScalarNode(tag, value))
                elif tag != _STR_TAG:
                    raise _NotCovered
            if key is _NO_KEY and type(top) is dict:
                key = value
                continue
        elif kind is MappingStartEvent or kind is SequenceStartEvent:
            if (event.anchor is not None or event.tag is not None
                    or key is _NO_KEY and type(top) is dict):
                raise _NotCovered
            value = {} if kind is MappingStartEvent else []
        elif kind is MappingEndEvent or kind is SequenceEndEvent:
            top, key = parents.pop()
            continue
        elif kind is DocumentEndEvent:
            if type(get_event()) is not StreamEndEvent:
                raise _NotCovered
            return root[0]
        else:                       # an alias
            raise _NotCovered
        if type(top) is list:
            top.append(value)
        else:
            top[key] = value
            key = _NO_KEY
        if kind is not ScalarEvent:
            parents.append((top, key))
            top = value


def _load_document(text: str):
    """``yaml.load(text, Loader=_CaseLoader)``, built from the event stream.

    Whatever the event path does not cover or cannot build goes through the
    full loader, which then returns the document or raises its own error.
    """
    loader = _CaseLoader(text)
    try:
        return _document_from_events(loader)
    except Exception:
        # The full loader is the reference for every input the event path
        # rejects, malformed text included, so no exception is lost here.
        pass
    finally:
        loader.dispose()
    return yaml.load(text, Loader=_CaseLoader)


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


def _num(entry: dict, key: str, where: str, problems: list[str],
         default: float = 0.0) -> float:
    if key not in entry:
        return default
    val = entry[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        problems.append(f"{where}: field '{key}' must be a number, "
                        f"got {val!r}")
        return default
    return float(val)


def _check_fields(entry: dict, allowed: set, where: str,
                  problems: list[str]) -> None:
    unknown = sorted(set(entry) - allowed)
    if unknown:
        problems.append(f"{where}: unknown field(s) {unknown}")


def _parse_bus(entry, index: int, problems: list[str]) -> Bus | None:
    where = f"buses[{index}]"
    if not isinstance(entry, dict):
        problems.append(f"{where}: expected a mapping, got {type(entry).__name__}")
        return None
    bus_id = entry.get("id")
    if isinstance(bus_id, bool) or not isinstance(bus_id, int):
        problems.append(f"{where}: 'id' must be an integer")
        return None
    where = f"buses[{index}] (id {bus_id})"
    kind = entry.get("kind")
    if kind not in _BUS_FIELDS:
        problems.append(f"{where}: 'kind' must be one of "
                        f"{sorted(_BUS_FIELDS)}, got {kind!r}")
        return None
    _check_fields(entry, _BUS_ALLOWED[kind], where, problems)

    if kind == "slack":
        v_mag = _num(entry, "v_setpoint", where, problems, default=1.0)
        theta = _num(entry, "theta_deg", where, problems) * _DEG
        return Bus(bus_id, BusKind.SLACK,
                   slack_voltage=SlackVoltage(v_mag, theta))

    load = ZipLoad(
        shunt_admittance=complex(_num(entry, "shunt_g", where, problems),
                                 _num(entry, "shunt_b", where, problems)),
        current=complex(_num(entry, "i_load_re", where, problems),
                        _num(entry, "i_load_im", where, problems)),
        power=complex(_num(entry, "p", where, problems),
                      _num(entry, "q", where, problems)))
    if kind == "pv":
        if "v_setpoint" not in entry:
            problems.append(f"{where}: pv bus requires 'v_setpoint'")
        if "p" not in entry:
            problems.append(f"{where}: pv bus requires 'p'")
        setpoint = PvSetpoint(p=_num(entry, "p", where, problems),
                              v_mag=_num(entry, "v_setpoint", where,
                                         problems, default=1.0))
        load = ZipLoad(load.shunt_admittance, load.current, 0j)
        return Bus(bus_id, BusKind.PV, load=load, pv_setpoint=setpoint)
    return Bus(bus_id, BusKind.ZIP, load=load)


def _parse_branch(entry, index: int, problems: list[str]) -> Branch | None:
    where = f"branches[{index}]"
    if not isinstance(entry, dict):
        problems.append(f"{where}: expected a mapping, got {type(entry).__name__}")
        return None
    _check_fields(entry, _BRANCH_FIELDS, where, problems)
    ok = True
    for key in ("from", "to"):
        val = entry.get(key)
        if isinstance(val, bool) or not isinstance(val, int):
            problems.append(f"{where}: '{key}' must be an integer bus id")
            ok = False
    for key in ("series_g", "series_b"):
        if key not in entry:
            problems.append(f"{where}: '{key}' is required")
            ok = False
    if not ok:
        return None
    return Branch(
        from_bus=entry["from"], to_bus=entry["to"],
        series_admittance=complex(_num(entry, "series_g", where, problems),
                                  _num(entry, "series_b", where, problems)),
        shunt_admittance_total=complex(
            0.0, _num(entry, "shunt_b_total", where, problems)))


def parse_case(text: str, source: str = "<case>") -> NetworkCase:
    """Parse a case document.  PARSE_ERROR for bad YAML, VALIDATION_ERROR
    (listing every violation) for schema problems."""
    try:
        doc = _load_document(text)
    except (yaml.YAMLError, ValueError) as exc:
        # PyYAML's scalar constructors raise a bare ValueError for text the
        # resolver accepted but cannot convert, such as ``0x_``.
        detail = ""
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            detail = f" at line {mark.line + 1}, column {mark.column + 1}"
        raise CaseValidationError(
            [f"{source}: not valid YAML{detail}: {exc}"],
            code="PARSE_ERROR") from exc
    if not isinstance(doc, dict):
        raise CaseValidationError(
            [f"{source}: document root must be a mapping"],
            code="PARSE_ERROR")

    problems: list[str] = []
    _check_fields(doc, _TOP_FIELDS, source, problems)
    version = doc.get("schema_version")
    if version not in (SCHEMA_VERSION, int(SCHEMA_VERSION)):
        problems.append(
            f"{source}: schema_version must be \"{SCHEMA_VERSION}\", "
            f"got {version!r}")
    base_mva = _num(doc, "base_mva", source, problems, default=100.0)

    raw_buses = doc.get("buses")
    raw_branches = doc.get("branches")
    if not isinstance(raw_buses, list) or not raw_buses:
        problems.append(f"{source}: 'buses' must be a non-empty list")
        raw_buses = []
    if not isinstance(raw_branches, list) or not raw_branches:
        problems.append(f"{source}: 'branches' must be a non-empty list")
        raw_branches = []

    buses = [b for i, e in enumerate(raw_buses)
             if (b := _parse_bus(e, i, problems)) is not None]
    branches = [b for i, e in enumerate(raw_branches)
                if (b := _parse_branch(e, i, problems)) is not None]
    if problems:
        raise CaseValidationError(problems)
    # NetworkCase construction runs the structural checks (ids, slack
    # placement, connectivity...) and raises with its own violation list.
    return NetworkCase(tuple(buses), tuple(branches), base_mva)


def load_case(path) -> NetworkCase:
    path = Path(path)
    return parse_case(path.read_text(encoding="utf-8"), source=str(path))


def _bus_entry(bus: Bus) -> dict:
    entry: dict = {"id": bus.id, "kind": bus.kind.value}
    if bus.kind is BusKind.SLACK:
        entry["v_setpoint"] = bus.slack_voltage.v_mag
        entry["theta_deg"] = _degrees_exact(bus.slack_voltage.theta)
        return entry
    if bus.kind is BusKind.PV:
        entry["v_setpoint"] = bus.pv_setpoint.v_mag
        entry["p"] = bus.pv_setpoint.p
    else:
        if bus.load.power.real:
            entry["p"] = bus.load.power.real
        if bus.load.power.imag:
            entry["q"] = bus.load.power.imag
    if bus.load.shunt_admittance.real:
        entry["shunt_g"] = bus.load.shunt_admittance.real
    if bus.load.shunt_admittance.imag:
        entry["shunt_b"] = bus.load.shunt_admittance.imag
    if bus.load.current.real:
        entry["i_load_re"] = bus.load.current.real
    if bus.load.current.imag:
        entry["i_load_im"] = bus.load.current.imag
    return entry


def dump_case(case: NetworkCase) -> str:
    """Serialize a case; parsing the result reproduces the case exactly.

    Zero-valued optional fields are omitted.  Exactness of the angle
    round-trip relies on :func:`_degrees_exact`.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "base_mva": case.base_mva,
        "buses": [_bus_entry(b) for b in case.buses],
        "branches": [],
    }
    for br in case.branches:
        if br.shunt_admittance_total.real != 0:
            # The file format only carries susceptance-type line shunts.
            raise CaseValidationError(
                [f"branch {br.from_bus}-{br.to_bus}: conductive line shunts "
                 "cannot be represented in the case-file format"])
        entry = {"from": br.from_bus, "to": br.to_bus,
                 "series_g": br.series_admittance.real,
                 "series_b": br.series_admittance.imag}
        if br.shunt_admittance_total.imag:
            entry["shunt_b_total"] = br.shunt_admittance_total.imag
        doc["branches"].append(entry)
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def save_case(case: NetworkCase, path) -> None:
    Path(path).write_text(dump_case(case), encoding="utf-8")
