"""Canonical JSON interchange for flow graphs, plus DOT export.

:func:`dumps` writes one fixed byte layout, and that layout is the
contract: two-space indentation, one key per line, keys in the order shown,
UTF-8 text in which only ``"``, ``\\`` and the control characters
U+0000-U+001F are escaped, and a trailing newline::

    {
      "interfaces": [
        {
          "kind": "explicit",
          "entity": "o1",
          "mode": "R"
        },
        {
          "kind": "implicit",
          "agent": "alice",
          "label": "chat"
        }
      ],
      "flows": [
        {
          "from": {
            "kind": "explicit",
            "entity": "o1",
            "mode": "R"
          },
          "to": {
            "kind": "implicit",
            "agent": "alice",
            "label": "chat"
          }
        }
      ]
    }

This is exactly the text of ``json.dumps(cr_to_dict(cr), indent=2,
ensure_ascii=False) + "\\n"``; :func:`dumps` writes it directly, without
building the dict tree.  Arrays are in canonical order (variant tag, then
names, then mode; a flow by its source, then its destination), so
serialization is deterministic byte for byte.  Every writer takes that
order from one sort of the interfaces, whose integer ranks then order the
flows; keys are unique, so the bytes are those of sorting the flows' key
pairs.
Loading is strict: unknown or missing fields raise :class:`SchemaError`,
and an error in one interface or flow object names its place in the
document (``flows[3].to: ...``).  Each distinct interface object is checked
once per document: an object equal to one checked before, the same fields
with the same values in the same order, makes the same interface without a
second check.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Any, Collection, Iterable

from .errors import SchemaError, ValidationError, one_of, strict_object
from .model import (
    CommonRepresentation,
    Explicit,
    Flow,
    Implicit,
    InterfaceId,
    InterfaceKey,
    Mode,
    format_key,
    interface_key,
)

# Each interface kind's class, by the tag that starts its document and its
# :func:`interface_key`.
_KINDS = {"explicit": Explicit, "implicit": Implicit}
# The document fields of each kind, in output order; they line up with the
# parts of its :func:`interface_key`.
_FIELDS = {kind: ("kind", *cls.__slots__) for kind, cls in _KINDS.items()}
_FIELD_SETS = {kind: frozenset(fields) for kind, fields in _FIELDS.items()}
_FLOW_FIELDS = frozenset({"from", "to"})


def _ranked(interfaces: Iterable[InterfaceId],
            flows: Iterable[Flow]) -> tuple[list[InterfaceKey], list[tuple[int, list[int]]]]:
    """The canonical order: the keys of ``interfaces`` sorted, and the ranks
    (places in that list) of each flow source and its destinations, sources
    in rank order and each source's destinations in rank order.  Keys are
    unique, so ranks sort as keys do and flows come out as their key pairs
    sort.  Every endpoint of ``flows`` must be one of ``interfaces``."""
    ordered = sorted(interfaces, key=interface_key)
    rank = {iface: n for n, iface in enumerate(ordered)}
    rows: list[list[int]] = [[] for _ in ordered]
    for src, dst in flows:
        rows[rank[src]].append(rank[dst])
    return ([iface._key for iface in ordered],
            [(n, sorted(row)) for n, row in enumerate(rows) if row])


def _key_to_dict(key: InterfaceKey) -> dict[str, str]:
    return dict(zip(_FIELDS[key[0]], key))


def interface_from_dict(obj: Any, where: str = "interface") -> InterfaceId:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    cls = one_of(_KINDS, kind, f"{where}: kind")
    strict_object(obj, _FIELD_SETS[kind], where)
    values = []
    for name in cls.__slots__:
        value = obj[name]
        if name == "mode":
            value = one_of(Mode._value2member_map_, value, f"{where}: mode")
        elif not isinstance(value, str):
            raise SchemaError(f"{where}.{name}: expected a string, got {type(value).__name__}")
        values.append(value)
    try:
        return cls(*values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _flow_dicts(keys: list[InterfaceKey],
                rows: list[tuple[int, list[int]]]) -> list[dict[str, Any]]:
    return [{"from": _key_to_dict(keys[src]), "to": _key_to_dict(keys[dst])}
            for src, dsts in rows for dst in dsts]


def flows_to_list(flows: Collection[Flow]) -> list[dict[str, Any]]:
    """The document form of some flows, in canonical order: the ``flows``
    array of :func:`cr_to_dict` and of every CLI report that lists flows."""
    return _flow_dicts(*_ranked({end for flow in flows for end in flow}, flows))


def cr_to_dict(cr: CommonRepresentation) -> dict[str, Any]:
    keys, rows = _ranked(cr.interfaces, cr.flows)
    return {"interfaces": [_key_to_dict(key) for key in keys], "flows": _flow_dicts(keys, rows)}


def cr_from_dict(obj: Any) -> CommonRepresentation:
    strict_object(obj, {"interfaces", "flows"}, "graph")
    if not isinstance(obj["interfaces"], list) or not isinstance(obj["flows"], list):
        raise SchemaError("graph: 'interfaces' and 'flows' must be arrays")
    # The interface each object checked so far made, keyed by its fields and
    # then their values, in document order: an equal object later on makes
    # the same interface unchecked.  Only a check builds a location.
    made: dict[tuple, InterfaceId] = {}

    def interface(item: Any, where: str, n: int) -> InterfaceId:
        try:
            iface = made.get((*item, *item.values()))
        except (AttributeError, TypeError):  # not a dict, or a value that cannot be hashed
            iface = None
        if iface is None:
            iface = made[(*item, *item.values())] = interface_from_dict(item, where % n)
        return iface

    interfaces = {interface(item, "interfaces[%d]", n) for n, item in enumerate(obj["interfaces"])}
    flows = set()
    for n, item in enumerate(obj["flows"]):
        if type(item) is not dict or item.keys() != _FLOW_FIELDS:  # locate only an error
            strict_object(item, _FLOW_FIELDS, f"flows[{n}]")
        src = interface(item["from"], "flows[%d].from", n)
        dst = interface(item["to"], "flows[%d].to", n)
        try:
            flows.add(Flow(src, dst))
        except ValueError as exc:
            raise ValidationError(f"flows[{n}]: {exc}") from exc
    return CommonRepresentation(interfaces, flows)


# Each interface kind's object in the ``interfaces`` array, its fields at
# indent 6, with a ``%s`` for each encoded name.
_BLOCKS = {kind: f'{{\n      "kind": "{kind}",\n      "{first}": %s,\n      "{second}": %s\n    }}'
           for kind, (_, first, second) in _FIELDS.items()}


def _array(items: list[str]) -> str:
    """A top-level key's array value, its items already in indented text."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def dumps(cr: CommonRepresentation) -> str:
    """Serialize to canonical, newline-terminated JSON text (the layout in the module docstring)."""
    keys, rows = _ranked(cr.interfaces, cr.flows)
    blocks = [_BLOCKS[kind] % (encode_basestring(first), encode_basestring(second))
              for kind, first, second in keys]
    # A flow endpoint is the same object two more spaces in: the encoded
    # names hold no raw newline, so only the layout's line breaks move.
    ends = [block.replace("\n", "\n  ") for block in blocks]
    flows: list[str] = []
    for src, dsts in rows:
        head = '{\n      "from": ' + ends[src] + ',\n      "to": '
        flows += [head + ends[dst] + "\n    }" for dst in dsts]
    return '{\n  "interfaces": ' + _array(blocks) + ',\n  "flows": ' + _array(flows) + "\n}\n"


def decode_json(text: str, source: str = "") -> Any:
    """Decode JSON text; :class:`SchemaError`, prefixed with ``source`` when
    given, for text that is not JSON or nests too deeply to decode."""
    prefix = f"{source}: " if source else ""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"{prefix}invalid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{prefix}invalid JSON: nested too deeply to decode") from None


def loads(text: str) -> CommonRepresentation:
    """Parse JSON text into a graph; :class:`SchemaError` on malformed input,
    :class:`ValidationError` on a graph that is not valid."""
    return cr_from_dict(decode_json(text))


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(cr: CommonRepresentation) -> str:
    """Render the graph as DOT text for visual inspection.

    Explicit interfaces become ``entity.R`` / ``entity.W`` nodes, implicit
    ones ``agent#label``; one edge per flow, everything in canonical order.
    """
    keys, rows = _ranked(cr.interfaces, cr.flows)
    names = [_dot_quote(format_key(key)) for key in keys]
    lines = ["digraph cr {"]
    lines += [f"  {name};" for name in names]
    lines += [f"  {names[src]} -> {names[dst]};" for src, dsts in rows for dst in dsts]
    lines.append("}")
    return "\n".join(lines) + "\n"
