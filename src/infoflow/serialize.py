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
names, then mode), so serialization is deterministic byte for byte.
Loading is strict: unknown or missing fields raise :class:`SchemaError`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Any, Iterable

from .errors import SchemaError, ValidationError, one_of, strict_object
from .model import (
    CommonRepresentation,
    Explicit,
    Flow,
    Implicit,
    InterfaceId,
    InterfaceKey,
    Mode,
    flow_key,
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


def _canonical(
    cr: CommonRepresentation,
) -> tuple[list[InterfaceKey], list[tuple[InterfaceKey, InterfaceKey]]]:
    """The graph's interface keys and flow key pairs, each in canonical order."""
    return sorted(map(interface_key, cr.interfaces)), sorted(map(flow_key, cr.flows))


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
    return cls(*values)


def flow_from_dict(obj: Any, where: str = "flow") -> Flow:
    strict_object(obj, {"from", "to"}, where)
    src = interface_from_dict(obj["from"], f"{where}.from")
    dst = interface_from_dict(obj["to"], f"{where}.to")
    try:
        return Flow(src, dst)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def flows_to_list(flows: Iterable[Flow]) -> list[dict[str, Any]]:
    """The document form of some flows, in canonical order: the ``flows``
    array of :func:`cr_to_dict` and of every CLI report that lists flows."""
    return [{"from": _key_to_dict(src), "to": _key_to_dict(dst)}
            for src, dst in sorted(map(flow_key, flows))]


def cr_to_dict(cr: CommonRepresentation) -> dict[str, Any]:
    return {
        "interfaces": [_key_to_dict(key) for key in sorted(map(interface_key, cr.interfaces))],
        "flows": flows_to_list(cr.flows),
    }


def cr_from_dict(obj: Any) -> CommonRepresentation:
    strict_object(obj, {"interfaces", "flows"}, "graph")
    if not isinstance(obj["interfaces"], list) or not isinstance(obj["flows"], list):
        raise SchemaError("graph: 'interfaces' and 'flows' must be arrays")
    interfaces = {
        interface_from_dict(item, f"interfaces[{n}]")
        for n, item in enumerate(obj["interfaces"])
    }
    flows = {flow_from_dict(item, f"flows[{n}]") for n, item in enumerate(obj["flows"])}
    return CommonRepresentation(interfaces=interfaces, flows=flows)


def _block(key: InterfaceKey, indent: str) -> str:
    """The interface object of ``key`` as indented JSON text, its fields at ``indent``."""
    fields = f",\n{indent}".join(
        f'"{name}": {encode_basestring(value)}' for name, value in zip(_FIELDS[key[0]], key)
    )
    return f"{{\n{indent}{fields}\n{indent[2:]}}}"


def _array(items: list[str]) -> str:
    """A top-level key's array value, its items already in indented text."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def dumps(cr: CommonRepresentation) -> str:
    """Serialize to canonical, newline-terminated JSON text (the layout in the module docstring)."""
    interfaces, flows = _canonical(cr)
    endpoints = {key: _block(key, " " * 8) for key in {key for pair in flows for key in pair}}
    return (
        '{\n  "interfaces": '
        + _array([_block(key, " " * 6) for key in interfaces])
        + ',\n  "flows": '
        + _array([
            f'{{\n      "from": {endpoints[src]},\n      "to": {endpoints[dst]}\n    }}'
            for src, dst in flows
        ])
        + "\n}\n"
    )


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
    """Parse JSON text into a graph; :class:`SchemaError` on malformed input."""
    return cr_from_dict(decode_json(text))


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(cr: CommonRepresentation) -> str:
    """Render the graph as DOT text for visual inspection.

    Explicit interfaces become ``entity.R`` / ``entity.W`` nodes, implicit
    ones ``agent#label``; one edge per flow, everything in canonical order.
    """
    interfaces, flows = _canonical(cr)
    lines = ["digraph cr {"]
    lines += [f"  {_dot_quote(format_key(key))};" for key in interfaces]
    lines += [
        f"  {_dot_quote(format_key(src))} -> {_dot_quote(format_key(dst))};"
        for src, dst in flows
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"
