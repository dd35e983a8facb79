"""Exception types shared across the package, and the checks every
document loader shares: a strict object, and a value from a fixed set."""

from collections.abc import Mapping, Set
from typing import Any, TypeVar

_T = TypeVar("_T")


class SchemaError(ValueError):
    """An input document does not match the expected file schema."""


class ValidationError(ValueError):
    """A structurally well-formed value violates a semantic invariant."""


class UnknownInterfaceError(ValueError):
    """A query names an interface the graph does not declare."""


def strict_object(obj: Any, required: Set[str], where: str) -> None:
    """Check that ``obj`` is a dict holding exactly the ``required`` keys.

    If not, raise :class:`SchemaError` naming ``where`` and, for a missing
    or unknown key, the first such key in sorted order (missing ones first).
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    if obj.keys() == required:
        return
    missing = required - obj.keys()
    if missing:
        raise SchemaError(f"{where}: missing field {sorted(missing)[0]!r}")
    unknown = obj.keys() - required
    if unknown:
        raise SchemaError(f"{where}: unknown field {sorted(unknown)[0]!r}")


def one_of(choices: Mapping[str, _T], value: Any, what: str) -> _T:
    """The choice a document ``value`` names.  Any other value raises
    :class:`SchemaError`: ``what`` must be one of the names, listed in order."""
    if isinstance(value, str) and value in choices:
        return choices[value]
    *rest, last = map(repr, choices)
    raise SchemaError(f"{what} must be {', '.join(rest)} or {last}, got {value!r}")
