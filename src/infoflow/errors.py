"""Exception types shared across the package, and the strict-object check
every document loader uses."""

from collections.abc import Set
from typing import Any


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
    missing = required - obj.keys()
    if missing:
        raise SchemaError(f"{where}: missing field {sorted(missing)[0]!r}")
    unknown = obj.keys() - required
    if unknown:
        raise SchemaError(f"{where}: unknown field {sorted(unknown)[0]!r}")
