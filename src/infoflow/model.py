"""Directed information-flow graphs and the intrinsic queries over them.

The central value is :class:`CommonRepresentation`, a directed graph whose
vertices are communication interfaces and whose edges are permitted
information flows.  A flow ``(src, dst)`` means information may move from
``src`` to ``dst`` and implies nothing about the reverse direction; a
bidirectional exchange needs both flows, and such a pair is called
complementary.

All values are immutable after construction and every operation is a pure
function, so they can be shared freely across threads.

Interfaces are interned: constructing an :class:`Explicit` or
:class:`Implicit` returns the one live object with those field values, so
equal interfaces are one object, ``==`` and ``is`` agree, and hashing and
comparing an interface never runs Python code.  The intern table holds
weak references, so it keeps only interfaces something else still holds;
construction is thread-safe, and pickling or copying an interface returns
the interned object.  Constructors check field types: an ``Explicit``
needs a ``str`` entity and a :class:`Mode`, an ``Implicit`` two ``str``
fields, and anything else raises :class:`TypeError`.

The one piece of state a graph gains later is a derived index (vertex
numbering, successor tuples, availability component count), filled on the
first ``reachable``, ``is_lively`` or ``component_count`` query and reused
by every later query on the same value.  It is not a field, so equality,
hashing and serialized output never see it; two threads racing to fill it
compute the same value, which is harmless.
"""

from __future__ import annotations

import enum
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Any, Callable, ClassVar

from .errors import UnknownInterfaceError


class Mode(enum.Enum):
    """Access mode of an explicit interface."""

    R = "R"
    W = "W"

    # Members are singletons, so identity hashing agrees with equality and
    # runs in C, unlike ``Enum.__hash__``.
    __hash__ = object.__hash__


class GrantResult(enum.Enum):
    """Tri-state outcome of an access check."""

    PERMIT = "permit"
    DENY = "deny"
    UNDEFINED = "undefined"


class _Entry(weakref.ref):
    """The intern table's weak reference to an interface; ``key`` is its entry's key."""

    __slots__ = ("key",)


# Every live interface, keyed by (class, field values).  The values are weak
# references, so the table holds only interfaces that something else holds.
_interned: dict[tuple, _Entry] = {}
_intern_lock = threading.Lock()


def _discard(dead: _Entry) -> None:
    """Drop a collected interface's entry, unless a new interface for the
    same value has replaced it already."""
    _remove_dead_weakref(_interned, dead.key)


def _intern(key: tuple) -> _Interface:
    """The live interface for ``key``, made if there is none.

    Called when the lock-free lookup misses; under the lock, checking and
    inserting are one step, so two threads never make two interfaces for
    one value.
    """
    with _intern_lock:
        ref = _interned.get(key)
        iface = None if ref is None else ref()
        if iface is None:
            cls, first, second = key
            set_first, set_second = cls._setters
            iface = object.__new__(cls)
            set_first(iface, first)
            set_second(iface, second)
            ref = _Entry(iface, _discard)
            ref.key = key
            _interned[key] = ref
    return iface


class _Interface:
    """Immutable, interned interface value: its subclass names its two
    fields in ``__slots__``, and its constructor checks their types and
    returns the object from :func:`_intern`."""

    __slots__ = ("__weakref__",)
    _setters: ClassVar[tuple[Callable[[Any, Any], None], ...]]

    def __init_subclass__(cls) -> None:
        # The slots' own setters, which write a new interface's fields past
        # ``__setattr__``.
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        # Unpickling, copy and deepcopy call the constructor, which interns.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Explicit(_Interface):
    """An (entity, mode) port.

    ``(e, R)`` is the port through which e's content leaves (a source
    endpoint); ``(e, W)`` is the port through which content enters e (a
    sink endpoint).
    """

    __slots__ = ("entity", "mode")
    entity: str
    mode: Mode

    def __new__(cls, entity: str, mode: Mode) -> Explicit:
        if not isinstance(entity, str) or not isinstance(mode, Mode):
            raise TypeError(
                f"Explicit takes a str entity and a Mode, got {type(entity).__name__} "
                f"and {type(mode).__name__}"
            )
        key = (cls, entity, mode)
        ref = _interned.get(key)
        iface = None if ref is None else ref()
        return _intern(key) if iface is None else iface


class Implicit(_Interface):
    """A mode-less agent port; one agent may carry several, told apart by label."""

    __slots__ = ("agent", "label")
    agent: str
    label: str

    def __new__(cls, agent: str, label: str) -> Implicit:
        if not isinstance(agent, str) or not isinstance(label, str):
            raise TypeError(
                f"Implicit takes a str agent and a str label, got {type(agent).__name__} "
                f"and {type(label).__name__}"
            )
        key = (cls, agent, label)
        ref = _interned.get(key)
        iface = None if ref is None else ref()
        return _intern(key) if iface is None else iface


InterfaceId = Explicit | Implicit


InterfaceKey = tuple[str, str, str]


def interface_key(iface: InterfaceId) -> InterfaceKey:
    """Canonical sort key: variant tag, then names, then mode."""
    if isinstance(iface, Explicit):
        # ``_value_`` is the plain attribute behind ``Mode.value``'s descriptor,
        # about five times cheaper to read on this per-endpoint path.
        return ("explicit", iface.entity, iface.mode._value_)
    return ("implicit", iface.agent, iface.label)


def format_key(key: InterfaceKey) -> str:
    """Render the interface with this :func:`interface_key` as text."""
    kind, first, second = key
    return f"{first}.{second}" if kind == "explicit" else f"{first}#{second}"


def format_interface(iface: InterfaceId) -> str:
    """Render an interface as text: ``entity.R``, ``entity.W`` or ``agent#label``."""
    return format_key(interface_key(iface))


def _is_utf8(name: str) -> bool:
    """False for a name that cannot be written as UTF-8 (it holds a lone surrogate)."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@dataclass(frozen=True)
class Flow:
    """A directed edge: information may move from ``src`` to ``dst``.

    Self-loops on a single interface are rejected; a flow between the R and
    W interfaces of the same entity is fine because those are distinct
    interfaces.
    """

    src: InterfaceId
    dst: InterfaceId

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-flow on interface {format_interface(self.src)}")

    def inverse(self) -> "Flow":
        """The reverse flow; ``f.inverse().inverse() == f``."""
        return Flow(self.dst, self.src)


def flow_key(flow: Flow) -> tuple[InterfaceKey, InterfaceKey]:
    return (interface_key(flow.src), interface_key(flow.dst))


def format_flow(flow: Flow) -> str:
    return f"{format_interface(flow.src)} -> {format_interface(flow.dst)}"


@dataclass(frozen=True)
class CommonRepresentation:
    """A finite set of interfaces plus a finite set of flows between them."""

    interfaces: frozenset[InterfaceId] = frozenset()
    flows: frozenset[Flow] = frozenset()

    def __post_init__(self) -> None:
        # Accept any iterables; store canonical frozensets.
        object.__setattr__(self, "interfaces", frozenset(self.interfaces))
        object.__setattr__(self, "flows", frozenset(self.flows))

    @cached_property
    def _adjacency(self) -> tuple[dict[InterfaceId, int], tuple[tuple[int, ...], ...]]:
        """Vertex numbers and the successor numbers of each vertex.

        Declared interfaces are numbered first, then any undeclared flow
        endpoint, so numbers below ``len(self.interfaces)`` are declared.
        """
        ids = {iface: n for n, iface in enumerate(self.interfaces)}
        successors: list[list[int]] = [[] for _ in ids]
        for flow in self.flows:
            try:
                successors[ids[flow.src]].append(ids[flow.dst])
            except KeyError:
                for endpoint in (flow.src, flow.dst):
                    if endpoint not in ids:
                        ids[endpoint] = len(successors)
                        successors.append([])
                successors[ids[flow.src]].append(ids[flow.dst])
        return ids, tuple(map(tuple, successors))

    @cached_property
    def _component_count(self) -> int:
        """Connected components of the availability graph over the declared interfaces."""
        successors = self._adjacency[1]
        n = len(successors)
        # One integer per flow, so each complementary check is a set lookup.
        keys = {src * n + dst for src, row in enumerate(successors) for dst in row}
        mutual = [
            [dst for dst in row if dst * n + src in keys]
            for src, row in enumerate(successors)
        ]
        seen = bytearray(n)
        count = 0
        for start in range(len(self.interfaces)):
            if seen[start]:
                continue
            count += 1
            seen[start] = 1
            stack = [start]
            while stack:
                for nxt in mutual[stack.pop()]:
                    if not seen[nxt]:
                        seen[nxt] = 1
                        stack.append(nxt)
        return count


EMPTY_CR = CommonRepresentation()


def validate(cr: CommonRepresentation) -> list[str]:
    """Well-formedness check.

    Returns an empty list iff every flow endpoint is a declared interface,
    every name component is non-empty UTF-8 text and no entity or agent
    holds ``#``; otherwise one entry per problem.  So every interface that
    passes prints as a query token that reads back as itself.
    """
    problems: list[str] = []
    for iface in sorted(cr.interfaces, key=interface_key):
        if isinstance(iface, Explicit):
            parts = {"entity": iface.entity}
        else:
            parts = {"agent": iface.agent, "label": iface.label}
        for name, value in parts.items():
            if not value:
                problems.append(f"interface {format_interface(iface)!r} has an empty {name}")
            elif not _is_utf8(value):
                problems.append(
                    f"interface {format_interface(iface)!r} has a {name} that is not UTF-8 text"
                )
            elif "#" in value and name != "label":
                problems.append(f"interface {format_interface(iface)!r} has '#' in its {name}")
    for flow in sorted(cr.flows, key=flow_key):
        for endpoint in (flow.src, flow.dst):
            if endpoint not in cr.interfaces:
                problems.append(
                    f"flow {format_flow(flow)} references undeclared interface "
                    f"{format_interface(endpoint)}"
                )
    return problems


def grant(i1: InterfaceId, i2: InterfaceId, cr: CommonRepresentation) -> GrantResult:
    """Tri-state access check from ``i1`` to ``i2``.

    UNDEFINED when the graph is not authoritative over both interfaces
    (either one is undeclared), PERMIT when the flow is present, DENY
    otherwise.  Never raises; all outcomes are values.
    """
    if i1 not in cr.interfaces or i2 not in cr.interfaces:
        return GrantResult.UNDEFINED
    if i1 != i2 and Flow(i1, i2) in cr.flows:
        return GrantResult.PERMIT
    return GrantResult.DENY


def component_count(cr: CommonRepresentation) -> int:
    """Number of connected components of the availability graph: the
    declared interfaces, joined by one undirected edge per complementary
    flow pair (one-way flows join nothing).

    Read from the graph's index, so only the first query on a value pays
    for it.
    """
    return cr._component_count


def is_lively(cr: CommonRepresentation) -> bool:
    """True iff the availability graph has exactly one connected component.

    The empty graph has zero components and is therefore not lively; a
    single isolated interface is.
    """
    return component_count(cr) == 1


def reachable(cr: CommonRepresentation, src: InterfaceId, dst: InterfaceId) -> bool:
    """True iff a directed walk leads from ``src`` to ``dst``; trivially true
    when they coincide.  Raises :class:`UnknownInterfaceError` if either
    interface is undeclared.
    """
    for iface in (src, dst):
        if iface not in cr.interfaces:
            raise UnknownInterfaceError(f"unknown interface {format_interface(iface)}")
    if src == dst:
        return True
    ids, successors = cr._adjacency
    start, goal = ids[src], ids[dst]
    seen = {start}
    stack = [start]
    while stack:
        for nxt in successors[stack.pop()]:
            if nxt == goal:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False
