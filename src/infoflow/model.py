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
comparing an interface never runs Python code.  The intern table is keyed
by :func:`interface_key`, made once and kept on the interface; its
``"explicit"``/``"implicit"`` tag stands for the class, so these are the
only two interface kinds.  The table holds weak references, so it keeps
only interfaces something else still holds; construction is thread-safe,
and pickling or copying an interface returns the interned object.
Constructors check field types: an ``Explicit`` needs a ``str`` entity and
a :class:`Mode`, an ``Implicit`` two ``str`` fields, and anything else
raises :class:`TypeError`.  An interface that exists is valid: a name that
is empty, not UTF-8 text, or an entity or agent holding ``#`` raises
:class:`ValidationError` when the interface is first made, so every
interface's printed name reads back as itself.  A graph that exists is
valid too: the :class:`CommonRepresentation` constructor checks element
types and that every flow endpoint is declared.  Translations and
composites, whose parts are known to be valid, are built by :func:`_graph`,
which skips that.  In the same way a translation makes its interfaces
through :func:`_intern`, which skips the name check that the policy's own
construction already made on every name, and its flows with
``tuple.__new__(Flow, (src, dst))``, which skips the flow's checks: its
endpoints are interfaces and distinct by construction.  A graph's fields
cannot be reassigned, and a changed graph is built with the constructor,
which checks it.  Graphs, policies and rules are values of :class:`_Record`,
not dataclasses, so the package never imports :mod:`dataclasses`.

The one piece of state a graph gains is a derived index, ``_index``: each
flow source's successor list and the availability partition, built together
and reused by every query on the same value, so a graph has no index or the
whole one.  A graph builds it on its first ``reachable``, ``is_lively``,
``component_count`` or ``analyze.conflicts``, unless :func:`_composite`
built the graph with it from a first operand that had one.  Only this
module writes an index, only while building it, and an operand's index is
only read.  It is not a field, so equality, hashing and serialized output
never see it; two threads racing to build it compute the same value, which
is harmless.
"""

from __future__ import annotations

import enum
import threading
import weakref
from _weakref import _remove_dead_weakref
from collections.abc import Iterable, Set
from functools import cached_property
from itertools import filterfalse
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, ClassVar

from .errors import UnknownInterfaceError, ValidationError


def _refuse_assignment(self: object, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self: object, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


class _Record:
    """An immutable value whose class's ``_fields`` gives each field's kind,
    in order, as a (freeze, parse) pair: ``freeze`` makes a constructor
    argument the stored value, and ``parse``, None for a field no document
    holds, reads the field from a document.  The constructor takes the
    fields by position or keyword and stores them frozen through
    :meth:`_store`, which runs the class's check ``_problems``.  Equality,
    hash, repr, ``__match_args__``, pickling and ``__replace__`` read the
    same table, so two values are equal when their class and fields are,
    and copies rebuild through the constructor.  No field can be assigned
    or deleted."""

    _fields: ClassVar[dict[str, tuple[Callable[[Any], Any], Any]]] = {}

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = tuple(cls._fields)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected field {field!r}")
            if field in values:
                raise TypeError(f"{name}() got two values for field {field!r}")
        values.update(kwargs)
        if missing := [field for field in fields if field not in values]:
            raise TypeError(f"{name}() missing field {missing[0]!r}")
        self._store({field: freeze(values[field]) for field, (freeze, _parse) in fields.items()})

    def _store(self, values: dict[str, Any]) -> None:
        """Keep the frozen ``values``, then raise :class:`ValidationError` listing any problems."""
        vars(self).update(values)
        if problems := self._problems():
            raise ValidationError("; ".join(problems))

    def _problems(self) -> list[str]:
        return []

    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def _values(self) -> tuple:
        """The fields as the constructor takes them: a read-only map as a dict."""
        own = vars(self)
        return tuple(dict(value) if type(value) is MappingProxyType else value
                     for value in map(own.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={value!r}"
                           for field, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __replace__(self, **changes: Any) -> _Record:
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


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


# Every live interface, keyed by its :func:`interface_key`, as a weak reference:
# the table holds only interfaces something else holds.  An entry carries its
# key because :func:`_discard` runs once the interface, ``_key`` and all, is gone.
_interned: dict[InterfaceKey, _Entry] = {}
_intern_lock = threading.Lock()


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _discard(dead: _Entry) -> None:
    """Drop a collected interface's entry unless a new interface for the same
    value replaced it already.  The collector may call this inside
    :func:`_intern`, lock held, so it must not take the lock."""
    _remove_dead_weakref(_interned, dead.key)


def _intern(cls: type, firsts: Iterable[str], second: Mode | str) -> dict[str, _Interface]:
    """The live interface of ``cls`` with each of ``firsts`` as its first field
    and ``second`` as its second, keyed by the first field.  Looking up and
    making the whole batch is one step under the lock, so two threads never
    make two interfaces for one value, and a hit is the live object.  A
    missing interface is made without a name check: each caller has checked
    the names, as :func:`_lookup` does on a miss and as a policy's
    construction does for every name its translation makes a port of."""
    tag, set_first, set_second = _MAKERS[cls]
    part = second._value_ if cls is Explicit else second
    get, made = _interned.get, {}
    with _intern_lock:
        for first in firsts:
            key = (tag, first, part)
            ref = get(key)
            iface = None if ref is None else ref()
            if iface is None:
                iface = object.__new__(cls)
                set_first(iface, first)
                set_second(iface, second)
                _set_key(iface, key)
                _interned[key] = entry = _Entry(iface, _discard)
                entry.key = key
            made[first] = iface
    return made


def _lookup(cls: type, key: InterfaceKey, first: str, second: Mode | str) -> _Interface:
    """The live interface with this key, as a public constructor returns it.
    A hit takes no lock and no name check: the interface was checked when it
    was made.  A miss checks the names first, so a refused value leaves no
    entry, then has :func:`_intern` make it."""
    ref = _interned.get(key)
    iface = None if ref is None else ref()
    if iface is None:
        _check_names(cls, key)
        iface = _intern(cls, (first,), second)[first]
    return iface


class _Interface:
    """Immutable, interned interface value: its subclass names its two
    fields in ``__slots__``, and its constructor checks their types and
    returns the object from :func:`_lookup`, which checks the names of a new
    one; :func:`_intern` makes it and keeps its key in ``_key``."""

    __slots__ = ("__weakref__", "_key")

    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

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
    __match_args__ = __slots__
    entity: str
    mode: Mode

    def __new__(cls, entity: str, mode: Mode) -> Explicit:
        if not isinstance(entity, str) or not isinstance(mode, Mode):
            raise TypeError(
                f"Explicit takes a str entity and a Mode, got {type(entity).__name__} "
                f"and {type(mode).__name__}"
            )
        # ``_value_`` skips ``Mode.value``'s Python descriptor: 13 ns, not 200.
        return _lookup(cls, ("explicit", entity, mode._value_), entity, mode)


class Implicit(_Interface):
    """A mode-less agent port; one agent may carry several, told apart by label."""

    __slots__ = ("agent", "label")
    __match_args__ = __slots__
    agent: str
    label: str

    def __new__(cls, agent: str, label: str) -> Implicit:
        if not isinstance(agent, str) or not isinstance(label, str):
            raise TypeError(
                f"Implicit takes a str agent and a str label, got {type(agent).__name__} "
                f"and {type(label).__name__}"
            )
        return _lookup(cls, ("implicit", agent, label), agent, label)


InterfaceId = Explicit | Implicit

# What :func:`_intern` makes an interface of each class with: its key's tag
# and its slot setters, which go past ``__setattr__``, which refuses every write.
_MAKERS = {cls: (cls.__name__.lower(), *(vars(cls)[name].__set__ for name in cls.__slots__))
           for cls in (Explicit, Implicit)}
_set_key = _Interface._key.__set__


InterfaceKey = tuple[str, str, str]


def interface_key(iface: InterfaceId) -> InterfaceKey:
    """Canonical sort key: kind tag, then names, then mode; made on interning."""
    return iface._key


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


def _check_names(cls: type, key: InterfaceKey) -> None:
    """Raise :class:`ValidationError` for the first of the interface's fields
    that is empty, not UTF-8 text, or an entity or agent holding ``#``: the
    query token of such an interface would not read back as itself."""
    for name, value in zip(cls.__slots__, key[1:]):
        if not value:
            problem = f"an empty {name}"
        elif not _is_utf8(value):
            problem = f"{'a' if name == 'label' else 'an'} {name} that is not UTF-8 text"
        elif "#" in value and name != "label":
            problem = f"'#' in its {name}"
        else:
            continue
        raise ValidationError(f"interface {format_key(key)!r} has {problem}")


class Flow(tuple):
    """A directed edge, the pair ``(src, dst)``: information may move from src to dst.

    A flow equals its plain pair and hashes like it, so ``(x, y) in flows``
    asks whether an edge exists without building a flow; an interface
    never equals a tuple.  Both endpoints must be interfaces (else
    :class:`TypeError`) and not the same one (else :class:`ValueError`);
    the R and W interfaces of one entity are two interfaces.
    """

    __slots__ = ()
    __match_args__ = ("src", "dst")
    src = property(itemgetter(0), doc="The interface information leaves.")
    dst = property(itemgetter(1), doc="The interface information enters.")

    def __new__(cls, src: InterfaceId, dst: InterfaceId) -> Flow:
        if not isinstance(src, _Interface) or not isinstance(dst, _Interface):
            raise TypeError(
                f"Flow takes two interfaces, got {type(src).__name__} and {type(dst).__name__}"
            )
        # Interfaces are interned, so equal endpoints are one object.
        if src is dst:
            raise ValueError(f"self-flow on interface {format_interface(src)}")
        return tuple.__new__(cls, (src, dst))

    def __reduce__(self) -> tuple:
        # Every pickle protocol, copy and deepcopy rebuild through ``__new__``
        # and its checks; ``__getnewargs__`` would be skipped by protocols 0-1.
        return type(self), tuple(self)

    def __repr__(self) -> str:
        return f"Flow(src={self[0]!r}, dst={self[1]!r})"

    def inverse(self) -> Flow:
        """The reverse flow; ``f.inverse().inverse() == f``."""
        return Flow(self[1], self[0])


def flow_key(flow: Flow) -> tuple[InterfaceKey, InterfaceKey]:
    src, dst = flow
    return (src._key, dst._key)


def format_flow(flow: Flow) -> str:
    return f"{format_interface(flow.src)} -> {format_interface(flow.dst)}"


class CommonRepresentation(_Record):
    """A finite set of interfaces plus a finite set of flows between them.

    Its two fields, ``interfaces`` and ``flows``, are frozensets and cannot
    be reassigned.  An element that is not an interface or a :class:`Flow`
    raises :class:`TypeError`, and a flow endpoint the graph does not
    declare raises :class:`ValidationError` naming each.  Pickling, copying
    and ``__replace__`` rebuild through this check.  Two graphs are equal,
    and hash alike, when their fields are.
    """

    interfaces: frozenset[InterfaceId]
    flows: frozenset[Flow]
    # The constructor freezes and checks the two fields together, so they have no kinds.
    _fields = dict.fromkeys(("interfaces", "flows"))

    def __init__(self, interfaces: Iterable[InterfaceId] = frozenset(),
                 flows: Iterable[Flow] = frozenset()) -> None:
        # Accept any iterables; store canonical frozensets.
        interfaces, flows = frozenset(interfaces), frozenset(flows)
        for field, values, kinds in (("interfaces", interfaces, (Explicit, Implicit)),
                                     ("flows", flows, (Flow,))):
            for bad in filterfalse(kinds.__contains__, map(type, values)):
                names = " or ".join(kind.__name__ for kind in kinds)
                raise TypeError(f"CommonRepresentation {field} must be {names}, got {bad.__name__}")
        if undeclared := sorted(filterfalse(interfaces.issuperset, flows), key=flow_key):
            raise ValidationError("; ".join(
                f"flow {format_flow(flow)} references undeclared interface {format_interface(end)}"
                for flow in undeclared for end in flow if end not in interfaces))
        vars(self).update(interfaces=interfaces, flows=flows)

    @cached_property
    def _index(self) -> tuple[dict[InterfaceId, list[InterfaceId]], dict[InterfaceId, InterfaceId]]:
        """The query index, built in one step: the destinations of each flow
        source (a vertex with no outgoing flow has no row), and the
        availability partition as union-find parent links, which put the two
        endpoints of a complementary pair in one class.  A class's root has
        no link and every other interface has one; every key is a declared
        interface, so the classes number the interfaces less the links."""
        flows = self.flows
        return _rows(flows), _unite({}, ((x, y) for x, y in flows if (y, x) in flows))


def _graph(interfaces: Iterable[InterfaceId], flows: Iterable[Flow]) -> CommonRepresentation:
    """A graph built without the constructor's check, from parts known to make a valid one."""
    cr = object.__new__(CommonRepresentation)
    vars(cr).update(interfaces=frozenset(interfaces), flows=frozenset(flows))
    return cr


def _composite(a: CommonRepresentation, b: CommonRepresentation,
               kept: Set[Flow]) -> CommonRepresentation:
    """The composite of all of ``a``, ``b``'s interfaces and ``kept``, the
    flows of ``b`` a composition keeps; the operands are valid, so it skips
    the constructor's check.  When ``a`` has an index, so does the composite:
    ``a``'s rows, with only those that gain a flow rebuilt, and ``a``'s
    partition with the kept complementary pairs joined in."""
    out = _graph(a.interfaces | b.interfaces, a.flows | kept)
    if (index := vars(a).get("_index")) is not None:
        rows, parent = index[0].copy(), index[1].copy()
        for src, dsts in _rows(kept - a.flows).items():
            rows[src] = rows.get(src, []) + dsts
        # A pair already in ``a`` is joined already; joining it again changes nothing.
        flows = out.flows
        vars(out)["_index"] = rows, _unite(parent, ((x, y) for x, y in kept if (y, x) in flows))
    return out


def _rows(flows: Iterable[Flow]) -> dict[InterfaceId, list[InterfaceId]]:
    """The destinations of ``flows`` grouped by source."""
    rows: dict[InterfaceId, list[InterfaceId]] = {}
    for src, dst in flows:
        rows.setdefault(src, []).append(dst)
    return rows


def _find(parent: dict[InterfaceId, InterfaceId], vertex: InterfaceId) -> InterfaceId:
    """The root of ``vertex``'s class.  It points the path it walked at the
    root, so ``parent`` must belong to a graph not yet handed out."""
    root = vertex
    while root in parent:
        root = parent[root]
    while vertex is not root:
        parent[vertex], vertex = root, parent[vertex]
    return root


def _unite(parent: dict[InterfaceId, InterfaceId],
           pairs: Iterable[tuple[InterfaceId, InterfaceId]]) -> dict[InterfaceId, InterfaceId]:
    """Join the classes of each pair's endpoints in ``parent``."""
    for x, y in pairs:
        root, other = _find(parent, x), _find(parent, y)
        if root is not other:
            parent[other] = root
    return parent


EMPTY_CR = CommonRepresentation()


def grant(i1: InterfaceId, i2: InterfaceId, cr: CommonRepresentation) -> GrantResult:
    """Tri-state access check from ``i1`` to ``i2``.

    UNDEFINED when the graph is not authoritative over both interfaces
    (either one is undeclared), PERMIT when the flow is present, DENY
    otherwise.  Given two interfaces and a graph it never raises: every
    outcome, an undeclared interface's too, is a value.
    """
    if i1 not in cr.interfaces or i2 not in cr.interfaces:
        return GrantResult.UNDEFINED
    return GrantResult.PERMIT if (i1, i2) in cr.flows else GrantResult.DENY


def component_count(cr: CommonRepresentation) -> int:
    """Number of connected components of the availability graph: the
    declared interfaces, joined by one undirected edge per complementary
    flow pair (one-way flows join nothing).

    Read from the graph's index, so only the first query on a value pays
    for it.
    """
    return len(cr.interfaces) - len(cr._index[1])


def is_lively(cr: CommonRepresentation) -> bool:
    """True iff the availability graph has exactly one connected component.

    The empty graph has zero components and is therefore not lively; a
    single isolated interface is.
    """
    return component_count(cr) == 1


def reachable(cr: CommonRepresentation, src: InterfaceId, dst: InterfaceId) -> bool:
    """True iff a directed walk leads from ``src`` to ``dst``; trivially true
    when they coincide.  Raises :class:`UnknownInterfaceError` if either
    interface is undeclared, and :class:`TypeError` if it is not an interface.
    """
    for iface in (src, dst):
        if iface not in cr.interfaces:
            if not isinstance(iface, _Interface):
                raise TypeError(f"reachable takes interfaces, got {type(iface).__name__}")
            raise UnknownInterfaceError(f"unknown interface {format_interface(iface)}")
    if src is dst:
        return True
    successors, _partition = cr._index
    seen = {src}
    stack = [src]
    while stack:
        for nxt in successors.get(stack.pop(), ()):
            if nxt is dst:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False
