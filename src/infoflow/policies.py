"""Source access-control policies and their translation to flow graphs.

Three policy families are supported:

* discretionary lists (access-control lists keyed by object, or capability
  lists keyed by subject), translated from read/write permissions;
* lattice policies (label dominance, Bell-LaPadula style), translated by
  enumerating ordered entity pairs whose labels dominate;
* role-based policies (role assignments plus a seniority hierarchy),
  translated from the privileges each role accumulates through the
  transitive closure of the hierarchy.

Each family is one class that holds its fields, its check and its
translation.  A policy is checked when it is constructed: a field of the
wrong type (a bare ``str`` where a set of names belongs, a map that is not
a mapping, a name, map key or label that is not a ``str``, an element that
is not a pair, a grant that is not a ``(str, Mode)`` pair) raises
:class:`TypeError`, and a field that breaks an invariant of its
family (an empty, undeclared or non-UTF-8 name, an entity or agent name
holding ``#``, a lattice order that is not antisymmetric, a cyclic role
hierarchy) raises :class:`ValidationError` listing every problem, so no
invalid policy exists.  :func:`policy_from_dict` parses a document's fields
straight into their frozen, typed form and runs the same check once.

A policy is a :class:`~infoflow.model._Record`: its fields cannot be
reassigned, its map fields (``entries``, ``assignments``, ``labelling``) are
read-only views, and copies rebuild through the constructor, so a policy
cannot change after its check.

Every translation therefore takes its input as valid and builds a valid
:class:`~infoflow.model.CommonRepresentation` without the graph's check,
its interfaces without a second name check and its flows without the
flow's checks: the names it makes ports of are the names construction
checked (the lattice label is the constant :data:`LBAC_LABEL`), and each
family's flow endpoints are distinct by construction.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Set
from functools import cached_property
from itertools import chain, permutations, product, repeat
from types import MappingProxyType
from typing import Any, ClassVar, Collection, Iterable

from .errors import SchemaError, one_of, strict_object
from .model import (
    CommonRepresentation, Explicit, Flow, Implicit, Mode, _graph, _intern, _is_utf8, _Record,
)

# Label carried by the implicit interfaces a lattice policy produces.
LBAC_LABEL = "lbac"


class RbacSemantics(enum.Enum):
    """How role privileges turn into flows.

    LITERAL pairs the read and write ports of the *same* object when a role
    holds both modes on it.  CROSS_OBJECT additionally pairs every readable
    object with every writable object held by the same role, capturing the
    transfer a role can perform between distinct objects.
    """

    LITERAL = "literal"
    CROSS_OBJECT = "cross-object"


Grants = frozenset[tuple[str, Mode]]


# -- field kinds -------------------------------------------------------------
# A kind of policy field is a (freeze, parse) pair: ``freeze`` makes a
# constructor argument the stored value, ``parse`` reads a document's field.

def _require_str(names: Iterable[object]) -> None:
    for name in names:
        if not isinstance(name, str):
            raise TypeError(f"a name takes a str, got {name!r}")


def _freeze_names(names: Iterable[str]) -> frozenset[str]:
    if isinstance(names, str):  # it would pass as the set of its letters
        raise TypeError(f"names come in a collection, got the str {names!r}")
    frozen = frozenset(names)
    _require_str(frozen)
    return frozen


def _freeze_pairs(pairs: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    frozen = frozenset(tuple(p) if isinstance(p, list) else p for p in pairs)
    for pair in frozen:
        if not (isinstance(pair, tuple) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise TypeError(f"a pair takes two str names, got {pair!r}")
    return frozen


def _require_map(mapping: Mapping[str, Any]) -> None:
    if not isinstance(mapping, Mapping):
        raise TypeError(f"a map takes a mapping keyed by names, got {mapping!r}")
    _require_str(mapping)


def _freeze_entries(entries: Mapping[str, Iterable[tuple[str, Mode]]]) -> Mapping[str, Grants]:
    """Each key's grants as a frozenset, in a read-only map; like an interface
    field, a grant that is not a ``(str, Mode)`` pair raises :class:`TypeError`."""
    _require_map(entries)
    frozen = {key: frozenset(pairs) for key, pairs in entries.items()}
    for grant in chain.from_iterable(frozen.values()):
        if not (isinstance(grant, tuple) and len(grant) == 2
                and isinstance(grant[0], str) and isinstance(grant[1], Mode)):
            raise TypeError(f"a grant takes a str name and a Mode, got {grant!r}")
    return MappingProxyType(frozen)


def _freeze_name_map(names: Mapping[str, str]) -> Mapping[str, str]:
    _require_map(names)
    _require_str(names.values())
    return MappingProxyType(dict(names))


def _parse_names(value: Any, where: str) -> frozenset[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{where}: expected an array of strings")
    return frozenset(value)


def _parse_pair(value: Any, where: str, n: int) -> tuple[str, str]:
    """Item ``n`` of the array at ``where``, whose location is built only on error."""
    if (not isinstance(value, list) or len(value) != 2
            or not isinstance(value[0], str) or not isinstance(value[1], str)):
        raise SchemaError(f"{where}[{n}]: expected a [name, name] pair")
    return (value[0], value[1])


def _parse_grants(value: Any, where: str) -> Grants:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array of [name, mode] pairs")
    grants = set()
    for n, item in enumerate(value):
        name, text = _parse_pair(item, where, n)
        mode = Mode._value2member_map_.get(text)
        if mode is None:  # the location is formatted only for the error
            mode = one_of(Mode._value2member_map_, text, f"{where}[{n}]: mode")
        grants.add((name, mode))
    return frozenset(grants)


def _parse_grant_map(value: Any, where: str) -> Mapping[str, Grants]:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object")
    return MappingProxyType(
        {key: _parse_grants(item, f"{where}.{key}") for key, item in value.items()})


def _parse_pairs(value: Any, where: str) -> frozenset[tuple[str, str]]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array of pairs")
    return frozenset(_parse_pair(item, where, n) for n, item in enumerate(value))


def _parse_str_map(value: Any, where: str) -> Mapping[str, str]:
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise SchemaError(f"{where}: expected an object mapping names to names")
    return MappingProxyType(dict(value))


_NAMES = (_freeze_names, _parse_names)
_PAIRS = (_freeze_pairs, _parse_pairs)
_GRANT_MAP = (_freeze_entries, _parse_grant_map)
_NAME_MAP = (_freeze_name_map, _parse_str_map)


# -- policy families ---------------------------------------------------------

class _Policy(_Record):
    """A family's class gives its ``kind`` tag, its ``_fields`` in document
    order, which is the parse order, its check ``_problems`` and its
    translation ``_to_cr``; each has a map field, so none can be hashed."""

    kind: ClassVar[str]
    __hash__ = None


class _ListingPolicy(_Policy):
    """Permission lists: ``entries`` maps each key to a set of (name, mode) grants."""

    objects: frozenset[str]
    subjects: frozenset[str]
    entries: Mapping[str, Grants]
    _fields = {"objects": _NAMES, "subjects": _NAMES, "entries": _GRANT_MAP}


class AclPolicy(_ListingPolicy):
    """Object-keyed permission lists: entries maps object -> {(subject, mode)}."""

    kind = "acl"

    def _problems(self) -> list[str]:
        return _validate_listing(self, self.objects, self.subjects, "object", "subject")

    def _to_cr(self, _semantics: RbacSemantics) -> CommonRepresentation:
        return acl_to_cr(self)


class CapabilityPolicy(_ListingPolicy):
    """Subject-keyed permission lists: entries maps subject -> {(object, mode)}."""

    kind = "capabilities"

    def _problems(self) -> list[str]:
        return _validate_listing(self, self.subjects, self.objects, "subject", "object")

    def _to_cr(self, _semantics: RbacSemantics) -> CommonRepresentation:
        return capability_to_cr(self)


class LatticePolicy(_Policy):
    """Label-dominance policy.

    ``order`` lists cover pairs (lower, higher); dominance is their
    reflexive-transitive closure.  ``labelling`` assigns one label to every
    entity.
    """

    labels: frozenset[str]
    order: frozenset[tuple[str, str]]
    entities: frozenset[str]
    labelling: Mapping[str, str]
    kind = "lbac"
    _fields = {"labels": _NAMES, "order": _PAIRS, "entities": _NAMES, "labelling": _NAME_MAP}

    @cached_property
    def _closure(self) -> dict[str, frozenset[str]]:
        """Each label's strict dominators, from :func:`_descendants` of the
        order.  Validation fills it; not a field, so equality and repr never
        see it."""
        return _descendants(self.labels, self.order)

    def _problems(self) -> list[str]:
        problems = _check_names(self.labels, "label") + _check_interface_names(
            self.entities, "entity")
        for low, high in sorted(self.order):
            for label in (low, high):
                if label not in self.labels:
                    problems.append(f"order pair names undeclared label {label!r}")
        if not problems:
            above = self._closure
            for l1 in sorted(above):
                for l2 in sorted(above[l1]):
                    if l1 < l2 and l1 in above[l2]:
                        problems.append(
                            f"order is not antisymmetric: {l1!r} and {l2!r} dominate each other"
                        )
        for entity in sorted(self.entities):
            if entity not in self.labelling:
                problems.append(f"entity {entity!r} has no label")
        for entity, label in sorted(self.labelling.items()):
            if entity not in self.entities:
                problems.append(f"labelling names undeclared entity {entity!r}")
            if label not in self.labels:
                problems.append(f"entity {entity!r} carries undeclared label {label!r}")
        return problems

    def _to_cr(self, _semantics: RbacSemantics) -> CommonRepresentation:
        return lbac_to_cr(self)


class RbacPolicy(_Policy):
    """Role assignments plus a seniority hierarchy.

    A hierarchy pair (senior, junior) means the senior role inherits the
    junior role's privileges.
    """

    roles: frozenset[str]
    assignments: Mapping[str, Grants]
    hierarchy: frozenset[tuple[str, str]]
    kind = "rbac"
    _fields = {"roles": _NAMES, "assignments": _GRANT_MAP, "hierarchy": _PAIRS}

    @cached_property
    def _closure(self) -> dict[str, frozenset[str]]:
        """Each role's juniors, from :func:`_descendants` of the hierarchy.
        Validation fills it; not a field, so equality and repr never see it."""
        return _descendants(self.roles, self.hierarchy)

    @cached_property
    def _assigned(self) -> frozenset[str]:
        """The objects that the assignments name.  Validation checks their
        names and fills it, and translations make ports of these and no
        others, so an object put into ``assignments`` later gets none; not a
        field, so equality and repr never see it."""
        return frozenset(name for grants in self.assignments.values() for name, _mode in grants)

    def _problems(self) -> list[str]:
        problems = _check_names(self.roles, "role") + _check_interface_names(
            self._assigned, "assigned object")
        for role in sorted(self.assignments):
            if role not in self.roles:
                problems.append(f"assignment names undeclared role {role!r}")
        for senior, junior in sorted(self.hierarchy):
            for role in (senior, junior):
                if role not in self.roles:
                    problems.append(f"hierarchy pair names undeclared role {role!r}")
            if senior == junior:
                problems.append(f"role {senior!r} cannot be its own junior")
        if not problems:
            juniors = self._closure
            cyclic = [role for role in juniors if role in juniors[role]]
            if cyclic:
                problems.append(f"hierarchy contains a cycle through {min(cyclic)!r}")
        return problems

    def _to_cr(self, semantics: RbacSemantics) -> CommonRepresentation:
        return rbac_to_cr(self, semantics)


SourcePolicy = AclPolicy | CapabilityPolicy | LatticePolicy | RbacPolicy

_KINDS = {cls.kind: cls for cls in SourcePolicy.__args__}


def _descendants(nodes: Iterable[str],
                 pairs: Iterable[tuple[str, str]]) -> dict[str, frozenset[str]]:
    """Each node's strict descendants: the nodes that a chain of one or more
    ``pairs`` leads to from it.  A node is its own descendant only on a cycle.

    An explicit stack finishes nodes in depth-first post-order, so on an
    acyclic relation a node's set is the union of its children's finished
    sets, and a hierarchy of any depth cannot overflow the call stack.  Only
    a cycle makes the walk pass an unfinished child.
    """
    successors: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in pairs:
        if a in successors and b in successors:
            successors[a].append(b)
    done: dict[str, frozenset[str]] = {}
    started: set[str] = set()
    stack = [(node, False) for node in successors]
    while stack:
        node, finishing = stack.pop()
        if not finishing:
            if node not in started:
                started.add(node)
                stack.append((node, True))
                stack += [(child, False) for child in successors[node]]
            continue
        found: set[str] = set()
        walk = [node]
        while walk:
            for child in successors[walk.pop()]:
                if child not in found:
                    found.add(child)
                    if child in done:
                        found |= done[child]
                    else:
                        walk.append(child)
        done[node] = frozenset(found)
    return done


def _check_names(names: Set[str], kind: str) -> list[str]:
    """The problem of an empty name and one per name that cannot be written as UTF-8."""
    problems = [f"empty {kind} name"] if "" in names else []
    # UTF-8 rejects every surrogate, paired or not, so one encode of the
    # joined names tells whether any single name fails.
    if not _is_utf8("".join(names)):
        problems += [
            f"{kind} name {name!r} is not UTF-8 text"
            for name in sorted(name for name in names if not _is_utf8(name))
        ]
    return problems


def _check_interface_names(names: Set[str], kind: str) -> list[str]:
    """:func:`_check_names` for names that become interface entities or
    agents, which also may not hold ``#``: the query token of such an
    interface would read back as a different, implicit one."""
    problems = _check_names(names, kind)
    if "#" in "".join(names):  # one test of all the names; the messages only if it fails
        problems += [
            f"{kind} name {name!r} contains '#'" for name in sorted(n for n in names if "#" in n)
        ]
    return problems


def _validate_listing(p: _ListingPolicy, keyed_by: frozenset[str], granting: frozenset[str],
                      key_kind: str, grant_kind: str) -> list[str]:
    problems = _check_interface_names(p.objects, "object") + _check_interface_names(
        p.subjects, "subject")
    for name in sorted(p.objects & p.subjects):
        problems.append(f"name {name!r} is declared as both an object and a subject")
    for key in sorted(p.entries):
        if key not in keyed_by:
            problems.append(f"entry key {key!r} is not a declared {key_kind}")
        for name in sorted({name for name, _mode in p.entries[key]}):
            if name not in granting:
                problems.append(f"entry for {key!r} names undeclared {grant_kind} {name!r}")
    return problems


def _ports(names: Collection[str]) -> tuple[dict[str, Explicit], dict[str, Explicit]]:
    """The R and the W interface of each name, built once and shared by every
    flow; the names are ones the policy's construction checked."""
    return _intern(Explicit, names, Mode.R), _intern(Explicit, names, Mode.W)


def _listing_cr(p: _ListingPolicy,
                grants: Iterable[tuple[str, str, Mode]]) -> CommonRepresentation:
    """The graph of a permission list whose grants are (object, subject, mode).
    Object and subject names are disjoint, so no flow is a self-flow."""
    reads, writes = _ports(p.objects | p.subjects)
    new = tuple.__new__
    flows = {
        new(Flow, (reads[subject], writes[obj])) if mode is Mode.W
        else new(Flow, (reads[obj], writes[subject]))
        for obj, subject, mode in grants
    }
    return _graph({*reads.values(), *writes.values()}, flows)


def acl_to_cr(p: AclPolicy) -> CommonRepresentation:
    """Translate an object-keyed permission list.

    Every object and subject contributes both an R and a W interface.  A
    write permission (s, W) on object o becomes the flow (s.R, o.W): the
    subject's content moves into the object.  A read permission (s, R)
    becomes (o.R, s.W): the object's content moves to the subject.
    """
    return _listing_cr(p, (
        (obj, subject, mode) for obj, grants in p.entries.items() for subject, mode in grants
    ))


def transpose_capabilities(p: CapabilityPolicy) -> AclPolicy:
    """Regroup subject-keyed grants by object."""
    by_object: dict[str, set[tuple[str, Mode]]] = {}
    for subject in p.entries:
        for obj, mode in p.entries[subject]:
            by_object.setdefault(obj, set()).add((subject, mode))
    return AclPolicy(objects=p.objects, subjects=p.subjects, entries=by_object)


def capability_to_cr(p: CapabilityPolicy) -> CommonRepresentation:
    """Translate a subject-keyed permission list; identical flows to the
    object-keyed form of the same matrix."""
    return _listing_cr(p, (
        (obj, subject, mode) for subject, grants in p.entries.items() for obj, mode in grants
    ))


def lattice_dominates(p: LatticePolicy, l1: str, l2: str) -> bool:
    """True iff ``l1`` is dominated by ``l2`` (reflexive-transitive)."""
    for label in (l1, l2):
        if label not in p.labels:
            raise ValueError(f"unknown label {label!r}")
    return l1 == l2 or l2 in p._closure[l1]


def lbac_to_cr(p: LatticePolicy) -> CommonRepresentation:
    """Translate a label-dominance policy.

    Entities become implicit interfaces (no mode is involved), and every
    ordered pair of distinct entities whose labels satisfy dominance gets a
    flow.  Equal labels yield flows in both directions.
    """
    above = p._closure
    ports = _intern(Implicit, p.entities, LBAC_LABEL)
    members: dict[str, list[Implicit]] = {}
    for entity, label in p.labelling.items():
        members.setdefault(label, []).append(ports[entity])
    # Blocks of distinct pairs: the ordered pairs within each label, and each
    # label's entities times those of every other label above it.  An order
    # pair (l, l) puts ``l`` above itself, so the label itself is skipped:
    # no pair is a self-flow, and no pair is in two blocks.
    blocks = [permutations(group, 2) for group in members.values()]
    blocks += [product(group, members[high])
               for label, group in members.items()
               for high in above[label] if high != label and high in members]
    return _graph(ports.values(), map(tuple.__new__, repeat(Flow), chain.from_iterable(blocks)))


def rbac_seniority(p: RbacPolicy, role: str) -> frozenset[str]:
    """All roles junior to ``role``, the role itself excluded; read from the
    policy's closure, which construction computed."""
    if role not in p.roles:
        raise ValueError(f"unknown role {role!r}")
    return p._closure[role]


def rbac_privileges(p: RbacPolicy, role: str) -> Grants:
    """The role's own grants plus everything inherited from junior roles."""
    if role not in p.roles:
        raise ValueError(f"unknown role {role!r}")
    grants = set(p.assignments.get(role, frozenset()))
    for junior in p._closure[role]:
        grants |= p.assignments.get(junior, frozenset())
    return frozenset(grants)


def rbac_to_cr(p: RbacPolicy, semantics: RbacSemantics = RbacSemantics.LITERAL) -> CommonRepresentation:
    """Translate a role policy under the chosen flow semantics.

    Both modes of every object mentioned in any assignment become
    interfaces.  See :class:`RbacSemantics` for how flows are derived.
    """
    if not isinstance(semantics, RbacSemantics):
        raise ValueError(f"unknown semantics {semantics!r}")
    reads, writes = _ports(p._assigned)
    # A junior's privileges are a subset of each senior's, so roles with no
    # senior already yield every flow.  Every flow pairs an R port with a W
    # port, so none is a self-flow.
    new, flows = tuple.__new__, set()
    for role in p.roles - {junior for _senior, junior in p.hierarchy}:
        privileges = rbac_privileges(p, role)
        readable = {o for o, m in privileges if m is Mode.R}
        writable = {o for o, m in privileges if m is Mode.W}
        if semantics is RbacSemantics.LITERAL:
            flows.update(new(Flow, (reads[o], writes[o])) for o in readable & writable)
        else:
            flows.update(new(Flow, (reads[r], writes[w])) for r in readable for w in writable)
    return _graph({*reads.values(), *writes.values()}, flows)


def policy_to_cr(policy: SourcePolicy,
                 rbac_semantics: RbacSemantics = RbacSemantics.LITERAL) -> CommonRepresentation:
    """Dispatch a policy of any supported family to its translation;
    ``rbac_semantics`` applies to role policies only."""
    if not isinstance(policy, SourcePolicy):
        raise TypeError(f"not a source policy: {type(policy).__name__}")
    return policy._to_cr(rbac_semantics)


def policy_from_dict(obj: Any) -> SourcePolicy:
    """Parse a policy document; the ``kind`` tag picks the family.

    Structure problems raise :class:`SchemaError`; a structurally sound
    policy that breaks a semantic invariant raises :class:`ValidationError`.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"policy: expected an object, got {type(obj).__name__}")
    cls = one_of(_KINDS, obj.get("kind"), "policy: kind")
    strict_object(obj, {"kind", *cls._fields}, "policy")
    # The parsers return frozen, typed values, so nothing is frozen a second
    # time.  Only a map's keys are left: a dict, unlike JSON, may hold a key
    # that is not a str, which raises the constructor's TypeError.
    values = {name: parse(obj[name], name) for name, (_freeze, parse) in cls._fields.items()}
    for value in values.values():
        if type(value) is MappingProxyType:
            _require_str(value)
    policy = object.__new__(cls)
    policy._store(values)
    return policy
