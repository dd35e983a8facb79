"""Source access-control policies and their translation to flow graphs.

Three policy families are supported:

* discretionary lists (access-control lists keyed by object, or capability
  lists keyed by subject), translated from read/write permissions;
* lattice policies (label dominance, Bell-LaPadula style), translated by
  enumerating ordered entity pairs whose labels dominate;
* role-based policies (role assignments plus a seniority hierarchy),
  translated from the privileges each role accumulates through the
  transitive closure of the hierarchy.

A policy is checked when it is constructed: one that breaks an invariant of
its family (an empty, undeclared or non-UTF-8 name, an entity or agent name
holding ``#``, a lattice order that is not antisymmetric, a cyclic role
hierarchy) raises :class:`ValidationError`
listing every problem, so no invalid policy exists.  Every translation
therefore takes its input as valid and yields a well-formed
:class:`~infoflow.model.CommonRepresentation`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Callable, ClassVar, Collection, Iterable, Mapping

from .errors import SchemaError, ValidationError, one_of, strict_object
from .model import CommonRepresentation, Explicit, Flow, Implicit, Mode, _is_utf8

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


def _freeze_entries(entries: Mapping[str, Iterable[tuple[str, Mode]]]) -> dict[str, Grants]:
    """Each key's grants as a frozenset; like an interface field, a grant that
    is not a ``(str, Mode)`` pair raises :class:`TypeError`."""
    frozen = {key: frozenset(pairs) for key, pairs in entries.items()}
    for grant in chain.from_iterable(frozen.values()):
        if not (isinstance(grant, tuple) and len(grant) == 2
                and isinstance(grant[0], str) and isinstance(grant[1], Mode)):
            raise TypeError(f"a grant takes a str name and a Mode, got {grant!r}")
    return frozen


@dataclass(frozen=True)
class _ListingPolicy:
    """Permission lists: ``entries`` maps each key to a set of (name, mode) grants."""

    objects: frozenset[str]
    subjects: frozenset[str]
    entries: Mapping[str, Grants]
    kind: ClassVar[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", frozenset(self.objects))
        object.__setattr__(self, "subjects", frozenset(self.subjects))
        object.__setattr__(self, "entries", _freeze_entries(self.entries))
        _check_valid(self)


class AclPolicy(_ListingPolicy):
    """Object-keyed permission lists: entries maps object -> {(subject, mode)}."""

    kind = "acl"


class CapabilityPolicy(_ListingPolicy):
    """Subject-keyed permission lists: entries maps subject -> {(object, mode)}."""

    kind = "capabilities"


@dataclass(frozen=True)
class LatticePolicy:
    """Label-dominance policy.

    ``order`` lists cover pairs (lower, higher); dominance is their
    reflexive-transitive closure.  ``labelling`` assigns one label to every
    entity.
    """

    labels: frozenset[str]
    order: frozenset[tuple[str, str]]
    entities: frozenset[str]
    labelling: Mapping[str, str]
    kind: ClassVar[str] = "lbac"

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "order", frozenset(tuple(p) for p in self.order))
        object.__setattr__(self, "entities", frozenset(self.entities))
        object.__setattr__(self, "labelling", dict(self.labelling))
        _check_valid(self)

    @cached_property
    def _closure(self) -> dict[str, frozenset[str]]:
        """Each label's strict dominators, from :func:`_descendants` of the
        order.  Validation fills it; not a field, so equality and repr never
        see it."""
        return _descendants(self.labels, self.order)


@dataclass(frozen=True)
class RbacPolicy:
    """Role assignments plus a seniority hierarchy.

    A hierarchy pair (senior, junior) means the senior role inherits the
    junior role's privileges.
    """

    roles: frozenset[str]
    assignments: Mapping[str, Grants]
    hierarchy: frozenset[tuple[str, str]]
    kind: ClassVar[str] = "rbac"

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", frozenset(self.roles))
        object.__setattr__(self, "assignments", _freeze_entries(self.assignments))
        object.__setattr__(self, "hierarchy", frozenset(tuple(p) for p in self.hierarchy))
        _check_valid(self)

    @cached_property
    def _closure(self) -> dict[str, frozenset[str]]:
        """Each role's juniors, from :func:`_descendants` of the hierarchy.
        Validation fills it; not a field, so equality and repr never see it."""
        return _descendants(self.roles, self.hierarchy)


SourcePolicy = AclPolicy | CapabilityPolicy | LatticePolicy | RbacPolicy


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


def _check_valid(p: SourcePolicy) -> None:
    problems = _family(p).validate(p)
    if problems:
        raise ValidationError("; ".join(problems))


def _check_names(names: Collection[str], kind: str) -> list[str]:
    """One problem per empty name and per name that cannot be written as UTF-8."""
    problems = [f"empty {kind} name" for name in names if not name]
    # UTF-8 rejects every surrogate, paired or not, so one encode of the
    # joined names tells whether any single name fails.
    if not _is_utf8("".join(names)):
        problems += [
            f"{kind} name {name!r} is not UTF-8 text"
            for name in sorted(name for name in names if not _is_utf8(name))
        ]
    return problems


def _check_interface_names(names: Collection[str], kind: str) -> list[str]:
    """:func:`_check_names` for names that become interface entities or
    agents, which also may not hold ``#``: the query token of such an
    interface would read back as a different, implicit one."""
    return _check_names(names, kind) + [
        f"{kind} name {name!r} contains '#'" for name in sorted(n for n in names if "#" in n)
    ]


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


def _validate_lattice(p: LatticePolicy) -> list[str]:
    problems = _check_names(p.labels, "label") + _check_interface_names(p.entities, "entity")
    for low, high in sorted(p.order):
        for label in (low, high):
            if label not in p.labels:
                problems.append(f"order pair names undeclared label {label!r}")
    if not problems:
        above = p._closure
        for l1 in sorted(above):
            for l2 in sorted(above[l1]):
                if l1 < l2 and l1 in above[l2]:
                    problems.append(
                        f"order is not antisymmetric: {l1!r} and {l2!r} dominate each other"
                    )
    for entity in sorted(p.entities):
        if entity not in p.labelling:
            problems.append(f"entity {entity!r} has no label")
    for entity, label in sorted(p.labelling.items()):
        if entity not in p.entities:
            problems.append(f"labelling names undeclared entity {entity!r}")
        if label not in p.labels:
            problems.append(f"entity {entity!r} carries undeclared label {label!r}")
    return problems


def _validate_rbac(p: RbacPolicy) -> list[str]:
    assigned = {name for grants in p.assignments.values() for name, _mode in grants}
    problems = _check_names(p.roles, "role") + _check_interface_names(
        assigned, "assigned object")
    for role in sorted(p.assignments):
        if role not in p.roles:
            problems.append(f"assignment names undeclared role {role!r}")
    for senior, junior in sorted(p.hierarchy):
        for role in (senior, junior):
            if role not in p.roles:
                problems.append(f"hierarchy pair names undeclared role {role!r}")
        if senior == junior:
            problems.append(f"role {senior!r} cannot be its own junior")
    if not problems:
        juniors = p._closure
        cyclic = [role for role in juniors if role in juniors[role]]
        if cyclic:
            problems.append(f"hierarchy contains a cycle through {min(cyclic)!r}")
    return problems


def _ports(names: Iterable[str]) -> tuple[dict[str, Explicit], dict[str, Explicit]]:
    """The R and the W interface of each name, built once and shared by every flow."""
    reads = {name: Explicit(name, Mode.R) for name in names}
    return reads, {name: Explicit(name, Mode.W) for name in reads}


def _listing_cr(p: _ListingPolicy,
                grants: Iterable[tuple[str, str, Mode]]) -> CommonRepresentation:
    """The graph of a permission list whose grants are (object, subject, mode)."""
    reads, writes = _ports(p.objects | p.subjects)
    flows = {
        Flow(reads[subject], writes[obj]) if mode is Mode.W else Flow(reads[obj], writes[subject])
        for obj, subject, mode in grants
    }
    return CommonRepresentation(interfaces={*reads.values(), *writes.values()}, flows=flows)


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
    return AclPolicy(
        objects=p.objects,
        subjects=p.subjects,
        entries={obj: frozenset(pairs) for obj, pairs in by_object.items()},
    )


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
    above, labelling = p._closure, p.labelling
    ports = {e: Implicit(e, LBAC_LABEL) for e in p.entities}
    flows = {
        Flow(ports[e1], ports[e2])
        for e1 in p.entities
        for e2 in p.entities
        if e1 != e2 and (labelling[e1] == labelling[e2] or labelling[e2] in above[labelling[e1]])
    }
    return CommonRepresentation(interfaces=ports.values(), flows=flows)


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
    reads, writes = _ports({obj for grants in p.assignments.values() for obj, _mode in grants})
    flows: set[Flow] = set()
    # A junior's privileges are a subset of each senior's, so roles with no
    # senior already yield every flow.
    for role in p.roles - {junior for _senior, junior in p.hierarchy}:
        privileges = rbac_privileges(p, role)
        readable = {o for o, m in privileges if m is Mode.R}
        writable = {o for o, m in privileges if m is Mode.W}
        if semantics is RbacSemantics.LITERAL:
            flows |= {Flow(reads[o], writes[o]) for o in readable & writable}
        else:
            flows |= {Flow(reads[r], writes[w]) for r in readable for w in writable}
    return CommonRepresentation(interfaces={*reads.values(), *writes.values()}, flows=flows)


def policy_to_cr(policy: SourcePolicy,
                 rbac_semantics: RbacSemantics = RbacSemantics.LITERAL) -> CommonRepresentation:
    """Dispatch a policy of any supported family to its translation;
    ``rbac_semantics`` applies to role policies only."""
    return _family(policy).translate(policy, rbac_semantics)


# -- policy file schema ------------------------------------------------------

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


def _parse_grant_map(value: Any, where: str) -> dict[str, Grants]:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object")
    return {key: _parse_grants(item, f"{where}.{key}") for key, item in value.items()}


def _parse_pairs(value: Any, where: str) -> frozenset[tuple[str, str]]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array of pairs")
    return frozenset(_parse_pair(item, where, n) for n, item in enumerate(value))


def _parse_str_map(value: Any, where: str) -> dict[str, str]:
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise SchemaError(f"{where}: expected an object mapping names to names")
    return dict(value)


def policy_from_dict(obj: Any) -> SourcePolicy:
    """Parse a policy document; the ``kind`` tag picks the family.

    Structure problems raise :class:`SchemaError`; a structurally sound
    policy that breaks a semantic invariant raises :class:`ValidationError`.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"policy: expected an object, got {type(obj).__name__}")
    family = one_of(_FAMILIES, obj.get("kind"), "policy: kind")
    strict_object(obj, {"kind", *family.fields}, "policy")
    return family.cls(**{name: parse(obj[name], name) for name, parse in family.fields.items()})


# -- policy families ---------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """What differs between policy families: the class, the document fields
    with the parser of each (in parse order), the invariant check and the
    translation."""

    cls: type
    fields: Mapping[str, Callable[[Any, str], Any]]
    validate: Callable[[Any], list[str]]
    translate: Callable[[Any, RbacSemantics], CommonRepresentation]


_LISTING_FIELDS = {"objects": _parse_names, "subjects": _parse_names, "entries": _parse_grant_map}

_FAMILIES = {
    family.cls.kind: family
    for family in (
        _Family(AclPolicy, _LISTING_FIELDS,
                lambda p: _validate_listing(p, p.objects, p.subjects, "object", "subject"),
                lambda p, _semantics: acl_to_cr(p)),
        _Family(CapabilityPolicy, _LISTING_FIELDS,
                lambda p: _validate_listing(p, p.subjects, p.objects, "subject", "object"),
                lambda p, _semantics: capability_to_cr(p)),
        _Family(LatticePolicy,
                {"labels": _parse_names, "order": _parse_pairs, "entities": _parse_names,
                 "labelling": _parse_str_map},
                _validate_lattice,
                lambda p, _semantics: lbac_to_cr(p)),
        _Family(RbacPolicy,
                {"roles": _parse_names, "assignments": _parse_grant_map,
                 "hierarchy": _parse_pairs},
                _validate_rbac,
                rbac_to_cr),
    )
}


def _family(p: Any) -> _Family:
    family = _FAMILIES.get(getattr(type(p), "kind", None))
    if family is None or not isinstance(p, family.cls):
        raise TypeError(f"not a source policy: {type(p).__name__}")
    return family
