"""Independent reference implementations used only to cross-check the library.

Nothing here may call into infoflow's own algorithms: components are counted
by a union-find of their own over a pairwise scan for complementary flows,
closures come from recursive DFS started afresh at every node (the library
finishes nodes in post-order and reuses their finished sets, without
recursion), permission flows are enumerated triple by triple, lattice flows
entity pair by entity pair and role flows role by role, composites are
decided one flow at a time, conflicts are filtered from the whole symmetric
difference, conditions are read from their documents by the tag and over
those conflicts, and the canonical output order sorts key tuples built from
each interface's fields.  The one exception is the reference graph loader, which
is the library's loader without its memo: every interface object goes
through ``serialize.interface_from_dict`` each time it occurs.
"""

from infoflow import (
    CommonRepresentation, Explicit, Flow, Implicit, Mode, SchemaError, ValidationError,
)
from infoflow.errors import strict_object
from infoflow.serialize import decode_json, interface_from_dict


class UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def union_find_component_count(vertices, edges):
    """Classes of ``vertices`` joined by ``edges``."""
    uf = UnionFind(vertices)
    for edge in edges:
        a, b = tuple(edge)
        uf.union(a, b)
    return len({uf.find(v) for v in vertices})


def pairwise_complementary_edges(flows):
    """All unordered endpoint pairs joined by flows in both directions."""
    edges = set()
    for f1 in flows:
        for f2 in flows:
            if f1.src == f2.dst and f1.dst == f2.src:
                edges.add(frozenset((f1.src, f1.dst)))
    return edges


def dfs_reachable(flows, src, dst):
    if src == dst:
        return True
    adjacency = {}
    for f in flows:
        adjacency.setdefault(f.src, set()).add(f.dst)

    def visit(node, seen):
        for nxt in adjacency.get(node, ()):
            if nxt == dst:
                return True
            if nxt not in seen:
                seen.add(nxt)
                if visit(nxt, seen):
                    return True
        return False

    return visit(src, {src})


def dfs_closure(nodes, pairs):
    """Pairs (a, b) such that b is reachable from a via one or more steps."""
    adjacency = {}
    for a, b in pairs:
        adjacency.setdefault(a, set()).add(b)
    closure = set()

    def visit(origin, node, seen):
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                closure.add((origin, nxt))
                visit(origin, nxt, seen)

    for node in nodes:
        visit(node, node, set())
    return closure


def enumerate_listing_flows(objects, subjects, granted):
    """Expected flows of a permission listing, one (object, subject, mode)
    triple at a time.  ``granted(obj, subj, mode)`` answers the matrix."""
    expected = set()
    for obj in objects:
        for subj in subjects:
            if granted(obj, subj, Mode.W):
                expected.add(Flow(Explicit(subj, Mode.R), Explicit(obj, Mode.W)))
            if granted(obj, subj, Mode.R):
                expected.add(Flow(Explicit(obj, Mode.R), Explicit(subj, Mode.W)))
    return expected


def enumerate_lattice_flows(labels, order, labelling):
    """Expected flows of a lattice policy, one ordered entity pair at a time:
    ``e1`` flows to a distinct ``e2`` when their labels are equal or the
    :func:`dfs_closure` of ``order`` leads from ``e1``'s label to ``e2``'s."""
    closure = dfs_closure(labels, order)
    expected = set()
    for e1, l1 in labelling.items():
        for e2, l2 in labelling.items():
            if e1 != e2 and (l1 == l2 or (l1, l2) in closure):
                expected.add(Flow(Implicit(e1, "lbac"), Implicit(e2, "lbac")))
    return expected


def enumerate_role_flows(roles, assignments, hierarchy, cross_object):
    """Expected flows of a role policy, one role at a time: every role's own
    grants plus those of every role its :func:`dfs_closure` reaches, paired
    object with object under cross-object semantics, else each object's R
    with its own W."""
    closure = dfs_closure(roles, hierarchy)
    expected = set()
    for role in roles:
        held = set(assignments.get(role, ()))
        for senior, junior in closure:
            if senior == role:
                held |= assignments.get(junior, set())
        readable = {obj for obj, mode in held if mode is Mode.R}
        writable = {obj for obj, mode in held if mode is Mode.W}
        for r in readable:
            for w in writable:
                if cross_object or r == w:
                    expected.add(Flow(Explicit(r, Mode.R), Explicit(w, Mode.W)))
    return expected


def composite_by_flow(op, a, b):
    """The interfaces and flows of ``op(a, b)``, ``op`` being "merge", "append"
    or "append_strict", from the README's definitions: every interface and
    every flow of a survive, and each flow of b is judged on its own."""
    kept = set(a.flows)
    for f in b.flows:
        in_a = f in a.flows
        inverse_in_a = any(g.src == f.dst and g.dst == f.src for g in a.flows)
        between_a_interfaces = f.src in a.interfaces and f.dst in a.interfaces
        if op == "merge":
            survives = True
        elif op == "append":  # neither the flow nor its inverse is in a
            survives = not in_a and not inverse_in_a
        else:  # as append, and no new flow between two interfaces a declares
            survives = in_a or (not inverse_in_a and not between_a_interfaces)
        if survives:
            kept.add(f)
    return set(a.interfaces) | set(b.interfaces), kept


def conflicts_by_definition(a, b):
    """The flows exactly one of a and b permits whose endpoints both declare."""
    shared = a.interfaces & b.interfaces
    return frozenset(filter(shared.issuperset, a.flows ^ b.flows))


def holds_by_definition(doc, a, b):
    """Whether the condition document ``doc`` holds for graphs a and b, read
    from the document itself and the README's definitions: each condition
    judges the conflicts of a and b, found afresh, and a conflict is covered
    by a side when some flow of that side runs the other way."""
    found = conflicts_by_definition(a, b)
    kind = doc["type"]
    if kind == "no-conflicts":
        return len(found) == 0
    if kind == "conflicts-complementary-in":
        side = a if doc["side"] == "first" else b
        return all(any(g.src == f.dst and g.dst == f.src for g in side.flows) for f in found)
    if kind == "conflict-count-at-most":
        return len(found) <= doc["n"]
    if kind == "and":
        return all(holds_by_definition(sub, a, b) for sub in doc["conditions"])
    assert kind == "not", kind
    return not holds_by_definition(doc["condition"], a, b)


def strict_loads(text):
    """The graph of JSON ``text``, with every interface object checked at
    each of its occurrences; errors carry ``loads``'s locations."""
    doc = decode_json(text)
    strict_object(doc, {"interfaces", "flows"}, "graph")
    if not isinstance(doc["interfaces"], list) or not isinstance(doc["flows"], list):
        raise SchemaError("graph: 'interfaces' and 'flows' must be arrays")
    interfaces = {interface_from_dict(item, f"interfaces[{n}]")
                  for n, item in enumerate(doc["interfaces"])}
    flows = set()
    for n, item in enumerate(doc["flows"]):
        strict_object(item, {"from", "to"}, f"flows[{n}]")
        src = interface_from_dict(item["from"], f"flows[{n}].from")
        dst = interface_from_dict(item["to"], f"flows[{n}].to")
        try:
            flows.add(Flow(src, dst))
        except ValueError as exc:
            raise ValidationError(f"flows[{n}]: {exc}") from exc
    return CommonRepresentation(interfaces, flows)


def field_key(iface):
    """The sort key of an interface from its fields: kind tag, then names, then mode."""
    if isinstance(iface, Explicit):
        return ("explicit", iface.entity, iface.mode.value)
    return ("implicit", iface.agent, iface.label)


def canonical_order(interfaces, flows):
    """The documented output order: the interface keys sorted, and the flows'
    (source key, destination key) pairs sorted as tuples."""
    return (sorted(map(field_key, interfaces)),
            sorted((field_key(src), field_key(dst)) for src, dst in flows))
