"""Independent checker for the benchmark's outputs.

Nothing here calls infoflow.  Graphs are plain sets of tuples: an interface
is ``("explicit", entity, mode)`` or ``("implicit", agent, label)``, which is
also the library's canonical sort key, and a flow is a ``(src, dst)`` pair.
Translations are enumerated from the policy documents, compositions and rule
conditions follow the definitions in the README, and graph questions
(reachability, connected components) are answered by networkx.
"""

from __future__ import annotations

import json

LBAC_LABEL = "lbac"


def explicit(name: str, mode: str) -> tuple[str, str, str]:
    return ("explicit", name, mode)


# -- translations ------------------------------------------------------------

def _listing(doc: dict) -> tuple[set, set]:
    interfaces = {explicit(n, m) for n in doc["objects"] + doc["subjects"] for m in "RW"}
    flows = set()
    for key, grants in doc["entries"].items():
        for name, mode in grants:
            obj, subj = (key, name) if doc["kind"] == "acl" else (name, key)
            if mode == "W":
                flows.add((explicit(subj, "R"), explicit(obj, "W")))
            else:
                flows.add((explicit(obj, "R"), explicit(subj, "W")))
    return interfaces, flows


def _descendants(pairs: list, node: str) -> set:
    """Nodes reachable from ``node`` in one or more steps (iterative DFS)."""
    out: dict[str, list] = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    seen, stack = set(), [node]
    while stack:
        for nxt in out.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _lbac(doc: dict) -> tuple[set, set]:
    up = {label: _descendants(doc["order"], label) | {label} for label in doc["labels"]}
    labelling = doc["labelling"]
    interfaces = {("implicit", e, LBAC_LABEL) for e in doc["entities"]}
    flows = {
        (("implicit", e1, LBAC_LABEL), ("implicit", e2, LBAC_LABEL))
        for e1 in doc["entities"]
        for e2 in doc["entities"]
        if e1 != e2 and labelling[e2] in up[labelling[e1]]
    }
    return interfaces, flows


def _rbac(doc: dict, semantics: str) -> tuple[set, set]:
    assignments = doc["assignments"]
    interfaces = {explicit(o, m) for grants in assignments.values() for o, _ in grants for m in "RW"}
    flows = set()
    for role in doc["roles"]:
        held = set()
        for r in _descendants(doc["hierarchy"], role) | {role}:
            held |= {tuple(g) for g in assignments.get(r, ())}
        readable = {o for o, m in held if m == "R"}
        writable = {o for o, m in held if m == "W"}
        if semantics == "literal":
            flows |= {(explicit(o, "R"), explicit(o, "W")) for o in readable & writable}
        else:
            flows |= {(explicit(r, "R"), explicit(w, "W")) for r in readable for w in writable}
    return interfaces, flows


def translate(doc: dict, semantics: str = "literal") -> tuple[frozenset, frozenset]:
    """Expected (interfaces, flows) of a valid policy document."""
    if doc["kind"] in ("acl", "capabilities"):
        interfaces, flows = _listing(doc)
    elif doc["kind"] == "lbac":
        interfaces, flows = _lbac(doc)
    else:
        interfaces, flows = _rbac(doc, semantics)
    return frozenset(interfaces), frozenset(flows)


# -- composition and rules ---------------------------------------------------

def conflicts(a: tuple, b: tuple) -> frozenset:
    shared = a[0] & b[0]
    return frozenset(f for f in a[1] ^ b[1] if f[0] in shared and f[1] in shared)


def compose(action: str, a: tuple, b: tuple) -> tuple[frozenset, frozenset]:
    interfaces = a[0] | b[0]
    if action == "merge":
        kept = b[1]
    elif action == "append":
        kept = {f for f in b[1] if f not in a[1] and (f[1], f[0]) not in a[1]}
    else:
        kept = {f for f in b[1] if f in a[1] or f[0] not in a[0] or f[1] not in a[0]}
    return interfaces, a[1] | kept


def holds(cond: dict, a: tuple, b: tuple, found: frozenset) -> bool:
    kind = cond["type"]
    if kind == "no-conflicts":
        return not found
    if kind == "conflicts-complementary-in":
        side = a if cond["side"] == "first" else b
        return all((f[1], f[0]) in side[1] for f in found)
    if kind == "conflict-count-at-most":
        return len(found) <= cond["n"]
    if kind == "and":
        return all(holds(c, a, b, found) for c in cond["conditions"])
    return not holds(cond["condition"], a, b, found)


def choose(rule: dict, a: tuple, b: tuple, found: frozenset) -> str:
    return rule["then"] if holds(rule["condition"], a, b, found) else rule["else"]


# -- queries -----------------------------------------------------------------

def grant(a: tuple, b: tuple, graph: tuple) -> str:
    if a not in graph[0] or b not in graph[0]:
        return "undefined"
    return "permit" if (a, b) in graph[1] else "deny"


class Views:
    """networkx views of a graph that only grows: the directed flow graph, and
    the availability graph with one undirected edge per complementary pair."""

    def __init__(self, graph: tuple):
        import networkx   # only the workloads that query graphs load it
        self.nx = networkx
        self.graph = (frozenset(), frozenset())
        self.flows, self.available = networkx.DiGraph(), networkx.Graph()
        self.grow(graph)

    def grow(self, graph: tuple) -> None:
        """Extend the views to ``graph``, a supergraph of the current one."""
        interfaces, added = graph[0] - self.graph[0], graph[1] - self.graph[1]
        self.flows.add_nodes_from(interfaces)
        self.flows.add_edges_from(added)
        self.available.add_nodes_from(interfaces)
        self.available.add_edges_from(f for f in added if (f[1], f[0]) in graph[1])
        self.graph = graph

    def reachable(self, src: tuple, dst: tuple) -> bool:
        return src == dst or self.nx.has_path(self.flows, src, dst)

    def components(self) -> int:
        return self.nx.number_connected_components(self.available)


# -- canonical text ----------------------------------------------------------

def _iface_doc(iface: tuple) -> dict:
    if iface[0] == "explicit":
        return {"kind": "explicit", "entity": iface[1], "mode": iface[2]}
    return {"kind": "implicit", "agent": iface[1], "label": iface[2]}


def canonical_text(graph: tuple) -> str:
    """The documented canonical JSON layout of a graph, arrays in key order."""
    doc = {
        "interfaces": [_iface_doc(i) for i in sorted(graph[0])],
        "flows": [{"from": _iface_doc(s), "to": _iface_doc(d)} for s, d in sorted(graph[1])],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

