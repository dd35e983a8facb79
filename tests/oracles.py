"""Independent reference implementations used only to cross-check the library.

Nothing here may call into infoflow's own algorithms: components are counted
with union-find (the library uses graph search), closures come from recursive DFS
(the library uses Warshall), and permission flows are enumerated triple by
triple.
"""

from infoflow import Explicit, Flow, Mode


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
