"""Pairwise analysis of flow graphs: conflicts, shared flows, differences.

A conflict is a flow over interfaces *both* graphs declare that exactly one
of them permits.  Flows touching an interface only one graph knows about
are disagreements in scope, not conflicts, and show up only in
:func:`diffs`.
"""

from __future__ import annotations

from .model import CommonRepresentation, Flow


def conflicts(a: CommonRepresentation, b: CommonRepresentation) -> frozenset[Flow]:
    """Flows over shared interfaces that exactly one graph permits.

    Only what the shared interfaces touch is read: the flows of the graph
    with fewer flows, and the other graph's flows out of the shared
    interfaces, from its query index, which is built here if that graph has
    none yet.  A value that is not a graph raises :class:`TypeError`.
    """
    if not (isinstance(a, CommonRepresentation) and isinstance(b, CommonRepresentation)):
        raise TypeError(f"conflicts takes graphs, got {type(a).__name__} and {type(b).__name__}")
    small, large = (a, b) if len(a.flows) <= len(b.flows) else (b, a)
    shared = a.interfaces & b.interfaces
    found = set(filter(shared.issuperset, small.flows)) - large.flows
    (rows, _partition), small_flows = large._index, small.flows
    for src in shared:
        for dst in rows.get(src, ()):
            if dst in shared and (src, dst) not in small_flows:
                found.add(Flow(src, dst))
    return frozenset(found)


def conflicting(a: CommonRepresentation, b: CommonRepresentation) -> bool:
    return bool(conflicts(a, b))


def one_sided_conflicts(a: CommonRepresentation, b: CommonRepresentation) -> frozenset[Flow]:
    """The conflicts that ``a`` permits and ``b`` denies."""
    return conflicts(a, b) & a.flows


def common_flows(a: CommonRepresentation, b: CommonRepresentation) -> frozenset[Flow]:
    """Flows present in both graphs."""
    return frozenset(a.flows & b.flows)


def diffs(a: CommonRepresentation, b: CommonRepresentation) -> frozenset[Flow]:
    """Symmetric difference of the flow sets, shared interfaces or not."""
    return frozenset(a.flows ^ b.flows)
