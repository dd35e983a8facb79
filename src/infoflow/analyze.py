"""Pairwise analysis of flow graphs: conflicts, shared flows, differences.

A conflict is a flow over interfaces *both* graphs declare that exactly one
of them permits.  Flows touching an interface only one graph knows about
are disagreements in scope, not conflicts, and show up only in
:func:`diffs`.
"""

from __future__ import annotations

from .model import CommonRepresentation, Flow


def conflicts(a: CommonRepresentation, b: CommonRepresentation) -> frozenset[Flow]:
    """Flows over shared interfaces that exactly one graph permits."""
    shared = a.interfaces & b.interfaces
    return frozenset(filter(shared.issuperset, a.flows ^ b.flows))


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
