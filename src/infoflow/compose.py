"""Composites over flow graphs: permissive merge and deny-favouring append.

Both operations assume consistent interface naming: an interface appearing
in both operands is the same interface.  Merge is commutative; append is
not, so a fold over several graphs (``functools.reduce``) must keep their
order.
"""

from __future__ import annotations

from collections.abc import Set
from itertools import filterfalse

from .model import CommonRepresentation, Flow


def _extend(a: CommonRepresentation, b: CommonRepresentation,
            survivors: Set[Flow]) -> CommonRepresentation:
    """The composite every operation builds: all of ``a``, ``b``'s interfaces,
    and the ``survivors``, those flows of ``b`` outside ``a`` that the
    operation keeps.  It takes over the part of ``a``'s query index that is
    filled."""
    out = CommonRepresentation(interfaces=a.interfaces | b.interfaces, flows=a.flows | survivors)
    out._inherit_index(a, b, survivors)
    return out


def _append_survivors(a: CommonRepresentation, b: CommonRepresentation) -> set[Flow]:
    """The flows of b such that neither they nor their inverses are in a."""
    return {f for f in b.flows if f not in a.flows and (f.dst, f.src) not in a.flows}


def merge(a: CommonRepresentation, b: CommonRepresentation) -> CommonRepresentation:
    """Component-wise union; favours permit.

    Commutative, associative and idempotent, with the empty graph as
    identity.
    """
    return _extend(a, b, b.flows - a.flows)


def append(a: CommonRepresentation, b: CommonRepresentation) -> CommonRepresentation:
    """Priority composite; ``a`` wins where the two disagree.

    Interfaces are unioned.  All of a's flows survive; a flow of b survives
    only when neither it nor its inverse appears in a's flows.
    """
    return _extend(a, b, _append_survivors(a, b))


def append_strict(a: CommonRepresentation, b: CommonRepresentation) -> CommonRepresentation:
    """Stricter priority composite: no new flows between a's own interfaces.

    Of the flows of b that :func:`append` keeps, it additionally drops every
    one whose endpoints both belong to ``a``, so only flows reaching at
    least one interface ``a`` does not declare pass through.  It is never
    more permissive than :func:`append`.
    """
    return _extend(a, b, set(filterfalse(a.interfaces.issuperset, _append_survivors(a, b))))
