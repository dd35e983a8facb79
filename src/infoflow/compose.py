"""Composites over flow graphs: permissive merge and deny-favouring append.

Both operations assume consistent interface naming: an interface appearing
in both operands is the same interface.  Merge is commutative; append is
not, so a fold over several graphs (``functools.reduce``) must keep their
order.  Each operation picks the flows of ``b`` it keeps, and
:func:`~infoflow.model._composite` builds the composite from them.
"""

from __future__ import annotations

from itertools import filterfalse

from .model import CommonRepresentation, _composite


def merge(a: CommonRepresentation, b: CommonRepresentation) -> CommonRepresentation:
    """Component-wise union; favours permit.

    Commutative, associative and idempotent, with the empty graph as
    identity.
    """
    return _composite(a, b, b.flows)


def append(a: CommonRepresentation, b: CommonRepresentation) -> CommonRepresentation:
    """Priority composite; ``a`` wins where the two disagree.

    Interfaces are unioned.  All of a's flows survive; a flow of b survives
    only when neither it nor its inverse appears in a's flows.  Those two
    can only be there when both endpoints are interfaces of ``a``.
    """
    in_a, flows = a.interfaces.issuperset, a.flows
    return _composite(a, b, {f for f in b.flows if not (in_a(f) and (f in flows or f[::-1] in flows))})


def append_strict(a: CommonRepresentation, b: CommonRepresentation) -> CommonRepresentation:
    """Stricter priority composite: no new flows between a's own interfaces.

    Of the flows of b that :func:`append` keeps, it additionally drops every
    one whose endpoints both belong to ``a``, so only flows reaching at
    least one interface ``a`` does not declare pass through.  It is never
    more permissive than :func:`append`.
    """
    return _composite(a, b, set(filterfalse(a.interfaces.issuperset, b.flows)))
