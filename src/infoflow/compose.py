"""Composites over flow graphs: permissive merge and deny-favouring append.

Both operations assume consistent interface naming: an interface appearing
in both operands is the same interface.  Merge is commutative; append is
not, so a fold over several graphs (``functools.reduce``) must keep their
order.
"""

from __future__ import annotations

from .model import CommonRepresentation


def merge(a: CommonRepresentation, b: CommonRepresentation) -> CommonRepresentation:
    """Component-wise union; favours permit.

    Commutative, associative and idempotent, with the empty graph as
    identity.
    """
    return CommonRepresentation(
        interfaces=a.interfaces | b.interfaces,
        flows=a.flows | b.flows,
    )


def append(a: CommonRepresentation, b: CommonRepresentation) -> CommonRepresentation:
    """Priority composite; ``a`` wins where the two disagree.

    Interfaces are unioned.  All of a's flows survive; a flow of b survives
    only when neither it nor its inverse appears in a's flows.
    """
    survivors = {
        f for f in b.flows if f not in a.flows and (f.dst, f.src) not in a.flows
    }
    return CommonRepresentation(
        interfaces=a.interfaces | b.interfaces,
        flows=a.flows | survivors,
    )


def append_strict(a: CommonRepresentation, b: CommonRepresentation) -> CommonRepresentation:
    """Stricter priority composite: no new flows between a's own interfaces.

    A flow of b is dropped whenever both of its endpoints already belong to
    ``a`` unless ``a`` itself contains that exact flow.  Flows reaching at
    least one genuinely new interface pass through.
    """
    survivors = {f for f in b.flows if f in a.flows or not a.interfaces.issuperset(f)}
    return CommonRepresentation(
        interfaces=a.interfaces | b.interfaces,
        flows=a.flows | survivors,
    )
