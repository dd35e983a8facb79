"""Declarative composition rules: a condition picks merge or append.

A rule such as "two conflicting graphs may still be merged if every
conflict is the inverse of a flow the first graph already permits,
otherwise append" becomes::

    CompositionRule(
        condition=ConflictsComplementaryIn(Side.FIRST),
        then_action=Action.MERGE,
        else_action=Action.APPEND,
    )

Conditions are evaluated against the conflict set of the two operands.  An
empty conflict set satisfies ConflictsComplementaryIn vacuously; in
particular, graphs sharing no interfaces have no conflicts at all, so a
no-conflicts rule picks its then-branch for them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from . import analyze, compose
from .errors import SchemaError, ValidationError, strict_object
from .model import CommonRepresentation, Flow

MAX_CONDITION_DEPTH = 16


class Side(enum.Enum):
    FIRST = "first"
    SECOND = "second"


class Action(enum.Enum):
    MERGE = "merge"
    APPEND = "append"
    APPEND_STRICT = "append-strict"
    REJECT = "reject"


def _expect(value: Any, kind: Any, what: str) -> None:
    """Raise :class:`TypeError` unless ``value`` is a ``kind``; ``what`` names
    the expected value for the message."""
    if not isinstance(value, kind):
        raise TypeError(f"{what}, got {type(value).__name__}")


@dataclass(frozen=True)
class NoConflicts:
    """Holds iff the two graphs have no conflicts."""


@dataclass(frozen=True)
class ConflictsComplementaryIn:
    """Holds iff every conflict's inverse is a flow of the chosen side."""

    side: Side

    def __post_init__(self) -> None:
        _expect(self.side, Side, "ConflictsComplementaryIn takes a Side")


@dataclass(frozen=True)
class ConflictCountAtMost:
    n: int

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise TypeError(f"ConflictCountAtMost takes an int, got {type(self.n).__name__}")
        if self.n < 0:
            raise ValueError("conflict count bound must be non-negative")


@dataclass(frozen=True)
class And:
    conditions: tuple["Condition", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if not self.conditions:
            raise ValueError("'and' needs at least one condition")
        for sub in self.conditions:
            _expect(sub, Condition, "And takes conditions")


@dataclass(frozen=True)
class Not:
    condition: "Condition"

    def __post_init__(self) -> None:
        _expect(self.condition, Condition, "Not takes a condition")


Condition = NoConflicts | ConflictsComplementaryIn | ConflictCountAtMost | And | Not


@dataclass(frozen=True)
class CompositionRule:
    """condition -> then_action, otherwise else_action.

    The two actions must differ; a rule that cannot discriminate is
    rejected at construction.
    """

    condition: Condition
    then_action: Action
    else_action: Action

    def __post_init__(self) -> None:
        _expect(self.condition, Condition, "CompositionRule.condition must be a condition")
        _expect(self.then_action, Action, "CompositionRule.then_action must be an Action")
        _expect(self.else_action, Action, "CompositionRule.else_action must be an Action")
        if self.then_action == self.else_action:
            raise ValidationError("rule actions must differ")


@dataclass(frozen=True)
class CompositionDecision:
    """Audit record of one rule application.

    ``result`` is present for every action except REJECT; ``evidence`` is
    the conflict set the condition was judged on.
    """

    action_taken: Action
    result: Optional[CommonRepresentation]
    evidence: frozenset[Flow]

    def __post_init__(self) -> None:
        object.__setattr__(self, "evidence", frozenset(self.evidence))
        if (self.result is None) != (self.action_taken is Action.REJECT):
            raise ValueError("result must be present exactly when the action is not reject")


def eval_condition(c: Condition, a: CommonRepresentation, b: CommonRepresentation) -> bool:
    """Evaluate a condition over the conflicts of the two graphs."""
    return _eval(c, a, b, analyze.conflicts(a, b))


def _eval(c: Condition, a: CommonRepresentation, b: CommonRepresentation,
          conflict_set: frozenset[Flow]) -> bool:
    if isinstance(c, NoConflicts):
        return not conflict_set
    if isinstance(c, ConflictsComplementaryIn):
        flows = a.flows if c.side is Side.FIRST else b.flows
        return all((f.dst, f.src) in flows for f in conflict_set)
    if isinstance(c, ConflictCountAtMost):
        return len(conflict_set) <= c.n
    if isinstance(c, And):
        return all(_eval(sub, a, b, conflict_set) for sub in c.conditions)
    if isinstance(c, Not):
        return not _eval(c.condition, a, b, conflict_set)
    raise TypeError(f"not a condition: {type(c).__name__}")


_COMPOSERS = {
    Action.MERGE: compose.merge,
    Action.APPEND: compose.append,
    Action.APPEND_STRICT: compose.append_strict,
}


def apply_rule(rule: CompositionRule, a: CommonRepresentation,
               b: CommonRepresentation) -> CompositionDecision:
    """Evaluate the rule's condition and perform the selected action."""
    evidence = analyze.conflicts(a, b)
    action = rule.then_action if _eval(rule.condition, a, b, evidence) else rule.else_action
    if action is Action.REJECT:
        return CompositionDecision(action_taken=action, result=None, evidence=evidence)
    return CompositionDecision(
        action_taken=action, result=_COMPOSERS[action](a, b), evidence=evidence
    )


# -- rule file schema --------------------------------------------------------

def condition_from_dict(obj: Any, depth: int = 0) -> Condition:
    if depth > MAX_CONDITION_DEPTH:
        raise SchemaError(f"condition nesting exceeds {MAX_CONDITION_DEPTH} levels")
    if not isinstance(obj, dict):
        raise SchemaError(f"condition: expected an object, got {type(obj).__name__}")
    tag = obj.get("type")
    if tag == "no-conflicts":
        strict_object(obj, {"type"}, "condition")
        return NoConflicts()
    if tag == "conflicts-complementary-in":
        strict_object(obj, {"type", "side"}, "condition")
        side = obj["side"]
        if side not in ("first", "second"):
            raise SchemaError(f"condition: side must be 'first' or 'second', got {side!r}")
        return ConflictsComplementaryIn(Side(side))
    if tag == "conflict-count-at-most":
        strict_object(obj, {"type", "n"}, "condition")
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise SchemaError(f"condition: n must be a non-negative integer, got {n!r}")
        return ConflictCountAtMost(n)
    if tag == "and":
        strict_object(obj, {"type", "conditions"}, "condition")
        subs = obj["conditions"]
        if not isinstance(subs, list) or not subs:
            raise SchemaError("condition: 'and' needs a non-empty array of conditions")
        return And(tuple(condition_from_dict(sub, depth + 1) for sub in subs))
    if tag == "not":
        strict_object(obj, {"type", "condition"}, "condition")
        return Not(condition_from_dict(obj["condition"], depth + 1))
    raise SchemaError(f"condition: unknown type {tag!r}")


def _parse_action(value: Any, where: str) -> Action:
    try:
        return Action(value)
    except ValueError:
        raise SchemaError(
            f"{where}: expected 'merge', 'append', 'append-strict' or 'reject', got {value!r}"
        ) from None


def rule_from_dict(obj: Any) -> CompositionRule:
    """Parse ``{"condition": {...}, "then": "merge", "else": "append"}``."""
    strict_object(obj, {"condition", "then", "else"}, "rule")
    return CompositionRule(
        condition=condition_from_dict(obj["condition"]),
        then_action=_parse_action(obj["then"], "rule.then"),
        else_action=_parse_action(obj["else"], "rule.else"),
    )
