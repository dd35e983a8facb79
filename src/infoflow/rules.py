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
no-conflicts rule picks its then-branch for them.  Each condition kind is
described once, in its class, and every value here is a
:class:`~infoflow.model._Record`, checked when built, copied or unpickled.
"""

from __future__ import annotations

import enum
from collections.abc import Set
from typing import Any, Callable, ClassVar, Optional

from . import analyze, compose
from .errors import SchemaError, one_of, strict_object
from .model import CommonRepresentation, Flow, _Record

MAX_CONDITION_DEPTH = 16


class Side(enum.Enum):
    FIRST = "first"
    SECOND = "second"


class Action(enum.Enum):
    MERGE = "merge"
    APPEND = "append"
    APPEND_STRICT = "append-strict"
    REJECT = "reject"


def _checked(kind: type | tuple[type, ...], what: str) -> Callable[[Any], Any]:
    """The freeze of a field holding a ``kind``; ``what`` names it in the TypeError."""
    def freeze(value: Any) -> Any:
        if not isinstance(value, kind):
            raise TypeError(f"{what}, got {type(value).__name__}")
        return value
    return freeze


class _Condition(_Record):
    """A condition kind: its document ``tag``, its ``_fields``, whose parsers also
    take the depth of any condition inside, and ``_holds`` on the conflicts found."""

    tag: ClassVar[str]


def _freeze_count(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"ConflictCountAtMost takes an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError("conflict count bound must be non-negative")
    return n


def _parse_count(n: Any, _depth: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise SchemaError(f"condition: n must be a non-negative integer, got {n!r}")
    return n


def _freeze_conditions(conditions: Any) -> tuple[Condition, ...]:
    if conditions := tuple(map(_checked(_Condition, "And takes conditions"), conditions)):
        return conditions
    raise ValueError("'and' needs at least one condition")


def _parse_conditions(subs: Any, depth: int) -> tuple[Condition, ...]:
    if not isinstance(subs, list) or not subs:
        raise SchemaError("condition: 'and' needs a non-empty array of conditions")
    return tuple(condition_from_dict(sub, depth) for sub in subs)


def condition_from_dict(obj: Any, depth: int = 0) -> Condition:
    if depth > MAX_CONDITION_DEPTH:
        raise SchemaError(f"condition nesting exceeds {MAX_CONDITION_DEPTH} levels")
    if not isinstance(obj, dict):
        raise SchemaError(f"condition: expected an object, got {type(obj).__name__}")
    tag = obj.get("type")
    # A JSON tag that is not a string, a list say, names no kind and may not hash.
    cls = _TAGS.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise SchemaError(f"condition: unknown type {tag!r}")
    strict_object(obj, {"type", *cls._fields}, "condition")
    return cls(*(parse(obj[name], depth + 1) for name, (_freeze, parse) in cls._fields.items()))


class NoConflicts(_Condition):
    """Holds iff the two graphs have no conflicts."""

    tag = "no-conflicts"

    def _holds(self, found: Set[Flow], a: CommonRepresentation, b: CommonRepresentation) -> bool:
        return not found


class ConflictsComplementaryIn(_Condition):
    """Holds iff every conflict's inverse is a flow of the chosen side."""

    side: Side
    tag = "conflicts-complementary-in"
    _fields = {"side": (_checked(Side, "ConflictsComplementaryIn takes a Side"),
                        lambda side, _: one_of(Side._value2member_map_, side, "condition: side"))}

    def _holds(self, found: Set[Flow], a: CommonRepresentation, b: CommonRepresentation) -> bool:
        flows = a.flows if self.side is Side.FIRST else b.flows
        return all((dst, src) in flows for src, dst in found)


class ConflictCountAtMost(_Condition):
    n: int
    tag = "conflict-count-at-most"
    _fields = {"n": (_freeze_count, _parse_count)}

    def _holds(self, found: Set[Flow], a: CommonRepresentation, b: CommonRepresentation) -> bool:
        return len(found) <= self.n


class And(_Condition):
    conditions: tuple[Condition, ...]
    tag = "and"
    _fields = {"conditions": (_freeze_conditions, _parse_conditions)}

    def _holds(self, found: Set[Flow], a: CommonRepresentation, b: CommonRepresentation) -> bool:
        return all(sub._holds(found, a, b) for sub in self.conditions)


class Not(_Condition):
    condition: Condition
    tag = "not"
    _fields = {"condition": (_checked(_Condition, "Not takes a condition"), condition_from_dict)}

    def _holds(self, found: Set[Flow], a: CommonRepresentation, b: CommonRepresentation) -> bool:
        return not self.condition._holds(found, a, b)


Condition = NoConflicts | ConflictsComplementaryIn | ConflictCountAtMost | And | Not

_TAGS = {cls.tag: cls for cls in Condition.__args__}


class CompositionRule(_Record):
    """condition -> then_action, otherwise else_action.

    The two actions must differ; a rule that cannot discriminate is
    rejected at construction.
    """

    condition: Condition
    then_action: Action
    else_action: Action
    _fields = {
        "condition": (_checked(_Condition, "CompositionRule.condition must be a condition"), None),
        "then_action": (_checked(Action, "CompositionRule.then_action must be an Action"), None),
        "else_action": (_checked(Action, "CompositionRule.else_action must be an Action"), None),
    }

    def _problems(self) -> list[str]:
        return ["rule actions must differ"] if self.then_action == self.else_action else []


class CompositionDecision(_Record):
    """Audit record of one rule application.

    ``result`` is present for every action except REJECT; ``evidence`` is
    the conflict set the condition was judged on.
    """

    action_taken: Action
    result: Optional[CommonRepresentation]
    evidence: frozenset[Flow]
    _fields = {
        "action_taken": (_checked(Action, "CompositionDecision.action_taken must be an Action"), None),
        "result": (_checked((CommonRepresentation, type(None)),
                            "CompositionDecision.result must be a graph or None"), None),
        "evidence": (frozenset, None),
    }

    def _problems(self) -> list[str]:
        if (self.result is None) != (self.action_taken is Action.REJECT):
            return ["result must be present exactly when the action is not reject"]
        return []


def eval_condition(c: Condition, a: CommonRepresentation, b: CommonRepresentation) -> bool:
    """Evaluate a condition over the conflicts of the two graphs."""
    if not isinstance(c, Condition):
        raise TypeError(f"not a condition: {type(c).__name__}")
    return c._holds(analyze.conflicts(a, b), a, b)


_COMPOSERS = {
    Action.MERGE: compose.merge,
    Action.APPEND: compose.append,
    Action.APPEND_STRICT: compose.append_strict,
}


def apply_rule(rule: CompositionRule, a: CommonRepresentation,
               b: CommonRepresentation) -> CompositionDecision:
    """Evaluate the rule's condition and perform the selected action."""
    evidence = analyze.conflicts(a, b)
    action = rule.then_action if rule.condition._holds(evidence, a, b) else rule.else_action
    result = None if action is Action.REJECT else _COMPOSERS[action](a, b)
    return CompositionDecision(action, result, evidence)


# -- rule file schema --------------------------------------------------------

def rule_from_dict(obj: Any) -> CompositionRule:
    """Parse ``{"condition": {...}, "then": "merge", "else": "append"}``."""
    strict_object(obj, {"condition", "then", "else"}, "rule")
    return CompositionRule(
        condition=condition_from_dict(obj["condition"]),
        then_action=one_of(Action._value2member_map_, obj["then"], "rule.then: action"),
        else_action=one_of(Action._value2member_map_, obj["else"], "rule.else: action"),
    )
