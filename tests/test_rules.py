import copy
import pickle
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given

from infoflow import (
    AclPolicy,
    Action,
    And,
    CommonRepresentation,
    CompositionDecision,
    CompositionRule,
    ConflictCountAtMost,
    ConflictsComplementaryIn,
    Flow,
    Implicit,
    Mode,
    NoConflicts,
    Not,
    SchemaError,
    Side,
    ValidationError,
    append,
    append_strict,
    apply_rule,
    conflicts,
    eval_condition,
    merge,
    rule_from_dict,
)
from infoflow.rules import condition_from_dict
from crgen import condition_docs, graphs
from oracles import holds_by_definition

X = Implicit("x", "i")
Y = Implicit("y", "i")

# Both directions in A, none in B: every conflict has its inverse in A.
A_BIDI = CommonRepresentation({X, Y}, {Flow(X, Y), Flow(Y, X)})
B_EMPTY = CommonRepresentation({X, Y}, set())

# One direction each: (y, x)'s inverse is in A but (x, y)'s is not.
A_FWD = CommonRepresentation({X, Y}, {Flow(X, Y)})
B_BWD = CommonRepresentation({X, Y}, {Flow(Y, X)})

COMPLEMENTARY_RULE = CompositionRule(
    condition=ConflictsComplementaryIn(Side.FIRST),
    then_action=Action.MERGE,
    else_action=Action.APPEND,
)


class TestEvalCondition:
    def test_complementary_conflicts_pass(self):
        assert conflicts(A_BIDI, B_EMPTY) == frozenset({Flow(X, Y), Flow(Y, X)})
        assert eval_condition(ConflictsComplementaryIn(Side.FIRST), A_BIDI, B_EMPTY)

    def test_half_covered_conflicts_fail(self):
        assert conflicts(A_FWD, B_BWD) == frozenset({Flow(X, Y), Flow(Y, X)})
        assert not eval_condition(ConflictsComplementaryIn(Side.FIRST), A_FWD, B_BWD)

    def test_one_way_conflict_is_not_covered_by_itself(self):
        # The conflict (x, y) is a flow of A; only its inverse (y, x) counts.
        assert conflicts(A_FWD, B_EMPTY) == frozenset({Flow(X, Y)})
        assert not eval_condition(ConflictsComplementaryIn(Side.FIRST), A_FWD, B_EMPTY)

    def test_second_side_variant(self):
        assert eval_condition(ConflictsComplementaryIn(Side.SECOND), B_EMPTY, A_BIDI)

    def test_no_conflicts_on_identical_graphs(self):
        assert eval_condition(NoConflicts(), A_FWD, A_FWD)
        assert not eval_condition(NoConflicts(), A_FWD, B_BWD)

    def test_vacuous_truth_without_shared_interfaces(self):
        other = CommonRepresentation({Implicit("z", "i")}, set())
        assert eval_condition(ConflictsComplementaryIn(Side.FIRST), A_FWD, other)
        assert eval_condition(NoConflicts(), A_FWD, other)

    def test_conflict_count_bound(self):
        assert eval_condition(ConflictCountAtMost(2), A_FWD, B_BWD)
        assert not eval_condition(ConflictCountAtMost(1), A_FWD, B_BWD)

    def test_boolean_composition(self):
        both = And((ConflictCountAtMost(2), ConflictsComplementaryIn(Side.FIRST)))
        assert eval_condition(both, A_BIDI, B_EMPTY)
        assert not eval_condition(Not(both), A_BIDI, B_EMPTY)
        assert eval_condition(Not(NoConflicts()), A_FWD, B_BWD)


class TestConstruction:
    def test_evaluating_a_non_condition_raises(self):
        with pytest.raises(TypeError) as caught:
            eval_condition("no-conflicts", A_BIDI, B_EMPTY)
        assert str(caught.value) == "not a condition: str"

    def test_rule_must_discriminate(self):
        with pytest.raises(ValidationError):
            CompositionRule(NoConflicts(), Action.MERGE, Action.MERGE)

    def test_and_needs_conditions(self):
        with pytest.raises(ValueError):
            And(())

    def test_count_bound_non_negative(self):
        with pytest.raises(ValueError):
            ConflictCountAtMost(-1)

    def test_side_must_be_a_side(self):
        with pytest.raises(TypeError, match="takes a Side, got str"):
            ConflictsComplementaryIn("first")

    @pytest.mark.parametrize("bound", [True, 1.5, "1"])
    def test_count_bound_must_be_an_int(self, bound):
        with pytest.raises(TypeError, match="takes an int"):
            ConflictCountAtMost(bound)

    def test_not_takes_a_condition(self):
        with pytest.raises(TypeError, match="Not takes a condition, got int"):
            Not(5)

    @pytest.mark.parametrize("subs", [(5,), (NoConflicts(), Action.MERGE)])
    def test_and_takes_conditions(self, subs):
        with pytest.raises(TypeError, match="And takes conditions"):
            And(subs)

    def test_rule_condition_must_be_a_condition(self):
        with pytest.raises(TypeError, match="condition must be a condition, got int"):
            CompositionRule(5, Action.MERGE, Action.APPEND)

    @pytest.mark.parametrize("then_action, else_action", [
        ("merge", Action.APPEND), (Action.MERGE, "append"), ("merge", "append"),
    ])
    def test_rule_actions_must_be_actions(self, then_action, else_action):
        with pytest.raises(TypeError, match="action must be an Action, got str"):
            CompositionRule(NoConflicts(), then_action, else_action)

    @pytest.mark.parametrize("fields, message", [
        (("merge", A_FWD, ()), "CompositionDecision.action_taken must be an Action, got str"),
        (("merge", 5, [(1, 2)]), "CompositionDecision.action_taken must be an Action, got str"),
        ((Action.MERGE, 5, ()), "CompositionDecision.result must be a graph or None, got int"),
        ((Action.REJECT, "none", ()), "CompositionDecision.result must be a graph or None, got str"),
    ], ids=["action-str", "action-str-result-int", "result-int", "result-str"])
    def test_decision_fields_must_have_their_types(self, fields, message):
        with pytest.raises(TypeError) as caught:
            CompositionDecision(*fields)
        assert str(caught.value) == message

    def test_decision_result_presence(self):
        with pytest.raises(ValueError):
            CompositionDecision(Action.MERGE, None, frozenset())
        with pytest.raises(ValueError):
            CompositionDecision(Action.REJECT, A_FWD, frozenset())


class TestApplyRule:
    def test_complementary_case_merges(self):
        decision = apply_rule(COMPLEMENTARY_RULE, A_BIDI, B_EMPTY)
        assert decision.action_taken is Action.MERGE
        assert decision.result == merge(A_BIDI, B_EMPTY)
        assert decision.evidence == conflicts(A_BIDI, B_EMPTY)

    def test_fallback_case_appends(self):
        decision = apply_rule(COMPLEMENTARY_RULE, A_FWD, B_BWD)
        assert decision.action_taken is Action.APPEND
        assert decision.result == CommonRepresentation({X, Y}, {Flow(X, Y)})
        assert decision.result == append(A_FWD, B_BWD)

    def test_reject_produces_no_graph(self):
        rule = CompositionRule(NoConflicts(), Action.MERGE, Action.REJECT)
        decision = apply_rule(rule, A_FWD, B_BWD)
        assert decision.action_taken is Action.REJECT
        assert decision.result is None
        assert decision.evidence == conflicts(A_FWD, B_BWD)

    @given(graphs(), graphs())
    def test_deterministic(self, a, b):
        first = apply_rule(COMPLEMENTARY_RULE, a, b)
        second = apply_rule(COMPLEMENTARY_RULE, a, b)
        assert first == second

    @pytest.mark.parametrize(
        "action, composer",
        [(Action.MERGE, merge), (Action.APPEND, append), (Action.APPEND_STRICT, append_strict)],
        ids=lambda value: getattr(value, "__name__", None),
    )
    @given(graphs(), graphs())
    def test_result_is_the_composite_the_action_names(self, action, composer, a, b):
        # No two graphs have more conflicts than flows, so this condition holds.
        always = ConflictCountAtMost(len(a.flows) + len(b.flows))
        decision = apply_rule(CompositionRule(always, action, Action.REJECT), a, b)
        assert decision.action_taken is action
        assert decision.result == composer(a, b)

    @given(graphs(), graphs())
    def test_evidence_matches_analyze(self, a, b):
        assert apply_rule(COMPLEMENTARY_RULE, a, b).evidence == conflicts(a, b)

    @given(graphs(), graphs())
    def test_no_conflicts_makes_merge_and_append_agree_on_shared_pairs(self, a, b):
        if eval_condition(NoConflicts(), a, b):
            shared = a.interfaces & b.interfaces

            def shared_flows(cr):
                return {f for f in cr.flows if f.src in shared and f.dst in shared}

            assert shared_flows(merge(a, b)) == shared_flows(append(a, b))


class TestRuleLoading:
    def test_full_rule_document(self):
        rule = rule_from_dict(
            {
                "condition": {"type": "conflicts-complementary-in", "side": "first"},
                "then": "merge",
                "else": "append",
            }
        )
        assert rule == COMPLEMENTARY_RULE

    def test_all_condition_tags(self):
        doc = {
            "type": "and",
            "conditions": [
                {"type": "no-conflicts"},
                {"type": "conflict-count-at-most", "n": 3},
                {"type": "not", "condition": {"type": "no-conflicts"}},
                {"type": "conflicts-complementary-in", "side": "second"},
            ],
        }
        condition = condition_from_dict(doc)
        assert isinstance(condition, And)
        assert len(condition.conditions) == 4

    def test_actions_parsed(self):
        rule = rule_from_dict(
            {"condition": {"type": "no-conflicts"}, "then": "append-strict", "else": "reject"}
        )
        assert rule.then_action is Action.APPEND_STRICT
        assert rule.else_action is Action.REJECT

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "condition: expected an object, got list"),
            ({"type": "and", "conditions": []},
             "condition: 'and' needs a non-empty array of conditions"),
            ({"type": "and", "conditions": {"type": "no-conflicts"}},
             "condition: 'and' needs a non-empty array of conditions"),
        ],
        ids=["not-an-object", "empty-and", "and-of-an-object"],
    )
    def test_malformed_condition(self, doc, message):
        with pytest.raises(SchemaError) as caught:
            condition_from_dict(doc)
        assert str(caught.value) == message

    # A type that is not a string names no kind, and a lookup must not try
    # to hash it: a list or an object would raise TypeError.
    @pytest.mark.parametrize("doc, shown", [
        ({"type": "sometimes"}, "'sometimes'"),
        ({"type": ["and"]}, "['and']"),
        ({"type": {"a": 1}}, "{'a': 1}"),
        ({"type": 1}, "1"),
        ({"conditions": [{"type": "no-conflicts"}]}, "None"),
    ], ids=["unknown-name", "list", "object", "number", "missing"])
    def test_unknown_condition_type(self, doc, shown):
        with pytest.raises(SchemaError) as caught:
            condition_from_dict(doc)
        assert str(caught.value) == f"condition: unknown type {shown}"

    def test_unknown_field(self):
        with pytest.raises(SchemaError, match="extra"):
            condition_from_dict({"type": "no-conflicts", "extra": 1})

    def test_bad_side(self):
        with pytest.raises(SchemaError) as caught:
            condition_from_dict({"type": "conflicts-complementary-in", "side": "third"})
        assert str(caught.value) == "condition: side must be 'first' or 'second', got 'third'"

    def test_bool_is_not_a_count(self):
        with pytest.raises(SchemaError, match="n"):
            condition_from_dict({"type": "conflict-count-at-most", "n": True})

    def test_depth_limit(self):
        doc = {"type": "no-conflicts"}
        for _ in range(20):
            doc = {"type": "not", "condition": doc}
        with pytest.raises(SchemaError, match="nesting"):
            condition_from_dict(doc)

    def test_nesting_within_limit_accepted(self):
        doc = {"type": "no-conflicts"}
        for _ in range(15):
            doc = {"type": "not", "condition": doc}
        condition_from_dict(doc)

    def test_missing_rule_field(self):
        with pytest.raises(SchemaError, match="else"):
            rule_from_dict({"condition": {"type": "no-conflicts"}, "then": "merge"})

    def test_bad_action(self):
        with pytest.raises(SchemaError) as caught:
            rule_from_dict(
                {"condition": {"type": "no-conflicts"}, "then": "explode", "else": "merge"}
            )
        assert str(caught.value) == (
            "rule.then: action must be 'merge', 'append', 'append-strict' or 'reject', "
            "got 'explode'"
        )

    def test_non_discriminating_rule_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            rule_from_dict(
                {"condition": {"type": "no-conflicts"}, "then": "merge", "else": "merge"}
            )


def built(doc):
    """The condition of a condition document, made by the constructors."""
    match doc:
        case {"type": "no-conflicts"}:
            return NoConflicts()
        case {"type": "conflicts-complementary-in", "side": side}:
            return ConflictsComplementaryIn(Side(side))
        case {"type": "conflict-count-at-most", "n": n}:
            return ConflictCountAtMost(n)
        case {"type": "and", "conditions": subs}:
            return And(tuple(map(built, subs)))
        case {"type": "not", "condition": sub}:
            return Not(built(sub))


class TestGeneratedConditions:
    @given(condition_docs())
    def test_a_document_loads_as_the_condition_the_constructors_build(self, doc):
        assert condition_from_dict(doc) == built(doc)

    @given(condition_docs(), graphs(), graphs())
    def test_evaluation_agrees_with_the_definition(self, doc, a, b):
        assert eval_condition(condition_from_dict(doc), a, b) == holds_by_definition(doc, a, b)


# One value of each rule class, with its fields in order and its repr as it
# was when these classes were dataclasses.
VALUES = {
    "no-conflicts": (NoConflicts(), (), "NoConflicts()"),
    "complementary": (ConflictsComplementaryIn(Side.SECOND), ("side",),
                      "ConflictsComplementaryIn(side=<Side.SECOND: 'second'>)"),
    "count": (ConflictCountAtMost(2), ("n",), "ConflictCountAtMost(n=2)"),
    "and": (And((NoConflicts(), Not(ConflictCountAtMost(2)))), ("conditions",),
            "And(conditions=(NoConflicts(), Not(condition=ConflictCountAtMost(n=2))))"),
    "not": (Not(ConflictsComplementaryIn(Side.FIRST)), ("condition",),
            "Not(condition=ConflictsComplementaryIn(side=<Side.FIRST: 'first'>))"),
    "rule": (CompositionRule(And((NoConflicts(), Not(ConflictCountAtMost(2)))), Action.MERGE,
                             Action.APPEND_STRICT),
             ("condition", "then_action", "else_action"),
             "CompositionRule(condition=And(conditions=(NoConflicts(), "
             "Not(condition=ConflictCountAtMost(n=2)))), then_action=<Action.MERGE: 'merge'>, "
             "else_action=<Action.APPEND_STRICT: 'append-strict'>)"),
    "decision": (CompositionDecision(Action.APPEND, CommonRepresentation({X}), {Flow(X, Y)}),
                 ("action_taken", "result", "evidence"),
                 "CompositionDecision(action_taken=<Action.APPEND: 'append'>, "
                 "result=CommonRepresentation(interfaces=frozenset({Implicit(agent='x', "
                 "label='i')}), flows=frozenset()), evidence=frozenset({Flow(src=Implicit("
                 "agent='x', label='i'), dst=Implicit(agent='y', label='i'))}))"),
}


def by_position(value):
    """The fields a positional class pattern captures from ``value``."""
    kind = SimpleNamespace(cls=type(value))
    match len(kind.cls.__match_args__), value:
        case 0, kind.cls():
            return ()
        case 1, kind.cls(first):
            return (first,)
        case 3, kind.cls(first, second, third):
            return (first, second, third)


@pytest.mark.parametrize("value, fields, text", VALUES.values(), ids=VALUES)
class TestRuleValue:
    """Every rule value is immutable, equal and hashed by its class and
    fields, printed by them, and rebuilt through its checks when copied."""

    def test_repr_names_the_fields(self, value, fields, text):
        assert repr(value) == text

    def test_equality_and_hash_follow_class_and_fields(self, value, fields, text):
        twin = type(value)(*(getattr(value, field) for field in fields))
        assert twin == value and hash(twin) == hash(value) and twin is not value
        assert value != And((NoConflicts(),))  # another class, or another field for And
        assert value.__eq__(object()) is NotImplemented

    def test_pickle_and_copies_are_equal(self, value, fields, text):
        copies = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in [*copies, copy.copy(value), copy.deepcopy(value), value.__replace__()]:
            assert copied == value and type(copied) is type(value) and repr(copied) == text

    def test_match_by_position(self, value, fields, text):
        assert type(value).__match_args__ == fields
        assert by_position(value) == tuple(getattr(value, field) for field in fields)

    def test_fields_cannot_be_assigned_or_deleted(self, value, fields, text):
        for name in (*fields, "other"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
        assert repr(value) == text


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_checks_the_value(protocol):
    # Only a forgery past the constructor can hold this; the constructor refuses it.
    forged = object.__new__(ConflictCountAtMost)
    vars(forged)["n"] = -1
    with pytest.raises(ValueError, match="^conflict count bound must be non-negative$"):
        pickle.loads(pickle.dumps(forged, protocol))
    with pytest.raises(ValueError, match="^conflict count bound must be non-negative$"):
        copy.copy(forged)


def test_replace_rebuilds_through_the_checks():
    assert COMPLEMENTARY_RULE.__replace__(else_action=Action.REJECT) == CompositionRule(
        ConflictsComplementaryIn(Side.FIRST), Action.MERGE, Action.REJECT)
    with pytest.raises(ValidationError, match="^rule actions must differ$"):
        COMPLEMENTARY_RULE.__replace__(else_action=Action.MERGE)
    with pytest.raises(TypeError, match=r"^CompositionRule\(\) got an unexpected field 'then'$"):
        COMPLEMENTARY_RULE.__replace__(then=Action.APPEND)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_changes_a_rule_a_policy_and_a_graph():
    assert copy.replace(COMPLEMENTARY_RULE, then_action=Action.APPEND_STRICT) == CompositionRule(
        ConflictsComplementaryIn(Side.FIRST), Action.APPEND_STRICT, Action.APPEND)
    policy = AclPolicy(objects={"o"}, subjects={"s"}, entries={})
    assert copy.replace(policy, entries={"o": {("s", Mode.R)}}) == AclPolicy(
        {"o"}, {"s"}, {"o": {("s", Mode.R)}})
    assert copy.replace(A_BIDI, flows=set()) == B_EMPTY
    with pytest.raises(ValidationError, match="undeclared interface x#i"):
        copy.replace(A_BIDI, interfaces={Y})
