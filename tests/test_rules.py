import pytest
from hypothesis import given

from infoflow import (
    Action,
    And,
    CommonRepresentation,
    CompositionDecision,
    CompositionRule,
    ConflictCountAtMost,
    ConflictsComplementaryIn,
    Flow,
    Implicit,
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
from crgen import graphs

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

    def test_unknown_condition_type(self):
        with pytest.raises(SchemaError, match="unknown type"):
            condition_from_dict({"type": "sometimes"})

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
