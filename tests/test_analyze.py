import pytest
from hypothesis import given

from infoflow import (
    Action,
    CommonRepresentation,
    CompositionRule,
    Flow,
    Implicit,
    NoConflicts,
    apply_rule,
    common_flows,
    conflicting,
    conflicts,
    diffs,
    eval_condition,
    merge,
    one_sided_conflicts,
)
from crgen import fresh_index_view, graphs, index_view
from oracles import conflicts_by_definition

A = Implicit("a", "x")
B = Implicit("b", "x")
C = Implicit("c", "x")
D = Implicit("d", "x")

# Shared interfaces {a, c}; only CR1 permits (a, c); b and d are private
# to one side each.
CR1 = CommonRepresentation({A, B, C}, {Flow(A, C), Flow(B, C)})
CR2 = CommonRepresentation({A, C, D}, {Flow(A, D), Flow(D, C)})


class TestConflicts:
    def test_overlapping_pair_conflicts_on_shared_flow_only(self):
        assert conflicts(CR1, CR2) == frozenset({Flow(A, C)})

    def test_identical_graphs_do_not_conflict(self):
        assert conflicts(CR1, CR1) == frozenset()
        assert not conflicting(CR1, CR1)

    def test_flow_missing_from_one_side(self):
        a = CommonRepresentation({A, B}, {Flow(A, B)})
        b = CommonRepresentation({A, B}, set())
        assert conflicts(a, b) == frozenset({Flow(A, B)})

    def test_conflicting_is_nonempty_check(self):
        assert conflicting(CR1, CR2)

    def test_disjoint_interfaces_cannot_conflict(self):
        a = CommonRepresentation({A, B}, {Flow(A, B)})
        b = CommonRepresentation({C, D}, {Flow(C, D)})
        assert not conflicting(a, b)

    def test_one_sided_view(self):
        assert one_sided_conflicts(CR1, CR2) == frozenset({Flow(A, C)})
        assert one_sided_conflicts(CR2, CR1) == frozenset()

    def test_merge_result_against_operands(self):
        merged = merge(CR1, CR2)
        # CR2's extra flows all touch d, which CR1 does not declare.
        assert conflicts(merged, CR1) == frozenset()
        # CR1 contributed (a, c), whose endpoints CR2 does declare.
        assert conflicts(merged, CR2) == frozenset({Flow(A, C)})

    @pytest.mark.parametrize("call", [
        conflicts, conflicting, one_sided_conflicts,
        lambda a, b: eval_condition(NoConflicts(), a, b),
        lambda a, b: apply_rule(CompositionRule(NoConflicts(), Action.MERGE, Action.APPEND), a, b),
    ], ids=["conflicts", "conflicting", "one_sided_conflicts", "eval_condition", "apply_rule"])
    @pytest.mark.parametrize("a, b, names", [
        (1, 2, "int and int"),
        (CR1, "cr.json", "CommonRepresentation and str"),
        (None, CR2, "NoneType and CommonRepresentation"),
    ], ids=["int-int", "graph-str", "none-graph"])
    def test_a_value_that_is_not_a_graph_is_a_type_error(self, call, a, b, names):
        with pytest.raises(TypeError) as caught:
            call(a, b)
        assert str(caught.value) == f"conflicts takes graphs, got {names}"

    @given(graphs(), graphs())
    def test_the_larger_operand_is_left_with_its_whole_index(self, a, b):
        """Conflicts read the rows of the graph with more flows (``b`` on a
        tie), which builds that graph's whole index, equal to a fresh one;
        the other operand gains none."""
        small, large = (a, b) if len(a.flows) <= len(b.flows) else (b, a)
        assert index_view(a) is None and index_view(b) is None
        conflicts(a, b)
        assert index_view(large) is not None
        assert index_view(large) == fresh_index_view(large)
        assert index_view(small) is None


class TestCommonAndDiffs:
    def test_disjoint_flow_sets_share_nothing(self):
        assert common_flows(CR1, CR2) == frozenset()

    def test_self_comparison(self):
        assert common_flows(CR1, CR1) == CR1.flows
        assert diffs(CR1, CR1) == frozenset()

    def test_shared_flow(self):
        a = CommonRepresentation({A, B}, {Flow(A, B)})
        b = CommonRepresentation({A, B, C}, {Flow(A, B), Flow(B, C)})
        assert common_flows(a, b) == frozenset({Flow(A, B)})

    def test_diffs_cover_private_interfaces_too(self):
        assert diffs(CR1, CR2) == frozenset(
            {Flow(A, C), Flow(B, C), Flow(A, D), Flow(D, C)}
        )

    def test_diffs_of_one_empty_side(self):
        a = CommonRepresentation({A, B}, {Flow(A, B)})
        b = CommonRepresentation({A, B}, set())
        assert diffs(a, b) == frozenset({Flow(A, B)})


class TestProperties:
    @given(graphs(), graphs())
    def test_conflicts_match_the_definition(self, a, b):
        """Both operand orders, so either graph is the one with fewer flows."""
        want = conflicts_by_definition(a, b)
        for first, second in ((a, b), (b, a)):
            got = conflicts(first, second)
            assert got == want
            assert all(isinstance(f, Flow) for f in got)

    @given(graphs(), graphs())
    def test_conflicts_symmetric(self, a, b):
        assert conflicts(a, b) == conflicts(b, a)

    @given(graphs(), graphs())
    def test_conflicts_subset_of_diffs(self, a, b):
        assert conflicts(a, b) <= diffs(a, b)

    @given(graphs(), graphs())
    def test_conflicts_disjoint_from_common(self, a, b):
        assert not conflicts(a, b) & common_flows(a, b)

    @given(graphs(), graphs())
    def test_conflict_endpoints_are_shared(self, a, b):
        shared = a.interfaces & b.interfaces
        for f in conflicts(a, b):
            assert f.src in shared and f.dst in shared

    @given(graphs(), graphs())
    def test_diffs_and_common_partition_the_union(self, a, b):
        assert diffs(a, b) | common_flows(a, b) == a.flows | b.flows
        assert not diffs(a, b) & common_flows(a, b)
