import itertools
from functools import reduce

import pytest
from hypothesis import given

from infoflow import (
    EMPTY_CR,
    CommonRepresentation,
    Flow,
    Implicit,
    append,
    append_strict,
    merge,
)
from crgen import graphs, rebuilt
from oracles import composite_by_flow

A = Implicit("a", "x")
B = Implicit("b", "x")
C = Implicit("c", "x")
D = Implicit("d", "x")
X = Implicit("x", "i")
Y = Implicit("y", "i")

# Two graphs that overlap on {a, c} and disagree about the (a, c) flow.
CR1 = CommonRepresentation({A, B, C}, {Flow(A, C), Flow(B, C)})
CR2 = CommonRepresentation({A, C, D}, {Flow(A, D), Flow(D, C)})

# Order-sensitivity witnesses: each permits one direction of the same pair.
FWD = CommonRepresentation({X, Y}, {Flow(X, Y)})
BWD = CommonRepresentation({X, Y}, {Flow(Y, X)})


class TestMerge:
    def test_union_of_overlapping_graphs(self):
        out = merge(CR1, CR2)
        assert out.interfaces == frozenset({A, B, C, D})
        assert out.flows == frozenset({Flow(A, C), Flow(B, C), Flow(A, D), Flow(D, C)})

    def test_empty_is_identity(self):
        assert merge(CR1, EMPTY_CR) == CR1
        assert merge(EMPTY_CR, CR1) == CR1

    def test_idempotent(self):
        assert merge(CR1, CR1) == CR1

    @given(graphs(), graphs())
    def test_commutative(self, a, b):
        assert merge(a, b) == merge(b, a)

    @given(graphs(), graphs(), graphs())
    def test_associative(self, a, b, c):
        assert merge(a, merge(b, c)) == merge(merge(a, b), c)

    @given(graphs(), graphs())
    def test_preserves_well_formedness(self, a, b):
        out = merge(a, b)
        assert rebuilt(out) == out


class TestAppend:
    def test_drops_flow_whose_inverse_exists(self):
        assert append(FWD, BWD) == CommonRepresentation({X, Y}, {Flow(X, Y)})

    def test_keeps_unrelated_flows(self):
        # Nothing in CR2 collides with CR1, so append degenerates to merge.
        assert append(CR1, CR2) == merge(CR1, CR2)

    def test_empty_first_operand_filters_nothing(self):
        assert append(EMPTY_CR, CR2) == CR2

    @given(graphs(), graphs())
    def test_flow_bounds(self, a, b):
        out = append(a, b)
        assert a.flows <= out.flows <= merge(a, b).flows

    @given(graphs(), graphs())
    def test_new_flows_never_clash_with_first_operand(self, a, b):
        for f in append(a, b).flows - a.flows:
            assert f not in a.flows and f.inverse() not in a.flows

    @given(graphs(), graphs())
    def test_preserves_well_formedness(self, a, b):
        out = append(a, b)
        assert rebuilt(out) == out


class TestAppendStrict:
    def test_blocks_new_flow_between_known_interfaces(self):
        extra = CommonRepresentation({X, Y}, {Flow(Y, X)})
        base = CommonRepresentation({X, Y}, set())
        assert append(base, extra).flows == frozenset({Flow(Y, X)})
        assert append_strict(base, extra).flows == frozenset()

    def test_allows_flows_to_new_interfaces(self):
        out = append_strict(CR1, CR2)
        assert Flow(A, D) in out.flows and Flow(D, C) in out.flows

    def test_keeps_duplicate_of_existing_flow(self):
        assert append_strict(FWD, FWD) == FWD

    @given(graphs(), graphs())
    def test_at_most_as_permissive_as_append(self, a, b):
        assert append_strict(a, b).flows <= append(a, b).flows

    @given(graphs(), graphs())
    def test_preserves_well_formedness(self, a, b):
        out = append_strict(a, b)
        assert rebuilt(out) == out


class TestAgainstOracle:
    """Each composite equals the flow-by-flow reading of its definition."""

    @pytest.mark.parametrize("op", [merge, append, append_strict], ids=lambda op: op.__name__)
    @given(graphs(), graphs())
    def test_composite_is_the_flow_by_flow_result(self, op, a, b):
        out = op(a, b)
        assert (out.interfaces, out.flows) == composite_by_flow(op.__name__, a, b)


class TestFolds:
    """Several graphs compose by ``functools.reduce`` over one operation."""

    def test_single_element(self):
        assert reduce(merge, [CR1]) == CR1
        assert reduce(append, [CR1]) == CR1

    def test_merge_order_independent(self):
        results = {
            reduce(merge, perm)
            for perm in itertools.permutations([CR1, CR2, FWD])
        }
        assert len(results) == 1

    def test_merge_absorbs_identity(self):
        assert reduce(merge, [CR1, CR2, EMPTY_CR]) == merge(CR1, CR2)

    def test_append_order_dependent_witness(self):
        assert reduce(append, [FWD, BWD]) == CommonRepresentation({X, Y}, {Flow(X, Y)})
        assert reduce(append, [BWD, FWD]) == CommonRepresentation({X, Y}, {Flow(Y, X)})
        assert reduce(append, [FWD, BWD]) != reduce(append, [BWD, FWD])

    def test_append_fold_is_left_nested(self):
        assert reduce(append, [CR1, CR2, FWD]) == append(append(CR1, CR2), FWD)
