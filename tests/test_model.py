import copy
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, strategies as st

from infoflow import (
    EMPTY_CR,
    CommonRepresentation,
    Explicit,
    Flow,
    GrantResult,
    Implicit,
    LatticePolicy,
    Mode,
    RbacSemantics,
    UnknownInterfaceError,
    append,
    append_strict,
    component_count,
    dumps,
    grant,
    is_lively,
    loads,
    merge,
    policy_to_cr,
    reachable,
    validate,
)
from infoflow import model
from infoflow.model import interface_key
from crgen import POOL, graphs, random_acl, random_capabilities, random_cr, random_rbac
from oracles import (
    dfs_reachable,
    pairwise_complementary_edges,
    union_find_component_count,
)

A = Implicit("a", "x")
B = Implicit("b", "x")
C = Implicit("c", "x")


def cr(interfaces, flows=()):
    return CommonRepresentation(interfaces=interfaces, flows=flows)


class TestInterfaces:
    def test_equality_is_structural(self):
        assert Implicit("a", "x") == Implicit("a", "x")
        assert Implicit("a", "x") != Implicit("a", "y")
        assert Explicit("a", Mode.R) != Explicit("a", Mode.W)

    def test_variants_never_equal(self):
        assert Explicit("a", Mode.R) != Implicit("a", "R")


class TestFlow:
    def test_self_flow_rejected(self):
        with pytest.raises(ValueError):
            Flow(A, A)

    def test_same_entity_different_modes_allowed(self):
        f = Flow(Explicit("o1", Mode.R), Explicit("o1", Mode.W))
        assert f.src.entity == f.dst.entity

    def test_inverse_swaps_endpoints(self):
        assert Flow(A, B).inverse() == Flow(B, A)

    def test_inverse_is_involution(self):
        assert Flow(A, B).inverse().inverse() == Flow(A, B)

    def test_inverse_keeps_mode_tags(self):
        x = Explicit("o1", Mode.R)
        y = Explicit("o1", Mode.W)
        assert Flow(x, y).inverse() == Flow(y, x)


class TestValidate:
    def test_well_formed(self):
        assert validate(cr({A, B}, {Flow(A, B)})) == []

    def test_dangling_endpoint(self):
        problems = validate(cr({A}, {Flow(A, B)}))
        assert len(problems) == 1
        assert "b#x" in problems[0]

    def test_both_endpoints_dangling(self):
        assert len(validate(cr(set(), {Flow(A, B)}))) == 2

    def test_empty_graph_is_well_formed(self):
        assert validate(EMPTY_CR) == []

    def test_empty_name_reported(self):
        problems = validate(cr({Implicit("", "x")}))
        assert len(problems) == 1 and "empty" in problems[0]

    def test_name_that_is_not_utf8_reported(self):
        problems = validate(cr({Implicit("a", "x\ud800"), Explicit("zoë", Mode.R)}))
        assert problems == ["interface 'a#x\\ud800' has a label that is not UTF-8 text"]

    def test_hash_in_entity_or_agent_reported(self):
        # Their tokens, 'a#b.R' and 'a#b#c', would read back as Implicit('a', ...).
        problems = validate(cr({Explicit("a#b", Mode.R), Implicit("a#b", "c"),
                                Implicit("a", "b#c")}))
        assert problems == [
            "interface 'a#b.R' has '#' in its entity",
            "interface 'a#b#c' has '#' in its agent",
        ]


class TestGrant:
    def test_permit_when_flow_present(self):
        assert grant(A, B, cr({A, B}, {Flow(A, B)})) is GrantResult.PERMIT

    def test_deny_reverse_direction(self):
        assert grant(B, A, cr({A, B}, {Flow(A, B)})) is GrantResult.DENY

    def test_undefined_outside_graph(self):
        assert grant(A, C, cr({A, B}, {Flow(A, B)})) is GrantResult.UNDEFINED

    def test_same_interface_denied(self):
        assert grant(A, A, cr({A})) is GrantResult.DENY

    @given(graphs(), st.sampled_from(POOL), st.sampled_from(POOL))
    def test_tristate_partition(self, g, i1, i2):
        result = grant(i1, i2, g)
        inside = i1 in g.interfaces and i2 in g.interfaces
        if not inside:
            assert result is GrantResult.UNDEFINED
        elif i1 != i2 and Flow(i1, i2) in g.flows:
            assert result is GrantResult.PERMIT
        else:
            assert result is GrantResult.DENY

    @given(graphs())
    def test_permit_gives_no_reverse_information(self, g):
        for f in g.flows:
            if f.inverse() not in g.flows:
                assert grant(f.dst, f.src, g) is GrantResult.DENY


def oracle_component_count(g):
    """Availability components by union-find over a pairwise scan for
    complementary flows, with no library helper."""
    return union_find_component_count(g.interfaces, pairwise_complementary_edges(g.flows))


class TestAvailability:
    """The availability graph, seen through ``component_count``."""

    def test_complementary_pair_becomes_edge(self):
        assert component_count(cr({A, B}, {Flow(A, B), Flow(B, A)})) == 1

    def test_one_way_flow_no_edge(self):
        assert component_count(cr({A, B}, {Flow(A, B)})) == 2

    def test_isolated_vertex_kept(self):
        assert component_count(cr({A, B, C}, {Flow(A, B), Flow(B, A)})) == 2

    @given(graphs())
    def test_edges_match_pairwise_scan(self, g):
        assert component_count(g) == oracle_component_count(g)


class TestLiveliness:
    def test_connected_pair_is_lively(self):
        assert is_lively(cr({A, B}, {Flow(A, B), Flow(B, A)}))

    def test_isolated_vertex_breaks_liveliness(self):
        assert not is_lively(cr({A, B, C}, {Flow(A, B), Flow(B, A)}))

    def test_single_vertex_is_lively(self):
        assert is_lively(cr({A}))

    def test_empty_graph_is_not_lively(self):
        assert not is_lively(EMPTY_CR)

    def test_one_way_flows_do_not_connect(self):
        assert not is_lively(cr({A, B}, {Flow(A, B)}))

    @given(graphs())
    def test_agrees_with_union_find(self, g):
        assert is_lively(g) == (oracle_component_count(g) == 1)


class TestReachable:
    def test_two_step_path(self):
        g = cr({A, B, C}, {Flow(A, B), Flow(B, C)})
        assert reachable(g, A, C)

    def test_no_reverse_path(self):
        g = cr({A, B, C}, {Flow(A, B), Flow(B, C)})
        assert not reachable(g, C, A)

    def test_reflexive(self):
        assert reachable(cr({A}), A, A)

    def test_unknown_interface_raises(self):
        with pytest.raises(UnknownInterfaceError, match="c#x"):
            reachable(cr({A, B}, {Flow(A, B)}), A, C)

    @given(graphs(max_interfaces=6))
    def test_agrees_with_dfs(self, g):
        for src in g.interfaces:
            for dst in g.interfaces:
                assert reachable(g, src, dst) == dfs_reachable(g.flows, src, dst)


FIELDS = {"interfaces", "flows"}


class TestIndex:
    """Queries share one index per graph value, built on the first query."""

    @given(graphs(max_interfaces=6), st.data())
    def test_repeated_queries_in_any_order_match_oracles(self, g, data):
        components = oracle_component_count(g)
        ordered = sorted(g.interfaces, key=interface_key)
        queries = st.one_of(
            st.just(None),
            st.tuples(st.sampled_from(ordered), st.sampled_from(ordered))
            if ordered else st.nothing(),
        )
        for query in data.draw(st.lists(queries, max_size=30)):
            if query is None:
                assert component_count(g) == components
                assert is_lively(g) == (components == 1)
            else:
                src, dst = query
                assert reachable(g, src, dst) == dfs_reachable(g.flows, src, dst)

    @given(graphs())
    def test_index_does_not_leak_into_equality_hash_or_output(self, g):
        before = dumps(g)
        is_lively(g)
        assert set(vars(g)) > FIELDS
        fresh = CommonRepresentation(g.interfaces, g.flows)
        assert set(vars(fresh)) == FIELDS
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh)
        assert dumps(g) == before == dumps(fresh)

    def test_undeclared_endpoint_joins_but_is_not_counted(self):
        g = cr({A, C}, {Flow(A, B), Flow(B, A), Flow(B, C), Flow(C, B)})
        assert component_count(g) == 1
        assert reachable(g, A, C)


LATTICE = LatticePolicy(
    labels={"l0", "l1", "l2"},
    order={("l0", "l1"), ("l1", "l2")},
    entities={"e0", "e1", "e2"},
    labelling={"e0": "l0", "e1": "l1", "e2": "l2"},
)


def queried_operands(rng):
    """Two random graphs whose indexes are already filled."""
    a, b = random_cr(rng), random_cr(rng)
    is_lively(a), is_lively(b)
    return a, b


# Graphs as the library hands them out: translations and composites.
BUILDERS = {
    "acl": lambda rng: policy_to_cr(random_acl(rng)),
    "capabilities": lambda rng: policy_to_cr(random_capabilities(rng)),
    "lbac": lambda rng: policy_to_cr(LATTICE),
    "rbac": lambda rng: policy_to_cr(random_rbac(rng), RbacSemantics.CROSS_OBJECT),
    "merge": lambda rng: merge(*queried_operands(rng)),
    "append": lambda rng: append(*queried_operands(rng)),
    "append_strict": lambda rng: append_strict(*queried_operands(rng)),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_index_is_built_on_first_query_only(name):
    g = BUILDERS[name](random.Random(7))
    assert set(vars(g)) == FIELDS
    grant(A, B, g)
    validate(g)
    assert set(vars(g)) == FIELDS
    is_lively(g)
    assert set(vars(g)) > FIELDS


def declared_endpoints_are_shared(g):
    """True iff every flow endpoint is the very object the graph declares."""
    declared = {id(iface) for iface in g.interfaces}
    return all(id(f.src) in declared and id(f.dst) in declared for f in g.flows)


class TestInterning:
    """One live object per interface value."""

    def test_equal_fields_give_one_object(self):
        entity = "".join(["o", "1"])  # a string object of its own
        assert Explicit(entity, Mode.R) is Explicit("o1", Mode.R)
        assert Explicit(entity=entity, mode=Mode.W) is Explicit("o1", Mode.W)
        assert Implicit("".join(["a", "g"]), "x") is Implicit("ag", "x")
        assert Explicit("o1", Mode.R) is not Explicit("o1", Mode.W)

    @pytest.mark.parametrize("name", BUILDERS)
    def test_flow_endpoints_are_the_declared_objects(self, name):
        g = BUILDERS[name](random.Random(11))
        assert g.flows
        assert declared_endpoints_are_shared(g)
        loaded = loads(dumps(g))
        assert loaded == g
        assert declared_endpoints_are_shared(loaded)

    def test_never_equal_to_a_tuple_or_the_other_variant(self):
        assert Explicit("a", Mode.R) != ("a", Mode.R)
        assert Implicit("a", "x") != ("a", "x")
        assert Explicit("a", Mode.R) != Implicit("a", "R")
        assert Implicit("a", "R") != Explicit("a", Mode.R)

    def test_hashing_is_by_identity(self):
        for cls in (Explicit, Implicit, Mode):
            assert cls.__hash__ is object.__hash__

    @pytest.mark.parametrize("iface", [Explicit("o", Mode.R), Implicit("a", "x")], ids=repr)
    def test_fields_cannot_be_assigned_or_deleted(self, iface):
        for name in iface.__match_args__:
            with pytest.raises(AttributeError):
                setattr(iface, name, "changed")
            with pytest.raises(AttributeError):
                delattr(iface, name)
        with pytest.raises(AttributeError):
            iface.other = 1

    def test_repr(self):
        assert repr(Explicit("o", Mode.R)) == "Explicit(entity='o', mode=<Mode.R: 'R'>)"
        assert repr(Implicit("a", "x")) == "Implicit(agent='a', label='x')"

    @pytest.mark.parametrize("iface", [Explicit("o", Mode.W), Implicit("a", "x")], ids=repr)
    def test_pickle_and_copies_return_the_interned_object(self, iface):
        assert pickle.loads(pickle.dumps(iface)) is iface
        assert copy.copy(iface) is iface
        assert copy.deepcopy(iface) is iface
        assert copy.deepcopy([iface])[0] is iface
        other = Implicit("other", "y")
        g = cr({iface, other}, {Flow(iface, other)})
        assert declared_endpoints_are_shared(pickle.loads(pickle.dumps(g)))

    def test_unused_interface_is_collected(self):
        name = "collected-" + "".join(random.choices("abcdef", k=12))
        iface = Implicit(name, "x")
        ref = weakref.ref(iface)
        del iface
        gc.collect()
        assert ref() is None
        assert (Implicit, name, "x") not in model._interned

    @pytest.mark.parametrize(
        "build",
        [lambda: Explicit("o", "R"), lambda: Explicit(1, Mode.R), lambda: Explicit("o", None),
         lambda: Implicit("a", 1), lambda: Implicit(None, "x"), lambda: Implicit("a", Mode.R)],
        ids=["mode-str", "entity-int", "mode-none", "label-int", "agent-none", "label-mode"],
    )
    def test_wrong_field_type_raises_type_error(self, build):
        before = set(model._interned)
        with pytest.raises(TypeError):
            build()
        assert set(model._interned) <= before

    def test_threads_racing_on_a_new_value_get_one_object(self):
        workers, rounds = 8, 200
        barrier = threading.Barrier(workers, timeout=10)
        got = [[None] * workers for _ in range(rounds)]

        def build(slot):
            for n in range(rounds):
                barrier.wait()
                got[n][slot] = Implicit(f"race-{n}", "t")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(slot,)) for slot in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for row in got:
            assert isinstance(row[0], Implicit)
            assert all(iface is row[0] for iface in row)
