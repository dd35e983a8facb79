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
    ValidationError,
    append,
    append_strict,
    component_count,
    conflicts,
    dumps,
    format_interface,
    grant,
    is_lively,
    loads,
    merge,
    policy_to_cr,
    reachable,
)
from infoflow import model
from infoflow.model import interface_key
from crgen import (
    POOL, fresh_index_view, graphs, index_view, random_acl, random_capabilities, random_cr,
    random_rbac, rebuilt,
)
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

    def test_equals_and_hashes_like_its_pair(self):
        assert Flow(A, B) == (A, B)
        assert hash(Flow(A, B)) == hash((A, B))
        assert Flow(A, B) != (B, A)

    def test_membership_works_both_ways(self):
        assert (A, B) in frozenset({Flow(A, B)})
        assert Flow(A, B) in {(A, B)}
        assert (B, A) not in frozenset({Flow(A, B)})

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_returns_an_equal_flow(self, protocol):
        back = pickle.loads(pickle.dumps(Flow(A, B), protocol))
        assert back == Flow(A, B) and type(back) is Flow
        assert back.src is A and back.dst is B

    def test_copies_return_an_equal_flow(self):
        for back in (copy.copy(Flow(A, B)), copy.deepcopy(Flow(A, B))):
            assert back == Flow(A, B) and type(back) is Flow

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_checks_the_endpoints(self, protocol):
        # Built past the constructor, as no caller should; the pickle must
        # still be rebuilt through it.
        forged = tuple.__new__(Flow, ("a", "b"))
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(forged, protocol))

    def test_class_pattern_matches_endpoints(self):
        match Flow(A, B):
            case Flow(src, dst):
                assert (src, dst) == (A, B)
            case _:
                pytest.fail("Flow(src, dst) did not match")

    def test_repr_names_the_fields(self):
        assert repr(Flow(A, B)) == f"Flow(src={A!r}, dst={B!r})"

    def test_fields_cannot_be_assigned(self):
        f = Flow(A, B)
        with pytest.raises(AttributeError):
            f.src = C
        assert f.src is A

    @pytest.mark.parametrize(
        "build",
        [lambda: Flow("a", "b"), lambda: Flow(A, "b"), lambda: Flow(None, B),
         lambda: Flow((A, B), C), lambda: Flow(A, Mode.R)],
        ids=["str-str", "iface-str", "none-iface", "tuple-iface", "iface-mode"],
    )
    def test_endpoint_that_is_not_an_interface_raises_type_error(self, build):
        with pytest.raises(TypeError):
            build()


def problems(interfaces, flows=()):
    """The text of the error constructing this graph raises."""
    with pytest.raises(ValidationError) as caught:
        cr(interfaces, flows)
    return str(caught.value)


def refusal(cls, *fields):
    """The text of the error constructing this interface raises."""
    with pytest.raises(ValidationError) as caught:
        cls(*fields)
    return str(caught.value)


class TestValidate:
    """Constructors check their values: an interface its names, and a graph
    its element types and that every flow endpoint is declared."""

    def test_well_formed(self):
        g = cr({A, B}, {Flow(A, B)})
        assert rebuilt(g) == g and g.flows == {(A, B)}

    def test_dangling_endpoint(self):
        assert problems({A}, {Flow(A, B)}) == "flow a#x -> b#x references undeclared interface b#x"

    def test_both_endpoints_dangling(self):
        assert problems(set(), {Flow(A, B), Flow(B, C)}) == (
            "flow a#x -> b#x references undeclared interface a#x; "
            "flow a#x -> b#x references undeclared interface b#x; "
            "flow b#x -> c#x references undeclared interface b#x; "
            "flow b#x -> c#x references undeclared interface c#x"
        )

    def test_empty_graph_is_well_formed(self):
        assert CommonRepresentation() == EMPTY_CR == cr(set(), set())

    def test_empty_name_reported(self):
        assert refusal(Explicit, "", Mode.W) == "interface '.W' has an empty entity"
        assert refusal(Implicit, "", "x") == "interface '#x' has an empty agent"
        assert refusal(Implicit, "a", "") == "interface 'a#' has an empty label"

    def test_name_that_is_not_utf8_reported(self):
        assert refusal(Explicit, "o\ud800", Mode.W) == (
            "interface 'o\\ud800.W' has an entity that is not UTF-8 text")
        assert refusal(Implicit, "a\ud800", "x") == (
            "interface 'a\\ud800#x' has an agent that is not UTF-8 text")
        assert refusal(Implicit, "a", "x\ud800") == (
            "interface 'a#x\\ud800' has a label that is not UTF-8 text")
        assert Explicit("zoë", Mode.R).entity == "zoë"

    def test_hash_in_entity_or_agent_reported(self):
        # Their tokens, 'a#b.R' and 'a#b#c', would read back as Implicit('a', ...).
        assert refusal(Explicit, "a#b", Mode.R) == "interface 'a#b.R' has '#' in its entity"
        assert refusal(Implicit, "a#b", "c") == "interface 'a#b#c' has '#' in its agent"
        assert Implicit("a", "b#c").label == "b#c"

    def test_only_the_first_bad_field_is_reported(self):
        assert refusal(Implicit, "", "") == "interface '#' has an empty agent"
        assert refusal(Implicit, "a#", "\ud800") == (
            "interface 'a##\\ud800' has '#' in its agent")
        assert refusal(Implicit, "\ud800#", "") == (
            "interface '\\ud800##' has an agent that is not UTF-8 text")

    def test_copies_and_rebuilds_check_too(self):
        # A changed graph is built with the constructor; copies and
        # unpickling rebuild through it.  Only the unchecked builder can
        # make the dangling graph.
        g = cr({A, B}, {Flow(A, B)})
        with pytest.raises(ValidationError, match="undeclared interface a#x$"):
            CommonRepresentation(g.interfaces - {A}, g.flows)
        dangling = model._graph({A}, {Flow(A, B)})
        for rebuild in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            with pytest.raises(ValidationError, match="undeclared interface b#x$"):
                rebuild(dangling)

    @pytest.mark.parametrize(
        "interfaces, flows, message",
        [
            # A plain self-pair skipped Flow's check: dumps wrote a file loads refused.
            ({A}, {(A, A)}, "flows must be Flow, got tuple"),
            # A string made dumps raise AttributeError and is_lively answer True.
            ({"x"}, (), "interfaces must be Explicit or Implicit, got str"),
            ({A, None}, (), "interfaces must be Explicit or Implicit, got NoneType"),
            ({A, B}, {(A, B)}, "flows must be Flow, got tuple"),
            ({A, B}, {Flow(A, B), "a -> b"}, "flows must be Flow, got str"),
        ],
        ids=["self-pair-flow", "str-interface", "none-interface", "pair-flow", "str-flow"],
    )
    def test_element_of_the_wrong_type_raises_type_error(self, interfaces, flows, message):
        with pytest.raises(TypeError, match=f"^CommonRepresentation {message}$"):
            cr(interfaces, flows)


class TestGraphValue:
    """A graph is an immutable value: equal and hashed by its two fields,
    printed and matched by them, and never reassigned."""

    def test_fields_cannot_be_assigned_or_deleted(self):
        g = cr({A, B}, {Flow(A, B)})
        for name in ("interfaces", "flows", "other"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(g, name, frozenset())
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(g, name)
        assert g.interfaces == {A, B} and g.flows == {(A, B)}

    def test_equality_and_hash_follow_the_fields(self):
        g = cr({A, B}, {Flow(A, B)})
        assert g == CommonRepresentation(flows=[Flow(A, B)], interfaces=[B, A])
        assert g != cr({A, B}) and g != cr({A, B, C}, {Flow(A, B)})
        assert hash(g) == hash((g.interfaces, g.flows))
        assert g != (g.interfaces, g.flows) and g.__eq__(None) is NotImplemented

    def test_repr_names_the_fields(self):
        assert repr(cr({A})) == f"CommonRepresentation(interfaces=frozenset({{{A!r}}}), flows=frozenset())"

    def test_match_by_position(self):
        match cr({A, B}, {Flow(A, B)}):
            case CommonRepresentation(interfaces, flows):
                assert interfaces == {A, B} and flows == {(A, B)}
            case _:
                pytest.fail("a graph matches its two fields by position")

    def test_replace_rebuilds_through_the_check(self):
        g = cr({A, B}, {Flow(A, B)})
        assert g.__replace__() == g and g.__replace__() is not g
        assert g.__replace__(flows=[Flow(B, A)]) == cr({A, B}, {Flow(B, A)})
        with pytest.raises(ValidationError, match="undeclared interface b#x$"):
            g.__replace__(interfaces={A})
        with pytest.raises(TypeError, match=r"^CommonRepresentation\.__init__\(\) got an unexpected"):
            g.__replace__(edges=())


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

    def test_non_interface_raises_type_error(self):
        g = cr({A, B}, {Flow(A, B)})
        for src, dst in ((format_interface(A), B), (A, format_interface(B))):
            with pytest.raises(TypeError) as caught:
                reachable(g, src, dst)
            assert str(caught.value) == "reachable takes interfaces, got str"

    @given(graphs(max_interfaces=6))
    def test_agrees_with_dfs(self, g):
        for src in g.interfaces:
            for dst in g.interfaces:
                assert reachable(g, src, dst) == dfs_reachable(g.flows, src, dst)


FIELDS = {"interfaces", "flows"}
INDEX = {"_index"}


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
        assert set(vars(g)) == FIELDS | INDEX
        fresh = CommonRepresentation(g.interfaces, g.flows)
        assert set(vars(fresh)) == FIELDS
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh)
        assert dumps(g) == before == dumps(fresh)

    @given(graphs())
    def test_pickle_and_copies_rebuild_without_the_index(self, g):
        query(g)
        copies = [pickle.loads(pickle.dumps(g, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in [*copies, copy.copy(g), copy.deepcopy(g)]:
            assert copied == g and set(vars(copied)) == FIELDS
            assert declared_endpoints_are_shared(copied)

    def test_unpickling_checks_the_graph(self):
        # Only the unchecked builder can make this graph; the constructor refuses it.
        dangling = model._graph({A}, {Flow(A, B)})
        with pytest.raises(ValidationError, match="undeclared interface b#x"):
            pickle.loads(pickle.dumps(dangling))
        with pytest.raises(ValidationError, match="undeclared interface b#x"):
            copy.copy(dangling)

    @given(graphs(), st.data())
    def test_undeclared_and_sink_only_endpoints_match_oracles(self, full, data):
        # The flows keep every endpoint, but only a random subset is declared:
        # the graph exists only when that subset is all of them, and then
        # its sink-only interfaces count like any other.
        ordered = sorted(full.interfaces, key=interface_key)
        declared = data.draw(st.sets(st.sampled_from(ordered))) if ordered else set()
        undeclared = {(flow, end) for flow in full.flows for end in flow if end not in declared}
        if undeclared:
            with pytest.raises(ValidationError) as caught:
                cr(declared, full.flows)
            assert str(caught.value).count("references undeclared interface") == len(undeclared)
            return
        g = cr(declared, full.flows)
        assert component_count(g) == oracle_component_count(g)
        for src in declared:
            for dst in declared:
                assert reachable(g, src, dst) == dfs_reachable(g.flows, src, dst)


LATTICE = LatticePolicy(
    labels={"l0", "l1", "l2"},
    order={("l0", "l1"), ("l1", "l2")},
    entities={"e0", "e1", "e2"},
    labelling={"e0": "l0", "e1": "l1", "e2": "l2"},
)


def query(g):
    """Fill the whole index of ``g`` through its queries."""
    is_lively(g)
    for src in g.interfaces:
        for dst in g.interfaces:
            reachable(g, src, dst)
    return g


TRANSLATIONS = {
    "acl": lambda rng: policy_to_cr(random_acl(rng)),
    "capabilities": lambda rng: policy_to_cr(random_capabilities(rng)),
    "lbac": lambda rng: policy_to_cr(LATTICE),
    "rbac": lambda rng: policy_to_cr(random_rbac(rng), RbacSemantics.CROSS_OBJECT),
}
COMPOSERS = {"merge": merge, "append": append, "append_strict": append_strict}
BUILDERS = [*TRANSLATIONS, *COMPOSERS]


def built(name, rng, queried):
    """A graph as the library hands it out: a translation, or a composite of
    two random graphs whose first operand is ``queried`` or not."""
    if name in TRANSLATIONS:
        return TRANSLATIONS[name](rng)
    a, b = random_cr(rng), random_cr(rng)
    return COMPOSERS[name](query(a) if queried else a, b)


@pytest.mark.parametrize("name", BUILDERS)
def test_index_is_built_on_first_query_only(name):
    """A translation, or a composite of unqueried operands, has no index
    until its first query."""
    g = built(name, random.Random(7), queried=False)
    assert set(vars(g)) == FIELDS
    grant(A, B, g)
    assert set(vars(g)) == FIELDS
    is_lively(g)
    assert set(vars(g)) == FIELDS | INDEX
    assert index_view(g) == fresh_index_view(g)


@pytest.mark.parametrize("name", COMPOSERS)
def test_composite_of_an_indexed_operand_carries_an_index(name):
    rng = random.Random(7)
    a, b = query(random_cr(rng)), random_cr(rng)
    assert set(vars(a)) == FIELDS | INDEX
    g = COMPOSERS[name](a, b)
    assert set(vars(g)) == FIELDS | INDEX
    assert index_view(g) == fresh_index_view(g)
    assert component_count(g) == oracle_component_count(g)


# Whether a graph has its index built before it joins the next one.
FILLS = [False, True]


def index_snapshot(g):
    """A copy of the index of ``g``: its rows in order, and its parent links."""
    rows, parent = vars(g)["_index"]
    return {src: tuple(row) for src, row in rows.items()}, dict(parent)


@pytest.mark.parametrize("name", COMPOSERS)
@given(graphs(), st.sampled_from(FILLS),
       st.lists(st.tuples(graphs(), st.sampled_from(FILLS)), max_size=10))
def test_inherited_index_equals_a_fresh_one(name, g, fill, joins):
    """In a fold of indexed and unindexed operands, each composite holds the
    whole index when its first operand has one and no index otherwise.  An
    inherited index leaves the operand's as it was, and its rows and
    partition classes equal a fresh index's and give the oracles' answers."""
    if fill:
        is_lively(g)
    for b, fill in joins:
        a, indexed = g, "_index" in vars(g)
        before = index_snapshot(a) if indexed else None
        g = COMPOSERS[name](a, b)
        assert set(vars(g)) == (FIELDS | INDEX if indexed else FIELDS)
        if indexed:
            assert index_snapshot(a) == before
            rows, _parent = vars(g)["_index"]
            assert all(len(set(row)) == len(row) for row in rows.values())
            assert index_view(g) == fresh_index_view(g)
        # A view sharing g's index, if any: queries on it leave g as it is.
        view = model._graph(g.interfaces, g.flows)
        if indexed:
            vars(view)["_index"] = vars(g)["_index"]
        assert component_count(view) == oracle_component_count(g)
        for src in g.interfaces:
            for dst in g.interfaces:
                assert reachable(view, src, dst) == dfs_reachable(g.flows, src, dst)
        if fill:
            is_lively(g)


@given(st.lists(graphs(max_interfaces=6), min_size=1, max_size=4), st.data())
def test_every_graph_holds_no_index_or_the_whole_one(start, data):
    """After any mix of queries, conflict checks and composites, each graph
    holds either no index or the whole one, equal to a fresh index."""
    pool = list(start)
    steps = st.sampled_from(["grant", "reachable", "component_count", "conflicts", *COMPOSERS])
    for step in data.draw(st.lists(steps, max_size=20)):
        g, other = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        ordered = sorted(g.interfaces, key=interface_key)
        if step in COMPOSERS:
            pool.append(COMPOSERS[step](g, other))
        elif step == "conflicts":
            conflicts(g, other)
        elif step == "component_count":
            component_count(g)
        elif step == "grant":
            grant(A, B, g)
        elif ordered:
            reachable(g, data.draw(st.sampled_from(ordered)), data.draw(st.sampled_from(ordered)))
        for h in pool:
            assert set(vars(h)) in (FIELDS, FIELDS | INDEX)
            assert index_view(h) in (None, fresh_index_view(h))


def answers(g, count, reach):
    ordered = sorted(g.interfaces, key=interface_key)
    return count(g), [reach(g, src, dst) for src in ordered for dst in ordered]


def test_threads_querying_one_composite_get_the_oracle_answers():
    workers, rounds = 4, 50
    rng = random.Random(5)
    # Half the first operands are left unqueried, so the threads race to
    # build each composite's whole index; the other half are queried, so the
    # threads only read the index each composite inherited.
    composites = []
    for n in range(rounds):
        a = random_cr(rng)
        if n % 2:
            is_lively(a)
        composites.append(append(a, random_cr(rng)))
    assert [set(vars(g)) for g in composites] == [
        FIELDS | INDEX if n % 2 else FIELDS for n in range(rounds)]
    expected = [answers(g, oracle_component_count, lambda g, s, d: dfs_reachable(g.flows, s, d))
                for g in composites]
    barrier = threading.Barrier(workers, timeout=10)
    got = [[None] * workers for _ in range(rounds)]

    def query_all(slot):
        for n, g in enumerate(composites):
            barrier.wait()
            got[n][slot] = answers(g, component_count, reachable)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query_all, args=(slot,)) for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[want] * workers for want in expected]
    assert all(index_view(g) == fresh_index_view(g) for g in composites)


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
        g = built(name, random.Random(11), queried=True)
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

    @pytest.mark.parametrize(
        "iface, key",
        [(Explicit("o", Mode.R), ("explicit", "o", "R")),
         (Implicit("a", "x"), ("implicit", "a", "x"))],
        ids=["explicit", "implicit"],
    )
    def test_interned_under_its_interface_key(self, iface, key):
        assert interface_key(iface) == key
        assert model._interned[interface_key(iface)]() is iface

    def test_unused_interface_is_collected(self):
        name = "collected-" + "".join(random.choices("abcdef", k=12))
        iface = Implicit(name, "x")
        key = interface_key(iface)
        assert model._interned[key]() is iface
        ref = weakref.ref(iface)
        del iface
        gc.collect()
        assert ref() is None
        assert key not in model._interned
        assert all(entry() is not None for entry in model._interned.values())

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

    @pytest.mark.parametrize(
        "cls, first, second",
        [(Explicit, "", Mode.R), (Explicit, "o\ud800", Mode.W), (Explicit, "o#", Mode.W),
         (Implicit, "a", ""), (Implicit, "a", "x\ud800"), (Implicit, "a#", "x")],
        ids=["entity-empty", "entity-not-utf8", "entity-hash", "label-empty", "label-not-utf8",
             "agent-hash"],
    )
    def test_refused_name_leaves_no_entry(self, cls, first, second):
        key = (cls.__name__.lower(), first, getattr(second, "value", second))
        with pytest.raises(ValidationError):
            cls(first, second)
        assert key not in model._interned

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
