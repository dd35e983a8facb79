import dataclasses
import random
import re
import sys

import pytest
from hypothesis import given, strategies as st

from infoflow import policies
from infoflow import (
    AclPolicy,
    CapabilityPolicy,
    Explicit,
    Flow,
    Implicit,
    LatticePolicy,
    Mode,
    RbacPolicy,
    RbacSemantics,
    SchemaError,
    ValidationError,
    acl_to_cr,
    capability_to_cr,
    lattice_dominates,
    lbac_to_cr,
    policy_from_dict,
    policy_to_cr,
    rbac_privileges,
    rbac_seniority,
    rbac_to_cr,
    transpose_capabilities,
    validate,
)
from crgen import random_acl, random_capabilities, random_rbac
from oracles import dfs_closure, enumerate_listing_flows

R, W = Mode.R, Mode.W


def ex(name, mode):
    return Explicit(name, mode)


# A 3x3 access matrix exercising every rule:
#        o1   o2   o3
#   s1   r    w    rw
#   s2   -    w    r
#   s3   rw   -    r
MATRIX = {
    ("o1", "s1"): "r",
    ("o2", "s1"): "w",
    ("o3", "s1"): "rw",
    ("o2", "s2"): "w",
    ("o3", "s2"): "r",
    ("o1", "s3"): "rw",
    ("o3", "s3"): "r",
}

MATRIX_POLICY = AclPolicy(
    objects={"o1", "o2", "o3"},
    subjects={"s1", "s2", "s3"},
    entries={
        "o1": {("s1", R), ("s3", R), ("s3", W)},
        "o2": {("s1", W), ("s2", W)},
        "o3": {("s1", R), ("s1", W), ("s2", R), ("s3", R)},
    },
)

MATRIX_FLOWS = {
    Flow(ex("s1", R), ex("o2", W)),
    Flow(ex("s1", R), ex("o3", W)),
    Flow(ex("s2", R), ex("o2", W)),
    Flow(ex("s3", R), ex("o1", W)),
    Flow(ex("o1", R), ex("s1", W)),
    Flow(ex("o3", R), ex("s1", W)),
    Flow(ex("o3", R), ex("s2", W)),
    Flow(ex("o1", R), ex("s3", W)),
    Flow(ex("o3", R), ex("s3", W)),
}


class TestAclTranslation:
    def test_matrix_flows_exactly(self):
        cr = acl_to_cr(MATRIX_POLICY)
        assert len(cr.interfaces) == 12
        assert cr.flows == frozenset(MATRIX_FLOWS)

    def test_matrix_against_triple_enumeration(self):
        cr = acl_to_cr(MATRIX_POLICY)

        def granted(obj, subj, mode):
            letter = "r" if mode is R else "w"
            return letter in MATRIX.get((obj, subj), "")

        expected = enumerate_listing_flows(
            MATRIX_POLICY.objects, MATRIX_POLICY.subjects, granted
        )
        assert cr.flows == frozenset(expected)

    def test_no_entries_means_no_flows(self):
        cr = acl_to_cr(AclPolicy(objects={"o1"}, subjects={"s1"}, entries={}))
        assert cr.flows == frozenset()
        assert cr.interfaces == frozenset(
            {ex("o1", R), ex("o1", W), ex("s1", R), ex("s1", W)}
        )

    def test_single_read_entry(self):
        cr = acl_to_cr(
            AclPolicy(objects={"o1"}, subjects={"s1"}, entries={"o1": {("s1", R)}})
        )
        assert cr.flows == frozenset({Flow(ex("o1", R), ex("s1", W))})

    def test_output_is_well_formed(self):
        assert validate(acl_to_cr(MATRIX_POLICY)) == []

    def test_soundness_on_random_policies(self):
        rng = random.Random(7)
        for _ in range(200):
            policy = random_acl(rng)
            cr = acl_to_cr(policy)

            def granted(obj, subj, mode):
                return (subj, mode) in policy.entries.get(obj, frozenset())

            expected = enumerate_listing_flows(policy.objects, policy.subjects, granted)
            assert cr.flows == frozenset(expected)
            assert validate(cr) == []


class TestAclValidation:
    def test_object_subject_collision(self):
        with pytest.raises(ValidationError, match="both"):
            AclPolicy(objects={"x"}, subjects={"x"}, entries={})

    def test_undeclared_subject_in_entry(self):
        with pytest.raises(ValidationError, match="'s'"):
            AclPolicy(objects={"o"}, subjects=set(), entries={"o": {("s", R)}})

    def test_entry_key_must_be_declared(self):
        with pytest.raises(ValidationError, match="'o'"):
            AclPolicy(objects=set(), subjects={"s"}, entries={"o": {("s", R)}})

    def test_replace_with_invalid_field_raises(self):
        with pytest.raises(ValidationError, match="both"):
            dataclasses.replace(MATRIX_POLICY, subjects={"o1"})


class TestGrantsAreNameModePairs:
    """A grant's mode is checked at construction: a string mode used to pass
    and be read as a read grant (or, for roles, as no grant at all)."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: AclPolicy(objects={"o"}, subjects={"s"}, entries={"o": {("s", "W")}}),
            lambda: AclPolicy(objects={"o"}, subjects={"s"}, entries={"o": {("s", "X")}}),
            lambda: AclPolicy(objects={"o"}, subjects={"s"}, entries={"o": {"sW"}}),
            lambda: AclPolicy(objects={"o"}, subjects={"s"}, entries={"o": {("s", R, W)}}),
            lambda: AclPolicy(objects={"o"}, subjects={"s"}, entries={"o": {(1, R)}}),
            lambda: CapabilityPolicy(objects={"o"}, subjects={"s"}, entries={"s": {("o", "R")}}),
            lambda: RbacPolicy(roles={"r"}, assignments={"r": {("o", "R"), ("o", "W")}},
                               hierarchy=set()),
            lambda: dataclasses.replace(MATRIX_POLICY, entries={"o1": {("s1", "W")}}),
        ],
        ids=["acl-str-mode", "acl-unknown-mode", "acl-str-grant", "acl-triple", "acl-int-name",
             "capabilities-str-mode", "rbac-str-modes", "replace-str-mode"],
    )
    def test_grant_that_is_not_a_name_mode_pair_raises_type_error(self, build):
        with pytest.raises(TypeError, match="grant"):
            build()


class TestCapabilityTranslation:
    def test_matches_object_keyed_form(self):
        rng = random.Random(13)
        for _ in range(200):
            policy = random_capabilities(rng)
            assert capability_to_cr(policy) == acl_to_cr(transpose_capabilities(policy))

    def test_matrix_transposed_gives_same_graph(self):
        by_subject = {}
        for (obj, subj), letters in MATRIX.items():
            for letter in letters:
                mode = R if letter == "r" else W
                by_subject.setdefault(subj, set()).add((obj, mode))
        policy = CapabilityPolicy(
            objects={"o1", "o2", "o3"}, subjects={"s1", "s2", "s3"}, entries=by_subject
        )
        assert capability_to_cr(policy) == acl_to_cr(MATRIX_POLICY)

    def test_single_write_capability(self):
        policy = CapabilityPolicy(
            objects={"o1"}, subjects={"s1"}, entries={"s1": {("o1", W)}}
        )
        assert capability_to_cr(policy).flows == frozenset(
            {Flow(ex("s1", R), ex("o1", W))}
        )

    def test_empty_capability_list(self):
        policy = CapabilityPolicy(objects={"o1"}, subjects={"s1"}, entries={})
        assert capability_to_cr(policy).flows == frozenset()

    def test_invalid_policy_raises(self):
        # An empty list under an undeclared subject vanishes when the grants
        # are regrouped by object, so only the subject-keyed check sees it.
        with pytest.raises(ValidationError, match="'ghost'"):
            CapabilityPolicy(objects={"o1"}, subjects={"s1"}, entries={"ghost": set()})


def exactly(message):
    return f"^{re.escape(message)}$"


class TestNamesMustBeUtf8:
    def test_listing_name(self):
        with pytest.raises(ValidationError,
                           match=exactly("object name 'o\\ud800' is not UTF-8 text")):
            AclPolicy(objects={"o\ud800"}, subjects={"s"}, entries={})

    def test_lattice_entity(self):
        with pytest.raises(ValidationError, match="not UTF-8"):
            LatticePolicy(labels={"l"}, order=set(), entities={"\udc80"},
                          labelling={"\udc80": "l"})

    def test_rbac_assigned_object(self):
        with pytest.raises(ValidationError,
                           match=exactly("assigned object name 'o\\ud800' is not UTF-8 text")):
            RbacPolicy(roles={"r"}, assignments={"r": {("o\ud800", R)}}, hierarchy=set())

    def test_non_ascii_is_fine(self):
        policy = AclPolicy(objects={"zoë"}, subjects={"\u2028"}, entries={})
        assert policy.objects == {"zoë"} and policy.subjects == {"\u2028"}


class TestInterfaceNamesHoldNoHash:
    """A '#' in an entity or agent name would make its query token read back
    as a different interface, so construction rejects it."""

    def test_listing_names(self):
        with pytest.raises(ValidationError, match=exactly(
                "object name 'o#1' contains '#'; subject name 'a#b' contains '#'")):
            AclPolicy(objects={"o#1"}, subjects={"a#b", "s"}, entries={})
        with pytest.raises(ValidationError, match=exactly("subject name 's#' contains '#'")):
            CapabilityPolicy(objects={"o"}, subjects={"s#"}, entries={})

    def test_lattice_entity(self):
        with pytest.raises(ValidationError, match=exactly("entity name 'e#x' contains '#'")):
            LatticePolicy(labels={"l"}, order=set(), entities={"e#x"}, labelling={"e#x": "l"})

    def test_rbac_assigned_object(self):
        with pytest.raises(ValidationError,
                           match=exactly("assigned object name 'o#' contains '#'")):
            RbacPolicy(roles={"r"}, assignments={"r": {("o#", R)}}, hierarchy=set())

    def test_labels_and_roles_may_hold_it(self):
        # Lattice labels and role names never become interface names.
        p = LatticePolicy(labels={"l#1"}, order=set(), entities={"e"}, labelling={"e": "l#1"})
        assert lbac_to_cr(p).interfaces == {Implicit("e", "lbac")}
        r = RbacPolicy(roles={"r#1"}, assignments={"r#1": {("o", R)}}, hierarchy=set())
        assert rbac_privileges(r, "r#1") == {("o", R)}


def lattice(entities_by_label, order):
    labels = set()
    for low, high in order:
        labels |= {low, high}
    labels |= set(entities_by_label.values())
    return LatticePolicy(
        labels=labels,
        order=set(order),
        entities=set(entities_by_label),
        labelling=entities_by_label,
    )


class TestLattice:
    def test_direct_cover_dominates(self):
        p = lattice({"A": "low"}, [("low", "high")])
        assert lattice_dominates(p, "low", "high")
        assert not lattice_dominates(p, "high", "low")

    def test_reflexive(self):
        p = lattice({"A": "low"}, [("low", "high")])
        assert lattice_dominates(p, "low", "low")

    def test_transitive_chain(self):
        p = lattice({"A": "a"}, [("a", "b"), ("b", "c")])
        assert lattice_dominates(p, "a", "c")

    def test_unknown_label_raises(self):
        p = lattice({"A": "low"}, [("low", "high")])
        with pytest.raises(ValueError, match="unknown label"):
            lattice_dominates(p, "low", "nope")

    def test_antisymmetry_violation_rejected(self):
        with pytest.raises(ValidationError, match="antisymmetric"):
            lattice({"A": "a"}, [("a", "b"), ("b", "a")])

    def test_cycle_through_three_labels_rejected(self):
        with pytest.raises(ValidationError, match=exactly(
                "order is not antisymmetric: 'a' and 'b' dominate each other; "
                "order is not antisymmetric: 'a' and 'c' dominate each other; "
                "order is not antisymmetric: 'b' and 'c' dominate each other")):
            lattice({"A": "a"}, [("a", "b"), ("b", "c"), ("c", "a")])

    @given(st.data())
    def test_dominance_agrees_with_dfs_on_random_acyclic_orders(self, data):
        size = data.draw(st.integers(1, 8))
        # Pairs run from earlier to later in a shuffled order, so the order
        # is acyclic but not the order of the names.
        labels = data.draw(st.permutations([f"l{n}" for n in range(size)]))
        pairs = [(labels[i], labels[j]) for i in range(size) for j in range(i + 1, size)]
        order = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        p = LatticePolicy(labels=set(labels), order=order, entities={"e"},
                          labelling={"e": labels[0]})
        closure = dfs_closure(labels, order)
        for l1 in labels:
            for l2 in labels:
                assert lattice_dominates(p, l1, l2) == (l1 == l2 or (l1, l2) in closure)

    def test_unlabelled_entity_rejected(self):
        with pytest.raises(ValidationError, match="no label"):
            LatticePolicy(labels={"low"}, order=set(), entities={"A"}, labelling={})


def lbac_flow(a, b):
    return Flow(Implicit(a, "lbac"), Implicit(b, "lbac"))


class TestLbacTranslation:
    def test_two_level_example(self):
        p = lattice({"A": "low", "B": "high", "C": "high"}, [("low", "high")])
        cr = lbac_to_cr(p)
        assert cr.interfaces == frozenset(
            {Implicit("A", "lbac"), Implicit("B", "lbac"), Implicit("C", "lbac")}
        )
        assert cr.flows == frozenset(
            {
                lbac_flow("A", "B"),
                lbac_flow("A", "C"),
                lbac_flow("B", "C"),
                lbac_flow("C", "B"),
            }
        )

    def test_single_entity_no_flows(self):
        p = lattice({"A": "low"}, [])
        assert lbac_to_cr(p).flows == frozenset()

    def test_incomparable_labels_no_flows(self):
        p = lattice({"X": "p", "Y": "q"}, [])
        assert lbac_to_cr(p).flows == frozenset()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chain_flow_count(self, n):
        labels = [f"l{i}" for i in range(n)]
        order = list(zip(labels, labels[1:]))
        entities = {f"e{i}": labels[i] for i in range(n)}
        cr = lbac_to_cr(lattice(entities, order))
        assert len(cr.flows) == n * (n - 1) // 2

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_equal_labels_flow_both_ways(self, k):
        entities = {f"e{i}": "only" for i in range(k)}
        cr = lbac_to_cr(lattice(entities, []))
        assert len(cr.flows) == k * (k - 1)

    def test_output_is_well_formed(self):
        p = lattice({"A": "low", "B": "high"}, [("low", "high")])
        assert validate(lbac_to_cr(p)) == []


def rbac(roles, assignments, hierarchy):
    return RbacPolicy(roles=roles, assignments=assignments, hierarchy=hierarchy)


def seniority_pairs(p):
    """Every (senior, junior) pair of the hierarchy's closure, from ``rbac_seniority``."""
    return {(role, junior) for role in p.roles for junior in rbac_seniority(p, role)}


@st.composite
def acyclic_rbac(draw):
    size = draw(st.integers(1, 9))
    # Pairs run from earlier to later in a shuffled order, so the
    # hierarchy is acyclic but its order is not the order of the names.
    roles = draw(st.permutations([f"r{n}" for n in range(size)]))
    pairs = [(roles[i], roles[j]) for i in range(size) for j in range(i + 1, size)]
    hierarchy = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    grants = st.frozensets(st.tuples(st.sampled_from(["o1", "o2", "o3"]), st.sampled_from(Mode)))
    return rbac(set(roles), draw(st.dictionaries(st.sampled_from(roles), grants)), hierarchy)


def reference_privileges(p, closure, role):
    """The role's grants plus those of every junior in ``closure``, an oracle's pair set."""
    privileges = set(p.assignments.get(role, ()))
    for senior, junior in closure:
        if senior == role:
            privileges |= p.assignments.get(junior, frozenset())
    return privileges


class TestRbacHierarchy:
    def test_closure_adds_transitive_pair(self):
        p = rbac({"a", "b", "c"}, {}, {("a", "b"), ("b", "c")})
        assert seniority_pairs(p) == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_closure_of_empty_hierarchy(self):
        assert seniority_pairs(rbac({"a"}, {}, set())) == set()

    def test_closure_already_closed(self):
        p = rbac({"a", "b"}, {}, {("a", "b")})
        assert seniority_pairs(p) == {("a", "b")}

    def test_closure_matches_dfs_on_random_dags(self):
        rng = random.Random(23)
        for _ in range(200):
            policy = random_rbac(rng)
            assert seniority_pairs(policy) == dfs_closure(sorted(policy.roles), policy.hierarchy)

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            rbac({"a", "b"}, {}, {("a", "b"), ("b", "a")})

    def test_cycle_is_named_by_its_smallest_role(self):
        # 'a' is senior to the cycle but not on it.
        with pytest.raises(ValidationError,
                           match=exactly("hierarchy contains a cycle through 'b'")):
            rbac({"a", "b", "c"}, {}, {("a", "b"), ("b", "c"), ("c", "b")})

    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError, match="own junior"):
            rbac({"a"}, {}, {("a", "a")})

    def test_chain_deeper_than_the_recursion_limit(self):
        depth = 1500
        assert depth > sys.getrecursionlimit()
        roles = [f"r{n:04d}" for n in range(depth)]
        p = rbac(set(roles), {roles[-1]: {("o", R)}, roles[0]: {("o", W)}},
                 set(zip(roles, roles[1:])))
        assert rbac_seniority(p, roles[0]) == frozenset(roles[1:])
        assert rbac_privileges(p, roles[0]) == {("o", R), ("o", W)}
        assert rbac_to_cr(p, RbacSemantics.CROSS_OBJECT).flows == {
            Flow(ex("o", R), ex("o", W))}

    def test_seniority(self):
        p = rbac({"a", "b", "c"}, {}, {("a", "b"), ("b", "c")})
        assert rbac_seniority(p, "a") == frozenset({"b", "c"})
        assert rbac_seniority(p, "b") == frozenset({"c"})
        assert rbac_seniority(p, "c") == frozenset()

    def test_seniority_unknown_role(self):
        with pytest.raises(ValueError, match="unknown role"):
            rbac_seniority(rbac({"a"}, {}, set()), "zz")

    def test_privileges_union(self):
        p = rbac(
            {"a", "b"},
            {"a": {("o2", W)}, "b": {("o1", R)}},
            {("a", "b")},
        )
        assert rbac_privileges(p, "a") == frozenset({("o2", W), ("o1", R)})
        assert rbac_privileges(p, "b") == frozenset({("o1", R)})

    def test_privileges_of_bare_role(self):
        assert rbac_privileges(rbac({"a"}, {}, set()), "a") == frozenset()

    @given(acyclic_rbac())
    def test_walks_agree_with_closure_on_random_acyclic_hierarchies(self, p):
        closure = dfs_closure(p.roles, p.hierarchy)
        for role in p.roles:
            juniors = frozenset(j for s, j in closure if s == role)
            assert rbac_seniority(p, role) == juniors
            assert rbac_privileges(p, role) == reference_privileges(p, closure, role)

    def test_privileges_monotone_along_hierarchy(self):
        rng = random.Random(31)
        for _ in range(100):
            policy = random_rbac(rng)
            for senior, junior in seniority_pairs(policy):
                assert rbac_privileges(policy, senior) >= rbac_privileges(policy, junior)


class TestRbacTranslation:
    def test_same_object_both_modes(self):
        p = rbac({"r"}, {"r": {("o1", R), ("o1", W)}}, set())
        assert rbac_to_cr(p).flows == frozenset({Flow(ex("o1", R), ex("o1", W))})

    def test_inherited_modes_cross_object(self):
        p = rbac({"a", "b"}, {"a": {("o2", W)}, "b": {("o1", R)}}, {("a", "b")})
        assert rbac_to_cr(p, RbacSemantics.LITERAL).flows == frozenset()
        assert rbac_to_cr(p, RbacSemantics.CROSS_OBJECT).flows == frozenset(
            {Flow(ex("o1", R), ex("o2", W))}
        )

    def test_read_only_role_yields_nothing(self):
        p = rbac({"r"}, {"r": {("o1", R)}}, set())
        assert rbac_to_cr(p, RbacSemantics.LITERAL).flows == frozenset()
        assert rbac_to_cr(p, RbacSemantics.CROSS_OBJECT).flows == frozenset()

    def test_literal_is_the_default(self):
        p = rbac({"a", "b"}, {"a": {("o2", W)}, "b": {("o1", R)}}, {("a", "b")})
        assert rbac_to_cr(p) == rbac_to_cr(p, RbacSemantics.LITERAL)

    def test_mentioned_objects_get_both_interfaces(self):
        p = rbac({"r"}, {"r": {("o1", W)}}, set())
        assert rbac_to_cr(p).interfaces == frozenset({ex("o1", R), ex("o1", W)})

    def test_unknown_semantics_rejected(self):
        p = rbac({"r"}, {}, set())
        with pytest.raises(ValueError, match="semantics"):
            rbac_to_cr(p, "literal")

    @given(acyclic_rbac())
    def test_both_semantics_match_a_per_role_reference(self, p):
        closure = dfs_closure(p.roles, p.hierarchy)
        literal, cross = set(), set()
        for role in p.roles:
            privileges = reference_privileges(p, closure, role)
            readable = {o for o, m in privileges if m is R}
            writable = {o for o, m in privileges if m is W}
            literal |= {Flow(ex(o, R), ex(o, W)) for o in readable & writable}
            cross |= {Flow(ex(r, R), ex(w, W)) for r in readable for w in writable}
        assert rbac_to_cr(p, RbacSemantics.LITERAL).flows == literal
        assert rbac_to_cr(p, RbacSemantics.CROSS_OBJECT).flows == cross

    def test_wide_overlapping_hierarchy_cross_object(self):
        # 150 roles, each senior to the next three, each holding 3 random
        # grants over 300 objects: every role has up to 150 juniors.
        rng = random.Random(1)
        roles = [f"r{i}" for i in range(150)]
        hierarchy = {(roles[i], roles[j]) for i in range(150) for j in range(i + 1, min(i + 4, 150))}
        assignments = {
            role: {(f"o{rng.randrange(300)}", rng.choice((R, W))) for _ in range(3)}
            for role in roles
        }
        p = rbac(set(roles), assignments, hierarchy)
        assert len(rbac_to_cr(p, RbacSemantics.CROSS_OBJECT).flows) == 25_596

    def test_literal_subset_of_cross_object(self):
        rng = random.Random(41)
        for _ in range(200):
            policy = random_rbac(rng)
            literal = rbac_to_cr(policy, RbacSemantics.LITERAL)
            cross = rbac_to_cr(policy, RbacSemantics.CROSS_OBJECT)
            assert literal.flows <= cross.flows
            assert literal.interfaces == cross.interfaces
            assert validate(literal) == []
            assert validate(cross) == []


# One valid document per family, each with at least one grant or order pair.
DOCS = {
    "acl": {"kind": "acl", "objects": ["o1"], "subjects": ["s1"],
            "entries": {"o1": [["s1", "R"]]}},
    "capabilities": {"kind": "capabilities", "objects": ["o1"], "subjects": ["s1"],
                     "entries": {"s1": [["o1", "W"]]}},
    "lbac": {"kind": "lbac", "labels": ["low", "high"], "order": [["low", "high"]],
             "entities": ["A", "B"], "labelling": {"A": "low", "B": "high"}},
    "rbac": {"kind": "rbac", "roles": ["a", "b"], "assignments": {"b": [["o1", "R"]]},
             "hierarchy": [["a", "b"]]},
}
CLASSES = {"acl": AclPolicy, "capabilities": CapabilityPolicy, "lbac": LatticePolicy,
           "rbac": RbacPolicy}


class TestPolicyLoading:
    @pytest.mark.parametrize("kind", sorted(DOCS))
    def test_validates_once(self, monkeypatch, kind):
        calls = []
        original = policies._check_valid
        monkeypatch.setattr(policies, "_check_valid", lambda p: calls.append(p) or original(p))
        policy_to_cr(policy_from_dict(DOCS[kind]))
        assert len(calls) == 1 and type(calls[0]) is CLASSES[kind]

    def test_acl_document(self):
        policy = policy_from_dict(
            {
                "kind": "acl",
                "objects": ["o1"],
                "subjects": ["s1"],
                "entries": {"o1": [["s1", "R"]]},
            }
        )
        assert isinstance(policy, AclPolicy)
        assert policy.entries["o1"] == frozenset({("s1", R)})

    def test_capabilities_document(self):
        policy = policy_from_dict(
            {
                "kind": "capabilities",
                "objects": ["o1"],
                "subjects": ["s1"],
                "entries": {"s1": [["o1", "W"]]},
            }
        )
        assert isinstance(policy, CapabilityPolicy)

    def test_lbac_document(self):
        policy = policy_from_dict(
            {
                "kind": "lbac",
                "labels": ["low", "high"],
                "order": [["low", "high"]],
                "entities": ["A", "B"],
                "labelling": {"A": "low", "B": "high"},
            }
        )
        assert isinstance(policy, LatticePolicy)
        assert lattice_dominates(policy, "low", "high")

    def test_rbac_document(self):
        policy = policy_from_dict(
            {
                "kind": "rbac",
                "roles": ["a", "b"],
                "assignments": {"b": [["o1", "R"]]},
                "hierarchy": [["a", "b"]],
            }
        )
        assert isinstance(policy, RbacPolicy)
        assert rbac_privileges(policy, "a") == frozenset({("o1", R)})

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as caught:
            policy_from_dict({"kind": "xacml"})
        assert str(caught.value) == (
            "policy: kind must be 'acl', 'capabilities', 'lbac' or 'rbac', got 'xacml'"
        )

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="surprise"):
            policy_from_dict(
                {
                    "kind": "acl",
                    "objects": [],
                    "subjects": [],
                    "entries": {},
                    "surprise": 1,
                }
            )

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError, match="entries"):
            policy_from_dict({"kind": "acl", "objects": [], "subjects": []})

    def test_bad_mode_rejected(self):
        with pytest.raises(SchemaError, match="mode"):
            policy_from_dict(
                {
                    "kind": "acl",
                    "objects": ["o"],
                    "subjects": ["s"],
                    "entries": {"o": [["s", "RW"]]},
                }
            )

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"kind": "acl", "objects": ["o"], "subjects": ["s"],
              "entries": {"o": [["s", "R"], ["s"]]}},
             "entries.o[1]: expected a [name, name] pair"),
            ({"kind": "capabilities", "objects": ["o"], "subjects": ["s"],
              "entries": {"s": [["o", "R"], ["o", "W"], ["o", "X"]]}},
             "entries.s[2]: mode must be 'R' or 'W', got 'X'"),
            ({"kind": "rbac", "roles": ["a", "b"], "assignments": {},
              "hierarchy": [["a", "b"], ["a", 1]]},
             "hierarchy[1]: expected a [name, name] pair"),
        ],
        ids=["grant-pair", "mode", "hierarchy-pair"],
    )
    def test_error_names_the_item_location(self, doc, message):
        with pytest.raises(SchemaError) as caught:
            policy_from_dict(doc)
        assert str(caught.value) == message

    def test_semantic_problem_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            policy_from_dict(
                {
                    "kind": "acl",
                    "objects": ["o"],
                    "subjects": [],
                    "entries": {"o": [["ghost", "R"]]},
                }
            )
