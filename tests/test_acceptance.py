"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import hashlib
import itertools
import json
import random

from infoflow import (
    EMPTY_CR,
    AclPolicy,
    CommonRepresentation,
    Explicit,
    Flow,
    GrantResult,
    Implicit,
    Mode,
    append,
    component_count,
    conflicting,
    conflicts,
    dumps,
    grant,
    is_lively,
    loads,
    merge,
    rbac_seniority,
)
from infoflow.cli import main
from crgen import random_acl, random_capabilities, random_cr, random_rbac
from oracles import (
    dfs_closure,
    enumerate_listing_flows,
    enumerate_role_flows,
    pairwise_complementary_edges,
    union_find_component_count,
)

R, W = Mode.R, Mode.W


def ex(name, mode):
    return Explicit(name, mode)


def imp(name):
    return Implicit(name, "i")


def ok(number, label):
    print(f"ACCEPTANCE PASS [{number}] {label}")


# Frozen canonical serialization of the translated 3x3 access matrix.
MATRIX_CR_SHA256 = "9b460b0c876884916cf9a0475eb3bbd85e5673efe305636d3a6363415aa0fda2"

MATRIX_DOC = {
    "kind": "acl",
    "objects": ["o1", "o2", "o3"],
    "subjects": ["s1", "s2", "s3"],
    "entries": {
        "o1": [["s1", "R"], ["s3", "R"], ["s3", "W"]],
        "o2": [["s1", "W"], ["s2", "W"]],
        "o3": [["s1", "R"], ["s1", "W"], ["s2", "R"], ["s3", "R"]],
    },
}


def test_criterion_1_access_matrix_golden_translation():
    policy = AclPolicy(
        objects={"o1", "o2", "o3"},
        subjects={"s1", "s2", "s3"},
        entries={
            "o1": {("s1", R), ("s3", R), ("s3", W)},
            "o2": {("s1", W), ("s2", W)},
            "o3": {("s1", R), ("s1", W), ("s2", R), ("s3", R)},
        },
    )
    from infoflow import acl_to_cr

    cr = acl_to_cr(policy)
    assert len(cr.interfaces) == 12
    assert cr.flows == frozenset(
        {
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
    )
    first = dumps(cr)
    second = dumps(loads(first))
    assert first == second
    assert hashlib.sha256(first.encode("utf-8")).hexdigest() == MATRIX_CR_SHA256
    ok(1, "access-matrix translation: 12 interfaces, 9 flows, canonical bytes")


def test_criterion_2_conflict_reproduction():
    a, b, c, d = imp("a"), imp("b"), imp("c"), imp("d")
    cr1 = CommonRepresentation({a, b, c}, {Flow(a, c), Flow(b, c)})
    cr2 = CommonRepresentation({a, c, d}, {Flow(a, d), Flow(d, c)})
    assert conflicts(cr1, cr2) == frozenset({Flow(a, c)})
    assert conflicting(cr1, cr2) is True
    ok(2, "overlapping pair reports exactly the shared (a, c) conflict")


def test_criterion_3_composite_algebra_randomized():
    rng = random.Random(2024)
    crs = [random_cr(rng) for _ in range(1000)]
    count = len(crs)
    for i, a in enumerate(crs):
        b = crs[(i + 1) % count]
        c = crs[(i + 2) % count]
        assert merge(a, b) == merge(b, a)
        assert merge(a, merge(b, c)) == merge(merge(a, b), c)
        assert merge(a, a) == a
        assert merge(a, EMPTY_CR) == a
        assert a.flows <= append(a, b).flows <= merge(a, b).flows
    x, y = imp("x"), imp("y")
    fwd = CommonRepresentation({x, y}, {Flow(x, y)})
    bwd = CommonRepresentation({x, y}, {Flow(y, x)})
    assert append(fwd, bwd) == fwd
    assert append(bwd, fwd) == bwd
    assert append(fwd, bwd) != append(bwd, fwd)
    ok(3, "merge algebra and append bounds hold on 1000 random graphs")


def test_criterion_4_translation_soundness_oracles():
    from infoflow import (
        LatticePolicy,
        RbacSemantics,
        acl_to_cr,
        capability_to_cr,
        lbac_to_cr,
        rbac_to_cr,
    )

    rng = random.Random(4096)
    for _ in range(300):
        policy = random_acl(rng, max_objects=5, max_subjects=5)

        def granted(obj, subj, mode, policy=policy):
            return (subj, mode) in policy.entries.get(obj, frozenset())

        expected = enumerate_listing_flows(policy.objects, policy.subjects, granted)
        assert acl_to_cr(policy).flows == frozenset(expected)

    for _ in range(300):
        policy = random_capabilities(rng, max_objects=5, max_subjects=5)

        def held(obj, subj, mode, policy=policy):
            return (obj, mode) in policy.entries.get(subj, frozenset())

        expected = enumerate_listing_flows(policy.objects, policy.subjects, held)
        assert capability_to_cr(policy).flows == frozenset(expected)

    for n in range(2, 7):
        labels = [f"l{i}" for i in range(n)]
        policy = LatticePolicy(
            labels=set(labels),
            order=set(zip(labels, labels[1:])),
            entities={f"e{i}" for i in range(n)},
            labelling={f"e{i}": labels[i] for i in range(n)},
        )
        assert len(lbac_to_cr(policy).flows) == n * (n - 1) // 2

    for _ in range(300):
        policy = random_rbac(rng, max_roles=8)
        assert {
            (role, junior) for role in policy.roles for junior in rbac_seniority(policy, role)
        } == dfs_closure(sorted(policy.roles), policy.hierarchy)
        literal = rbac_to_cr(policy, RbacSemantics.LITERAL)
        cross = rbac_to_cr(policy, RbacSemantics.CROSS_OBJECT)
        assert literal.flows <= cross.flows
        for semantics, cr in ((RbacSemantics.LITERAL, literal), (RbacSemantics.CROSS_OBJECT, cross)):
            assert cr.flows == enumerate_role_flows(
                policy.roles, policy.assignments, policy.hierarchy,
                semantics is RbacSemantics.CROSS_OBJECT)
    ok(4, "list/lattice/role translations agree with independent oracles")


def test_criterion_5_liveliness_and_availability():
    rng = random.Random(555)
    for _ in range(1000):
        cr = random_cr(rng)
        count = union_find_component_count(cr.interfaces, pairwise_complementary_edges(cr.flows))
        assert is_lively(cr) == (count == 1)
        one_way = {f for f in cr.flows if f.inverse() not in cr.flows}
        stripped = CommonRepresentation(cr.interfaces, one_way)
        assert component_count(stripped) == len(cr.interfaces)
    ok(5, "liveliness matches union-find; one-way flows never create edges")


def test_criterion_6_grant_tristate_exhaustive():
    inside = [imp("a"), imp("b"), imp("c")]
    outsider = imp("zz")
    pairs = [(u, v) for u in inside for v in inside if u != v]
    assert len(pairs) == 6
    for bits in itertools.product([False, True], repeat=6):
        flows = {Flow(u, v) for (u, v), keep in zip(pairs, bits) if keep}
        cr = CommonRepresentation(inside, flows)
        for i1 in inside + [outsider]:
            for i2 in inside + [outsider]:
                result = grant(i1, i2, cr)
                if i1 is outsider or i2 is outsider:
                    assert result is GrantResult.UNDEFINED
                elif i1 != i2 and Flow(i1, i2) in flows:
                    assert result is GrantResult.PERMIT
                else:
                    assert result is GrantResult.DENY
    ok(6, "grant partitions all 64 three-interface graphs correctly")


def test_criterion_7_rule_end_to_end(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    rule_path.write_text(
        json.dumps(
            {
                "condition": {"type": "conflicts-complementary-in", "side": "first"},
                "then": "merge",
                "else": "append",
            }
        ),
        encoding="utf-8",
    )
    x, y = imp("x"), imp("y")

    def run_case(name, a, b):
        a_path = tmp_path / f"{name}_a.json"
        b_path = tmp_path / f"{name}_b.json"
        a_path.write_text(dumps(a), encoding="utf-8")
        b_path.write_text(dumps(b), encoding="utf-8")
        code = main(
            ["compose", "rule", str(a_path), str(b_path), "--rule", str(rule_path)]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        return report

    # Every conflict's inverse is already a flow of A: merge.
    a1 = CommonRepresentation({x, y}, {Flow(x, y), Flow(y, x)})
    b1 = CommonRepresentation({x, y}, set())
    report = run_case("merge", a1, b1)
    decision = report["outcome"]["decisions"][0]
    assert decision["action"] == "merge"
    evidence = {(f["from"]["agent"], f["to"]["agent"]) for f in decision["evidence"]}
    assert evidence == {(f.src.agent, f.dst.agent) for f in conflicts(a1, b1)}
    assert loads(json.dumps(report["outcome"]["result"])) == merge(a1, b1)

    # One conflict is not covered by an inverse in A: append.
    a2 = CommonRepresentation({x, y}, {Flow(x, y)})
    b2 = CommonRepresentation({x, y}, {Flow(y, x)})
    report = run_case("append", a2, b2)
    decision = report["outcome"]["decisions"][0]
    assert decision["action"] == "append"
    evidence = {(f["from"]["agent"], f["to"]["agent"]) for f in decision["evidence"]}
    assert evidence == {(f.src.agent, f.dst.agent) for f in conflicts(a2, b2)}
    assert loads(json.dumps(report["outcome"]["result"])) == CommonRepresentation(
        {x, y}, {Flow(x, y)}
    )
    ok(7, "composition rule picks merge then append through the CLI")


def test_criterion_8_round_trip_and_exit_codes(tmp_path, capsys):
    rng = random.Random(321)
    for _ in range(100):
        cr = random_cr(rng)
        text = dumps(cr)
        assert loads(text) == cr
        assert dumps(loads(text)) == text

    def run(*args):
        code = main(list(args))
        capsys.readouterr()
        return code

    acl_path = tmp_path / "acl.json"
    acl_path.write_text(json.dumps(MATRIX_DOC), encoding="utf-8")
    assert run("translate", str(acl_path)) == 0

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{oops", encoding="utf-8")
    assert run("translate", str(bad_json)) == 2

    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps(dict(MATRIX_DOC, subjects=["s1"])), encoding="utf-8"
    )
    assert run("translate", str(invalid)) == 3

    x, y = imp("x"), imp("y")
    fwd = tmp_path / "fwd.json"
    bwd = tmp_path / "bwd.json"
    fwd.write_text(dumps(CommonRepresentation({x, y}, {Flow(x, y)})), encoding="utf-8")
    bwd.write_text(dumps(CommonRepresentation({x, y}, {Flow(y, x)})), encoding="utf-8")
    reject_rule = tmp_path / "reject.json"
    reject_rule.write_text(
        json.dumps(
            {"condition": {"type": "no-conflicts"}, "then": "merge", "else": "reject"}
        ),
        encoding="utf-8",
    )
    assert run("compose", "rule", str(fwd), str(bwd), "--rule", str(reject_rule)) == 4

    assert run("check", str(fwd), "--reachable", "x#i", "ghost#i") == 5
    ok(8, "save/load identity on 100 graphs; exit codes 0/2/3/4/5 all fire")
