"""The three benchmark workloads: their inputs and the checker's verdicts.

Each workload prepares every job from the seed when it is made (untimed):

* ``plain[j]``: job ``j`` in the plain JSON form that ``program.prepare``
  reads, so that a fresh process can run the same jobs (``program.py``);
* ``make(j)``: job ``j``'s library inputs, fresh for every execution (untimed);
* ``setup()``: the program's set-up, which also makes ``runner``, whose
  ``run`` is the timed job;
* ``check(j, out)``: the independent checker's verdict (untimed).

Job ``j`` depends only on the seed and ``j``, and no two jobs of a run have
the same input: every pass of a run repeats the same jobs, and their outputs
can be digested and compared across commits.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import NamedTuple

from infoflow import compose, model, policies, serialize

import gen
import oracle
import program


@dataclass
class Checked:
    failed: int       # operations of the job that the checker rejected
    canonical: str    # canonical text of the job's outputs, for the digest
    sizes: dict       # interfaces, flows, conflicts, components, bytes written
    work: int         # flows emitted or folded in, or queries answered


class Tuples:
    """Library interfaces and flows as the checker's tuples, memoised per
    object (the memo holds each object, so its id stays unique)."""

    def __init__(self) -> None:
        self._memo: dict[int, tuple] = {}

    def __call__(self, obj) -> tuple:
        hit = self._memo.get(id(obj))
        if hit is None:
            if isinstance(obj, model.Flow):
                value = (self(obj.src), self(obj.dst))
            elif isinstance(obj, model.Explicit):
                value = ("explicit", obj.entity, obj.mode.value)
            else:
                value = ("implicit", obj.agent, obj.label)
            hit = self._memo[id(obj)] = (obj, value)
        return hit[1]

    def graph(self, cr) -> tuple[frozenset, frozenset]:
        return frozenset(map(self, cr.interfaces)), frozenset(map(self, cr.flows))


def graph_tuples(cr) -> tuple[frozenset, frozenset]:
    return Tuples().graph(cr)


def sha(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


class Workload:
    name: str
    ops_per_job: int
    setup_inputs: dict
    setup_expected: tuple | None
    plain: list

    def setup(self):
        state = program.setup(self.name, self.setup_inputs)
        self.runner = program.Runner(self.name, state)
        return state

    def make(self, j: int):
        return program.prepare(self.name, self.plain[j])


# -- translate-bulk ----------------------------------------------------------

class Call(NamedTuple):
    argv: list
    code: int            # expected exit code
    sha: str | None      # expected sha256 of the output file; None: no file
    interfaces: int
    flows: int
    out: str


class TranslateBulk(Workload):
    """One job is an onboarding batch of ``infoflow translate`` calls, made in
    process through ``cli.main``: ACL, capabilities, LBAC, cross-object RBAC,
    and one invalid policy that must exit with its documented code.  Every
    job translates policies of its own."""

    name = "translate-bulk"
    ops_per_job = 5

    def __init__(self, seed: int, size: dict, workdir: str, jobs: int):
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir)
        self.calls = [self._batch(seed, j, size, workdir) for j in range(jobs)]
        self.plain = [[call.argv for call in calls] for calls in self.calls]
        self.setup_inputs: dict = {}
        self.setup_expected = None

    def _batch(self, seed: int, b: int, size: dict, workdir: str) -> list[Call]:
        """Write one batch's policy files and return its CLI calls."""
        rng = gen.rng_for(seed, "translate", b)
        objects, subjects = gen.names("o", size["objects"]), gen.names("s", size["subjects"])
        roles = gen.names("r", size["roles"])
        members = [
            ("acl", gen.listing_doc(rng, "acl", objects, subjects, size["grants"]), "literal"),
            ("cap", gen.listing_doc(rng, "capabilities", objects, subjects, size["grants"]), "literal"),
            ("lbac", gen.lbac_doc(rng, gen.names("e", size["entities"]), size["chain"]), "literal"),
            ("rbac", gen.rbac_doc(rng, roles, objects[:size["role_objects"]], size["role_grants"],
                                  size["edge_p"]), "cross-object"),
        ]
        calls = []
        for label, doc, semantics in members:
            path = os.path.join(workdir, f"b{b}-{label}.json")
            write_json(path, doc)
            expected = oracle.translate(doc, semantics)
            out = os.path.join(self.outdir, f"{label}.json")
            argv = ["translate", path, "--rbac-semantics", semantics, "-o", out]
            calls.append(Call(argv, 0, sha(oracle.canonical_text(expected)), len(expected[0]),
                              len(expected[1]), out))
        text, code = gen.INVALID_POLICIES[rng.randrange(len(gen.INVALID_POLICIES))]
        path = os.path.join(workdir, f"b{b}-bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out = os.path.join(self.outdir, "bad.json")
        calls.append(Call(["translate", path, "-o", out], code, None, 0, 0, out))
        return calls

    def make(self, j: int) -> list:
        for call in self.calls[j]:
            if os.path.exists(call.out):
                os.remove(call.out)
        return super().make(j)

    def check(self, j: int, codes: list[int]) -> Checked:
        calls = self.calls[j]
        failed, lines, written = 0, [], 0
        for call, code in zip(calls, codes):
            got = None
            if os.path.exists(call.out):
                with open(call.out, "rb") as handle:
                    data = handle.read()
                got, written = sha(data), written + len(data)
            failed += code != call.code or got != call.sha
            lines.append(f"{os.path.basename(call.out)} {code} {got}")
        flows = sum(call.flows for call in calls)
        sizes = {"interfaces": sum(call.interfaces for call in calls), "flows": flows,
                 "bytes": written}
        return Checked(failed, "\n".join(lines), sizes, flows)


# -- federation-join ---------------------------------------------------------

FAMILIES = ("acl", "capabilities", "rbac", "lbac")


class FederationJoin(Workload):
    """One job admits one newcomer: translate its policy, apply a composition
    rule against the combined graph, then a few reads of the new graph.

    The combined graph carries forward for ``episode`` joins and then resets
    to the founding federation, so graph sizes stay in a fixed range."""

    name = "federation-join"
    ops_per_job = 1 + 1 + 2 + 20

    def __init__(self, seed: int, size: dict, workdir: str, jobs: int):
        rng = gen.rng_for(seed, "federation")
        self.pools = {"o": gen.names("o", size["pool_objects"]),
                      "s": gen.names("s", size["pool_subjects"]),
                      "e": gen.names("e", size["pool_entities"])}
        founding = [self._member(rng, family, size["founding"]) for family in FAMILIES]
        rule_docs = gen.rules(rng)
        self.founding_expected = (frozenset(), frozenset())
        for doc, semantics in founding:
            self.founding_expected = oracle.compose(
                "merge", self.founding_expected, oracle.translate(doc, semantics))
        self.setup_inputs = {"founding": founding}
        self.setup_expected = self.founding_expected
        # Grant and reachability endpoints on the federation's side come from
        # the founding members, which every composite (and a rejected join)
        # still declares.
        federation = sorted(self.founding_expected[0])
        self.plain, self.offered = [], []
        for j in range(jobs):
            episode, position = divmod(j, size["episode"])
            rng = gen.rng_for(seed, "join", episode, position)
            doc, semantics = self._member(rng, FAMILIES[j % len(FAMILIES)], size["newcomer"])
            offered = oracle.translate(doc, semantics)
            newcomer = sorted(offered[0])
            grant_pairs = []
            for _ in range(20):
                pair = (rng.choice(newcomer), rng.choice(federation))
                grant_pairs.append(pair if rng.random() < 0.5 else pair[::-1])
            reach_pairs = [(rng.choice(federation), rng.choice(federation)) for _ in range(2)]
            rule = rule_docs[(j + j // len(FAMILIES)) % len(rule_docs)]
            self.plain.append([position == 0, doc, semantics, rule, grant_pairs, reach_pairs])
            self.offered.append(offered)

    def _member(self, rng, family: str, n: dict) -> tuple[dict, str]:
        pools = self.pools
        if family in ("acl", "capabilities"):
            doc = gen.listing_doc(rng, family, sorted(rng.sample(pools["o"], n["objects"])),
                                  sorted(rng.sample(pools["s"], n["subjects"])), n["grants"])
            return doc, "literal"
        if family == "rbac":
            doc = gen.rbac_doc(rng, gen.names("r", n["roles"]),
                               sorted(rng.sample(pools["o"], n["role_objects"])),
                               n["role_grants"], n["edge_p"])
            return doc, rng.choice(("literal", "cross-object"))
        return gen.lbac_doc(rng, sorted(rng.sample(pools["e"], n["entities"])), n["chain"]), "literal"

    def make(self, j: int) -> tuple:
        if self.plain[j][0]:   # a new episode: the checker starts over too
            self.state = self.founding_expected
            self.views, self.tuples = oracle.Views(self.state), Tuples()
        return super().make(j)

    def check(self, j: int, out: tuple) -> Checked:
        member, decision, graph, lively, reach, grants = out
        _reset, _doc, _semantics, rule, grant_pairs, reach_pairs = self.plain[j]
        before, offered = self.state, self.offered[j]
        found = oracle.conflicts(before, offered)
        action = oracle.choose(rule, before, offered, found)
        want = before if action == "reject" else oracle.compose(action, before, offered)
        self.state = want
        tuples = self.tuples
        got = tuples.graph(graph)
        failed = not (tuples.graph(member) == offered
                      and frozenset(map(tuples, decision.evidence)) == found
                      and decision.action_taken.value == action
                      and got == want)
        self.views.grow(want)
        components = self.views.components()
        failed += lively != (components == 1)
        failed += sum(r != self.views.reachable(s, d) for r, (s, d) in zip(reach, reach_pairs))
        failed += sum(g.value != oracle.grant(a, b, want) for g, (a, b) in zip(grants, grant_pairs))
        # The episode's graphs follow from the founding graph and what each join added.
        added = sorted(got[0] - before[0]), sorted(got[1] - before[1])
        canonical = json.dumps([decision.action_taken.value, len(decision.evidence), sha(repr(added)),
                                lively, reach, [g.value for g in grants]])
        sizes = {"interfaces": len(got[0]), "flows": len(got[1]),
                 "conflicts": len(decision.evidence), "components": components}
        return Checked(failed, canonical, sizes, len(offered[1]))


# -- audit-queries -----------------------------------------------------------

class AuditQueries(Workload):
    """One job is one ``check``-style request on a fixed, loaded graph:
    ~100 grant queries (a few on undeclared interfaces), 2 reachability
    queries and one liveliness query."""

    name = "audit-queries"
    ops_per_job = 100 + 2 + 1

    def __init__(self, seed: int, size: dict, workdir: str, jobs: int):
        rng = gen.rng_for(seed, "audit")
        objects, subjects = gen.names("o", size["objects"]), gen.names("s", size["subjects"])
        members = [
            (gen.listing_doc(rng, "acl", objects, subjects, size["grants"]), "literal"),
            (gen.rbac_doc(rng, gen.names("r", size["roles"]), objects[:size["role_objects"]],
                          size["role_grants"], size["edge_p"]), "cross-object"),
            (gen.lbac_doc(rng, gen.names("e", size["entities"]), size["chain"]), "literal"),
        ]
        graph, self.expected = model.EMPTY_CR, (frozenset(), frozenset())
        for doc, semantics in members:
            member = policies.policy_to_cr(policies.policy_from_dict(doc),
                                           policies.RbacSemantics(semantics))
            graph = compose.merge(graph, member)
            self.expected = oracle.compose("merge", self.expected, oracle.translate(doc, semantics))
        path = os.path.join(workdir, "audited.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize.dumps(graph))
        self.setup_inputs = {"graph_path": path}
        self.setup_expected = self.expected
        self.interfaces = sorted(self.expected[0])
        self.flows = sorted(self.expected[1])
        self.entities = sorted(i for i in self.interfaces if i[0] == "implicit")
        self.views = oracle.Views(self.expected)
        self.components = self.views.components()
        self.plain = [self._request(seed, j) for j in range(jobs)]

    def _request(self, seed: int, j: int) -> list:
        rng = gen.rng_for(seed, "audit", j)
        pairs = []
        for k in range(100):
            roll = rng.random()
            if roll < 0.03:
                pair = (rng.choice(self.interfaces), ("explicit", f"ghost{k}", "R"))
                pair = pair if rng.random() < 0.5 else pair[::-1]
            elif roll < 0.35:
                pair = rng.choice(self.flows)
            else:
                pair = (rng.choice(self.interfaces), rng.choice(self.interfaces))
            pairs.append(pair)
        reach = [tuple(rng.sample(self.entities, 2)),
                 (rng.choice(self.interfaces), rng.choice(self.interfaces))]
        return [pairs, reach]

    def check(self, j: int, out: tuple) -> Checked:
        grants, reach, lively = out
        grant_pairs, reach_pairs = self.plain[j]
        failed = sum(g.value != oracle.grant(a, b, self.expected)
                     for g, (a, b) in zip(grants, grant_pairs))
        failed += sum(r != self.views.reachable(s, d) for r, (s, d) in zip(reach, reach_pairs))
        failed += lively != (self.components == 1)
        canonical = json.dumps([[g.value for g in grants], reach, lively])
        sizes = {"interfaces": len(self.interfaces), "flows": len(self.flows),
                 "components": self.components}
        return Checked(failed, canonical, sizes, self.ops_per_job)


WORKLOADS = {w.name: w for w in (TranslateBulk, FederationJoin, AuditQueries)}

# Input sizes.  "full" is what the benchmark measures; "smoke" is a tiny
# version that exercises every code path in a second or two.
SIZES = {
    "translate-bulk": {
        "full": {"objects": 60, "subjects": 60, "grants": 6, "entities": 26, "chain": 10,
                 "roles": 20, "role_objects": 20, "role_grants": 2, "edge_p": 0.1},
        "smoke": {"objects": 12, "subjects": 10, "grants": 3, "entities": 10, "chain": 3,
                  "roles": 8, "role_objects": 6, "role_grants": 2, "edge_p": 0.2},
    },
    "federation-join": {
        "full": {"pool_objects": 200, "pool_subjects": 150, "pool_entities": 120,
                 "episode": 10,
                 "founding": {"objects": 120, "subjects": 80, "grants": 6, "roles": 30,
                              "role_objects": 40, "role_grants": 2, "edge_p": 0.08,
                              "entities": 60, "chain": 6},
                 "newcomer": {"objects": 25, "subjects": 15, "grants": 4, "roles": 12,
                              "role_objects": 15, "role_grants": 2, "edge_p": 0.15,
                              "entities": 25, "chain": 4}},
        "smoke": {"pool_objects": 20, "pool_subjects": 15, "pool_entities": 15,
                  "episode": 4,
                  "founding": {"objects": 10, "subjects": 8, "grants": 3, "roles": 5,
                               "role_objects": 6, "role_grants": 2, "edge_p": 0.3,
                               "entities": 8, "chain": 3},
                  "newcomer": {"objects": 6, "subjects": 5, "grants": 3, "roles": 4,
                               "role_objects": 5, "role_grants": 2, "edge_p": 0.3,
                               "entities": 6, "chain": 2}},
    },
    "audit-queries": {
        "full": {"objects": 200, "subjects": 200, "grants": 6, "roles": 40,
                 "role_objects": 50, "role_grants": 2, "edge_p": 0.05, "entities": 45,
                 "chain": 10},
        "smoke": {"objects": 10, "subjects": 10, "grants": 3, "roles": 6, "role_objects": 6,
                  "role_grants": 2, "edge_p": 0.2, "entities": 8, "chain": 3},
    },
}
