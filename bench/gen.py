"""Seeded inputs for the benchmark: policy documents, composition rules, queries.

Everything here is plain JSON-shaped data (dicts, lists, strings), so the
library sees exactly what a user would hand it.  Every generator takes a
``random.Random``; callers seed it from the run's ``--seed`` plus a label, so
the same seed always yields the same inputs.
"""

from __future__ import annotations

import random

MODES = ("R", "W")


def rng_for(seed: int, *labels: object) -> random.Random:
    """A generator keyed by the run seed and a label path (stable across runs)."""
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


def listing_doc(rng: random.Random, kind: str, objects: list[str], subjects: list[str],
                grants_per_key: int) -> dict:
    """An ACL (keyed by object) or capabilities (keyed by subject) policy.

    Every key gets ``grants_per_key`` distinct (name, mode) grants.
    """
    keys, granted = (objects, subjects) if kind == "acl" else (subjects, objects)
    choices = [(name, mode) for name in granted for mode in MODES]
    entries = {
        key: [list(pair) for pair in rng.sample(choices, min(grants_per_key, len(choices)))]
        for key in keys
    }
    return {"kind": kind, "objects": objects, "subjects": subjects, "entries": entries}


def lbac_doc(rng: random.Random, entities: list[str], chain: int) -> dict:
    """Entities labelled at random on a chain of ``chain`` labels."""
    labels = names("l", chain)
    return {
        "kind": "lbac",
        "labels": labels,
        "order": [[labels[i], labels[i + 1]] for i in range(chain - 1)],
        "entities": entities,
        "labelling": {entity: rng.choice(labels) for entity in entities},
    }


def rbac_doc(rng: random.Random, roles: list[str], objects: list[str], grants_per_role: int,
             edge_p: float) -> dict:
    """Roles with random grants and a random DAG hierarchy (senior before junior)."""
    choices = [(name, mode) for name in objects for mode in MODES]
    return {
        "kind": "rbac",
        "roles": roles,
        "assignments": {
            role: [list(pair) for pair in rng.sample(choices, min(grants_per_role, len(choices)))]
            for role in roles
        },
        "hierarchy": [
            [roles[i], roles[j]]
            for i in range(len(roles))
            for j in range(i + 1, len(roles))
            if rng.random() < edge_p
        ],
    }


# Small policies that the CLI must refuse, with the documented exit code:
# 2 for a parse or schema error, 3 for a validation error.
INVALID_POLICIES = (
    ('{"kind": "acl", "objects": ["o0"], ', 2),
    ('{"kind": "acl", "objects": ["o0"], "subjects": ["s0"], "entries": {}, "owner": "s0"}', 2),
    ('{"kind": "mac", "objects": [], "subjects": [], "entries": {}}', 2),
    ('{"kind": "acl", "objects": ["o0"], "subjects": ["s0"], "entries": {"o0": [["s9", "R"]]}}', 3),
    ('{"kind": "rbac", "roles": ["a", "b"], "assignments": {}, "hierarchy": [["a", "b"], ["b", "a"]]}', 3),
    ('{"kind": "lbac", "labels": ["lo", "hi"], "order": [["lo", "hi"], ["hi", "lo"]], '
     '"entities": ["e0"], "labelling": {"e0": "lo"}}', 3),
)


def rules(rng: random.Random) -> list[dict]:
    """Composition rules rotated over federation joins.

    Between them the four actions (merge, append, append-strict, reject) all
    occur on overlapping members; the count thresholds are seeded.
    """
    low = rng.randint(20, 40)
    mid = rng.randint(50, 80)
    high = rng.randint(120, 200)
    return [
        {"condition": {"type": "conflicts-complementary-in", "side": "first"},
         "then": "merge", "else": "append"},
        {"condition": {"type": "conflict-count-at-most", "n": high},
         "then": "append-strict", "else": "reject"},
        {"condition": {"type": "conflict-count-at-most", "n": mid},
         "then": "merge", "else": "append-strict"},
        {"condition": {"type": "and", "conditions": [
            {"type": "not", "condition": {"type": "conflict-count-at-most", "n": low}},
            {"type": "conflict-count-at-most", "n": high}]},
         "then": "reject", "else": "append"},
    ]
