"""Random and hypothesis generators for graphs and source policies."""

from hypothesis import strategies as st

from infoflow import (
    AclPolicy,
    CapabilityPolicy,
    CommonRepresentation,
    Explicit,
    Flow,
    Implicit,
    Mode,
    RbacPolicy,
)
from infoflow.model import interface_key

# Small shared pool so independently generated graphs overlap often.
POOL = tuple(
    sorted(
        [Implicit(name, "x") for name in "abcdef"]
        + [Explicit(name, mode) for name in ("p", "q") for mode in (Mode.R, Mode.W)],
        key=interface_key,
    )
)


def random_cr(rng, pool=POOL, max_interfaces=8, density=0.3):
    count = rng.randint(0, min(max_interfaces, len(pool)))
    vertices = rng.sample(pool, count)
    flows = {
        Flow(u, v)
        for u in vertices
        for v in vertices
        if u != v and rng.random() < density
    }
    return CommonRepresentation(interfaces=vertices, flows=flows)


@st.composite
def graphs(draw, pool=POOL, max_interfaces=8):
    vertices = draw(
        st.sets(st.sampled_from(pool), min_size=0, max_size=max_interfaces)
    )
    ordered = sorted(vertices, key=interface_key)
    pairs = [(u, v) for u in ordered for v in ordered if u != v]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return CommonRepresentation(
        interfaces=vertices, flows={Flow(u, v) for u, v in chosen}
    )


def random_listing_entries(rng, keys, values, density=0.4):
    entries = {}
    for key in keys:
        grants = {
            (value, mode)
            for value in values
            for mode in (Mode.R, Mode.W)
            if rng.random() < density
        }
        if grants:
            entries[key] = grants
    return entries


def random_acl(rng, max_objects=5, max_subjects=5):
    objects = {f"o{i}" for i in range(1, rng.randint(1, max_objects) + 1)}
    subjects = {f"s{i}" for i in range(1, rng.randint(1, max_subjects) + 1)}
    entries = random_listing_entries(rng, objects, subjects)
    return AclPolicy(objects=objects, subjects=subjects, entries=entries)


def random_capabilities(rng, max_objects=5, max_subjects=5):
    objects = {f"o{i}" for i in range(1, rng.randint(1, max_objects) + 1)}
    subjects = {f"s{i}" for i in range(1, rng.randint(1, max_subjects) + 1)}
    entries = random_listing_entries(rng, subjects, objects)
    return CapabilityPolicy(objects=objects, subjects=subjects, entries=entries)


def random_rbac(rng, max_roles=8, max_objects=4):
    roles = [f"r{i}" for i in range(1, rng.randint(1, max_roles) + 1)]
    # Edges only from lower to higher index, so the hierarchy is a DAG.
    hierarchy = {
        (roles[i], roles[j])
        for i in range(len(roles))
        for j in range(i + 1, len(roles))
        if rng.random() < 0.25
    }
    objects = [f"o{i}" for i in range(1, max_objects + 1)]
    assignments = random_listing_entries(rng, roles, objects, density=0.3)
    return RbacPolicy(roles=roles, assignments=assignments, hierarchy=hierarchy)
