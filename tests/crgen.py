"""Random and hypothesis generators for graphs, source policies and
condition documents, the rebuild that checks a graph the library built,
and views of a graph's query index that tests can compare."""

from hypothesis import strategies as st

from infoflow import (
    AclPolicy,
    CapabilityPolicy,
    CommonRepresentation,
    Explicit,
    Flow,
    Implicit,
    LatticePolicy,
    Mode,
    RbacPolicy,
    component_count,
)
from infoflow import model
from infoflow.model import interface_key
from infoflow.rules import MAX_CONDITION_DEPTH

# Small shared pool so independently generated graphs overlap often.
POOL = tuple(
    sorted(
        [Implicit(name, "x") for name in "abcdef"]
        + [Explicit(name, mode) for name in ("p", "q") for mode in (Mode.R, Mode.W)],
        key=interface_key,
    )
)


def rebuilt(cr):
    """``cr`` built again through every check the library skips when it
    builds a graph: each interface's names through the constructors' name
    check, each flow through :class:`Flow` (so a self-flow raises), and the
    graph through the public constructor, which raises unless it is valid."""
    for iface in cr.interfaces:
        model._check_names(type(iface), interface_key(iface))
    return CommonRepresentation(cr.interfaces, {Flow(src, dst) for src, dst in cr.flows})


def index_view(g):
    """The query index ``g`` holds, or None if it holds none, as a value two
    graphs' indexes can be compared by: each source's successors as a set,
    and the availability partition as a set of classes over the declared
    interfaces and every key of the parent links.  Roots are found without
    shortening paths, so reading leaves the index as it was."""
    index = vars(g).get("_index")
    if index is None:
        return None
    rows, parent = index
    classes = {}
    for vertex in g.interfaces | parent.keys():
        root = vertex
        while root in parent:
            root = parent[root]
        classes.setdefault(root, set()).add(vertex)
    return ({src: frozenset(row) for src, row in rows.items()},
            frozenset(map(frozenset, classes.values())))


def fresh_index_view(g):
    """:func:`index_view` of a fresh copy of ``g``, after a query built its index."""
    fresh = CommonRepresentation(g.interfaces, g.flows)
    component_count(fresh)
    return index_view(fresh)


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
def graphs(draw, interfaces=st.sampled_from(POOL), max_interfaces=8):
    vertices = draw(st.sets(interfaces, min_size=0, max_size=max_interfaces))
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


def random_lattice(rng, max_labels=5, max_entities=6):
    labels = [f"l{i}" for i in range(rng.randint(1, max_labels))]
    # Pairs only from a label to itself or to a higher index, so the order
    # is antisymmetric; a pair (l, l) is valid and adds no dominance.
    order = {
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i, len(labels))
        if rng.random() < 0.3
    }
    entities = [f"e{i}" for i in range(1, rng.randint(1, max_entities) + 1)]
    labelling = {entity: rng.choice(labels) for entity in entities}
    return LatticePolicy(labels=labels, order=order, entities=entities, labelling=labelling)


# The condition documents that hold no other condition.
CONDITION_LEAVES = st.one_of(
    st.just({"type": "no-conflicts"}),
    st.sampled_from(["first", "second"]).map(
        lambda side: {"type": "conflicts-complementary-in", "side": side}),
    st.integers(0, 6).map(lambda n: {"type": "conflict-count-at-most", "n": n}),
)


def condition_docs(depth=MAX_CONDITION_DEPTH):
    """Condition documents of every type, with at most ``depth`` levels of
    ``and`` and ``not`` above a leaf: the deepest nesting a rule file may hold."""
    if depth == 0:
        return CONDITION_LEAVES
    inner = st.deferred(lambda: condition_docs(depth - 1))
    return st.one_of(
        CONDITION_LEAVES,
        st.lists(inner, min_size=1, max_size=3).map(
            lambda subs: {"type": "and", "conditions": subs}),
        inner.map(lambda sub: {"type": "not", "condition": sub}),
    )
