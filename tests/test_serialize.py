import gc
import json
import sys

import pytest
from hypothesis import example, given, strategies as st

from infoflow import model
from infoflow import (
    CommonRepresentation,
    Explicit,
    Flow,
    Implicit,
    Mode,
    SchemaError,
    ValidationError,
    dumps,
    loads,
    to_dot,
)
from infoflow.serialize import cr_from_dict, cr_to_dict, flows_to_list
from crgen import graphs
from oracles import canonical_order, field_key, strict_loads

A = Implicit("a", "x")
B = Implicit("b", "x")
IFACE_A = {"kind": "implicit", "agent": "a", "label": "x"}

# Valid names that stress the encoder: JSON escapes, control characters,
# non-ASCII, U+2028, the token grammar's ".R"/".W", and "#" in a label.
AWKWARD = ['a', 'b', '"', '\\', '\x00', '\n', '\x1f', '\x7f', 'é', '中', '\u2028', '.', 'R', 'W']
NAMES = st.text(st.sampled_from(AWKWARD), min_size=1, max_size=5) | st.sampled_from(["o.R", "a.W"])
LABELS = st.text(st.sampled_from([*AWKWARD, "#"]), min_size=1, max_size=5) | st.just("x#y")
INTERFACES = st.builds(Explicit, NAMES, st.sampled_from(Mode)) | st.builds(Implicit, NAMES, LABELS)


def reference_dumps(g):
    """The indented standard-library encoding that defines the canonical layout."""
    return json.dumps(cr_to_dict(g), indent=2, ensure_ascii=False) + "\n"


@given(graphs(INTERFACES))
@example(CommonRepresentation())
def test_dumps_is_byte_identical_to_the_reference_encoder(g):
    assert dumps(g) == reference_dumps(g)


@given(graphs(INTERFACES))
def test_every_graph_reads_back_from_its_own_output(g):
    assert loads(dumps(g)) == g


def test_layout_is_the_documented_one():
    o_r = Explicit("o1", Mode.R)
    alice = Implicit("alice", "chat")
    text = dumps(CommonRepresentation({alice, o_r}, {Flow(o_r, alice)}))
    assert text == """{
  "interfaces": [
    {
      "kind": "explicit",
      "entity": "o1",
      "mode": "R"
    },
    {
      "kind": "implicit",
      "agent": "alice",
      "label": "chat"
    }
  ],
  "flows": [
    {
      "from": {
        "kind": "explicit",
        "entity": "o1",
        "mode": "R"
      },
      "to": {
        "kind": "implicit",
        "agent": "alice",
        "label": "chat"
      }
    }
  ]
}
"""
    assert dumps(CommonRepresentation()) == '{\n  "interfaces": [],\n  "flows": []\n}\n'


def test_non_ascii_is_written_unescaped():
    text = dumps(CommonRepresentation({Implicit("zoë", "\u2028")}))
    assert '"agent": "zoë"' in text and '"label": "\u2028"' in text


@given(graphs())
def test_round_trip_identity(g):
    assert loads(dumps(g)) == g


@given(graphs())
def test_dumps_is_deterministic(g):
    once = dumps(g)
    assert once == dumps(g)
    assert once == dumps(loads(once))
    assert once.endswith("\n")


def test_canonical_ordering():
    g = CommonRepresentation(
        interfaces={Implicit("z", "x"), Explicit("m", Mode.W), Explicit("m", Mode.R)},
    )
    doc = cr_to_dict(g)
    assert doc["interfaces"] == [
        {"kind": "explicit", "entity": "m", "mode": "R"},
        {"kind": "explicit", "entity": "m", "mode": "W"},
        {"kind": "implicit", "agent": "z", "label": "x"},
    ]


def document_key(obj):
    """An interface object's field values in document order: its sort key."""
    return tuple(obj.values())


@given(graphs(INTERFACES))
def test_cr_to_dict_follows_the_canonical_order(g):
    interfaces, flows = canonical_order(g.interfaces, g.flows)
    doc = cr_to_dict(g)
    assert [document_key(obj) for obj in doc["interfaces"]] == interfaces
    assert [(document_key(f["from"]), document_key(f["to"])) for f in doc["flows"]] == flows


@given(graphs(INTERFACES))
def test_flows_to_list_follows_the_canonical_order(g):
    # A subset whose endpoints are not all of the graph's interfaces.
    some = {flow for flow in g.flows if field_key(flow.src) < field_key(flow.dst)}
    for flows in (g.flows, some):
        expected = canonical_order((), flows)[1]
        assert [(document_key(f["from"]), document_key(f["to"]))
                for f in flows_to_list(flows)] == expected


def dot_node(key):
    kind, first, second = key
    name = f"{first}.{second}" if kind == "explicit" else f"{first}#{second}"
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


@given(graphs(INTERFACES))
def test_to_dot_follows_the_canonical_order(g):
    interfaces, flows = canonical_order(g.interfaces, g.flows)
    lines = ["digraph cr {", *(f"  {dot_node(key)};" for key in interfaces),
             *(f"  {dot_node(src)} -> {dot_node(dst)};" for src, dst in flows), "}"]
    assert to_dot(g) == "\n".join(lines) + "\n"


def test_flow_ordering_by_endpoints():
    g = CommonRepresentation(
        interfaces={A, B},
        flows={Flow(B, A), Flow(A, B)},
    )
    flows = cr_to_dict(g)["flows"]
    assert flows[0]["from"]["agent"] == "a"
    assert flows[1]["from"]["agent"] == "b"


def test_loads_rejects_bad_json():
    with pytest.raises(SchemaError, match="invalid JSON"):
        loads("{not json")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer string conversion")
def test_loads_rejects_an_integer_too_long_to_convert():
    with pytest.raises(SchemaError, match="invalid JSON"):
        loads("[" + "1" * 5000 + "]")


@pytest.mark.parametrize(
    "doc",
    [
        {"interfaces": []},
        {"interfaces": [], "flows": [], "extra": 1},
        {"interfaces": {}, "flows": []},
        {"interfaces": [{"kind": "explicit", "entity": "a"}], "flows": []},
        {"interfaces": [{"kind": "explicit", "entity": "a", "mode": "X"}], "flows": []},
        {"interfaces": [{"kind": "nope", "entity": "a", "mode": "R"}], "flows": []},
        {"interfaces": [{"kind": "implicit", "agent": "a", "label": "x", "mode": "R"}], "flows": []},
        {"interfaces": [{"kind": "implicit", "agent": 3, "label": "x"}], "flows": []},
        {"interfaces": [], "flows": [{"from": {"kind": "implicit", "agent": "a", "label": "x"}}]},
    ],
)
def test_schema_violations_rejected(doc):
    with pytest.raises(SchemaError):
        cr_from_dict(doc)


@pytest.mark.parametrize(
    "iface, message",
    [
        ({"kind": "nope", "entity": "a", "mode": "R"},
         "interfaces[0]: kind must be 'explicit' or 'implicit', got 'nope'"),
        ({"kind": ["explicit"], "entity": "a", "mode": "R"},
         "interfaces[0]: kind must be 'explicit' or 'implicit', got ['explicit']"),
        ({"kind": "explicit", "entity": "a", "mode": "X"},
         "interfaces[0]: mode must be 'R' or 'W', got 'X'"),
        ({"kind": "explicit", "entity": "a", "mode": 1},
         "interfaces[0]: mode must be 'R' or 'W', got 1"),
        ({"kind": "explicit", "entity": None, "mode": "R"},
         "interfaces[0].entity: expected a string, got NoneType"),
        ({"kind": "implicit", "agent": "a", "label": 3},
         "interfaces[0].label: expected a string, got int"),
    ],
    ids=["kind", "kind-not-a-string", "mode", "mode-not-a-string", "entity", "label"],
)
def test_schema_error_message(iface, message):
    with pytest.raises(SchemaError) as caught:
        cr_from_dict({"interfaces": [iface], "flows": []})
    assert str(caught.value) == message


def test_self_flow_in_document_is_a_validation_error():
    iface = {"kind": "implicit", "agent": "a", "label": "x"}
    with pytest.raises(ValidationError, match="self-flow"):
        cr_from_dict({"interfaces": [iface], "flows": [{"from": iface, "to": iface}]})


def test_undeclared_endpoint_in_document_is_a_validation_error():
    a, b = ({"kind": "implicit", "agent": name, "label": "x"} for name in "ab")
    with pytest.raises(ValidationError) as caught:
        loads(json.dumps({"interfaces": [a], "flows": [{"from": a, "to": b}]}))
    assert str(caught.value) == "flow a#x -> b#x references undeclared interface b#x"


@pytest.mark.parametrize(
    "interfaces, flows, error, message",
    [
        ([IFACE_A, dict(IFACE_A, agent="a#b")], [], ValidationError,
         "interfaces[1]: interface 'a#b#x' has '#' in its agent"),
        ([IFACE_A], [{"from": dict(IFACE_A, agent="a#b"), "to": IFACE_A}], ValidationError,
         "flows[0].from: interface 'a#b#x' has '#' in its agent"),
        # A bad copy of an object that was valid earlier in the document.
        ([IFACE_A], [{"from": IFACE_A, "to": dict(IFACE_A, agent="a#")}], ValidationError,
         "flows[0].to: interface 'a##x' has '#' in its agent"),
        ([IFACE_A], [{"from": IFACE_A, "to": dict(IFACE_A, label=3)}], SchemaError,
         "flows[0].to.label: expected a string, got int"),
        ([IFACE_A], [{"from": IFACE_A, "to": {**IFACE_A, "mode": "R"}}], SchemaError,
         "flows[0].to: unknown field 'mode'"),
        ([IFACE_A], [{"from": IFACE_A, "to": {"kind": "implicit", "agent": "a", "entity": "x"}}],
         SchemaError, "flows[0].to: missing field 'label'"),
    ],
    ids=["bad-name", "bad-name-in-from", "bad-name-copy", "not-a-string-copy", "extra-field-copy",
         "renamed-field-copy"],
)
def test_a_bad_interface_object_is_reported_at_its_place(interfaces, flows, error, message):
    with pytest.raises(error) as caught:
        loads(json.dumps({"interfaces": interfaces, "flows": flows}))
    assert str(caught.value) == message


# Values an interface or flow object's fields, or the object itself, may be spoiled with:
# other names (valid, or with "#", or empty), other tags, and non-strings.
SPOILERS = st.sampled_from(["zz", "a#b", "", "R", "W", "explicit", "implicit",
                            1, 1.5, True, None, [], ["x"], {"k": "v"}])
SPOILS = st.tuples(
    st.integers(min_value=0),
    st.sampled_from(["reorder", "rename", "extra", "field", "replace"]),
    st.sampled_from(["kind", "entity", "mode", "agent", "label"]),
    SPOILERS,
) | st.tuples(st.integers(min_value=0), st.just("name"), st.none(),
              st.sampled_from(["zz", "a#b", ""]))


def spoil(obj, how, field, value):
    """``obj`` with its keys reversed, its last key renamed ``field``, an
    extra field, ``field`` (or, for "name", its entity or agent) set to
    ``value``, or replaced by ``value`` whole."""
    if not isinstance(obj, dict) or how == "replace":
        return value
    if how == "reorder":
        return dict(reversed(obj.items()))
    if how == "rename":
        *kept, (_, last) = obj.items()
        return dict([*kept, (field, last)])
    if how == "name":
        field = "entity" if "entity" in obj else "agent"
    return {**obj, ("extra" if how == "extra" else field): value}


def outcome(load, text):
    try:
        return load(text)
    except (SchemaError, ValidationError) as exc:
        return type(exc), str(exc)


@given(graphs() | graphs(INTERFACES), st.lists(SPOILS, max_size=3))
@example(CommonRepresentation({A, B}, {Flow(A, B)}), [(4, "rename", "entity", None)])
def test_loads_agrees_with_a_loader_that_checks_every_occurrence(g, spoils):
    doc = json.loads(dumps(g))
    places = [(doc[array], n) for array in ("interfaces", "flows") for n in range(len(doc[array]))]
    places += [(flow, end) for flow in doc["flows"] for end in ("from", "to")]
    for n, how, field, value in spoils:
        if places:
            holder, key = places[n % len(places)]
            holder[key] = spoil(holder[key], how, field, value)
    text = json.dumps(doc)
    assert outcome(loads, text) == outcome(strict_loads, text)


def test_the_memo_lives_for_one_document():
    names = [f"memo-probe-{n}" for n in range(3)]
    g = loads(json.dumps({"interfaces": [dict(IFACE_A, agent=name) for name in names],
                          "flows": []}))
    keys = [("implicit", name, "x") for name in names]
    assert all(key in model._interned for key in keys)
    del g
    gc.collect()
    assert not any(key in model._interned for key in keys)


def test_an_object_in_the_interfaces_and_both_flow_ends_is_one_interface():
    b = dict(IFACE_A, agent="b")
    g = loads(json.dumps({"interfaces": [IFACE_A, b],
                          "flows": [{"from": IFACE_A, "to": b}, {"from": b, "to": IFACE_A}]}))
    ends = [end for flow in g.flows for end in flow]
    assert len(ends) == 4 and len({id(iface) for iface in [*g.interfaces, *ends]}) == 2


def test_duplicate_entries_collapse():
    iface = {"kind": "implicit", "agent": "a", "label": "x"}
    g = cr_from_dict({"interfaces": [iface, iface], "flows": []})
    assert len(g.interfaces) == 1


class TestDot:
    def test_two_nodes_one_edge(self):
        text = to_dot(CommonRepresentation({A, B}, {Flow(A, B)}))
        assert text.count(";") == 3
        assert '"a#x" -> "b#x";' in text

    def test_empty_graph(self):
        assert to_dot(CommonRepresentation()) == "digraph cr {\n}\n"

    def test_explicit_node_names(self):
        text = to_dot(CommonRepresentation({Explicit("o1", Mode.R)}))
        assert '"o1.R";' in text

    def test_names_are_quoted_and_escaped(self):
        tricky = Implicit('she said "hi"', "x")
        text = to_dot(CommonRepresentation({tricky}))
        assert '"she said \\"hi\\"#x";' in text

    def test_deterministic(self):
        g = CommonRepresentation({A, B}, {Flow(A, B), Flow(B, A)})
        assert to_dot(g) == to_dot(g)


def test_json_text_parses_as_plain_json():
    g = CommonRepresentation({A, B}, {Flow(A, B)})
    doc = json.loads(dumps(g))
    assert set(doc) == {"interfaces", "flows"}
