import json
import sys

import pytest
from hypothesis import example, given, strategies as st

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
from infoflow.serialize import cr_from_dict, cr_to_dict
from crgen import graphs

A = Implicit("a", "x")
B = Implicit("b", "x")

# Names that stress the encoder: JSON escapes, control characters, non-ASCII,
# U+2028, a lone surrogate, and the token grammar's own "#" and ".R"/".W".
AWKWARD = st.text(
    st.sampled_from(['a', 'b', '"', '\\', '\x00', '\n', '\x1f', '\x7f', 'é', '中',
                     '\u2028', '\ud800', '#', '.', 'R', 'W']),
    max_size=5,
) | st.sampled_from(["x#y", "o.R", "a.W", ""])
INTERFACES = st.builds(Explicit, AWKWARD, st.sampled_from(Mode)) | st.builds(
    Implicit, AWKWARD, AWKWARD
)


@st.composite
def awkward_graphs(draw):
    """Graphs over awkward names, with some flow endpoints left undeclared."""
    declared = draw(st.lists(INTERFACES, max_size=6))
    pool = declared + draw(st.lists(INTERFACES, max_size=3))
    if not pool:
        return CommonRepresentation()
    ends = st.sampled_from(pool)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=10))
    return CommonRepresentation(declared, {Flow(a, b) for a, b in pairs if a != b})


def reference_dumps(g):
    """The indented standard-library encoding that defines the canonical layout."""
    return json.dumps(cr_to_dict(g), indent=2, ensure_ascii=False) + "\n"


@given(awkward_graphs())
@example(CommonRepresentation())
def test_dumps_is_byte_identical_to_the_reference_encoder(g):
    assert dumps(g) == reference_dumps(g)


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
