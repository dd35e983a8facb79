import argparse
import contextlib
import io
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import infoflow
from infoflow import (
    EMPTY_CR,
    CommonRepresentation,
    Explicit,
    Flow,
    Implicit,
    Mode,
    SchemaError,
    ValidationError,
    dumps,
    format_interface,
    loads,
)
from infoflow import cli
from infoflow.cli import main, parse_interface_token
from crgen import random_cr

X = Implicit("x", "i")
Y = Implicit("y", "i")
A = Implicit("a", "i")
B = Implicit("b", "i")
C = Implicit("c", "i")
D = Implicit("d", "i")

ACL_DOC = {
    "kind": "acl",
    "objects": ["o1", "o2", "o3"],
    "subjects": ["s1", "s2", "s3"],
    "entries": {
        "o1": [["s1", "R"], ["s3", "R"], ["s3", "W"]],
        "o2": [["s1", "W"], ["s2", "W"]],
        "o3": [["s1", "R"], ["s1", "W"], ["s2", "R"], ["s3", "R"]],
    },
}

LBAC_DOC = {
    "kind": "lbac",
    "labels": ["low", "high"],
    "order": [["low", "high"]],
    "entities": ["A", "B", "C"],
    "labelling": {"A": "low", "B": "high", "C": "high"},
}

RBAC_DOC = {
    "kind": "rbac",
    "roles": ["a", "b"],
    "assignments": {"a": [["o2", "W"]], "b": [["o1", "R"]]},
    "hierarchy": [["a", "b"]],
}

RULE_DOC = {
    "condition": {"type": "conflicts-complementary-in", "side": "first"},
    "then": "merge",
    "else": "append",
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    if isinstance(doc, str):
        path.write_text(doc, encoding="utf-8")
    else:
        path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_cr(tmp_path, name, cr):
    path = tmp_path / name
    path.write_text(dumps(cr), encoding="utf-8")
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTranslate:
    def test_acl_matrix(self, tmp_path, capsys):
        policy = write(tmp_path, "acl.json", ACL_DOC)
        code, out, err = run(capsys, "translate", policy)
        assert code == 0
        cr = loads(out)
        assert len(cr.interfaces) == 12
        assert len(cr.flows) == 9

    def test_lbac(self, tmp_path, capsys):
        policy = write(tmp_path, "lbac.json", LBAC_DOC)
        code, out, _ = run(capsys, "translate", policy)
        assert code == 0
        assert len(loads(out).flows) == 4

    def test_rbac_semantics_flag(self, tmp_path, capsys):
        policy = write(tmp_path, "rbac.json", RBAC_DOC)
        code, literal_out, _ = run(capsys, "translate", policy)
        assert code == 0
        assert loads(literal_out).flows == frozenset()
        code, cross_out, _ = run(
            capsys, "translate", policy, "--rbac-semantics", "cross-object"
        )
        assert code == 0
        assert loads(cross_out).flows == frozenset(
            {Flow(Explicit("o1", Mode.R), Explicit("o2", Mode.W))}
        )

    def test_output_file(self, tmp_path, capsys):
        policy = write(tmp_path, "acl.json", ACL_DOC)
        out_path = tmp_path / "out.json"
        code, out, _ = run(capsys, "translate", policy, "-o", str(out_path))
        assert code == 0 and out == ""
        assert len(loads(out_path.read_text(encoding="utf-8")).flows) == 9

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        policy = write(tmp_path, "bad.json", "{oops")
        code, out, err = run(capsys, "translate", policy)
        assert code == 2 and "error" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "translate", str(tmp_path / "gone.json"))
        assert code == 2

    def test_invalid_policy_exits_3(self, tmp_path, capsys):
        doc = dict(ACL_DOC, subjects=["s1"])  # s2, s3 now undeclared
        policy = write(tmp_path, "acl.json", doc)
        code, _, err = run(capsys, "translate", policy)
        assert code == 3 and "s2" in err

    def test_name_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        doc = dict(ACL_DOC, objects=["o1", "o2", "o3", "o\ud800"])
        policy = write(tmp_path, "acl.json", doc)   # the file holds the \\ud800 escape
        out_path = tmp_path / "out.json"
        out_path.write_text("old\n", encoding="utf-8")
        code, out, err = run(capsys, "translate", policy, "-o", str(out_path))
        assert code == 3 and "not UTF-8" in err and "\\ud800" in err
        assert out_path.read_text(encoding="utf-8") == "old\n"
        code, out, err = run(capsys, "translate", policy)
        assert code == 3 and out == ""


class TestOutputFile:
    """``-o`` replaces its target atomically."""

    @pytest.fixture
    def policy(self, tmp_path):
        return write(tmp_path, "acl.json", ACL_DOC)

    def test_new_file_gets_the_umask_mode(self, tmp_path, policy, capsys):
        umask = os.umask(0o027)
        try:
            code, _, _ = run(capsys, "translate", policy, "-o", str(tmp_path / "out.json"))
        finally:
            os.umask(umask)
        assert code == 0
        assert stat.S_IMODE((tmp_path / "out.json").stat().st_mode) == 0o666 & ~0o027

    def test_existing_file_keeps_its_mode(self, tmp_path, policy, capsys):
        out_path = tmp_path / "out.json"
        out_path.write_text("old\n", encoding="utf-8")
        out_path.chmod(0o604)
        code, _, _ = run(capsys, "translate", policy, "-o", str(out_path))
        assert code == 0
        assert stat.S_IMODE(out_path.stat().st_mode) == 0o604
        assert len(loads(out_path.read_text(encoding="utf-8")).flows) == 9

    def test_failed_replace_keeps_old_file_and_no_temporary(self, tmp_path, policy, capsys,
                                                             monkeypatch):
        out_path = tmp_path / "out.json"
        out_path.write_text("old\n", encoding="utf-8")
        before = sorted(os.listdir(tmp_path))

        def refuse(src, dst):
            raise PermissionError(13, "refused", dst)

        monkeypatch.setattr(os, "replace", refuse)
        code, _, err = run(capsys, "translate", policy, "-o", str(out_path))
        assert code == 2 and "refused" in err
        assert out_path.read_text(encoding="utf-8") == "old\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_write_failing_partway_keeps_old_file_and_no_temporary(self, tmp_path):
        out_path = tmp_path / "out.json"
        out_path.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            cli._emit("x" * 100_000 + "\ud800", str(out_path))
        assert out_path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_missing_directory_exits_2_naming_the_target(self, tmp_path, policy, capsys):
        target = str(tmp_path / "gone" / "out.json")
        code, _, err = run(capsys, "translate", policy, "-o", target)
        assert code == 2 and f"'{target}'" in err and ".tmp" not in err

    def test_device_is_written_in_place(self, policy, capsys):
        code, out, _ = run(capsys, "translate", policy, "-o", os.devnull)
        assert code == 0 and out == ""
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


class TestCompose:
    @pytest.fixture
    def pair(self, tmp_path):
        cr1 = CommonRepresentation({A, B, C}, {Flow(A, C), Flow(B, C)})
        cr2 = CommonRepresentation({A, C, D}, {Flow(A, D), Flow(D, C)})
        return (
            write_cr(tmp_path, "cr1.json", cr1),
            write_cr(tmp_path, "cr2.json", cr2),
        )

    @pytest.fixture
    def order_pair(self, tmp_path):
        fwd = CommonRepresentation({X, Y}, {Flow(X, Y)})
        bwd = CommonRepresentation({X, Y}, {Flow(Y, X)})
        return (
            write_cr(tmp_path, "fwd.json", fwd),
            write_cr(tmp_path, "bwd.json", bwd),
        )

    def test_merge(self, pair, capsys):
        code, out, _ = run(capsys, "compose", "merge", *pair)
        assert code == 0
        assert len(loads(out).flows) == 4

    def test_append_is_order_sensitive(self, order_pair, capsys):
        fwd, bwd = order_pair
        code, first, _ = run(capsys, "compose", "append", fwd, bwd)
        assert code == 0
        code, second, _ = run(capsys, "compose", "append", bwd, fwd)
        assert code == 0
        assert loads(first).flows == frozenset({Flow(X, Y)})
        assert loads(second).flows == frozenset({Flow(Y, X)})

    def test_append_strict(self, order_pair, tmp_path, capsys):
        fwd, bwd = order_pair
        base = write_cr(tmp_path, "base.json", CommonRepresentation({X, Y}, set()))
        code, out, _ = run(capsys, "compose", "append-strict", base, bwd)
        assert code == 0
        assert loads(out).flows == frozenset()

    def test_rule_merge_branch(self, tmp_path, capsys):
        a = write_cr(tmp_path, "a.json", CommonRepresentation({X, Y}, {Flow(X, Y), Flow(Y, X)}))
        b = write_cr(tmp_path, "b.json", CommonRepresentation({X, Y}, set()))
        rule = write(tmp_path, "rule.json", RULE_DOC)
        code, out, _ = run(capsys, "compose", "rule", a, b, "--rule", rule)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "compose"
        assert report["outcome"]["decisions"][0]["action"] == "merge"
        assert not report["outcome"]["rejected"]

    def test_rule_append_branch_writes_graph(self, order_pair, tmp_path, capsys):
        fwd, bwd = order_pair
        rule = write(tmp_path, "rule.json", RULE_DOC)
        out_path = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "compose", "rule", fwd, bwd, "--rule", rule, "-o", str(out_path)
        )
        assert code == 0
        report = json.loads(out)
        assert report["outcome"]["decisions"][0]["action"] == "append"
        result = loads(out_path.read_text(encoding="utf-8"))
        assert result.flows == frozenset({Flow(X, Y)})

    def test_rule_reject_exits_4(self, order_pair, tmp_path, capsys):
        fwd, bwd = order_pair
        rule = write(
            tmp_path,
            "reject.json",
            {"condition": {"type": "no-conflicts"}, "then": "merge", "else": "reject"},
        )
        code, out, _ = run(capsys, "compose", "rule", fwd, bwd, "--rule", rule)
        assert code == 4
        report = json.loads(out)
        assert report["outcome"]["rejected"] is True
        assert report["outcome"]["result"] is None
        assert report["outcome"]["decisions"][0]["action"] == "reject"

    def test_rule_requires_rule_file(self, pair, capsys):
        code, _, err = run(capsys, "compose", "rule", *pair)
        assert code == 2

    @pytest.mark.parametrize("op", ["merge", "append", "append-strict"])
    def test_rule_file_with_another_op_exits_2(self, op, pair, tmp_path, capsys):
        rule = write(tmp_path, "rule.json", RULE_DOC)
        for rule_file in (rule, str(tmp_path / "missing.json")):
            code, out, err = run(capsys, "compose", op, *pair, "--rule", rule_file)
            assert code == 2 and out == ""
            assert f"compose {op} takes no --rule" in err

    def test_needs_two_files(self, pair, capsys):
        code, _, err = run(capsys, "compose", "merge", pair[0])
        assert code == 2

    def test_invalid_graph_exits_3(self, tmp_path, capsys, pair):
        dangling = {
            "interfaces": [{"kind": "implicit", "agent": "a", "label": "i"}],
            "flows": [
                {
                    "from": {"kind": "implicit", "agent": "a", "label": "i"},
                    "to": {"kind": "implicit", "agent": "zz", "label": "i"},
                }
            ],
        }
        bad = write(tmp_path, "bad.json", dangling)
        code, _, err = run(capsys, "compose", "merge", pair[0], bad)
        assert code == 3 and "zz" in err


IFACE = {"kind": "implicit", "agent": "a", "label": "i"}


@pytest.mark.parametrize(
    "content, code, message",
    [
        ({"interfaces": []}, 2, "graph: missing field 'flows'"),
        ({"interfaces": [IFACE], "flows": [{"from": IFACE, "to": IFACE}]}, 3,
         "flows[0]: self-flow on interface a#i"),
        ({"interfaces": [], "flows": [{"from": IFACE, "to": dict(IFACE, agent="b")}]}, 3,
         "flow a#i -> b#i references undeclared interface a#i; "
         "flow a#i -> b#i references undeclared interface b#i"),
        ("{oops", 2, "invalid JSON: "),
        ({"interfaces": [IFACE, dict(IFACE, agent="a#b")], "flows": []}, 3,
         "interfaces[1]: interface 'a#b#i' has '#' in its agent"),
    ],
    ids=["schema", "self-flow", "undeclared", "not-json", "bad-name"],
)
@pytest.mark.parametrize(
    "argv",
    [["check", "{bad}", "--lively"], ["compose", "append", "{good}", "{bad}", "{other}"],
     ["analyze", "{good}", "{bad}"], ["export-dot", "{bad}"]],
    ids=["check", "compose", "analyze", "export-dot"],
)
def test_every_graph_file_error_names_the_file_once(tmp_path, capsys, argv, content, code,
                                                    message):
    files = {"bad": write(tmp_path, "bad.json", content),
             "good": write_cr(tmp_path, "good.json", EMPTY_CR),
             "other": write_cr(tmp_path, "other.json", EMPTY_CR)}
    got, out, err = run(capsys, *[arg.format(**files) for arg in argv])
    assert got == code and out == ""
    assert err.startswith(f"error: {files['bad']}: {message}")
    assert err.count(files["bad"]) == 1


@pytest.mark.parametrize(
    "argv, content, code, message",
    [
        (["translate", "{bad}"], {"kind": "acl", "objects": []}, 2,
         "policy: missing field 'entries'"),
        (["translate", "{bad}"], dict(ACL_DOC, objects=["o1", "o2", "o3", "o#"]), 3,
         "object name 'o#' contains '#'"),
        (["translate", "{bad}"], "{oops", 2, "invalid JSON: "),
        (["compose", "rule", "{good}", "{good}", "--rule", "{bad}"],
         dict(RULE_DOC, condition={"type": "x"}), 2, "condition: unknown type 'x'"),
        (["compose", "rule", "{good}", "{good}", "--rule", "{bad}"],
         dict(RULE_DOC, condition={"type": ["and"]}), 2, "condition: unknown type ['and']"),
        (["compose", "rule", "{good}", "{good}", "--rule", "{bad}"],
         dict(RULE_DOC, **{"else": "merge"}), 3, "rule actions must differ"),
        (["compose", "rule", "{good}", "{good}", "--rule", "{bad}"], "{oops", 2,
         "invalid JSON: "),
    ],
    ids=["policy-schema", "policy-invalid", "policy-not-json", "rule-schema",
         "rule-type-not-a-string", "rule-invalid", "rule-not-json"],
)
def test_every_policy_and_rule_file_error_names_the_file_once(tmp_path, capsys, argv, content,
                                                              code, message):
    files = {"bad": write(tmp_path, "bad.json", content),
             "good": write_cr(tmp_path, "good.json", EMPTY_CR)}
    got, out, err = run(capsys, *[arg.format(**files) for arg in argv])
    assert got == code and out == ""
    assert err.startswith(f"error: {files['bad']}: {message}")
    assert err.count(files["bad"]) == 1


class TestAnalyze:
    def test_worked_pair(self, tmp_path, capsys):
        cr1 = write_cr(tmp_path, "cr1.json", CommonRepresentation({A, B, C}, {Flow(A, C), Flow(B, C)}))
        cr2 = write_cr(tmp_path, "cr2.json", CommonRepresentation({A, C, D}, {Flow(A, D), Flow(D, C)}))
        code, out, _ = run(capsys, "analyze", cr1, cr2)
        assert code == 0
        report = json.loads(out)
        assert report["outcome"]["conflicting"] is True
        assert report["outcome"]["conflicts"] == [
            {
                "from": {"kind": "implicit", "agent": "a", "label": "i"},
                "to": {"kind": "implicit", "agent": "c", "label": "i"},
            }
        ]
        assert report["outcome"]["common_flows"] == []
        assert len(report["outcome"]["diffs"]) == 4

    def test_identical_files(self, tmp_path, capsys):
        cr = write_cr(tmp_path, "cr.json", CommonRepresentation({A, B}, {Flow(A, B)}))
        code, out, _ = run(capsys, "analyze", cr, cr)
        report = json.loads(out)
        assert code == 0
        assert report["outcome"]["conflicting"] is False
        assert report["outcome"]["diffs"] == []

    def test_disjoint_interfaces(self, tmp_path, capsys):
        one = write_cr(tmp_path, "one.json", CommonRepresentation({A, B}, {Flow(A, B)}))
        two = write_cr(tmp_path, "two.json", CommonRepresentation({C, D}, {Flow(C, D)}))
        code, out, _ = run(capsys, "analyze", one, two)
        report = json.loads(out)
        assert report["outcome"]["conflicting"] is False
        assert len(report["outcome"]["diffs"]) == 2


class TestCheck:
    @pytest.fixture
    def graph_file(self, tmp_path):
        cr = CommonRepresentation({A, B, C}, {Flow(A, B), Flow(B, A), Flow(B, C)})
        return write_cr(tmp_path, "cr.json", cr)

    def test_grant_results(self, graph_file, capsys):
        code, out, _ = run(
            capsys,
            "check", graph_file,
            "--grant", "a#i", "b#i",
            "--grant", "c#i", "a#i",
            "--grant", "a#i", "zz#i",
        )
        assert code == 0
        results = json.loads(out)["outcome"]["results"]
        assert [r["result"] for r in results] == ["permit", "deny", "undefined"]

    def test_reachable(self, graph_file, capsys):
        code, out, _ = run(capsys, "check", graph_file, "--reachable", "a#i", "c#i")
        assert code == 0
        assert json.loads(out)["outcome"]["results"][0]["result"] is True

    def test_lively_with_component_count(self, graph_file, capsys):
        code, out, _ = run(capsys, "check", graph_file, "--lively")
        assert code == 0
        entry = json.loads(out)["outcome"]["results"][0]
        assert entry["result"] is False
        assert entry["components"] == 2

    def test_module_entry_point(self, graph_file):
        env = dict(os.environ, PYTHONPATH=str(Path(infoflow.__file__).parents[1]))
        for module in ("infoflow", "infoflow.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "check", graph_file, "--lively"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            results = json.loads(proc.stdout)["outcome"]["results"]
            assert results == [{"query": "lively", "result": False, "components": 2}]

    def test_reachable_unknown_interface_exits_5(self, graph_file, capsys):
        code, _, err = run(capsys, "check", graph_file, "--reachable", "a#i", "zz#i")
        assert code == 5 and "zz#i" in err

    def test_bad_token_exits_5(self, graph_file, capsys):
        code, _, err = run(capsys, "check", graph_file, "--grant", "noport", "a#i")
        assert code == 5 and "noport" in err

    def test_graph_name_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        doc = {"interfaces": [{"kind": "explicit", "entity": "o\ud800", "mode": "R"}],
               "flows": []}
        code, out, err = run(capsys, "check", write(tmp_path, "cr.json", doc), "--lively")
        assert code == 3 and out == "" and "not UTF-8" in err

    def test_token_that_is_not_utf8_exits_5(self, graph_file, tmp_path, capsys):
        # What a non-UTF-8 byte in argv decodes to under surrogateescape.
        report = tmp_path / "report.json"
        code, _, err = run(capsys, "check", graph_file, "--grant", "\udcff.R", "a#i",
                           "-o", str(report))
        assert code == 5 and "not UTF-8" in err
        assert not report.exists()

    def test_graph_name_holding_hash_exits_3(self, tmp_path, capsys):
        doc = {"interfaces": [{"kind": "explicit", "entity": "a#b", "mode": "R"}],
               "flows": []}
        code, out, err = run(capsys, "check", write(tmp_path, "cr.json", doc), "--lively")
        assert code == 3 and out == "" and "has '#' in its entity" in err

    def test_explicit_tokens(self, tmp_path, capsys):
        o_r, s_w = Explicit("o", Mode.R), Explicit("s", Mode.W)
        path = write_cr(tmp_path, "cr.json", CommonRepresentation({o_r, s_w}, {Flow(o_r, s_w)}))
        code, out, _ = run(capsys, "check", path, "--grant", "o.R", "s.W")
        assert code == 0
        assert json.loads(out)["outcome"]["results"][0]["result"] == "permit"


class TestExportDot:
    def test_counts(self, tmp_path, capsys):
        path = write_cr(tmp_path, "cr.json", CommonRepresentation({A, B}, {Flow(A, B)}))
        code, out, _ = run(capsys, "export-dot", path)
        assert code == 0
        assert out.count("->") == 1
        assert out.count(";") == 3

    def test_empty_graph(self, tmp_path, capsys):
        path = write_cr(tmp_path, "cr.json", CommonRepresentation())
        code, out, _ = run(capsys, "export-dot", path)
        assert code == 0
        assert out == "digraph cr {\n}\n"


# Far deeper than the interpreter's recursion limit lets the decoder go.
DEEP = "[" * 200_000 + "]" * 200_000


class TestDeepNesting:
    """JSON nested too deeply to decode is a parse error, never a crash."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["translate", "{deep}"],
            ["check", "{deep}", "--lively"],
            ["analyze", "{graph}", "{deep}"],
            ["compose", "merge", "{graph}", "{deep}"],
            ["export-dot", "{deep}"],
            ["compose", "rule", "{graph}", "{graph}", "--rule", "{deep}"],
        ],
        ids=["policy", "check", "analyze", "compose", "export-dot", "rule"],
    )
    def test_every_reader_exits_2(self, tmp_path, capsys, argv):
        files = {"deep": write(tmp_path, "deep.json", DEEP),
                 "graph": write_cr(tmp_path, "graph.json", EMPTY_CR)}
        code, out, err = run(capsys, *[arg.format(**files) for arg in argv])
        assert code == 2 and out == ""
        assert "nested too deeply" in err and "Traceback" not in err

    def test_loads_raises_schema_error(self):
        with pytest.raises(SchemaError, match="nested too deeply"):
            loads(DEEP)


# More digits than CPython converts to an int by default; json.dumps of such
# an int raises too, so the document is written as text.
LONG_INT = "[" + "1" * 5000 + "]"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer string conversion")
@pytest.mark.parametrize(
    "argv",
    [
        ["translate", "{long}"],
        ["check", "{long}", "--lively"],
        ["compose", "rule", "{graph}", "{graph}", "--rule", "{long}"],
    ],
    ids=["policy", "check", "rule"],
)
def test_integer_too_long_to_convert_exits_2(tmp_path, capsys, argv):
    files = {"long": write(tmp_path, "long.json", LONG_INT),
             "graph": write_cr(tmp_path, "graph.json", EMPTY_CR)}
    code, out, err = run(capsys, *[arg.format(**files) for arg in argv])
    assert code == 2 and out == ""
    assert f"error: {files['long']}: invalid JSON: " in err and "Traceback" not in err


class TestRoundTrip:
    def test_random_graphs_survive_save_load(self, tmp_path):
        rng = random.Random(99)
        for n in range(100):
            cr = random_cr(rng)
            text = dumps(cr)
            assert loads(text) == cr
            assert dumps(loads(text)) == text


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_compose_ops_are_the_actions_that_compose_and_rule():
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    op = next(action for action in commands.choices["compose"]._actions if action.dest == "op")
    assert op.choices == ["merge", "append", "append-strict", "rule"]


def test_translate_help_lists_the_rbac_semantics(capsys):
    assert main(["translate", "--help"]) == 0
    assert "{literal,cross-object}" in capsys.readouterr().out


def test_interface_token_parsing():
    assert parse_interface_token("a#i") == Implicit("a", "i")
    assert parse_interface_token("o.R") == Explicit("o", Mode.R)
    assert parse_interface_token("o.W") == Explicit("o", Mode.W)
    with pytest.raises(cli.QueryError, match=r"^bad interface token: interface '\.R' has an "):
        parse_interface_token(".R")
    with pytest.raises(cli.QueryError, match="^bad interface token: interface '#x' has an "):
        parse_interface_token("#x")
    with pytest.raises(cli.QueryError, match="^bad interface token 'bare': expected "):
        parse_interface_token("bare")


NAMES = st.text(st.sampled_from(["a", "b", "é", "#", ".", "R", "W", "\ud800"]), max_size=4)


@given(st.one_of(st.tuples(st.just(Explicit), NAMES, st.sampled_from(Mode)),
                 st.tuples(st.just(Implicit), NAMES, NAMES)))
def test_every_valid_interface_reads_back_from_its_token(fields):
    # Any names: the constructor refuses exactly the bad ones (empty, holding
    # the lone surrogate, or '#' in the entity or agent), and every interface
    # it makes reads back from its token.
    cls, first, second = fields
    names = (first, second) if cls is Implicit else (first,)
    refused = "#" in first or any(not name or "\ud800" in name for name in names)
    try:
        iface = cls(first, second)
    except ValidationError:
        assert refused
        return
    assert not refused
    assert parse_interface_token(format_interface(iface)) is iface


# Words of the file formats, so that generated documents get past the first
# schema check and reach the later ones.
WORDS = [
    "kind", "acl", "capabilities", "lbac", "rbac", "objects", "subjects", "entries",
    "labels", "order", "entities", "labelling", "roles", "assignments", "hierarchy",
    "interfaces", "flows", "from", "to", "explicit", "implicit", "entity", "mode", "agent",
    "label", "R", "W", "condition", "then", "else", "type", "side", "n", "conditions",
    "no-conflicts", "conflicts-complementary-in", "conflict-count-at-most", "and", "not",
    "merge", "append", "append-strict", "reject", "first", "second", "o1", "s1", "a",
]
SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
    | st.sampled_from(WORDS + ["", "\ud800"]) | st.text(max_size=4)
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=24,
)
GRAPH_DOC = json.loads(dumps(random_cr(random.Random(5))))
# Interface objects of either kind whose fields may have any type.
INTERFACE_DOCS = st.sampled_from(GRAPH_DOC["interfaces"]) | st.fixed_dictionaries(
    {"kind": st.just("explicit"), "entity": SCALARS, "mode": SCALARS}
) | st.fixed_dictionaries({"kind": st.just("implicit"), "agent": SCALARS, "label": SCALARS})


def near(*docs):
    """The valid documents ``docs``, and each with one field's value replaced."""
    return st.sampled_from(docs) | st.sampled_from(docs).flatmap(
        lambda doc: st.builds(lambda key, value: {**doc, key: value},
                              st.sampled_from(sorted(doc)), DOCUMENTS)
    )


# Documents close to each input kind, so most runs get past the first check.
INPUTS = {
    "policy": near(ACL_DOC, LBAC_DOC, RBAC_DOC),
    "graph": near(GRAPH_DOC) | st.fixed_dictionaries({
        "interfaces": st.lists(INTERFACE_DOCS, max_size=4),
        "flows": st.lists(st.fixed_dictionaries({"from": INTERFACE_DOCS, "to": INTERFACE_DOCS}),
                          max_size=4),
    }),
    "rule": near(RULE_DOC),
}
TOKENS = (
    st.sampled_from(["a#x", "b#x", "p.R", "q.W", "o1.R", "bad", ".R", "#x"]) | st.text(max_size=5)
    | NAMES.map(lambda name: f"{name}.R") | NAMES.map(lambda name: f"{name}.W")
    | st.builds(lambda agent, label: f"{agent}#{label}", NAMES, NAMES)
)

# Each subcommand: its input kinds, and its argv from those files and four tokens.
COMMANDS = {
    "translate": (["policy"], lambda f, t: ["translate", *f, "--rbac-semantics", "cross-object"]),
    "compose": (["graph"] * 2, lambda f, t: ["compose", "merge", *f]),
    "compose-append-strict": (["graph"] * 3, lambda f, t: ["compose", "append-strict", *f]),
    "compose-rule": (["graph", "graph", "rule"],
                     lambda f, t: ["compose", "rule", f[0], f[1], "--rule", f[2]]),
    "analyze": (["graph"] * 2, lambda f, t: ["analyze", *f]),
    "check": (["graph"], lambda f, t: ["check", *f, "--lively", "--grant", t[0], t[1],
                                       "--reachable", t[2], t[3]]),
    "export-dot": (["graph"], lambda f, t: ["export-dot", *f]),
}


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), tokens=st.lists(TOKENS, min_size=4, max_size=4))
def test_any_input_exits_with_a_documented_code(command, data, tokens):
    kinds, argv = COMMANDS[command]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for n, kind in enumerate(kinds):
            content = data.draw(st.binary(max_size=48) | (DOCUMENTS | INPUTS[kind]).map(
                lambda doc: json.dumps(doc).encode()))
            files.append(os.path.join(tmp, f"in{n}.json"))
            Path(files[-1]).write_bytes(content)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv(files, tokens))
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()
