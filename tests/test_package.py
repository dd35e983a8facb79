import contextlib
import importlib
import io
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import infoflow

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(infoflow.__file__).resolve().parents[1]


def star_import():
    namespace = {}
    exec("from infoflow import *", namespace)
    return set(namespace) - {"__builtins__"}


def test_all_lists_exactly_the_public_names():
    # The package's public names are its __all__: a star import gives them,
    # dir() lists them, and once all are read the namespace holds no other
    # public value.
    assert infoflow.__all__ == sorted(set(infoflow.__all__))
    assert star_import() == set(infoflow.__all__)
    assert dir(infoflow) == infoflow.__all__
    public = {
        name
        for name, value in vars(infoflow).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(infoflow.__all__)


def test_each_name_is_its_home_modules_object():
    for name in infoflow.__all__:
        home = importlib.import_module(f"infoflow.{infoflow._HOME[name]}")
        value = getattr(infoflow, name)
        assert value is getattr(home, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'infoflow' has no attribute 'nope'$"):
        infoflow.nope
    assert not hasattr(infoflow, "__main__")   # never imported, so never run


def run_fresh(code: str, *args: str) -> list:
    """Run ``code`` in a fresh interpreter that imports infoflow from this
    tree; its last line of stdout is JSON.  The code sees ``BEFORE``, the
    modules loaded when it started, so imports made by the host's ``site``
    do not count, and ``added()``, the modules loaded since."""
    prelude = ("import json, sys\nBEFORE = set(sys.modules)\n"
               "def added():\n    return sorted(set(sys.modules) - BEFORE)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", prelude + code, *args],
                          capture_output=True, text=True, env=env, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_bare_import_resolves_the_submodules():
    names = run_fresh(
        "import infoflow\n"
        "print(json.dumps([infoflow.policies.__name__, infoflow.rules.__name__,\n"
        "                  infoflow.compose.__name__, infoflow.cli.__name__]))\n")
    assert names == ["infoflow.policies", "infoflow.rules", "infoflow.compose", "infoflow.cli"]


# Modules that loading and querying a graph do not use.
NOT_FOR_GRAPHS = {"infoflow.policies", "infoflow.rules", "infoflow.analyze",
                  "infoflow.compose", "dataclasses", "argparse"}

GRAPH = {
    "interfaces": [{"kind": "implicit", "agent": "a", "label": "i"},
                   {"kind": "implicit", "agent": "b", "label": "i"}],
    "flows": [{"from": {"kind": "implicit", "agent": "a", "label": "i"},
               "to": {"kind": "implicit", "agent": "b", "label": "i"}}],
}

POLICY = {"kind": "acl", "objects": ["o"], "subjects": ["s"], "entries": {"o": [["s", "R"]]}}


def test_loading_a_graph_imports_no_other_module(tmp_path):
    path = tmp_path / "cr.json"
    path.write_text(json.dumps(GRAPH), encoding="utf-8")
    steps = run_fresh(
        "import infoflow, infoflow.cli\n"
        "steps = [added()]\n"
        "with open(sys.argv[1], encoding='utf-8') as handle:\n"
        "    graph = infoflow.serialize.loads(handle.read())\n"
        "steps.append(added())\n"
        "print(json.dumps([len(graph.flows), steps]))\n",
        str(path))
    flows, (imported, loaded) = steps
    assert flows == 1
    assert "infoflow.cli" in imported and "infoflow.serialize" in imported
    for modules in (imported, loaded):
        assert NOT_FOR_GRAPHS.isdisjoint(modules), sorted(NOT_FOR_GRAPHS & set(modules))


# One valid document per policy family.
FOUNDING = [
    POLICY,
    {"kind": "capabilities", "objects": ["o"], "subjects": ["t"], "entries": {"t": [["o", "W"]]}},
    {"kind": "lbac", "labels": ["lo", "hi"], "order": [["lo", "hi"]], "entities": ["e", "f"],
     "labelling": {"e": "lo", "f": "hi"}},
    {"kind": "rbac", "roles": ["a", "b"], "assignments": {"b": [["p", "R"], ["p", "W"]]},
     "hierarchy": [["a", "b"]]},
]


def test_founding_a_federation_imports_neither_dataclasses_nor_argparse():
    # A federation's set-up: translate each founding policy and merge the graphs.
    flows, modules = run_fresh(
        "import infoflow, infoflow.cli\n"
        "graph = infoflow.model.EMPTY_CR\n"
        "for doc in json.loads(sys.argv[1]):\n"
        "    policy = infoflow.policies.policy_from_dict(doc)\n"
        "    graph = infoflow.compose.merge(graph, infoflow.policies.policy_to_cr(policy))\n"
        "print(json.dumps([len(graph.flows), added()]))\n",
        json.dumps(FOUNDING))
    assert flows == 4
    assert {"infoflow.policies", "infoflow.compose"} <= set(modules)
    assert {"dataclasses", "argparse"}.isdisjoint(modules)


def test_the_rule_command_imports_neither_dataclasses_nor_inspect(tmp_path):
    # Every CLI process builds the parser, which imports the rules; a
    # dataclass would bring in ``inspect`` and, with it, ``ast`` and ``dis``.
    graph, rule = tmp_path / "cr.json", tmp_path / "rule.json"
    graph.write_text(json.dumps(GRAPH), encoding="utf-8")
    rule.write_text(json.dumps({"condition": {"type": "no-conflicts"}, "then": "merge",
                                "else": "append"}), encoding="utf-8")
    code, modules = run_fresh(
        "import infoflow.cli\n"
        "infoflow.cli.build_parser()\n"
        "code = infoflow.cli.main(['compose', 'rule', sys.argv[1], sys.argv[1], '--rule', sys.argv[2]])\n"
        "print(json.dumps([code, added()]))\n",
        str(graph), str(rule))
    assert code == 0
    assert {"infoflow.rules", "argparse"} <= set(modules)
    assert {"dataclasses", "inspect"}.isdisjoint(modules)


def test_translate_imports_the_policies(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(POLICY), encoding="utf-8")
    code, modules = run_fresh(
        "import infoflow, infoflow.cli\n"
        "code = infoflow.cli.main(['translate', sys.argv[1], '-o', sys.argv[2]])\n"
        "print(json.dumps([code, added()]))\n",
        str(path), str(tmp_path / "cr.json"))
    assert code == 0
    assert "infoflow.policies" in modules


def test_readme_public_api_section_lists_exactly_all():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    # The bulleted list names the public API; prose after it may name
    # module-level helpers.
    bullets = section[section.index("\n* "):].split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`", bullets)
    assert sorted(listed) == sorted(infoflow.__all__)
    assert len(listed) == len(set(listed))


def test_readme_library_example_runs_and_prints_what_it_says():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines()[-2:] == [
        "False", "name 'x' is declared as both an object and a subject"]
