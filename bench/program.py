"""The program side of each workload: its set-up and its jobs.

Nothing here imports the benchmark's checker or input generator.  Jobs come
in a plain JSON form (policy documents, rule documents, interface tuples,
CLI argument lists); :func:`prepare` turns one into library inputs outside
the timer, and :class:`Runner` runs it.  The runner reaches infoflow only
through module attributes (``infoflow.cli.main``, ``infoflow.model.grant``,
...), so the traced run's wrappers see every call.

Run as a script it is a fresh process that holds only the program and its
inputs::

    python3 bench/program.py SRC_DIR WORKLOAD INPUTS_JSON [JOBS_JSONL]

It prints one JSON object: ``setup_s``, the seconds spent importing infoflow
(the package and its CLI) and in the workload's set-up step; ``sizes``, the
interfaces and flows of the graph that step produced; and, given a file of
plain jobs (one JSON value a line), ``peak_rss_mb``: how far importing
infoflow, the set-up and one run of every job raised the process's peak RSS
above what the bare interpreter and its inputs held.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

infoflow = None   # bound by setup(), which a fresh interpreter times


def setup(workload: str, inputs: dict):
    """The workload's set-up step; returns the graph jobs start from, or None.

    audit-queries loads the audited graph; federation-join translates the
    founding members and folds them with merge.  The import happens here so
    that a fresh interpreter pays for it inside the timer.
    """
    global infoflow
    import infoflow
    import infoflow.cli  # noqa: F401  (translate-bulk drives the CLI)

    if workload == "audit-queries":
        with open(inputs["graph_path"], encoding="utf-8") as handle:
            return infoflow.serialize.loads(handle.read())
    if workload == "federation-join":
        graph = infoflow.model.EMPTY_CR
        for doc, semantics in inputs["founding"]:
            policy = infoflow.policies.policy_from_dict(doc)
            member = infoflow.policies.policy_to_cr(policy, infoflow.policies.RbacSemantics(semantics))
            graph = infoflow.compose.merge(graph, member)
        return graph
    return None


def interface(t) -> object:
    """The library interface of a checker tuple ``(kind, name, mode or label)``."""
    if t[0] == "explicit":
        return infoflow.model.Explicit(t[1], infoflow.model.Mode(t[2]))
    return infoflow.model.Implicit(t[1], t[2])


def interface_pairs(pairs) -> list:
    return [(interface(a), interface(b)) for a, b in pairs]


def prepare(workload: str, plain):
    """Library inputs of one job, from its plain form.

    * translate-bulk: a list of ``cli.main`` argument lists;
    * audit-queries: ``[grant pairs, reachability pairs]`` of interface tuples;
    * federation-join: ``[reset, policy, rbac semantics, rule, grant pairs,
      reachability pairs]``; ``reset`` starts a new episode from the set-up graph.
    """
    if workload == "translate-bulk":
        return plain
    if workload == "audit-queries":
        grants, reach = plain
        return interface_pairs(grants), interface_pairs(reach)
    reset, doc, semantics, rule, grants, reach = plain
    return (reset, doc, infoflow.policies.RbacSemantics(semantics),
            infoflow.rules.rule_from_dict(rule), interface_pairs(grants), interface_pairs(reach))


class Runner:
    """Runs one workload's prepared jobs, starting from its set-up graph."""

    def __init__(self, workload: str, start):
        self.start = self.combined = start
        self.run = {"translate-bulk": self._translate, "audit-queries": self._audit,
                    "federation-join": self._join}[workload]

    def _translate(self, argvs: list) -> list[int]:
        with contextlib.redirect_stderr(io.StringIO()):
            return [infoflow.cli.main(argv) for argv in argvs]

    def _audit(self, job: tuple) -> tuple:
        grant_pairs, reach_pairs = job
        graph, model = self.start, infoflow.model
        grants = [model.grant(a, b, graph) for a, b in grant_pairs]
        reach = [model.reachable(graph, s, d) for s, d in reach_pairs]
        return grants, reach, model.is_lively(graph)

    def _join(self, job: tuple) -> tuple:
        """Admit one newcomer: translate it, apply the rule, then read the new graph."""
        reset, doc, semantics, rule, grant_pairs, reach_pairs = job
        if reset:
            self.combined = self.start
        policies, model = infoflow.policies, infoflow.model
        member = policies.policy_to_cr(policies.policy_from_dict(doc), semantics)
        decision = infoflow.rules.apply_rule(rule, self.combined, member)
        graph = self.combined if decision.result is None else decision.result
        lively = model.is_lively(graph)
        reach = [model.reachable(graph, s, d) for s, d in reach_pairs]
        grants = [model.grant(a, b, graph) for a, b in grant_pairs]
        self.combined = graph
        return member, decision, graph, lively, reach, grants


def peak_rss_mb() -> float:
    """The process's peak RSS, from Linux's VmHWM, which starts afresh when a
    process execs (``ru_maxrss`` keeps the peak of the process that forked it)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise OSError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    src, workload, inputs_path, *jobs_path = argv
    sys.path.insert(0, src)
    with open(inputs_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    baseline = peak_rss_mb()
    start = time.perf_counter()
    graph = setup(workload, inputs)
    seconds = time.perf_counter() - start
    result = {"setup_s": seconds,
              "sizes": [0, 0] if graph is None else [len(graph.interfaces), len(graph.flows)]}
    if jobs_path:
        runner = Runner(workload, graph)
        with open(jobs_path[0], encoding="utf-8") as handle:
            for line in handle:
                runner.run(prepare(workload, json.loads(line)))
        result["peak_rss_mb"] = peak_rss_mb() - baseline
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
