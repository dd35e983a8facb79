"""Spans around infoflow's public functions, installed from the benchmark.

A span records (name, parent span, job, start, end).  ``Tracer.install``
wraps every public function of each module in ``src/infoflow`` and rebinds
the wrapper wherever the original is bound: the defining module, modules that
``from``-import it (``cli``, the package namespace) and module-level tables
(the action table in ``rules``).  Spans stay in memory; ``summary`` turns
them into the per-layer metrics and ``dump`` writes them out.

A layer's self time is its spans' durations minus the time their child spans
cover.  Job time not covered by any span is the benchmark's own time
(``bench.self_ms``), so the layers' self times plus that remainder add up to
the traced job time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "serialize", "policies", "model", "analyze", "compose", "rules")

# Called once per interface, flow or token (sort keys, dict builders, token
# parsing): a span each would cost more than the work it measures, so their
# time stays in the calling span.
PER_ELEMENT = {
    "interface_key", "flow_key", "format_interface", "format_flow", "inverse",
    "is_complementary", "interface_to_dict", "interface_from_dict", "flow_to_dict",
    "flow_from_dict", "parse_interface_token",
}

# Spans whose arguments and result are kept until the job ends, when
# ``end_job`` turns them into sizes outside the timed calls.
SIZED = {"serialize.dumps", "analyze.conflicts", "compose.merge", "compose.append",
         "compose.append_strict", "rules.apply_rule", "policies.policy_to_cr"}

FAMILY = {"AclPolicy": "acl", "CapabilityPolicy": "capabilities", "LatticePolicy": "lbac",
          "RbacPolicy": "rbac"}
ACTIONS = ("merge", "append", "append-strict", "reject")
TIMED = (
    "serialize.dumps", "serialize.cr_to_dict", "serialize.loads",
    "policies.policy_from_dict", "policies.policy_to_cr", "policies.validate_policy",
    "model.reachable", "model.is_lively", "model.availability_graph",
    "model.connected_components", "model.validate",
    "analyze.conflicts", "compose.merge", "compose.append", "compose.append_strict",
)

class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, parent index, job, start, end, size]
        self.job = -1                        # -1 while tracing the set-up
        self.job_seconds: list[float] = []   # duration of every traced job
        self.setup_seconds = 0.0
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._bindings: list[tuple] = []     # (namespace, key, original, wrapper)

    def install(self) -> None:
        if not self._bindings:
            self._bindings = self._find_bindings()
        for namespace, key, _original, wrapper in self._bindings:
            namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original, _wrapper in self._bindings:
            namespace[key] = original

    def _find_bindings(self) -> list[tuple]:
        """Every module global and module-level table entry bound to a public function."""
        modules = [importlib.import_module(f"infoflow.{layer}") for layer in LAYERS]
        namespaces = []
        for name, module in list(sys.modules.items()):
            if name == "infoflow" or name.startswith("infoflow."):
                space = vars(module)
                namespaces.append(space)
                namespaces += [v for k, v in space.items()
                               if isinstance(v, dict) and not k.startswith("__")]
        bindings = []
        for layer, module in zip(LAYERS, modules):
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or name in PER_ELEMENT or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                bindings += [(space, key, fn, wrapper) for space in namespaces
                             for key, value in list(space.items()) if value is fn]
        return bindings

    def _wrap(self, name: str, fn):
        spans, stack, pending = self.spans, self._stack, self._pending
        sized = name in SIZED
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.job, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if sized:
                pending.append((record, args, result))
            return result

        return span

    def end_job(self, seconds: float) -> None:
        """Record the job's duration and measure its sized spans, outside the timed calls."""
        self.job_seconds.append(seconds)
        self.settle()

    def settle(self) -> None:
        for record, args, result in self._pending:
            record[5] = _size(record[0], args, result)
        self._pending.clear()

    def summary(self) -> dict:
        """Per-layer metrics, averaged over the traced jobs."""
        job_seconds = self.job_seconds
        jobs = len(job_seconds)
        child = defaultdict(float)
        for name, parent, _job, start, end, _size in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
        layer_self, setup_self, covered = defaultdict(float), defaultdict(float), 0.0
        sizes = defaultdict(list)
        for index, (name, parent, job, start, end, size) in enumerate(self.spans):
            own = end - start - child[index]
            if job < 0:
                setup_self[name.split(".")[0]] += own
                continue
            calls[name] += 1
            total[name] += end - start
            self_time[name] += own
            layer_self[name.split(".")[0]] += own
            if parent < 0:
                covered += end - start
            if size is not None:
                key = name
                if name == "policies.policy_to_cr":
                    key = f"{name}.{size[0]}"
                    calls[key] += 1
                    total[key] += end - start
                    size = size[1]
                sizes[key].append(size)

        per_job = 1000.0 / jobs   # seconds over all traced jobs -> ms per job
        m = {f"{name}.calls": calls[name] / jobs for name in TIMED}
        m.update({f"{name}.ms": total[name] * per_job for name in TIMED})
        for family in FAMILY.values():
            key = f"policies.policy_to_cr.{family}"
            m[f"{key}.calls"] = calls[key] / jobs
            m[f"{key}.ms"] = total[key] * per_job
        m["cli.main.calls"] = calls["cli.main"] / jobs
        m["cli.main.self_ms"] = self_time["cli.main"] * per_job
        m["serialize.bytes_out"] = sum(sizes["serialize.dumps"]) / jobs
        translations = calls["policies.policy_to_cr"]
        m["policies.validate_policy.per_translation"] = (
            calls["policies.validate_policy"] / translations if translations else 0.0)
        emitted = sum(n for f in FAMILY.values() for n in sizes[f"policies.policy_to_cr.{f}"])
        busy = total["policies.policy_to_cr"] * 1000.0
        m["policies.flows_per_ms"] = emitted / busy if busy else 0.0
        m["model.grant.calls"] = calls["model.grant"] / jobs
        m["model.grant.us"] = total["model.grant"] * 1e6 / jobs
        found = sizes["analyze.conflicts"]
        m["analyze.conflicts.size"] = sum(found) / len(found) if found else 0.0
        offered = [s for op in ("merge", "append", "append_strict") for s in sizes[f"compose.{op}"]]
        kept, given = sum(k for k, _ in offered), sum(g for _, g in offered)
        m["compose.survivor_ratio"] = kept / given if given else 0.0
        m["rules.apply_rule.calls"] = calls["rules.apply_rule"] / jobs
        m["rules.apply_rule.self_ms"] = self_time["rules.apply_rule"] * per_job
        actions = sizes["rules.apply_rule"]
        for action in ACTIONS:
            m[f"rules.action_share.{action}"] = (
                actions.count(action) / len(actions) if actions else 0.0)
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = layer_self[layer] * per_job
        m["bench.self_ms"] = (sum(job_seconds) - covered) * per_job
        m["trace.job_ms_mean"] = sum(job_seconds) * per_job
        m["setup.ms"] = self.setup_seconds * 1000.0
        for layer in LAYERS:
            m[f"setup.{layer}.self_ms"] = setup_self[layer] * 1000.0
        return m

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "parent", "job", "start", "end", "size"],
                       "spans": self.spans}, handle)


def _size(name: str, args: tuple, result):
    if name == "serialize.dumps":
        return len(result.encode("utf-8"))
    if name == "analyze.conflicts":
        return len(result)
    if name.startswith("compose."):
        offered = args[1].flows
        return (len(offered & result.flows), len(offered))
    if name == "rules.apply_rule":
        return result.action_taken.value
    return (FAMILY[type(args[0]).__name__], len(result.flows))

