"""Run one benchmark workload against the infoflow sources in ``src/`` and
print its metrics.

    python3 bench/run.py --workload translate-bulk --seed 1 --seconds 20 --trace 0

Workloads: translate-bulk, federation-join, audit-queries (see README.md in
this directory).  Each run is one process and one closed-loop client: a job
starts when the previous one has been checked.  ``--seconds`` counts from
the start of the run.  The run repeats passes over a fixed list of jobs,
rotating over the CPUs it may use, and a job's latency is the mean over CPUs
of its median time on each.  ``--trace 0`` measures the end-to-end metrics;
set-up time and peak memory come from fresh processes that run only the
program (``program.py``).  ``--trace 1`` alternates untraced passes with
passes that have spans on every public library function, and reports the
per-layer metrics and the tracing overhead.  ``--smoke`` uses tiny inputs
and a few jobs.  Metric names and units are those of ``BENCHMARK.json``.

Every job's output is checked by the independent checker in ``oracle.py``;
rejected operations count as failed.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A per-job record (timings, sizes, output digest) is written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SPEC = HERE.parent / "BENCHMARK.json"

# Distinct jobs per run (one pass runs each once; the output digest covers
# them all), for full and smoke runs.
JOBS = {False: 100, True: 8}
# Fresh-process set-ups after each pass.  Spread over the run like the passes,
# they see the same mix of fast and slow stretches of the host.
SETUP_PROBES_PER_PASS = 2
# Passes per run at least, untraced and traced.
MIN_PASSES = {0: 3, 1: 2}
# The CPUs this process may run on.  Passes and cold set-ups rotate over them:
# on a shared host one CPU can run a quarter slower than another for minutes,
# and a process left alone stays on one of them for a whole run.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def latency(times: list[float]) -> float:
    """A job's latency: the mean over CPUs of its median time on each (pass
    ``k`` ran on CPU ``k % len(CPUS)``).  The medians ignore passes that fell
    into a slow or unusually quiet stretch; the mean weighs every CPU alike
    however many passes each one got."""
    n = max(len(CPUS), 1)
    return statistics.fmean(statistics.median(times[c::n]) for c in range(n) if times[c::n])


def use_cpu(k: int) -> None:
    if len(CPUS) > 1:
        try:
            os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})
        except OSError:   # not allowed here: measure wherever the OS runs us
            pass


# A run starts no new job this many seconds after it started, so it ends well
# within three minutes even on a much slower program.
DEADLINE_S = 140.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["translate-bulk", "federation-join", "audit-queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, a few jobs")
    return parser.parse_args(argv)


class Tally:
    """Every execution of a run's jobs: check results, timings, first-pass outputs."""

    def __init__(self, jobs: int):
        self.canonical: list = [None] * jobs   # first-pass outputs, for the digest
        self.sizes: list[dict] = [{} for _ in range(jobs)]
        self.work = [0] * jobs
        self.failed_by_job = [0] * jobs
        self.attempted = self.failed = self.executions = 0

    def operation(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def digest(self) -> str:
        text = "\n".join("missing" if c is None else c for c in self.canonical)
        return hashlib.sha256(text.encode()).hexdigest()


def run_pass(wl, tally: Tally, samples: list[list[float]], deadline: float, tracer=None) -> bool:
    """Run every job once, adding its time to ``samples[j]``; return False
    if the deadline cut the pass short."""
    run = wl.runner.run
    for j in range(len(samples)):
        if time.perf_counter() >= deadline:
            return False
        job = wl.make(j)
        if tracer is not None:
            tracer.job = tally.executions
        start = time.perf_counter()
        try:
            out = run(job)
        except Exception:  # a failed job is counted, reported, and the run goes on
            out = None
            if tally.failed == 0:
                traceback.print_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_job(elapsed)
        if out is None:
            failed, canonical, sizes, work = wl.ops_per_job, "error", {}, 0
        else:
            checked = wl.check(j, out)
            failed, canonical, sizes, work = checked.failed, checked.canonical, checked.sizes, checked.work
        if tally.canonical[j] is None:
            tally.canonical[j], tally.sizes[j], tally.work[j] = canonical, sizes, work
        samples[j].append(elapsed)
        tally.failed_by_job[j] += failed
        tally.attempted += wl.ops_per_job
        tally.failed += failed
        tally.executions += 1
    return True


class Probes:
    """Fresh processes that run only the program (``program.py``).  Each one
    times the workload's set-up; one run with ``with_jobs`` also runs every
    job once and reports how far that raised its peak RSS."""

    def __init__(self, wl, workdir: Path, tally: Tally, expected_sizes: list[int]):
        inputs, self.jobs = workdir / "setup-inputs.json", str(workdir / "jobs.jsonl")
        inputs.write_text(json.dumps(wl.setup_inputs), encoding="utf-8")
        Path(self.jobs).write_text("".join(json.dumps(plain) + "\n" for plain in wl.plain),
                                   encoding="utf-8")
        self.command = [sys.executable, str(HERE / "program.py"), str(SRC), wl.name, str(inputs)]
        self.tally, self.expected_sizes = tally, expected_sizes
        self.setup_s: list[float] = []
        self.peak_rss_mb = float("nan")

    def run(self, cpu: int, with_jobs: bool = False) -> None:
        use_cpu(cpu)
        proc = subprocess.run(self.command + [self.jobs] * with_jobs,
                              capture_output=True, text=True, timeout=120, check=False)
        ok = proc.returncode == 0
        if ok:
            result = json.loads(proc.stdout)
            ok = result["sizes"] == self.expected_sizes
            self.setup_s.append(result["setup_s"])
            if with_jobs:
                self.peak_rss_mb = result["peak_rss_mb"]
        else:
            sys.stderr.write(proc.stderr)
        self.tally.operation(ok)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "infoflow" / "__init__.py").is_file():
        print(f"error: infoflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import infoflow
    if Path(infoflow.__file__).resolve().parent != (SRC / "infoflow").resolve():
        print(f"error: imported infoflow from {infoflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        result, record = measure(args, workdir, started)
    finally:
        shutil.rmtree(workdir)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {record['jobs']} jobs x "
          f"{record['passes']} passes, {result['failed']}/{result['attempted']} operations failed "
          f"(error_rate {result['failed'] / result['attempted']:.6g})")
    print(f"digest {record['digest']}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def measure(args, workdir: Path, started: float) -> tuple[dict, dict]:
    # Imported here: workloads imports infoflow, which main has just put on the path.
    import workloads
    from spans import Tracer

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    smoke = args.smoke
    jobs = JOBS[smoke]
    wl = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.workload]["smoke" if smoke else "full"], str(workdir), jobs)
    tally = Tally(jobs)
    expected = wl.setup_expected
    expected_sizes = [0, 0] if expected is None else [len(expected[0]), len(expected[1])]
    probes = None
    if not args.trace:
        probes = Probes(wl, workdir, tally, expected_sizes)
        probes.run(0, with_jobs=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    began = time.perf_counter()
    state = wl.setup()
    if tracer:
        tracer.setup_seconds = time.perf_counter() - began
        tracer.uninstall()
        tracer.settle()
    tally.operation(expected is None or workloads.graph_tuples(state) == expected)
    gc.collect()
    gc.freeze()   # the inputs and the checker's state are not the program's garbage
    deadline = started + DEADLINE_S

    # Passes repeat until --seconds are up; in a traced run, untraced and
    # traced passes alternate so that both see the same host conditions.
    samples = [[] for _ in range(jobs)]
    traced_samples = [[] for _ in range(jobs)]
    modes = [(None, samples)] + ([(tracer, traced_samples)] if tracer else [])
    stop = started + args.seconds
    passes, complete = 0, True
    while complete:
        began = time.perf_counter()
        use_cpu(passes)
        for mode, times in modes:
            if mode is not None:
                mode.install()
            complete = run_pass(wl, tally, times, deadline, mode) and complete
            if mode is not None:
                mode.uninstall()
        if probes:
            for k in range(SETUP_PROBES_PER_PASS):
                probes.run(passes + k)
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES[args.trace] and now + (now - began) > stop:
            break
    untraced = [latency(t) for t in samples if t]
    if tracer:
        traced = [latency(t) for t in traced_samples if t]
        metrics = tracer.summary()
        metrics["trace.job_ms_p50"] = statistics.median(traced) * 1000.0
        metrics["trace.overhead_ms"] = metrics["trace.job_ms_p50"] - statistics.median(untraced) * 1000.0
        tracer.dump(str(OUT / f"{args.workload}-seed{args.seed}-spans.json"))
    else:
        metrics = {
            "setup_s": statistics.median(probes.setup_s),
            "job_ms_p50": statistics.median(untraced) * 1000.0,
            "job_ms_p90": statistics.quantiles(untraced, n=10)[8] * 1000.0,
            "work_per_s": sum(tally.work) / sum(untraced),
            "peak_rss_mb": probes.peak_rss_mb,
        }
    result = {
        "correct": tally.failed == 0 and complete,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": smoke,
        "jobs": jobs, "passes": passes, "executions": tally.executions, "digest": tally.digest(),
        "setup_s_samples": probes.setup_s if probes else [], "metrics": result["metrics"],
        "per_job": [{"job": j, "ms": [t * 1000.0 for t in samples[j]],
                     "traced_ms": [t * 1000.0 for t in traced_samples[j]],
                     "failed": tally.failed_by_job[j], **tally.sizes[j]} for j in range(jobs)],
    }
    return result, record


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
