"""Run every workload, each in a fresh process, and print every metric by name
with its unit, plus each run's error rate and output digest.

    python3 bench/report.py --seed 1            # end-to-end metrics
    python3 bench/report.py --seed 1 --trace    # also the per-layer run

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = parser.parse_args(argv)
    for trace in (0, 1) if args.trace else (0,):
        for workload in (w["name"] for w in SPEC["workloads"]):
            result, record = run(workload, args.seed, args.seconds, trace)
            print(f"== {workload}, trace {trace}: {record['jobs']} jobs x {record['passes']} passes, "
                  f"correct {result['correct']}, digest {record['digest']}")
            print(f"   {'error_rate':44s} {result['failed'] / result['attempted']:14.6g} ratio"
                  f"  ({result['failed']} of {result['attempted']} operations)")
            for name, metric in result["metrics"].items():
                print(f"   {name:44s} {metric['value']:14.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
