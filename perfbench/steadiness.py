"""Run the benchmark repeatedly and report how much each metric spreads.

    python3 perfbench/steadiness.py [--first-seed 1] [--workload NAME ...]

Runs ``RUNS`` runs of each workload, ``run_seconds`` of BENCHMARK.json long;
each run uses the next seed.  For every end-to-end metric this prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound, and the share of failed
operations.  The raw values go to ``perfbench/results/steadiness-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            took = time.perf_counter() - start
            if done.returncode:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["run_s"] = took
            runs.append(result)
            print(f"{workload} seed {seed}: {took:.1f} s", file=sys.stderr,
                  flush=True)
        record[workload] = runs
        print(f"\n{workload}: {len(runs)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}, "
              f"all correct: {all(r['correct'] for r in runs)}, "
              f"longest run {max(r['run_s'] for r in runs):.1f} s")
        print(f"  {'metric':16} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{(q3 - q1) / med:7.3f} {bound:6.2f}")
    out = BENCH / "results" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
