#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs each workload RUNS times, each time with another --seed, and prints for
each end-to-end metric the distance between the first and third quartile of
its values (statistics.quantiles(values, n=4)) as a share of their median,
beside the metric's bound from BENCHMARK.json. A benchmark is steady when
every spread is below a third of its bound.

    python3 benchmark/spread.py path/to/bcwan-perf [RUNS] [FIRST_SEED] [WORKLOAD...]
"""
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    exe = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    first_seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    workloads = sys.argv[4:] or [w["name"] for w in SPEC["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in SPEC["end_to_end"]}
        took = []
        for seed in range(first_seed, first_seed + runs):
            started = time.monotonic()
            done = subprocess.run(
                [exe, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=False)
            took.append(time.monotonic() - started)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: NOT CORRECT\n{done.stderr}")
                return 1
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: {runs} runs, {statistics.median(took):.1f} s each "
              f"(max {max(took):.1f} s)")
        for m in SPEC["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(f"  {m['name']:<16} median {median:<14.6g} {m['unit']:<5} "
                  f"spread {spread * 100:5.2f} %  bound {m['bound'] * 100:4.0f} %  "
                  f"({share:.2f} of bound)")
    print(f"worst spread, setup_s aside: {worst:.2f} of its bound "
          f"({'steady' if worst < 1 / 3 else 'NOT below a third'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
