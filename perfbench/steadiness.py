#!/usr/bin/env python3
"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 perfbench/steadiness.py --runs 10 --out a.json
    python3 perfbench/steadiness.py --runs 10 --seed-base 2000 --against a.json

Runs every workload --runs times through perfbench/run.py, alternating
the workload order from round to round, each run with its own seed
(seed-base + round). For every end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and flags a spread over the metric's bound in
BENCHMARK.json ("OVER") or over a third of it ("over 1/3"). setup_s is
only reported: its bound limits the shift of the median, not the spread.
--against compares medians with an earlier --out file and flags a metric
whose median got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or result is None or not result["correct"]:
        print(f"  {workload} seed {seed}: FAILED (exit {done.returncode})",
              flush=True)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    for r in range(args.runs):
        seed = args.seed_base + r
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for workload in order:
            got = run_once(workload, seed, spec["run_seconds"])
            print(f"  round {r} {workload} seed {seed}: "
                  f"{'ok' if got else 'failed'}", flush=True)
            for name, value in (got or {}).items():
                values[workload][name].append(value)

    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    flagged = 0
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for m in metrics:
            v = values[workload][m["name"]]
            if len(v) < 2:
                print(f"  {m['name']:34} (too few runs)")
                continue
            q1, q2, q3, s = spread(v)
            bound = m["bound"]
            flag = ""
            if m["name"] != "setup_s":
                flag = "OVER" if s > bound else "over 1/3" if s > bound / 3 else ""
            if earlier.get(workload, {}).get(m["name"]):
                before = statistics.median(earlier[workload][m["name"]])
                worse = (q2 - before) / before
                if m["better"] == "higher":
                    worse = -worse
                flag += f" shift {worse:+.3f}" + (" WORSE" if worse > bound else "")
            flagged += "OVER" in flag or "WORSE" in flag
            print(f"  {m['name']:34} {q2:12.6g} {q1:12.6g} {q3:12.6g} {s:7.3f} "
                  f"{bound:>6} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
