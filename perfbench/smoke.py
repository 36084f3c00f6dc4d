#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, at
tiny size, in about a minute.

    python3 perfbench/smoke.py

Each run must exit 0 and end in a result line that holds every metric of
BENCHMARK.json for its mode with the declared unit and a finite value;
the driver itself checks every answer against the Eq. 3 oracle, the
work counts, and that each metric has at least one sample behind it.
Exits 1 on the first failure.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 8


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", "1", "--seconds",
                 str(SECONDS), "--trace", str(trace), "--tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            label = f"{workload} trace={trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"FAIL {label}: exit {done.returncode}")
                return 1
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                print(f"FAIL {label}: result keys {sorted(result)}")
                return 1
            want = spec["per_layer" if trace else "end_to_end"]
            for m in want:
                got = result["metrics"].get(m["name"])
                if (got is None or got["unit"] != m["unit"] or
                        not math.isfinite(got["value"])):
                    print(f"FAIL {label}: metric {m['name']} is {got}")
                    return 1
            if not result["correct"] or result["attempted"] < 1:
                print(f"FAIL {label}: {result['attempted']} attempted, "
                      f"correct={result['correct']}")
                return 1
            print(f"ok   {label}: {len(want)} metrics, "
                  f"{result['attempted']} queries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
