#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

    python3 perfbench/run.py --workload serve_cold --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout. The first run builds the driver
(perfbench/CMakeLists.txt) into .bench_build/perfbench; later runs only
rebuild what changed. The workload runs in its own process. The last
line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"query_p50_us": {"value": 51.2, "unit": "us"}, ...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics; a traced run first repeats the
workload untraced to measure the tracing overhead. The exit status is 0
only when every answer, work count and metric check passed.

--tiny runs the same phases on a world a tenth of the size, for the
smoke test (perfbench/smoke.py).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ltm_perfbench"
WORKLOADS = ("serve_cold", "serve_ingest")
RUN_TIMEOUT_S = 170

# Traced runs report how much slower tracing made these two figures.
OVERHEAD_OF = ("capacity_qps", "ingest_rows_per_s")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; False on failure."""
    if not (ROOT / "src" / "serve" / "serve_session.h").is_file():
        log(f"no engine sources under {ROOT / 'src'}; run from a full checkout")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return BINARY.is_file()


def run_driver(workload, seed, seconds, trace, tiny):
    """Runs the driver once; returns its detail JSON, or None."""
    work = BUILD / "work" / f"{workload}-{os.getpid()}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    detail = work / "detail.json"
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--workdir", str(work), "--out", str(detail)]
    if tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        code = None
    result = None
    if detail.is_file():
        result = json.loads(detail.read_text())
        result["exit_code"] = code
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        for f in work.glob("trace-*.json"):
            shutil.move(str(f), str(traces / f.name))
    shutil.rmtree(work, ignore_errors=True)
    return result


def check_counts(workload, seed, seconds, tiny, counts):
    """Work counts must repeat exactly across runs of one seed: the first
    run of a (workload, seed, size) with this driver build records them,
    later runs compare."""
    build_id = hashlib.sha1(BINARY.read_bytes()).hexdigest()[:12]
    key = f"{workload}-seed{seed}-s{seconds}{'-tiny' if tiny else ''}.json"
    record = BUILD / "counts" / build_id / key
    if record.is_file():
        expected = json.loads(record.read_text())
        diff = {k: (expected.get(k), v) for k, v in counts.items()
                if expected.get(k) != v}
        if diff:
            return [f"work counts differ from an earlier run of this seed "
                    f"(earlier, now): {diff}"]
        return []
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(counts, sort_keys=True))
    return []


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        log("--seconds must be >= 1 and --seed >= 0")
        return 2
    if not build():
        return 1

    errors = []
    runs = []
    for trace in ([False, True] if args.trace else [False]):
        detail = run_driver(args.workload, args.seed, args.seconds, trace,
                            args.tiny)
        if detail is None:
            log("the driver wrote no result")
            return 1
        runs.append(detail)
        errors += detail["errors"]
        if detail["exit_code"] != 0 and not detail["errors"]:
            errors.append(f"driver exit status {detail['exit_code']}")
        errors += check_counts(args.workload, args.seed, args.seconds,
                               args.tiny, detail["counts"])

    final = runs[-1]
    metrics = {m["name"]: m for m in final["metrics"]}
    if args.trace:
        untraced = {m["name"]: m["value"] for m in runs[0]["metrics"]}
        for name in OVERHEAD_OF:
            traced = metrics.pop(name)["value"]
            metrics[f"obs.trace_overhead.{name}"] = {
                "value": untraced[name] / traced - 1.0 if traced > 0 else 0.0,
                "unit": "ratio", "samples": 2}

    want = expected_metrics(args.trace)
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            errors.append(f"metric {name} missing")
        elif got["unit"] != unit:
            errors.append(f"metric {name} has unit {got['unit']}, not {unit}")
        elif got["samples"] < 1:
            errors.append(f"metric {name} has no samples")
    errors += [f"unexpected metric {n}" for n in metrics if n not in want]

    for e in errors:
        log(f"FAIL: {e}")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in want if n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
