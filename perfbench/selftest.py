#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of dynaddr).

    python3 perfbench/selftest.py

Runs every workload at the tiny size through perfbench/run.py with
--trace 0 and --trace 1 and checks that the last line is the result object
BENCHMARK.json promises: every metric named there, with its unit, and
nothing else, each also printed on its own line. Then checks the two
failure paths: a corrupted expected report digest, and work counts that
differ from an earlier run of the same seed, must both be reported as
failed passes. Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEED = 7
failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL " + message, flush=True)


def run_cli(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(bench.BENCH, "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=bench.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)
    check(done.returncode == 0,
          f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1]) if lines else {}


def check_result(label, lines, result, declared):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result.get("correct") is True and result.get("failed") == 0,
          f"{label}: not correct ({result.get('failed')} failed)")
    attempted = result.get("attempted")
    check(isinstance(attempted, int) and attempted >= 1,
          f"{label}: attempted {attempted!r}")
    metrics = result.get("metrics", {})
    check(set(metrics) == set(declared),
          f"{label}: metrics differ from BENCHMARK.json: "
          f"{sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        check(isinstance(entry.get("value"), (int, float)) and
              entry.get("unit") == unit,
              f"{label}: {name} = {entry!r}, unit should be {unit}")
        check(any(line.startswith(name + " ") and f" {unit}" in line
                  for line in lines),
              f"{label}: no printed line for {name} with unit {unit}")


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == bench.END_TO_END,
          "run.py END_TO_END differs from BENCHMARK.json")
    check(per_layer == bench.PER_LAYER,
          "run.py PER_LAYER differs from BENCHMARK.json")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            lines, result = run_cli(workload, trace)
            label = f"{workload} trace {trace}"
            check_result(label, lines, result, declared)
            if trace == 0:
                for name, entry in result.get("metrics", {}).items():
                    check(entry.get("value", 0) > 0, f"{label}: {name} is 0")
            print(f"ok {label}", flush=True)

    # Failure paths, on the cheapest workload, through the same code the
    # command line uses.
    root = bench.build_root()
    program = bench.build(root)
    workload = "analyze_paper"
    run_dir = os.path.join(root, "runs", f"selftest-{os.getpid()}")
    try:
        os.makedirs(run_dir)
        result, _ = bench.run_workload(program, run_dir, workload, SEED, 0.5,
                                       0, "tiny", corrupt_digest=True)
        check(result["correct"] is False and
              result["failed"] == result["attempted"],
              f"corrupted digest not reported as failure: {result}")
        print("ok corrupted digest is a failure", flush=True)

        store = os.path.join(root, "perfbench-counts",
                             bench.file_digest(program),
                             f"{workload}-tiny-{SEED}.json")
        with open(store) as stored_file:
            stored = json.load(stored_file)
        stored["core.probes_analyzable"] += 1
        with open(store, "w") as out:
            json.dump(stored, out)
        shutil.rmtree(run_dir)
        os.makedirs(run_dir)
        result, _ = bench.run_workload(program, run_dir, workload, SEED, 0.5,
                                       0, "tiny")
        check(result["correct"] is False and
              result["failed"] == result["attempted"],
              f"drifted count not reported as failure: {result}")
        os.remove(store)
        print("ok drifted count is a failure", flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
