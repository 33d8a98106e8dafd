#!/usr/bin/env python3
"""A/B comparison of two checkouts with the same benchmark.

    python3 perfbench/ab.py --parent DIR --change DIR [--pairs 10]
        [--seed 1000] [--workloads capacity_sim,outage_year,analyze_paper]
        [--seconds N]

DIR is the root of a checkout (the parent commit and the change). Both
must hold identical BENCHMARK.json and perfbench/ files; the comparison
refuses to run otherwise. Each pair runs perfbench/run.py --trace 0 once
on each side with the same seed (a new seed per pair), alternating which
side runs first. For every workload and end-to-end metric it prints each
side's median and quartiles, the change's win count and a verdict:

  gain        the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's spread is wider than the bound and not every
              change run beats every parent run
  same        none of the above

Failed passes are reported per side; a gain does not count when the
change fails more passes than the parent.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def tree_digest(root):
    sha = hashlib.sha256()
    paths = [os.path.join(root, "BENCHMARK.json")]
    for folder, dirs, files in os.walk(os.path.join(root, "perfbench")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(folder, f) for f in sorted(files)]
    for path in paths:
        sha.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as data:
            sha.update(data.read())
    return sha.hexdigest()


def run_side(root, workload, seed, seconds):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds in its own tree
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=1200)
    if done.returncode != 0:
        raise SystemExit(f"run.py failed in {root} ({workload}, seed {seed})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse_by = sign * (pm - cm) / pm
    if worse_by > bound:
        return "regression", wins
    if wins >= 0.9 * len(parent) and abs(cm - pm) > (p3 - p1):
        return ("gain" if sign * (cm - pm) > 0 else "same"), wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved", wins
    return "same", wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--workloads")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    if tree_digest(parent) != tree_digest(change):
        raise SystemExit("the two checkouts hold different benchmark files")
    with open(os.path.join(change, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    for workload in workloads:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = [("parent", parent), ("change", change)]
            if pair % 2:
                order.reverse()
            for side, root in order:
                runs[side].append(run_side(root, workload, seed, seconds))
            print(f"{workload} pair {pair + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)
        failed = {side: (sum(r["failed"] for r in rs),
                         sum(r["attempted"] for r in rs))
                  for side, rs in runs.items()}
        print(f"\n{workload}: {args.pairs} pairs, {seconds} s per run; failed "
              f"passes parent {failed['parent'][0]}/{failed['parent'][1]}, "
              f"change {failed['change'][0]}/{failed['change'][1]}")
        print(f"{'metric':<18} {'parent med [q1, q3]':>32} "
              f"{'change med [q1, q3]':>32} {'delta':>8} {'wins':>6}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in runs["parent"]]
            c = [r["metrics"][name]["value"] for r in runs["change"]]
            result, wins = verdict(p, c, metric["better"], metric["bound"])
            if result == "gain" and failed["change"][0] > failed["parent"][0]:
                result = "gain void: more failures"
            pq, cq = quartiles(p), quartiles(c)
            parent_text = f"{pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
            change_text = f"{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
            print(f"{name:<18} {parent_text:>32} {change_text:>32} "
                  f"{100 * (cq[1] - pq[1]) / pq[1]:>+7.2f}% "
                  f"{wins:>3}/{len(p):<2}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
