#!/usr/bin/env python3
"""End-to-end benchmark of dynaddr: simulate -> analyze -> report.

    python3 perfbench/run.py --workload capacity_sim|outage_year|analyze_paper \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds dynaddr_perf (perfbench/
CMakeLists.txt, which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR or .bench_build, sets the workload up three times
(setup_s is their median; each set-up also renders the oracle's reports),
measures passes for S seconds, checks every pass against the oracle, and
prints one line per metric followed by the result as one JSON object on
the last line. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("capacity_sim", "outage_year", "analyze_paper")
SETUPS = 3
# Wall-clock budget for one run after the build, below the 180 s limit.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "probe_days_per_s": "probe-day/s",
    "setup_s": "s",
}

PER_LAYER = {
    "isp.config_s": "s",
    "isp.run_scenario_s": "s",
    "isp.build_ms": "ms",
    "isp.sim_run_ms": "ms",
    "isp.emit_ms": "ms",
    "sim.events": "count",
    "sim.wheel.scheduled": "count",
    "sim.wheel.fired": "count",
    "sim.wheel.cancelled": "count",
    "sim.wheel.cascaded": "count",
    "sim.wheel.overflow": "count",
    "sim.ns_per_event": "ns",
    "sim.ns_per_event_growth": "ratio",
    "dhcp.renew": "count",
    "dhcp.ack": "count",
    "ppp.dials": "count",
    "radius.access_accept": "count",
    "pool.allocations": "count",
    "pool.churn": "count",
    "lease.granted": "count",
    "atlas.records.connection": "count",
    "atlas.records.kroot": "count",
    "atlas.records.uptime": "count",
    "atlas.dab_bytes": "bytes",
    "atlas.sink_s": "s",
    "atlas.decode_s": "s",
    "atlas.decode_mb_per_s": "MB/s",
    "bgp.context_load_s": "s",
    "core.feed_s": "s",
    "core.seal_us.p50": "us",
    "core.seal_us.p99": "us",
    "core.finish_s": "s",
    "core.batch_run_s": "s",
    "core.stage.finalize_ms": "ms",
    "core.stage.periodicity_ms": "ms",
    "core.stage.prefix_changes_ms": "ms",
    "core.stage.outages_ms": "ms",
    "core.peak_buffered_records": "count",
    "mem.rss_after_sim_mb": "MiB",
    "mem.rss_after_analyze_mb": "MiB",
    "core.parallel_speedup": "ratio",
    "par.offload_ratio": "ratio",
    "core.probes_analyzable": "count",
    "core.changes_extracted": "count",
    "report.render_s": "s",
    "report.bytes": "bytes",
    "trace_overhead_frac": "ratio",
    "base.probes": "count",
    "base.sim_days": "days",
    "base.threads": "count",
    "base.scale": "count",
    "base.passes": "count",
}


class BenchError(Exception):
    """The benchmark could not produce a result (build or dynaddr_perf failure)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_child(argv, timeout, stdout):
    """Runs argv in its own process group and waits for it. On a timeout,
    a signal or any other failure the whole group (e.g. cmake's compiler
    jobs) is killed and reaped before the exception propagates."""
    child = subprocess.Popen(argv, cwd=ROOT, stdout=stdout,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, err = child.communicate(timeout=max(timeout, 1.0))
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if err:
        sys.stderr.write(err)
    if child.returncode != 0:
        raise BenchError(" ".join(argv[:2]) + f" exited with {child.returncode}")
    return out


def build(build_root):
    """Configures and builds dynaddr_perf; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no dynaddr sources (src/) next to perfbench/")
    tree = os.path.join(build_root, "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    # Configuring every time is cheap and picks up a changed CMakeLists.
    for step in (["cmake", "-S", BENCH, "-B", tree,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", tree, "--target", "dynaddr_perf",
                  "-j", jobs]):
        run_child(step, BUILD_BUDGET_S, sys.stderr)
    return os.path.join(tree, "dynaddr_perf")


def file_digest(path):
    sha = hashlib.sha256()
    with open(path, "rb") as binary:
        for chunk in iter(lambda: binary.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()[:16]


def check_stored_counts(store, counts):
    """Compares this run's counts with an earlier run of the same build and
    seed (stored under the build tree); records them on first sight.
    Returns the names whose counts differ."""
    if os.path.isfile(store):
        with open(store) as stored_file:
            stored = json.load(stored_file)
        return sorted(name for name in counts
                      if name in stored and stored[name] != counts[name])
    os.makedirs(os.path.dirname(store), exist_ok=True)
    partial = f"{store}.{os.getpid()}"
    with open(partial, "w") as out:
        json.dump(counts, out, sort_keys=True)
    os.replace(partial, store)
    return []


def run_workload(program, run_dir, workload, seed, seconds, trace, size,
                 corrupt_digest=False):
    """Sets up, measures and checks one workload. Returns (result, lines):
    the JSON result object and the human-readable metric lines.
    corrupt_digest flips the expected report digest (self-test only)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    threads = len(os.sched_getaffinity(0))
    common = ["--workload", workload, "--seed", str(seed), "--size", size,
              "--threads", str(threads)]

    setups = []
    for k in range(SETUPS):
        setup_dir = os.path.join(run_dir, f"setup{k}")
        argv = [program, "setup", *common, "--dir", setup_dir]
        if trace and k == 0:
            argv.append("--trace")
        setups.append(json.loads(run_child(argv, deadline - time.monotonic(),
                                           subprocess.PIPE)))
        if k > 0:
            shutil.rmtree(setup_dir, ignore_errors=True)
    first = setups[0]
    problems = []
    for k, other in enumerate(setups[1:], start=1):
        for key in ("report_digest", "dab_digest", "counts"):
            if other[key] != first[key]:
                problems.append(f"set-up {k} {key} differs from set-up 0")

    argv = [program, "measure", *common, "--dir", os.path.join(run_dir, "work"),
            "--input", os.path.join(run_dir, "setup0"),
            "--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    measured = json.loads(run_child(argv, deadline - time.monotonic(),
                                    subprocess.PIPE))
    passes = measured["passes"]

    # Correctness: every pass reproduces the oracle's reports (and, when it
    # writes a bundle, the set-up's .dab bytes) and the exact work counts.
    expected_reports = first["report_digest"]
    if corrupt_digest:
        expected_reports = ("0" if expected_reports[0] != "0" else "1") + \
            expected_reports[1:]
    reference = dict(first["counts"])
    failed = 0
    run_problems = len(problems)
    for index, one in enumerate(passes):
        bad = []
        if one["error"]:
            bad.append("error: " + one["error"])
        if one["report_digest"] != expected_reports:
            bad.append("report digest differs from the oracle")
        if one["dab_digest"] and one["dab_digest"] != first["dab_digest"]:
            bad.append(".dab digest differs from the set-up bundle")
        for name, value in one["counts"].items():
            if reference.setdefault(name, value) != value:
                bad.append(f"count {name} = {value}, expected "
                           f"{reference[name]}")
        if bad:
            failed += 1
            problems.append(f"pass {index}: " + "; ".join(bad))
    store = os.path.join(build_root(), "perfbench-counts", file_digest(program),
                         f"{workload}-{size}-{seed}.json")
    drifted = check_stored_counts(store, reference)
    if drifted:
        run_problems += 1
        problems.append("counts differ from an earlier run of this seed: " +
                        ", ".join(drifted))
    if run_problems:
        # Set-ups that disagree or counts that moved between runs put
        # every pass of this run in doubt.
        failed = len(passes)
    for problem in problems:
        log("perfbench: FAIL " + problem)

    base = first["base"]
    walls = [one["wall_s"] for one in passes]
    lines = [
        f"workload {workload} seed {seed} ({size}): scale x{base['scale']:.0f}, "
        f"{base['probes']:.0f} probes x {base['sim_days']:g} simulated days, "
        f"{base['events']:.0f} events, {base['records']:.0f} records, "
        f"{base['dab_bytes']:.0f} bundle bytes, {base['threads']:.0f} threads",
        f"fail_frac {failed}/{len(passes)} passes = "
        f"{failed / max(len(passes), 1):g} ratio",
    ]
    metrics = {}
    if not trace:
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(one["cpu_s"] for one in passes),
            "peak_rss_mb": measured["peak_rss_mb"],
            "probe_days_per_s": base["probes"] * base["sim_days"] / wall,
            "setup_s": statistics.median(one["setup_s"] for one in setups),
        }
        notes = {
            "wall_s": f"median of {len(passes)} passes",
            "cpu_s": f"median of {len(passes)} passes, all threads",
            "peak_rss_mb": "measuring process",
            "probe_days_per_s": f"{base['probes']:g} probes x "
                                f"{base['sim_days']:g} days / wall_s",
            "setup_s": f"median of {SETUPS} set-ups",
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"{name} {values[name]:.6g} {unit} ({notes[name]})")
    else:
        # Layers a workload does not run stay 0 (see README.md); set-up
        # figures cover the simulator of analyze_paper, which simulates
        # only while setting up.
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update({k: v for k, v in first.get("layers", {}).items()
                       if k in PER_LAYER})
        values.update(reference)
        values.update({k: v for k, v in measured["layers"].items()
                       if k in PER_LAYER})
        values.update({"base.probes": base["probes"],
                       "base.sim_days": base["sim_days"],
                       "base.threads": base["threads"],
                       "base.scale": base["scale"],
                       "base.passes": len(passes)})
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"{name} {values[name]:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": len(passes),
              "failed": failed, "metrics": metrics}
    return result, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: the self-test's reduced scenarios")
    return parser.parse_args(argv)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def main(argv):
    args = parse_args(argv)
    # A terminated run still removes its directory and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        program = build(build_root())
    except BenchError as error:
        log(f"perfbench: {error}")
        return 2
    run_dir = os.path.join(build_root(), "runs",
                           f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        result, lines = run_workload(program, run_dir, args.workload,
                                     args.seed, args.seconds, args.trace,
                                     args.size)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as error:
        log(f"perfbench: {error}")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
