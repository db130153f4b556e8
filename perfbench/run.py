#!/usr/bin/env python3
"""Calliope benchmark: builds the benchmark binary from source, runs one workload, checks
its outputs and prints every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-flow|graph1-packet|zipf-churn \
        --seed N --seconds S --trace 0|1

--seed also accepts "default" and "held-out" (see SEEDS and NOTES.md).
The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. The exit code is 0 only when the run produced a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "calliope_perfbench")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
RUN_TIMEOUT_S = 170

# BENCHMARK.json lists fleet-flow and graph1-packet; zipf-churn runs by hand
# only, until the program passes its correctness gate (NOTES.md, Findings).
WORKLOADS = ("fleet-flow", "graph1-packet", "zipf-churn")
# One default seed to tune on and one held-out seed to re-check a claim on.
SEEDS = {
    "fleet-flow": {"default": 11, "held-out": 9011},
    "graph1-packet": {"default": 22, "held-out": 9022},
    "zipf-churn": {"default": 33, "held-out": 9033},
}

# End-to-end metrics (--trace 0), in BENCHMARK.json order, with their clock:
# [host] = simulation thread CPU time, [sim] = simulated time or counts.
END_TO_END = [
    ("setup_s", "s", "host"),
    ("peak_rss_mib", "MiB", "host"),
    ("startup_p50_ms", "ms", "sim"),
    ("startup_tail_ms", "ms", "sim"),
    ("late_tail_ms", "ms", "sim"),
    ("on_time_pct", "%", "sim"),
    ("served_pct", "%", "sim"),
    ("viewers_per_msu", "count", "sim"),
]
# Printed but not gated (see NOTES.md): the simulator's speed, which host
# noise spreads past any allowed bound, and graph1-packet's paper_gap_pp.
INFO_ONLY = {"stream_s_per_cpu_s": "host", "paper_gap_pp": "sim"}
HOST_LAYER_METRICS = {
    "sim.cpu_ns_per_event", "sim.ramp_cpu_s", "sim.steady_cpu_s", "calliope.boot_cpu_s",
    "fs.content_load_cpu_s", "load.schedule_cpu_s", "obs.report_cpu_s",
    "trace.overhead_s", "trace.overhead_pct",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: Calliope sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", BUILD_DIR, "--target", "calliope_perfbench", "-j", "4"]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def parse_seed(workload, text):
    if text in SEEDS[workload]:
        return SEEDS[workload][text]
    return int(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    seed = parse_seed(args.workload, args.seed)

    if not build():
        log("perfbench: build failed")
        return 1
    os.makedirs(TRACE_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", TRACE_DIR]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if run.returncode != 0:
        log("perfbench: calliope_perfbench exited with %d" % run.returncode)
        return 1
    result = json.loads(run.stdout.strip().splitlines()[-1])

    print("workload %s  seed %d  repetitions %d  report_hash %s" % (
        args.workload, seed, result["repetitions"], result["report_hash"]))
    for error in result["errors"]:
        print("GATE FAILED: %s" % error)
    reported = {}
    if args.trace == 0:
        by_name = {m["name"]: m for m in result["end_to_end"]}
        for name, unit, clock in END_TO_END:
            metric = by_name[name]
            reported[name] = {"value": metric["value"], "unit": unit}
            print("  %-22s %14.6g %-10s [%s] %s" % (name, metric["value"], unit, clock,
                                                  metric.get("note", "")))
        for name in sorted(INFO_ONLY.keys() & by_name.keys()):
            metric = by_name[name]
            print("  %-22s %14.6g %-10s [%s] %s (not gated)" % (
                name, metric["value"], metric["unit"], INFO_ONLY[name], metric.get("note", "")))
    else:
        for metric in result["per_layer"]:
            clock = "host" if metric["name"] in HOST_LAYER_METRICS else "sim"
            reported[metric["name"]] = {"value": metric["value"], "unit": metric["unit"]}
            print("  %-30s %14.6g %-16s [%s] %s" % (metric["name"], metric["value"],
                                                   metric["unit"], clock, metric.get("note", "")))
        print("spans written to %s" % os.path.relpath(result["trace_file"], ROOT))
    print(json.dumps({
        "correct": not result["errors"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
