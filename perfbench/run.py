#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result line.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the library sources plus the benchmark program) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use,
runs the workload, checks its outputs, and prints as the last stdout line
one JSON object with "correct", "attempted", "failed" and "metrics". With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. A traced run also exports a Chrome trace, validates it
with tools/trace_check.py and derives per-span-kind self times from it.

The full record of every run (all metrics, recorded environment) is kept
under <build>/results/ for perfbench/report.py.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import traces  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("walk_corpus", "gnn_serve", "paged_serve", "sharded_serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    return os.path.join(base, "perfbench")


def build(root, out):
    """Configures (once) and builds the program and its test; True on success."""
    if not os.path.isdir(os.path.join(root, "src")):
        log("no src/ directory next to perfbench/: nothing to build")
        return False
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_run", "perfbench_loadgen_test"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step failed: {error}")
            return False
        if done.returncode != 0:
            log(f"build step exited {done.returncode}: {' '.join(cmd)}")
            return False
    return True


def run_checked(cmd, root, timeout):
    """Runs cmd, echoing its stdout to stderr; returns the exit code."""
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout,
                              check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"{os.path.basename(cmd[0])} failed: {error}")
        return 1
    sys.stderr.write(done.stdout)
    return done.returncode


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    out = build_dir(root)
    if not build(root, out):
        return 1
    if run_checked([os.path.join(out, "perfbench_loadgen_test")], root,
                   60) != 0:
        log("arrival-schedule test failed")
        return 1

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = os.path.join(results, stem + ".json")
    trace_path = os.path.join(results, stem + ".trace.json")
    for stale in (record_path, trace_path):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [os.path.join(out, "perfbench_run"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", record_path,
           "--trace-out", trace_path]
    if run_checked(cmd, root, RUN_TIMEOUT_S) != 0:
        return 1
    with open(record_path, encoding="utf-8") as f:
        record = json.load(f)

    correct = bool(record["correct"])
    if args.trace:
        checker = os.path.join(root, "tools", "trace_check.py")
        if run_checked([sys.executable, checker, trace_path], root, 120) != 0:
            log("exported trace failed tools/trace_check.py")
            correct = False
        record["metrics"].update(traces.span_metrics(trace_path))
        os.remove(trace_path)  # tens of MB; the derived metrics are kept
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for failure in record["check_failures"]:
        log(f"check failed: {failure}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        got = record["metrics"].get(spec["name"])
        # A metric that is not finite is written as null: it was measured
        # on failed requests, so the run has no result.
        if (got is None or got["unit"] != spec["unit"]
                or not isinstance(got["value"], (int, float))):
            log(f"metric {spec['name']} missing, not a number or not in "
                f"{spec['unit']}")
            return 1
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}

    for name in sorted(record["metrics"]):
        m = record["metrics"][name]
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name} = {value} {m['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
