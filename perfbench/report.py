#!/usr/bin/env python3
"""Steadiness report and result comparison for the repository benchmark.

  python3 perfbench/report.py steadiness --workload W [--runs N]
          [--seed-base S] [--seconds T] [--trace 0|1]
      Runs perfbench/run.py N times with seeds S..S+N-1 and prints, per
      metric, the median, the quartiles and IQR / median (quartiles as
      statistics.quantiles(values, n=4) gives them). For end-to-end
      metrics it also prints the metric's bound from BENCHMARK.json and
      whether the spread is below a third of it.

  python3 perfbench/report.py compare A.json B.json
      Compares two full run records (written by run.py under
      <build>/results/). Refuses with exit status 2, naming the field,
      when their recorded environments differ in any field that makes
      numbers incomparable; otherwise prints each metric of both and the
      relative change.

Run both from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Environment fields that must match for two results to be comparable.
# Graph shapes are compared as every "graph.*" field.
ENV_FIELDS = ("workload", "seed", "seconds", "nproc", "pool_width",
              "build_type", "compiler")


def steadiness(args):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.seed_base + i
        cmd = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"run with seed {seed} failed (exit {done.returncode})")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"run with seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            if n in bounds), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, seeds {args.seed_base}.."
          f"{args.seed_base + args.runs - 1}")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    worst = 0.0
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = ""
        if bound is not None:
            note = f"{bound:6.2f} " + ("ok" if spread < bound / 3 else "WIDE")
            # setup_s's bound limits how far its median may drift between
            # two sets of runs, not its spread across seeds, so it is shown
            # but kept out of the widest spread.
            if name != "setup_s":
                worst = max(worst, spread / bound)
        print(f"{name:40} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{note} {units[name]}")
    if bounds and not args.trace:
        print(f"widest spread / bound (setup_s shown above, not gated on "
              f"spread): {worst:.3f}")
    return 0


def compare(args):
    records = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    env_a, env_b = records[0]["env"], records[1]["env"]
    fields = list(ENV_FIELDS) + sorted(
        k for k in set(env_a) | set(env_b) if k.startswith("graph."))
    for field in fields:
        if env_a.get(field) != env_b.get(field):
            print(f"refusing to compare: environment field '{field}' differs "
                  f"({env_a.get(field)!r} vs {env_b.get(field)!r})")
            return 2
    ma, mb = records[0]["metrics"], records[1]["metrics"]
    print(f"{'metric':40} {'A':>14} {'B':>14} {'change':>9}")
    for name in sorted(set(ma) & set(mb)):
        a, b = ma[name]["value"], mb[name]["value"]
        change = f"{(b - a) / a:+9.2%}" if a else "      n/a"
        print(f"{name:40} {a:14.6g} {b:14.6g} {change} {ma[name]['unit']}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    st = sub.add_parser("steadiness")
    st.add_argument("--workload", required=True)
    st.add_argument("--runs", type=int, default=10)
    st.add_argument("--seed-base", type=int, default=1)
    st.add_argument("--seconds", type=float, default=None)
    st.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "steadiness":
        if args.seconds is None:
            with open("BENCHMARK.json", encoding="utf-8") as f:
                args.seconds = json.load(f)["run_seconds"]
        return steadiness(args)
    return compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
