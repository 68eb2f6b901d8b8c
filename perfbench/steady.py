#!/usr/bin/env python3
"""Steadiness and compare mode of the service benchmark.

Run every workload of BENCHMARK.json N times for its run_seconds, with
seeds 1..N and the workload order alternating between iterations, then
print the median and quartiles of every end-to-end metric and save the
values:

    python3 perfbench/steady.py run --runs 10 --out base.json

Compare two saved result sets, one row per workload and metric, with a
verdict under the bounds in BENCHMARK.json:

    python3 perfbench/steady.py compare base.json new.json

Verdicts: "worse" when the new median is worse than the base median by more
than the bound; "better" when it is better by more than the bound;
"unresolved" when either side's quartile spread is wider than the bound,
unless every new run reads better than every base run; "unchanged"
otherwise. Compare exits 1 when any row is "worse", and 2 when the sets do
not cover the same workloads and metrics at the same run length.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summary(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def worse_by(base, new, better):
    """Share by which `new` is worse than `base` (negative: it is better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def verdict(base_values, new_values, better, bound):
    base_med, _, _, base_spread = summary(base_values)
    new_med, _, _, new_spread = summary(new_values)
    if base_spread > bound or new_spread > bound:
        if better == "higher":
            clear = min(new_values) > max(base_values)
        else:
            clear = max(new_values) < min(base_values)
        return "better" if clear else "unresolved"
    change = worse_by(base_med, new_med, better)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().split("\n")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        report = None
    if proc.returncode != 0 or not isinstance(report, dict):
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit("run of %s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    return report


def cmd_run(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            seed = i + 1
            report = run_once(workload, seed, seconds)
            for name in results[workload]:
                results[workload][name].append(report["metrics"][name]["value"])
            print("run %d %s seed %d done" % (i + 1, workload, seed), flush=True)
    print_table(results, spec)
    with open(args.out, "w") as f:
        json.dump({"run_seconds": seconds, "results": results}, f, indent=1)
    return 0


def print_table(results, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print("%-17s %-17s %14s %14s %14s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for workload, metrics in results.items():
        for name, values in metrics.items():
            median, q1, q3, spread = summary(values)
            print("%-17s %-17s %14.6g %14.6g %14.6g %8.4f %6.2f" %
                  (workload, name, median, q1, q3, spread, bounds[name]["bound"]))


def mismatches(base, new, spec):
    """Why two result sets cannot be compared row by row (empty: they can)."""
    problems = []
    if base.get("run_seconds") != new.get("run_seconds"):
        problems.append("run lengths differ: %s s and %s s" %
                        (base.get("run_seconds"), new.get("run_seconds")))
    for workload in sorted(set(base["results"]) | set(new["results"])):
        for side, name in ((base, "base"), (new, "new")):
            values = side["results"].get(workload)
            if values is None:
                problems.append("%s set lacks workload %s" % (name, workload))
                continue
            for metric in spec["end_to_end"]:
                if not values.get(metric["name"]):
                    problems.append("%s set lacks %s on %s" %
                                    (name, metric["name"], workload))
    return problems


def cmd_compare(args, spec):
    with open(args.base) as f:
        base_set = json.load(f)
    with open(args.new) as f:
        new_set = json.load(f)
    problems = mismatches(base_set, new_set, spec)
    if problems:
        for problem in problems:
            print("steady: " + problem, file=sys.stderr)
        return 2
    base, new = base_set["results"], new_set["results"]
    print("%-17s %-17s %14s %14s %9s %10s" %
          ("workload", "metric", "base median", "new median", "worse by", "verdict"))
    any_worse = False
    for workload in base:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base[workload][name], new[workload][name]
            v = verdict(b, n, metric["better"], metric["bound"])
            any_worse |= v == "worse"
            change = worse_by(statistics.median(b), statistics.median(n),
                              metric["better"])
            print("%-17s %-17s %14.6g %14.6g %+8.2f%% %10s" %
                  (workload, name, statistics.median(b), statistics.median(n),
                   100 * change, v))
    return 1 if any_worse else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--out", required=True)
    compare = sub.add_parser("compare")
    compare.add_argument("base")
    compare.add_argument("new")
    args = parser.parse_args(argv)
    spec = load_spec()
    return cmd_run(args, spec) if args.mode == "run" else cmd_compare(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
