#!/usr/bin/env python3
"""Service benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the library sources it compiles) into
.bench_build/perfbench under the repository root, runs one workload, and
passes the driver's report through. The last line of standard output is one
JSON object: correct, attempted, failed, metrics. With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics; a report that misses one, or gives it another unit, is refused.
Traced runs also write their spans to .bench_build/perfbench/.

Exit codes: 0 ok; 1 wrong answers, failed operations or a malformed report;
2 usage or build failure; 3 a run too short to report.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(DRIVER)


def check_report(report, expected):
    """Problems with a report against the metric list it must carry."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in report:
            problems.append("report lacks " + key)
    metrics = report.get("metrics", {})
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append("missing metric " + metric["name"])
        elif got.get("unit") != metric["unit"]:
            problems.append("%s has unit %s, not %s" %
                            (metric["name"], got.get("unit"), metric["unit"]))
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
    except (OSError, ValueError) as error:
        print("perfbench: cannot read BENCHMARK.json: %s" % error, file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("perfbench: unknown workload " + args.workload, file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        report = None
    if not isinstance(report, dict):
        sys.stdout.write(proc.stdout)
        print("perfbench: driver exited %d without a report" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    problems = check_report(
        report, spec["per_layer"] if args.trace else spec["end_to_end"])
    for line in lines[:-1]:
        print(line)
    if problems:
        for problem in problems:
            print("perfbench: " + problem, file=sys.stderr)
        return 1
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
