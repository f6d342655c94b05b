#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the sushi libraries from src/) into
.bench_build/perfbench; later runs only re-check the build. The
benchmark binary measures the workload and checks its outputs; this
script then checks its metrics against BENCHMARK.json and prints the
result object as the last line of standard output. Per-layer metrics of
layers a workload does not exercise read 0. Traced runs write their
Chrome trace-event JSON under .bench_build/traces/.

Exit status is 0 only when the build succeeded, every correctness gate
held and every metric matched BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRACE_DIR = os.path.join(".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "sushi_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "sushi_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def check_metrics(metrics, spec, fill_missing):
    """Every metric in spec, with its unit; nothing else."""
    extra = sorted(set(metrics) - {m["name"] for m in spec})
    if extra:
        fail("metrics not in BENCHMARK.json: " + ", ".join(extra))
    out = {}
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            if not fill_missing:
                fail("missing metric " + m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail("unknown workload " + args.workload)

    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1])
    for line in lines[:-1]:
        print(line)

    spec = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    result["metrics"] = check_metrics(result["metrics"], spec,
                                      fill_missing=args.trace == "1")
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
