#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

With --workload all, every workload of BENCHMARK.json runs in turn, and
each prints one result line that also names its workload.

The benchmark (perfbench/simbench.cc) is configured and built with CMake
into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that is
set). The run's full results, including the simulated-result digest, are
written to results/ in that directory, and with --trace 1 the recorded
spans as well. The last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}. The metrics are checked
against BENCHMARK.json: the end_to_end list with --trace 0, the per_layer
list with --trace 1.

Exits non-zero without printing a result when the build fails (for
instance when the simulator sources under src/ are missing), when the
benchmark fails, or when its metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_LOG_TAIL = 40
# The whole run must end within 180 s; the build may take longer only on
# the first run, when nothing is built yet.
RUN_DEADLINE_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under src/")
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.readlines()[-BUILD_LOG_TAIL:]
                sys.stderr.writelines(tail)
                fail("build step failed: " + " ".join(cmd))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(bdir, spec, workload, seed, seconds, trace):
    """Run one workload; return its result line, checked against spec."""
    start = time.monotonic()
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" %
                        (workload, seed, trace))
    cmd = [os.path.join(bdir, "simbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", stem + ".json", "--spans", stem + "-spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_DEADLINE_S -
                              (time.monotonic() - start))
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish in time")
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(k for k in want
                                  if k in got and got[k] != want[k])))
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    bdir = build_dir()
    build(bdir)
    if args.workload != "all":
        print(run_workload(bdir, spec, args.workload, args.seed,
                           args.seconds, args.trace))
        return
    for w in spec["workloads"]:
        line = run_workload(bdir, spec, w["name"], args.seed, args.seconds,
                            args.trace)
        print(json.dumps(dict(workload=w["name"], **json.loads(line))),
              flush=True)


if __name__ == "__main__":
    main()
