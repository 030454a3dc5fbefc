#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seed N]

Runs every workload for one round at a held-out seed (default 90210, not
a seed the benchmark was tuned on) and checks that:

  * no simulation fails and every output check passes;
  * two runs on the same seed give the same simulated-result digest, the
    same simulated end-to-end metrics (sim_cycles, cycles_per_barrier,
    barrier_p99_cycles) and, traced, the same sim.events and
    sim.allocs_per_event;
  * on barrier-storm, each ping-pong filter variant costs no more cycles
    per barrier than its entry/exit variant (the warm regime of Section
    3.5);
  * the traced run's host-profiler phases attribute at least 95% of the
    traced host time;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero within 180 s without printing a result.

Exits 0 when every check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
EXACT_E2E = ("sim_cycles", "cycles_per_barrier", "barrier_p99_cycles")
EXACT_TRACED = ("sim.events", "sim.allocs_per_event")

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace):
    """One run.py invocation: (result line, results file)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd),
                                                  proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")
    with open(os.path.join(bdir, "results", "%s-seed%d-trace%d.json" %
                           (workload, seed, trace))) as f:
        details = json.load(f)
    return result, details


def values(result, names):
    return {n: result["metrics"][n]["value"] for n in names}


def check_workload(workload, seed):
    a, da = run(workload, seed, 0)
    b, db = run(workload, seed, 0)
    ta, dta = run(workload, seed, 1)
    tb, dtb = run(workload, seed, 1)
    for r in (a, b, ta, tb):
        check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
              "%s seed %d: every simulation correct (%d attempted, %d "
              "failed)" % (workload, seed, r["attempted"], r["failed"]))
    digests = {d["digest"] for d in (da, db, dta, dtb)}
    check(len(digests) == 1,
          "%s: one digest across runs %s" % (workload, sorted(digests)))
    check(values(a, EXACT_E2E) == values(b, EXACT_E2E),
          "%s: simulated metrics repeat %s" % (workload,
                                               values(a, EXACT_E2E)))
    check(values(ta, EXACT_TRACED) == values(tb, EXACT_TRACED),
          "%s: traced counts repeat %s" % (workload,
                                           values(ta, EXACT_TRACED)))
    attributed = ta["metrics"]["host.attributed_frac"]["value"]
    check(attributed >= 0.95,
          "%s: host profiler attributes %.4f of traced time" %
          (workload, attributed))
    return da


def check_warm_regime(details):
    cpb = details["cycles_per_barrier_by_simulation"]
    for pp, ee in (("filter-icache-pp", "filter-icache"),
                   ("filter-dcache-pp", "filter-dcache")):
        check(cpb[pp] <= cpb[ee],
              "barrier-storm: %s %.2f <= %s %.2f cycles/barrier" %
              (pp, cpb[pp], ee, cpb[ee]))


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "barrier-storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180, env=env)
    took = time.monotonic() - start
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and "{" not in proc.stdout and took < 180,
          "without the simulator sources: exit code %d, %d bytes on "
          "stdout, %.1f s" % (proc.returncode, len(proc.stdout), took))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=90210)
    args = ap.parse_args()

    for workload in ("kernels-filter", "kernels-sw", "barrier-storm",
                     "virt-oversub"):
        details = check_workload(workload, args.seed)
        if workload == "barrier-storm":
            check_warm_regime(details)
    check_bare_directory()

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
