#!/usr/bin/env python3
"""Gates perfbench's deterministic counters against a committed baseline.

Run from the root of a checkout:

    python3 tools/check_perfbench_counters.py            # check
    python3 tools/check_perfbench_counters.py --update   # rewrite baseline

For each workload it runs, at reduced scale,

    python3 perfbench/run.py --workload W --seed 3 --seconds 10 \\
        --scale 0.2 --trace 1

and compares the run with tools/perfbench_counters.json:

  * behaviour counts must equal the baseline exactly. They are the
    `counters` line without its alloc_* fields, and the per-layer metrics
    in BEHAVIOUR: forwards, matches and deliveries per tuple, control
    messages per submit and per remove, routing-table entries, the SPE's
    per-tuple counts and the result yield. A seeded run repeats them
    exactly, so any difference is a change in what the system does;
  * allocation counts (the counters' alloc_* fields and the alloc.*
    metrics) may not rise. Another compiler or standard library allocates
    differently, so they are compared only when the toolchain that built
    perfbench is the one the baseline records. Otherwise the check prints
    an "alloc unverified" line and skips them.

A change that alters a behaviour count, or lowers an allocation count,
regenerates the baseline with --update and says so in CHANGES.md.
Exits 1 when any check fails, after reporting every failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "perfbench_counters.json")
CACHE = os.path.join(ROOT, ".bench_build", "perfbench", "CMakeCache.txt")
WORKLOADS = ["stream", "churn"]
ARGS = ["--seed", "3", "--seconds", "10", "--scale", "0.2", "--trace", "1"]
BEHAVIOUR = [
    "cbn.forwards_per_tuple", "cbn.matches_per_tuple",
    "cbn.deliveries_per_tuple", "cbn.control_msgs_per_submit",
    "cbn.control_msgs_per_remove", "cbn.table_entries",
    "spe.tuples_in_per_tuple", "spe.results_out_per_tuple",
    "core.result_yield",
]
ALLOC = ["alloc.per_tuple", "alloc.per_submit", "alloc.per_remove"]


def run(workload):
    """The counters line and the metrics of one perfbench run."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload] + ARGS
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("check_perfbench_counters: %s exited %d:\n%s"
                 % (" ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("check_perfbench_counters: %s: %d of %d operations failed"
                 % (workload, result["failed"], result["attempted"]))
    counters = [l for l in lines if l.startswith("counters ")]
    if len(counters) != 1:
        sys.exit("check_perfbench_counters: %s printed no counters line"
                 % workload)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return json.loads(counters[0][len("counters "):]), metrics


def toolchain():
    """The first line of `--version` of the compiler that built perfbench."""
    compiler = "c++"
    with open(CACHE) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    out = subprocess.run([compiler, "--version"], capture_output=True,
                         text=True).stdout
    return out.splitlines()[0].strip() if out else compiler


def split(counters, metrics):
    """(behaviour, alloc) dicts of one run."""
    behaviour = {k: v for k, v in counters.items()
                 if not k.startswith("alloc_")}
    alloc = {k: v for k, v in counters.items() if k.startswith("alloc_")}
    for name in BEHAVIOUR:
        behaviour[name] = metrics[name]
    for name in ALLOC:
        alloc[name] = metrics[name]
    return behaviour, alloc


def main():
    update = sys.argv[1:] == ["--update"]
    if sys.argv[1:] and not update:
        sys.exit("usage: check_perfbench_counters.py [--update]")
    runs = {w: split(*run(w)) for w in WORKLOADS}
    built_with = toolchain()
    if update:
        baseline = {
            "command": "python3 perfbench/run.py --workload W " +
                       " ".join(ARGS),
            "toolchain": built_with,
            "workloads": {w: {"behaviour": b, "alloc": a}
                          for w, (b, a) in runs.items()},
        }
        with open(BASELINE, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print("check_perfbench_counters: wrote %s" % BASELINE)
        return 0

    with open(BASELINE) as f:
        baseline = json.load(f)
    same_toolchain = built_with == baseline["toolchain"]
    failures = []
    for workload, (behaviour, alloc) in runs.items():
        want = baseline["workloads"][workload]
        for name in sorted(set(want["behaviour"]) | set(behaviour)):
            got, expected = behaviour.get(name), want["behaviour"].get(name)
            if got != expected:
                failures.append("%s: %s = %r, baseline %r"
                                % (workload, name, got, expected))
        if not same_toolchain:
            print("check_perfbench_counters: %s: alloc unverified: built "
                  "with '%s', baseline recorded with '%s'"
                  % (workload, built_with, baseline["toolchain"]))
            continue
        for name in sorted(want["alloc"]):
            got, limit = alloc.get(name), want["alloc"][name]
            if got is None or got > limit:
                failures.append("%s: %s = %r rose above baseline %r"
                                % (workload, name, got, limit))
    for failure in failures:
        print("check_perfbench_counters: FAIL: " + failure)
    if failures:
        return 1
    print("check_perfbench_counters: %s behaviour counts match the baseline%s"
          % (", ".join(WORKLOADS),
             ", allocations did not rise" if same_toolchain else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
