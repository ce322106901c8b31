#!/usr/bin/env python3
"""A/B runs of perfbench: a base revision against the working tree.

Run from the root of a checkout:

    python3 tools/perfbench_ab.py --base HEAD --pairs 10 --workload stream
    python3 tools/perfbench_ab.py --base HEAD~1 --workload stream \\
        --workload churn -- --seed 5 --seconds 10 --trace 0

The base revision is checked out as a git worktree under
.bench_build/ab-<sha> (reused when present; remove it with
`git worktree remove .bench_build/ab-<sha>`). Each side builds through its
own perfbench/run.py, so each side's benchmark code and settings are those
of its own revision; the arguments after `--` (default: --seed 1
--seconds 10 --trace 0) go to both.

Each workload runs `--pairs` pairs, alternating which side goes first.
Within a pair the two sides must print the same `counters` line, apart
from its alloc_* fields (allocation counts may legitimately move): any
other difference is a change in what the system does, and the tool exits
1 after reporting it. A run that is not `correct` or fails operations
fails the comparison too.

For each workload and each metric in BENCHMARK.json it prints each
side's median and quartiles, the ratio of the medians and the pairs the
change won (ties count for neither). The verdict is "gain" when the change
won at least nine tenths of the pairs and its median beats the base's by
more than the base's interquartile spread, and "worse" when its median is
worse than the base's by more than the metric's bound in BENCHMARK.json.
A last row gives the host speed perfbench measured in each run, by which
it scales every timing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_ARGS = ["--seed", "1", "--seconds", "10", "--trace", "0"]
# perfbench scales its timings by the host speed it measured in-process.
HOST_SPEED = "# host speed (median, nominal 1): "


def git(*args, cwd=ROOT):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def base_checkout(rev):
    """The root of a worktree holding `rev`, created when absent."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(ROOT, ".bench_build", "ab-" + sha[:12])
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        git("worktree", "add", "--detach", path, sha)
    elif git("rev-parse", "HEAD", cwd=path) != sha:
        sys.exit("perfbench_ab: %s does not hold %s" % (path, sha))
    return path, sha


def build(side):
    """Builds `side` through its own perfbench/run.py."""
    code = ("import sys; sys.path.insert(0, %r); import run; run.build()"
            % os.path.join(side, "perfbench"))
    if subprocess.run([sys.executable, "-c", code], cwd=side,
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench_ab: build failed in " + side)


def run(side, workload, args):
    """The result JSON and the counters dict (None: none printed)."""
    cmd = [sys.executable, os.path.join(side, "perfbench", "run.py"),
           "--workload", workload] + args
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench_ab: %s exited %d:\n%s"
                 % (" ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    counters = None
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
        elif line.startswith(HOST_SPEED):
            result["host_speed"] = float(line[len(HOST_SPEED):])
    return result, counters


def behaviour(counters):
    if counters is None:
        return None
    return {k: v for k, v in counters.items() if not k.startswith("alloc_")}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_specs():
    """name -> (better, bound or None), from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {}
    for m in bench.get("end_to_end", []):
        specs[m["name"]] = (m["better"], m.get("bound"))
    for m in bench.get("per_layer", []):
        specs[m["name"]] = (m["better"], None)
    return specs


def report(workload, runs, specs):
    pairs = len(runs["base"])
    print("\n%s: %d pairs" % (workload, pairs))
    print("%-34s %30s %30s %7s %6s  %s"
          % ("metric", "base median [q1, q3]", "change median [q1, q3]",
             "ratio", "wins", "verdict"))
    for name, (better, bound) in specs.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]
                if name in r["metrics"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]
                  if name in r["metrics"]]
        if len(base) != pairs or len(change) != pairs:
            continue
        sign = 1 if better == "higher" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        ratio = cmed / bmed if bmed else float("nan")
        verdict = ""
        if wins * 10 >= pairs * 9 and sign * (cmed - bmed) > bq3 - bq1:
            verdict = "gain"
        elif (bound is not None and
              -sign * (cmed - bmed) > bound * abs(bmed)):
            verdict = "worse"
        print("%-34s %30s %30s %7.3f %3d/%-2d  %s"
              % (name, "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3),
                 "%.4g [%.4g, %.4g]" % (cmed, cq1, cq3), ratio, wins, pairs,
                 verdict))
    speeds = [[r["host_speed"] for r in runs[side] if "host_speed" in r]
              for side in ("base", "change")]
    if all(len(v) == pairs for v in speeds):
        # Not a metric: the in-process speed every timing above was
        # scaled by, so a shift here moves every timing with it.
        (bq1, bmed, bq3), (cq1, cmed, cq3) = map(quartiles, speeds)
        print("%-34s %30s %30s %7.3f"
              % ("(host speed)", "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3),
                 "%.4g [%.4g, %.4g]" % (cmed, cq1, cq3), cmed / bmed))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s [--base REV] [--pairs N] [--workload W ...] "
              "[-- perfbench args]")
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", help="write every run's result here (JSON)")
    argv = sys.argv[1:]
    extra = DEFAULT_ARGS
    if "--" in argv:
        extra = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    opts = parser.parse_args(argv)
    workloads = opts.workload or ["stream"]

    base, sha = base_checkout(opts.base)
    sides = {"base": base, "change": ROOT}
    for side in sides.values():
        build(side)
    print("base %s vs working tree; perfbench args: %s"
          % (sha[:12], " ".join(extra)))

    specs = metric_specs()
    failures = []
    everything = {}
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(opts.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            counters = {}
            for name in order:
                result, counters[name] = run(sides[name], workload, extra)
                runs[name].append(result)
                if not result["correct"] or result["failed"] != 0:
                    failures.append("%s pair %d: %s run not correct "
                                    "(%d of %d operations failed)"
                                    % (workload, i + 1, name,
                                       result["failed"], result["attempted"]))
            if behaviour(counters["base"]) != behaviour(counters["change"]):
                failures.append("%s pair %d: counters differ\n  base   %s\n"
                                "  change %s" % (workload, i + 1,
                                                 counters["base"],
                                                 counters["change"]))
            print("%s pair %d/%d done (%s first)"
                  % (workload, i + 1, opts.pairs, order[0]),
                  file=sys.stderr)
        report(workload, runs, specs)
        everything[workload] = runs
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"base": sha, "args": extra, "runs": everything}, f)
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
