#!/usr/bin/env python3
"""Self-test of the end-to-end COSMOS benchmark, at reduced size.

Run from the root of a checkout (builds like run.py):

    python3 perfbench/selftest.py

For two seeds and every workload in BENCHMARK.json it runs the benchmark
twice untraced and twice traced, at --scale 0.2, and checks that:

  * the last line is the result object, every metric of BENCHMARK.json is
    printed with its unit and no other metric is;
  * every run is correct with no failed operation, so the oracle check is
    clean; on stream the oracle sample holds select-project, aggregate and
    join queries, on churn select-project queries only;
  * the deterministic counters repeat exactly for a seed: the `counters`
    line, wire_bytes_per_tuple, control messages, routing-table entries and
    the alloc.* metrics.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = [3, 4]
SCALE = "0.2"
SECONDS = "2"
DETERMINISTIC_E2E = ["wire_bytes_per_tuple"]
DETERMINISTIC_LAYER = [
    "core.rep_changes_per_submit", "core.rep_changes_per_remove",
    "core.groups_dissolved_per_remove", "core.grouping_ratio",
    "core.result_yield", "cbn.control_msgs_per_submit",
    "cbn.control_msgs_per_remove", "cbn.table_entries",
    "cbn.matcher_compiles_per_tuple", "cbn.forwards_per_tuple",
    "cbn.matches_per_tuple", "cbn.deliveries_per_tuple",
    "cbn.forwards_per_submit", "spe.tuples_in_per_tuple",
    "spe.results_out_per_tuple", "spe.evals_per_submit", "alloc.per_tuple",
    "alloc.per_submit", "alloc.per_remove",
]
# Query kinds the oracle sample must hold, by workload.
ORACLE_KINDS = {
    "stream": {"select", "aggregate", "join"},
    "churn": {"select"},
}


def fail(message):
    sys.exit("selftest: FAIL: " + message)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                    proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counters = [l for l in lines if l.startswith("counters ")]
    if len(counters) != 1:
        fail("%s printed no counters line" % workload)
    samples = [l for l in lines if l.startswith("# samples: ")]
    if len(samples) != 1:
        fail("%s printed no samples line" % workload)
    fields = dict(f.split("=", 1) for f in samples[0][len("# samples: "):].split())
    kinds = {k.split(":")[0] for k in fields["oracle_queries"].split(",") if k}
    if workload in ORACLE_KINDS and kinds != ORACLE_KINDS[workload]:
        fail("%s: oracle sample holds %s, wants %s"
             % (workload, sorted(kinds), sorted(ORACLE_KINDS[workload])))
    return result, counters[0]


def check_shape(result, expected, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (where, sorted(result)))
    if result["attempted"] < 1:
        fail("%s: nothing attempted" % where)
    if not result["correct"] or result["failed"] != 0:
        fail("%s: %d of %d operations failed" % (where, result["failed"],
                                                 result["attempted"]))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("%s: metrics differ from BENCHMARK.json: %s vs %s"
             % (where, got, expected))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in SEEDS:
            where = "%s seed %d" % (workload, seed)
            runs = []
            for trace, expected in ((0, e2e), (1, layer)):
                first, first_counters = run(workload, seed, trace)
                again, again_counters = run(workload, seed, trace)
                check_shape(first, expected, where)
                check_shape(again, expected, where)
                if first_counters != again_counters:
                    fail("%s trace %d: counters differ:\n%s\n%s"
                         % (where, trace, first_counters, again_counters))
                names = DETERMINISTIC_E2E if trace == 0 else DETERMINISTIC_LAYER
                for name in names:
                    a = first["metrics"][name]["value"]
                    b = again["metrics"][name]["value"]
                    if a != b:
                        fail("%s: %s differs between runs: %r vs %r"
                             % (where, name, a, b))
                runs.append(first)
            print("selftest: %s ok (%d operations)"
                  % (where, runs[0]["attempted"]))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
