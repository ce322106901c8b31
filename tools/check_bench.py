#!/usr/bin/env python3
"""Validates BENCH_routing.json, the forwarding-benchmark artifact.

The file is google-benchmark JSON produced by:

    bench_micro \
        --benchmark_filter='BM_RoutingForward|BM_ForwardWith|BM_CounterHotPath|BM_Match|BM_WindowAggregate|BM_WindowJoin|BM_ProfileCovering' \
        --benchmark_repetitions=5 --benchmark_enable_random_interleaving=true \
        --benchmark_out=BENCH_routing.json --benchmark_out_format=json

Every gate reads the `_median` aggregate of each benchmark: the median of
five repetitions run in random interleaved order, so one slow or fast
sample (a co-tenant burst) cannot decide a gate. A file without the
aggregates is reported incomplete.

Six gates, all measured within the same run:

  1. Index speedup — the run covers table sizes {10^2, 10^3, 10^4} for both
     the stream-partitioned index (BM_RoutingForwardIndexed) and the
     pre-index linear reference (BM_RoutingForwardLinear), each reporting a
     datagrams_per_sec counter, and the indexed implementation at 10^4
     entries is at least MIN_SPEEDUP x the linear one. BM_RoutingForwardIndexed
     runs whatever Router defaults to (now the compiled matcher), so a
     matcher regression that slowed real forwarding would trip this gate too.
  2. Match-engine speedup — within one (link, stream) bucket, the compiled
     counting matcher (BM_MatchCompiled) is at least MIN_MATCH_SPEEDUP x
     the interpreted per-profile walk (BM_MatchInterpreted) at 10^4
     profiles, sizes {10^2, 10^3, 10^4} all present.
  3. Telemetry overhead — publishing through a CBN with an external
     MetricsRegistry attached (BM_ForwardWithTelemetry) keeps at least
     MIN_TELEMETRY_RATIO of the throughput with none attached
     (BM_ForwardWithoutTelemetry). The CBN always counts into a registry,
     its own when none is attached, so this guards that attaching one
     adds no cost.
  4. Window-aggregate scaling — sliding MIN/MAX over one group
     (BM_WindowAggregate, window sizes {10^2, 10^3, 10^4}, each reporting
     allocs_per_arrival) costs at most MAX_AGG_SCALING x as much time per
     arrival at 10^4 resident tuples as at 10^2: the extrema are maintained
     incrementally, so the cost must not grow with the window (a rescan of
     the window grows about 100x).
  5. Window-join scaling — an equi-key arrival probing a resident window
     (BM_WindowJoinProbe, window sizes {10^2, 10^3, 10^4}) costs at most
     MAX_JOIN_SCALING x as much time at 10^4 resident tuples as at 10^2:
     the join probes a hash index over the key, so the cost must not grow
     with the window (a nested-loop scan grows about 100x). BM_WindowJoin
     runs alongside for the record.
  6. Allocation-free covering — ProfileCovers on a covered pair of
     profiles shaped like composed source profiles (a projection and two
     filters each; BM_ProfileCovering) allocates nothing: allocs_per_check
     is exactly 0. Each profile keeps its per-stream required attributes
     and filter list precomputed, so a covering check only reads them.
     This gate is a count, not a timing.

Usage: tools/check_bench.py [BENCH_routing.json]
"""

import json
import sys

MIN_SPEEDUP = 5.0
# Compiled matching must beat the interpreted walk >= 3x at 10^4 profiles.
MIN_MATCH_SPEEDUP = 3.0
# Forwarding with a registry attached must retain >= 95% of the throughput
# without one.
MIN_TELEMETRY_RATIO = 0.95
# Sliding MIN/MAX: time per arrival at 10^4 resident tuples <= 3x that at
# 10^2.
MAX_AGG_SCALING = 3.0
# Hash-indexed join probe: time per arrival at 10^4 resident tuples <= 3x
# that at 10^2.
MAX_JOIN_SCALING = 3.0
SIZES = (100, 1000, 10000)
IMPLS = ("Indexed", "Linear")
MATCH_IMPLS = ("Compiled", "Interpreted")
TELEMETRY_BENCHES = (
    "BM_CounterHotPath",
    "BM_ForwardWithoutTelemetry",
    "BM_ForwardWithTelemetry",
)


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_routing.json"
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError:
        print(f"SKIP: {path} not found — run the forwarding benchmark first "
              "(see the module docstring); nothing to validate outside the "
              "bench job.")
        return 0
    # Gate on the medians, keyed by the benchmark's own name.
    bench = {b["run_name"]: b for b in data.get("benchmarks", [])
             if b.get("aggregate_name") == "median"}

    missing = []
    for impl in IMPLS:
        for n in SIZES:
            name = f"BM_RoutingForward{impl}/{n}"
            if name not in bench:
                missing.append(name)
            elif "datagrams_per_sec" not in bench[name]:
                missing.append(f"{name}:datagrams_per_sec")
    for impl in MATCH_IMPLS:
        for n in SIZES:
            name = f"BM_Match{impl}/{n}"
            if name not in bench:
                missing.append(name)
            elif "datagrams_per_sec" not in bench[name]:
                missing.append(f"{name}:datagrams_per_sec")
    for name in TELEMETRY_BENCHES:
        if name not in bench:
            missing.append(name)
    for name in TELEMETRY_BENCHES[1:]:
        if name in bench and "datagrams_per_sec" not in bench[name]:
            missing.append(f"{name}:datagrams_per_sec")
    for n in SIZES:
        name = f"BM_WindowAggregate/{n}"
        if name not in bench:
            missing.append(name)
        elif "allocs_per_arrival" not in bench[name]:
            missing.append(f"{name}:allocs_per_arrival")
    for n in SIZES:
        name = f"BM_WindowJoinProbe/{n}"
        if name not in bench:
            missing.append(name)
    if "BM_ProfileCovering" not in bench:
        missing.append("BM_ProfileCovering")
    elif "allocs_per_check" not in bench["BM_ProfileCovering"]:
        missing.append("BM_ProfileCovering:allocs_per_check")
    if missing:
        print(f"{path} incomplete: missing {', '.join(missing)}",
              file=sys.stderr)
        return 1

    for n in SIZES:
        indexed = bench[f"BM_RoutingForwardIndexed/{n}"]["datagrams_per_sec"]
        linear = bench[f"BM_RoutingForwardLinear/{n}"]["datagrams_per_sec"]
        print(f"table size {n:>6}: indexed {indexed:>14,.0f} dg/s | "
              f"linear {linear:>14,.0f} dg/s | {indexed / linear:5.1f}x")

    indexed = bench["BM_RoutingForwardIndexed/10000"]["datagrams_per_sec"]
    linear = bench["BM_RoutingForwardLinear/10000"]["datagrams_per_sec"]
    speedup = indexed / linear
    ok = True
    if speedup < MIN_SPEEDUP:
        print(f"indexed forwarding at 10^4 entries is only {speedup:.1f}x "
              f"the linear baseline (need >= {MIN_SPEEDUP}x)",
              file=sys.stderr)
        ok = False
    else:
        print(f"OK: {speedup:.1f}x >= {MIN_SPEEDUP}x at 10^4 entries")

    for n in SIZES:
        compiled = bench[f"BM_MatchCompiled/{n}"]["datagrams_per_sec"]
        interp = bench[f"BM_MatchInterpreted/{n}"]["datagrams_per_sec"]
        print(f"bucket size {n:>6}: compiled {compiled:>14,.0f} dg/s | "
              f"interpreted {interp:>14,.0f} dg/s | "
              f"{compiled / interp:5.1f}x")

    compiled = bench["BM_MatchCompiled/10000"]["datagrams_per_sec"]
    interp = bench["BM_MatchInterpreted/10000"]["datagrams_per_sec"]
    match_speedup = compiled / interp
    if match_speedup < MIN_MATCH_SPEEDUP:
        print(f"compiled matching at 10^4 profiles is only "
              f"{match_speedup:.1f}x the interpreted walk "
              f"(need >= {MIN_MATCH_SPEEDUP}x)", file=sys.stderr)
        ok = False
    else:
        print(f"OK: {match_speedup:.1f}x >= {MIN_MATCH_SPEEDUP}x at 10^4 "
              "profiles per bucket")

    bare = bench["BM_ForwardWithoutTelemetry"]["datagrams_per_sec"]
    instrumented = bench["BM_ForwardWithTelemetry"]["datagrams_per_sec"]
    ratio = instrumented / bare
    print(f"telemetry: bare {bare:>14,.0f} dg/s | instrumented "
          f"{instrumented:>14,.0f} dg/s | {ratio:6.1%} retained")
    if ratio < MIN_TELEMETRY_RATIO:
        print(f"telemetry overhead too high: instrumented forwarding keeps "
              f"only {ratio:.1%} of bare throughput "
              f"(need >= {MIN_TELEMETRY_RATIO:.0%})", file=sys.stderr)
        ok = False
    else:
        print(f"OK: telemetry keeps {ratio:.1%} >= "
              f"{MIN_TELEMETRY_RATIO:.0%} of bare forwarding throughput")

    ns = {n: ns_per_iteration(bench[f"BM_WindowAggregate/{n}"])
          for n in SIZES}
    for n in SIZES:
        allocs = bench[f"BM_WindowAggregate/{n}"]["allocs_per_arrival"]
        print(f"window size {n:>6}: {ns[n]:>10,.1f} ns/arrival | "
              f"{allocs:.2f} allocs/arrival")
    scaling = ns[10000] / ns[100]
    if scaling > MAX_AGG_SCALING:
        print(f"sliding MIN/MAX at 10^4 resident tuples costs {scaling:.1f}x "
              f"the time per arrival at 10^2 (need <= {MAX_AGG_SCALING}x)",
              file=sys.stderr)
        ok = False
    else:
        print(f"OK: window aggregate scales {scaling:.2f}x <= "
              f"{MAX_AGG_SCALING}x from 10^2 to 10^4 resident tuples")

    ns = {n: ns_per_iteration(bench[f"BM_WindowJoinProbe/{n}"])
          for n in SIZES}
    for n in SIZES:
        print(f"join window size {n:>6}: {ns[n]:>10,.1f} ns/arrival")
    scaling = ns[10000] / ns[100]
    if scaling > MAX_JOIN_SCALING:
        print(f"join probe at 10^4 resident tuples costs {scaling:.1f}x the "
              f"time per arrival at 10^2 (need <= {MAX_JOIN_SCALING}x)",
              file=sys.stderr)
        ok = False
    else:
        print(f"OK: window join scales {scaling:.2f}x <= "
              f"{MAX_JOIN_SCALING}x from 10^2 to 10^4 resident tuples")

    covering = bench["BM_ProfileCovering"]
    allocs = covering["allocs_per_check"]
    print(f"profile covering: {ns_per_iteration(covering):>10,.1f} ns/check | "
          f"{allocs:.2f} allocs/check")
    if allocs != 0:
        print(f"ProfileCovers allocates {allocs:.2f} times per check "
              "(need 0)", file=sys.stderr)
        ok = False
    else:
        print("OK: ProfileCovers allocates nothing")
    return 0 if ok else 1


def ns_per_iteration(entry) -> float:
    """A google-benchmark entry's CPU time per iteration in ns (the clock
    the other gates' rate counters use)."""
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return entry["cpu_time"] * scale[entry.get("time_unit", "ns")]


if __name__ == "__main__":
    sys.exit(main())
