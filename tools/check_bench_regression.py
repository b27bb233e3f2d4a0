#!/usr/bin/env python3
"""Serving and micro-bench perf smoke: fail when a watched metric regresses.

Compares a freshly generated BENCH_serving.json (and, when given,
BENCH_micro.json) against the checked-in baselines and exits non-zero when
any watched metric is more than --max-ratio times slower than the baseline
value. Used by CI (the "Serving perf smoke" step) to catch
order-of-magnitude regressions — an accidental per-serving allocation, a
re-introduced per-hint scan, a lock on the snapshot read path, a dense
n x k fill back in the ALS sweep — without being flaky about scheduler
noise on shared runners: a 2x guard band is far above run-to-run jitter
but far below the cost of any of those mistakes.

Watched serving metrics:
  * choose_hint_scalar_ns @ 1 thread — the pure decision cost of
    ServingSnapshot::ChooseHint (the sub-100ns acceptance metric).
  * serving_ns_per_op @ 1 thread — end-to-end serving including backend
    execution and observation reporting.
  * fold_reobserve_ns @ 1 thread — the drain's per-observation fold at
    serve-large's 20000x49 shape, re-observing verified bests under noise.
    The row rescan per slower best that the runner-up bound removed cost
    about 1.5x here, inside the 2x band; the entry guards against larger
    mistakes on the drain path.

Watched micro metrics (with --micro-baseline/--micro-current):
  * als_complete_rank10_1000x49 @ 1 thread — a cold 50-sweep ALS
    completion.
  * als_refresh_warm_rank10_1000x49 @ 1 thread — a warm-started refit,
    the train plane's per-refresh cost.
  Measured back to back on one host, the dense-fill sweep these replaced
  ran both about 2.3x slower than the sparse-residual sweep.

Also checks two *within-run* ratios (current vs current, so scheduler
noise largely cancels):
  * router tax: the 1-shard sharded tier (sharded_serving_s1r1_ns_per_op)
    must stay under --max-router-tax times the bare 1-thread serving
    loop. At one shard the router degenerates to two array lookups and a
    local==global index identity, so a blown ratio means the routing
    layer grew a real per-serving cost (an allocation, a lock, a
    per-shard scan) rather than the machine being slow today.
  * fleet tax: the 4-shard / 4-refit-thread tier
    (sharded_serving_s4r4_ns_per_op) must stay under --max-fleet-tax
    times the 1-shard / 1-thread point. That is the train plane's
    serving-path cost at full fan-out: the fleet's one TrainExecutor (2
    workers splitting the 4 linalg threads) keeps that cost bounded on a
    small box, so a blown ratio means the train plane started taking the
    serving core (more threads, a wider refit fan-out, a busy wait).

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json [--max-ratio 2.0]
                            [--max-router-tax 1.3] [--max-fleet-tax 1.6]
                            [--micro-baseline MICRO_BASELINE.json
                             --micro-current MICRO_CURRENT.json]
"""

import argparse
import json
import sys

WATCHED = [
    ("choose_hint_scalar_ns", 1),
    ("serving_ns_per_op", 1),
    ("fold_reobserve_ns", 1),
]

WATCHED_MICRO = [
    ("als_complete_rank10_1000x49", 1),
    ("als_refresh_warm_rank10_1000x49", 1),
]


def load_metrics(path):
    """Returns {(name, threads): ns_per_op} for every benchmark entry."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    metrics = {}
    for entry in doc.get("benchmarks", []):
        metrics[(entry["name"], entry["threads"])] = entry["ns_per_op"]
    return metrics


def check_watched(baseline, current, watched, max_ratio, failures):
    """Appends to `failures` every watched metric over max_ratio x baseline."""
    for name, threads in watched:
        key = (name, threads)
        if key not in baseline:
            print(f"SKIP  {name}@{threads}t: not in baseline")
            continue
        if key not in current:
            failures.append(f"{name}@{threads}t missing from current run")
            continue
        ratio = current[key] / baseline[key]
        verdict = "FAIL" if ratio > max_ratio else "ok"
        print(
            f"{verdict:>4}  {name}@{threads}t: "
            f"{baseline[key]:.1f} -> {current[key]:.1f} ns/op "
            f"({ratio:.2f}x, limit {max_ratio:.2f}x)"
        )
        if ratio > max_ratio:
            failures.append(
                f"{name}@{threads}t regressed {ratio:.2f}x "
                f"({baseline[key]:.1f} -> {current[key]:.1f} ns/op)"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in BENCH_serving.json")
    parser.add_argument("current", help="freshly generated BENCH_serving.json")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="fail when current/baseline exceeds this (default: 2.0)",
    )
    parser.add_argument(
        "--max-router-tax",
        type=float,
        default=1.3,
        help="fail when the 1-shard tier costs more than this times the "
        "bare 1-thread serving loop within the current run (default: 1.3)",
    )
    parser.add_argument(
        "--max-fleet-tax",
        type=float,
        default=1.6,
        help="fail when the 4-shard/4-refit-thread tier costs more than "
        "this times the 1-shard/1-thread point within the current run "
        "(default: 1.6)",
    )
    parser.add_argument(
        "--micro-baseline", help="checked-in BENCH_micro.json (optional)"
    )
    parser.add_argument(
        "--micro-current", help="freshly generated BENCH_micro.json (optional)"
    )
    args = parser.parse_args()
    if (args.micro_baseline is None) != (args.micro_current is None):
        parser.error("--micro-baseline and --micro-current go together")

    baseline = load_metrics(args.baseline)
    current = load_metrics(args.current)

    failures = []
    check_watched(baseline, current, WATCHED, args.max_ratio, failures)
    if args.micro_baseline is not None:
        check_watched(
            load_metrics(args.micro_baseline),
            load_metrics(args.micro_current),
            WATCHED_MICRO,
            args.max_ratio,
            failures,
        )

    # Within-run router-tax guard: 1-shard sharded tier vs bare serving.
    bare = current.get(("serving_ns_per_op", 1))
    routed = current.get(("sharded_serving_s1r1_ns_per_op", 1))
    if bare is None or routed is None:
        failures.append(
            "router-tax inputs missing from current run "
            f"(bare={bare}, sharded_s1r1={routed})"
        )
    else:
        tax = routed / bare
        verdict = "FAIL" if tax > args.max_router_tax else "ok"
        print(
            f"{verdict:>4}  router tax (sharded s1r1 / bare @1t): "
            f"{bare:.1f} -> {routed:.1f} ns/op "
            f"({tax:.2f}x, limit {args.max_router_tax:.2f}x)"
        )
        if tax > args.max_router_tax:
            failures.append(
                f"1-shard router tax {tax:.2f}x exceeds "
                f"{args.max_router_tax:.2f}x "
                f"({bare:.1f} -> {routed:.1f} ns/op)"
            )

    # Within-run fleet-tax guard: full-fan-out tier vs 1-shard tier. The
    # "threads" slot of sharded entries carries the shard count.
    s1r1 = current.get(("sharded_serving_s1r1_ns_per_op", 1))
    s4r4 = current.get(("sharded_serving_s4r4_ns_per_op", 4))
    if s1r1 is None or s4r4 is None:
        failures.append(
            "fleet-tax inputs missing from current run "
            f"(s1r1={s1r1}, s4r4={s4r4})"
        )
    else:
        tax = s4r4 / s1r1
        verdict = "FAIL" if tax > args.max_fleet_tax else "ok"
        print(
            f"{verdict:>4}  fleet tax (sharded s4r4 / s1r1): "
            f"{s1r1:.1f} -> {s4r4:.1f} ns/op "
            f"({tax:.2f}x, limit {args.max_fleet_tax:.2f}x)"
        )
        if tax > args.max_fleet_tax:
            failures.append(
                f"4-shard fleet tax {tax:.2f}x exceeds "
                f"{args.max_fleet_tax:.2f}x "
                f"({s1r1:.1f} -> {s4r4:.1f} ns/op)"
            )

    if failures:
        print("\nperf smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
