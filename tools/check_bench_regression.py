#!/usr/bin/env python3
"""Serving and micro-bench perf smoke: fail when a watched metric regresses.

Compares freshly generated BENCH_serving.json runs (and, when given,
BENCH_micro.json) against the checked-in baselines and exits non-zero when
any watched metric is more than --max-ratio times slower than the baseline
value. Given several serving runs, it judges each watched metric and each
within-run ratio on its median across the runs; with one run the median is
that run's value. Used by CI (the "Serving perf smoke" step) to catch
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
  * refit_setup_locked_ms @ 1 thread — how long a 20000x49 refit holds
    the drain lock: the copy-assign of the live matrix into the engine's
    train-owned copy, into buffers grown by an earlier refit. A refit
    that read the live matrix under the lock again (ALS's cell-list
    build) would cost about 8x here, and no test times it.

Watched micro metrics (with --micro-baseline/--micro-current):
  * als_complete_rank10_1000x49 @ 1 thread — a cold 50-sweep ALS
    completion.
  * als_refresh_warm_rank10_1000x49 @ 1 thread — a warm-started refit,
    the train plane's per-refresh cost.
  Measured back to back on one host, the dense-fill sweep these replaced
  ran both about 2.3x slower than the sparse-residual sweep.

Also checks two *within-run* ratios (current vs current, so scheduler
noise largely cancels; with several runs, the median of the per-run
ratios):
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

One run is not always enough on a shared VM: a single noisy run has read
2.4x the baseline on serving_ns_per_op and failed the fleet tax, where the
next runs of the same build passed. CI passes three runs.

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json [CURRENT.json ...]
                            [--max-ratio 2.0]
                            [--max-router-tax 1.3] [--max-fleet-tax 1.6]
                            [--micro-baseline MICRO_BASELINE.json
                             --micro-current MICRO_CURRENT.json]
"""

import argparse
import json
import statistics
import sys

WATCHED = [
    ("choose_hint_scalar_ns", 1),
    ("serving_ns_per_op", 1),
    ("fold_reobserve_ns", 1),
    ("refit_setup_locked_ms", 1),
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


def unit(name):
    """The unit of a metric's ns_per_op slot: *_ms entries carry ms."""
    return "ms" if name.endswith("_ms") else "ns/op"


def runs_note(values, fmt="{:.1f}"):
    """' (median of N runs: ...)' for several runs, '' for one."""
    if len(values) == 1:
        return ""
    listed = ", ".join(fmt.format(v) for v in values)
    return f" (median of {len(values)} runs: {listed})"


def check_watched(baseline, currents, watched, max_ratio, failures):
    """Appends to `failures` every watched metric whose median over the
    `currents` runs exceeds max_ratio x baseline."""
    for name, threads in watched:
        key = (name, threads)
        if key not in baseline:
            print(f"SKIP  {name}@{threads}t: not in baseline")
            continue
        if any(key not in current for current in currents):
            failures.append(f"{name}@{threads}t missing from current run")
            continue
        values = [current[key] for current in currents]
        value = statistics.median(values)
        ratio = value / baseline[key]
        verdict = "FAIL" if ratio > max_ratio else "ok"
        print(
            f"{verdict:>4}  {name}@{threads}t: "
            f"{baseline[key]:.1f} -> {value:.1f} {unit(name)} "
            f"({ratio:.2f}x, limit {max_ratio:.2f}x){runs_note(values)}"
        )
        if ratio > max_ratio:
            failures.append(
                f"{name}@{threads}t regressed {ratio:.2f}x "
                f"({baseline[key]:.1f} -> {value:.1f} {unit(name)})"
            )


def check_tax(currents, label, scope, compares, base, taxed, max_tax,
              failures):
    """Checks the within-run ratio taxed/base on its median over the runs.
    `base` and `taxed` are (metric key, short name) pairs. The printed costs
    are those of the run whose ratio is the (lower) median, so they belong
    to one run."""
    pairs = [(c.get(base[0]), c.get(taxed[0])) for c in currents]
    missing = [p for p in pairs if None in p]
    if missing:
        failures.append(
            f"{label}-tax inputs missing from current run "
            f"({base[1]}={missing[0][0]}, {taxed[1]}={missing[0][1]})"
        )
        return
    taxes = [t / b for b, t in pairs]
    tax = statistics.median(taxes)
    b, t = pairs[taxes.index(statistics.median_low(taxes))]
    verdict = "FAIL" if tax > max_tax else "ok"
    print(
        f"{verdict:>4}  {label} tax ({compares}): "
        f"{b:.1f} -> {t:.1f} ns/op "
        f"({tax:.2f}x, limit {max_tax:.2f}x){runs_note(taxes, '{:.2f}x')}"
    )
    if tax > max_tax:
        failures.append(
            f"{scope} {label} tax {tax:.2f}x exceeds {max_tax:.2f}x "
            f"({b:.1f} -> {t:.1f} ns/op)"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in BENCH_serving.json")
    parser.add_argument(
        "current",
        nargs="+",
        help="freshly generated BENCH_serving.json, one or more runs",
    )
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
    currents = [load_metrics(path) for path in args.current]

    failures = []
    check_watched(baseline, currents, WATCHED, args.max_ratio, failures)
    if args.micro_baseline is not None:
        check_watched(
            load_metrics(args.micro_baseline),
            [load_metrics(args.micro_current)],
            WATCHED_MICRO,
            args.max_ratio,
            failures,
        )

    # Within-run router-tax guard: 1-shard sharded tier vs bare serving.
    check_tax(
        currents, "router", "1-shard", "sharded s1r1 / bare @1t",
        (("serving_ns_per_op", 1), "bare"),
        (("sharded_serving_s1r1_ns_per_op", 1), "sharded_s1r1"),
        args.max_router_tax, failures,
    )
    # Within-run fleet-tax guard: full-fan-out tier vs 1-shard tier. The
    # "threads" slot of sharded entries carries the shard count.
    check_tax(
        currents, "fleet", "4-shard", "sharded s4r4 / s1r1",
        (("sharded_serving_s1r1_ns_per_op", 1), "s1r1"),
        (("sharded_serving_s4r4_ns_per_op", 4), "s4r4"),
        args.max_fleet_tax, failures,
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
