#!/usr/bin/env python3
"""End-to-end benchmark for limeqo: offline explore and online serve.

Builds e2ebench/ (the limeqo library plus the bench_e2e driver) with CMake,
then runs it. Run from the root of a limeqo checkout.

One run (the form a harness calls; the last stdout line is the result):
  python3 e2ebench/run.py --workload serve-hot --seed 7 --seconds 10 --trace 0

The whole suite, every workload untraced and then traced:
  python3 e2ebench/run.py --seed 42 [--repeat 5] [--out results.json]
                          [--trace-dir traces/] [--smoke]
Two result files against the bounds in BENCHMARK.json:
  python3 e2ebench/run.py --compare A.json B.json

Metric names, units, directions and bounds live in BENCHMARK.json; see
e2ebench/README.md for what each workload and metric means.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Smoke runs measure 1/SMOKE_DIVISOR of run_seconds, with every correctness
# check on.
SMOKE_DIVISOR = 20


class BenchError(Exception):
    pass


def load_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def default_build_dir():
    # The harness points CARGO_TARGET_DIR at its build area; use it for the
    # CMake tree too so every artifact stays in one ignored place.
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "e2ebench"


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns the binary path."""
    build_dir = Path(build_dir).resolve()
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", "3"])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"build timed out: {' '.join(cmd)}") from e
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}") from e
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            raise BenchError(f"build failed: {' '.join(cmd)}")
    binary = build_dir / "bench_e2e"
    if not binary.exists():
        raise BenchError(f"{binary} missing after build")
    return binary


def run_once(binary, workload, seed, seconds, traced, trace_out=None,
             echo=True):
    """Runs one workload in its own process; returns its result record."""
    out_dir = binary.parent / "results"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}-{'traced' if traced else 'untraced'}"
    json_path = out_dir / f"{tag}.json"
    if json_path.exists():
        json_path.unlink()
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json={json_path}"]
    if traced:
        cmd.append("--traced")
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    # The binary sizes the linalg pool per workload; pinning the variable
    # keeps the pool from first sizing itself to every core.
    env = dict(os.environ, LIMEQO_THREADS="1")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{tag} timed out after {RUN_TIMEOUT_S} s") from e
    if echo:
        sys.stdout.write(p.stdout)
    sys.stderr.write(p.stderr)
    if p.returncode not in (0, 1) or not json_path.exists():
        raise BenchError(f"{tag} exited with {p.returncode}")
    with open(json_path) as f:
        return json.load(f)


def contract_metrics(spec, record, traced):
    """The record's metrics in BENCHMARK.json order, validated: each must be
    present, carry the declared unit, and be a positive finite number."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    problems = []
    for m in declared:
        got = record["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{m['name']} missing")
            continue
        value = got["value"]
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got['unit']} != {m['unit']}")
        if value is None or not math.isfinite(value) or value <= 0:
            problems.append(f"{m['name']} = {value}")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, problems


def single_run(args, spec):
    binary = build(args.build_dir or default_build_dir())
    traced = args.trace == 1
    record = run_once(binary, args.workload, args.seed, args.seconds, traced)
    metrics, problems = contract_metrics(spec, record, traced)
    for p in problems:
        print(f"metric problem: {p}", file=sys.stderr)
    result = {
        "correct": bool(record["correct"]) and not problems,
        "attempted": max(int(record["attempted"]), 1),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Suite mode
# ---------------------------------------------------------------------------

def host_record():
    """Host topology and provenance for a results file (suite mode only)."""
    rec = {"nproc": len(os.sched_getaffinity(0)),
           "machine": platform.machine(), "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    rec["caches"] = caches
    try:
        rec["git_sha"] = subprocess.run(
            ["git", "-C", str(HERE.parent), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rec["git_sha"] = "unknown"
    return rec


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_record(record):
    mode = "traced" if record["traced"] else "untraced"
    print(f"\n{record['workload']} seed={record['seed']} {mode}: "
          f"{'correct' if record['correct'] else 'INCORRECT'}, "
          f"attempted {record['attempted']}, failed {record['failed']}")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"  FAILED check {c['name']}: {c['detail']}")
    for section in ("metrics", "diagnostics"):
        for name, v in record[section].items():
            print(f"  {name:30s} {v['value']:>16.6g} {v['unit']:<9s} "
                  f"n={v['samples']}{'' if section == 'metrics' else '  (diag)'}")


def suite(args, spec):
    binary = build(args.build_dir or default_build_dir())
    seconds = args.seconds or spec["run_seconds"]
    if args.smoke:
        seconds = seconds / SMOKE_DIVISOR
    workloads = [w["name"] for w in spec["workloads"]]
    if args.trace_dir:
        Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
    runs = []
    for rep in range(args.repeat):
        seed = args.seed + rep
        for traced in (False, True):
            for w in workloads:
                trace_out = None
                if traced and args.trace_dir:
                    trace_out = str(Path(args.trace_dir).resolve() /
                                    f"{w}-{seed}.trace.json")
                record = run_once(binary, w, seed, seconds, traced,
                                  trace_out=trace_out, echo=False)
                _, problems = contract_metrics(spec, record, traced)
                record["contract_problems"] = problems
                runs.append(record)
                print_record(record)
                for p in problems:
                    print(f"  METRIC PROBLEM: {p}")

    summary = summarize(spec, runs)
    print_summary(spec, summary, workloads)
    results = {"host": host_record(), "seed": args.seed,
               "repeat": args.repeat, "seconds": seconds,
               "smoke": args.smoke, "runs": runs, "summary": summary}
    out = Path(args.out) if args.out else binary.parent / "e2e-results.json"
    out.write_text(json.dumps(results, indent=1))
    print(f"\nwrote {out}")
    bad = [r for r in runs if not r["correct"] or r["contract_problems"]]
    for r in bad:
        print(f"INCORRECT: {r['workload']} seed={r['seed']} "
              f"traced={r['traced']}")
    return 1 if bad else 0


def summarize(spec, runs):
    """Median, quartiles and IQR/median per (workload, mode, metric)."""
    table = {}
    for r in runs:
        mode = "traced" if r["traced"] else "untraced"
        for section in ("metrics", "diagnostics"):
            for name, v in r[section].items():
                if v["value"] is None:
                    continue
                key = f"{r['workload']}|{mode}|{name}"
                table.setdefault(key, {"unit": v["unit"], "values": []})
                table[key]["values"].append(v["value"])
    for entry in table.values():
        q1, med, q3 = quartiles(entry["values"])
        entry.update(q1=q1, median=med, q3=q3,
                     spread=(q3 - q1) / med if med else 0.0)
    return table


def print_summary(spec, table, workloads):
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    print("\n== median [q1, q3] (IQR/median) per workload ==")
    for w in workloads:
        print(f"\n{w}")
        for mode, names in (("untraced", e2e), ("traced", layers)):
            for name in names:
                e = table.get(f"{w}|{mode}|{name}")
                if e is None:
                    continue
                print(f"  {name:20s} {e['median']:>14.6g} {e['unit']:<9s} "
                      f"[{e['q1']:.6g}, {e['q3']:.6g}] ({e['spread']:.1%}, "
                      f"n={len(e['values'])})")
        # Tracing overhead: the same end-to-end number with spans on.
        for name in ("throughput_per_s", "explore_wall_s"):
            u = table.get(f"{w}|untraced|{name}")
            t = table.get(f"{w}|traced|{name}")
            if u and t and u["median"]:
                print(f"  tracing overhead on {name}: "
                      f"{(t['median'] - u['median']) / u['median']:+.1%}")
        for key, e in sorted(table.items()):
            if key.startswith(f"{w}|traced|coverage."):
                print(f"  reconciliation {key.split('|')[2]}: children cover "
                      f"{e['median']:.2%} of parents")


def compare(args, spec):
    """Checks result file B against A on every (end-to-end metric, workload)
    pair: B's median may be worse than A's by at most the metric's bound."""
    a = json.loads(Path(args.compare[0]).read_text())["summary"]
    b = json.loads(Path(args.compare[1]).read_text())["summary"]
    failures = 0
    print(f"{'workload':12s} {'metric':17s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'worse by':>9s} {'bound':>6s}")
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            key = f"{w}|untraced|{m['name']}"
            if key not in a or key not in b:
                continue
            ma, mb = a[key]["median"], b[key]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = worse <= m["bound"]
            failures += not ok
            sides = [f"{e['median']:.5g} [{e['q1']:.5g}, {e['q3']:.5g}]"
                     for e in (a[key], b[key])]
            print(f"{w:12s} {m['name']:17s} {sides[0]:>32s} {sides[1]:>32s} "
                  f"{worse:+9.2%} {m['bound']:6.0%} {'ok' if ok else 'WORSE'}")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run one workload (harness form)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 reports the per-layer metrics")
    ap.add_argument("--repeat", type=int, default=1,
                    help="suite rounds, seeds seed..seed+N-1")
    ap.add_argument("--smoke", action="store_true",
                    help="1/20-length suite with every check on")
    ap.add_argument("--out", help="suite results file")
    ap.add_argument("--trace-dir", help="write Chrome traces of traced runs")
    ap.add_argument("--build-dir", help="CMake build directory")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    try:
        spec = load_spec()
        if args.compare:
            return compare(args, spec)
        if args.workload:
            if args.seconds is None:
                args.seconds = spec["run_seconds"]
            return single_run(args, spec)
        return suite(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
