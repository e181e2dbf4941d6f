#!/usr/bin/env python3
"""End-to-end benchmark of the scalability-measurement procedure.

Builds the driver (benchmark/ is a CMake project of its own over ../src)
into build-benchmark/, runs each workload in its own process, checks the
outputs and prints every metric by name with its unit.

  python3 benchmark/run.py                      all workloads, one set
  python3 benchmark/run.py --sets 3 --out DIR   three sets; DIR/results.json
  python3 benchmark/run.py --trace              also the per-layer metrics;
                                                spans in DIR/<w>.trace.json
  python3 benchmark/run.py --workload W --seed N --seconds T --trace 0|1
                                                one run; the last line of
                                                stdout is the result JSON
  python3 benchmark/run.py --bless              rewrite benchmark/expected/
  python3 benchmark/run.py --self-test          tiny sizes, checks the harness

Standard library only.  See benchmark/README.md for the metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-benchmark"
DRIVER = BUILD_DIR / "scal_benchmark"
EXPECTED_DIR = BENCH_DIR / "expected"
DEFAULT_SEED = 42
DRIVER_TIMEOUT_S = 170

# Per-layer metrics whose value is a time, although their unit is a ratio.
TIME_RATIOS = {"exec.busy_ratio", "bench.trace_overhead"}
# Counts that are exact on one lane but depend on thread timing on two:
# which thread's session builds a system, and which router publishes a
# tree first.
VOLATILE = {
    "rms.resets", "rms.rebuilds", "rms.reset_ratio",
    "net.tree_shares", "net.tree_misses", "net.tree_publishes",
    "net.tree_share_ratio",
    "workload.arrival_cache_hits", "workload.arrival_cache_misses",
    "workload.arrival_cache_hit_ratio",
}
# Per-layer values measured once per traced run rather than per round.
PROBES = {"net.topology_ms", "net.route_ns_per_query",
          "workload.gen_ns_per_job", "bench.trace_overhead"}
# The base each ratio or self time is taken against, for the printed table.
BASES = {
    "core.tune_self_s": "part of core.tune_s outside simulation spans",
    "core.cache_hit_ratio": "core.cache_hits / core.evals",
    "rms.reset_ratio": "rms.resets / (rms.resets + rms.rebuilds)",
    "grid.suppression_ratio": "suppressed / (received + suppressed)",
    "sim.ns_per_event": "simulation host time / sim.events",
    "sim.events_per_job": "sim.events / workload.jobs",
    "net.messages_per_job": "net.messages / workload.jobs",
    "net.tree_share_ratio": "tree shares / (shares + misses)",
    "workload.arrival_cache_hit_ratio": "hits / (hits + misses)",
    "ctrl.coalescing_ratio": "ctrl.coalesced / ctrl.updates_in",
    "exec.busy_ratio": "simulation host time / (round wall x exec.lanes)",
    "bench.trace_overhead": "traced / untraced round wall - 1",
}


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def percentile(values, p):
    """Linear interpolation between closest ranks, p in [0, 100] (the
    driver's definition)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = p / 100.0 * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def is_exact(name, unit, lanes):
    """True for a per-layer metric that must repeat exactly for a seed."""
    if unit not in ("count", "ratio") or name in TIME_RATIOS:
        return False
    return lanes == 1 or name not in VOLATILE


# --------------------------------------------------------------- build/run

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(1)


def child_env():
    # No SCAL_* knob (cache budgets, job counts, bench settings) may reach
    # the driver: the workloads are pinned in its source.
    return {k: v for k, v in os.environ.items() if not k.startswith("SCAL_")}


def run_driver(workload, seed, seconds, trace_path=None, size="full"):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--size", size]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: driver timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: driver failed ({proc.returncode}): "
                         + proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ checks

def read_expected(path):
    with open(path) as f:
        return [line.rstrip("\n") for line in f
                if line.strip() and not line.startswith("#")]


def golden_checks(fingerprints, expected):
    """One check per row: the row at each position must match."""
    n = max(len(fingerprints), len(expected))
    failures = []
    for i in range(n):
        got = fingerprints[i] if i < len(fingerprints) else "<missing>"
        want = expected[i] if i < len(expected) else "<missing>"
        if got != want:
            failures.append(f"fingerprint row {i}: got {got!r}, "
                            f"expected {want!r}")
    return n, failures


def pair_count_mismatches(out, spec):
    """Exact counts that differ between the untraced and the traced round
    of a traced run's first pair (they run on the same inputs)."""
    untraced, traced = out["rounds"][0]["layers"], out["rounds"][1]["layers"]
    return [m["name"] for m in spec["per_layer"]
            if m["name"] not in PROBES
            and is_exact(m["name"], m["unit"], out["lanes"])
            and untraced[m["name"]] != traced[m["name"]]]


def all_checks(out, workload, seed, spec):
    """Driver checks (invariants, replay, traced/untraced outcomes), the
    traced/untraced exact counts, and, at the default seed, the committed
    fingerprints."""
    attempted = out["checks"]["attempted"]
    failures = list(out["checks"]["failures"])
    if "probes" in out:
        attempted += 1
        differ = pair_count_mismatches(out, spec)
        if differ:
            failures.append(f"traced round counts differ: {differ}")
    expected = EXPECTED_DIR / f"{workload}.tsv"
    if seed == DEFAULT_SEED and out["size"] == "full" and expected.is_file():
        n, bad = golden_checks(out["fingerprints"], read_expected(expected))
        attempted += n
        failures += bad
    return attempted, failures


# ----------------------------------------------------------------- metrics

def e2e_metrics(out):
    rounds = [r for r in out["rounds"] if not r["traced"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "events_per_s": statistics.median(r["events"] / r["wall_s"]
                                          for r in rounds),
        "jobs_per_s": statistics.median(r["jobs"] / r["wall_s"]
                                        for r in rounds),
        "sim_ms_p50": percentile(out["sim_ms"], 50),
        "sim_ms_p95": percentile(out["sim_ms"], 95),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def exact_counts(out, spec):
    """The exact per-layer counts of the first round (compare.py demands
    they repeat)."""
    first = out["rounds"][0]["layers"]
    return {m["name"]: round(first[m["name"]]) if m["unit"] == "count"
            else first[m["name"]] for m in spec["per_layer"]
            if m["name"] not in PROBES
            and is_exact(m["name"], m["unit"], out["lanes"])}


def layer_metrics(out, spec):
    """Per-layer metrics of a traced run: exact counts from the first
    traced round, times as the median over traced rounds, probes as
    measured after the timed phase."""
    traced = [r for r in out["rounds"] if r["traced"]]
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in PROBES:
            values[name] = out["probes"][name]
        elif is_exact(name, m["unit"], out["lanes"]):
            values[name] = traced[0]["layers"][name]
        else:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        if m["unit"] == "count":
            values[name] = round(values[name])
    return values


def fmt(value):
    if value == 0 or 1e-3 <= abs(value) < 1e7:
        return f"{value:.6g}"
    return f"{value:.4e}"


def print_e2e(workload, out, metrics, spec, attempted, failed):
    rounds = [r for r in out["rounds"] if not r["traced"]]
    timed_s = sum(r["wall_s"] for r in rounds)
    print(f"\n{workload}: seed {out['seed']}, {len(rounds)} rounds, "
          f"{len(out['sim_ms'])} simulations, lanes {out['lanes']}, "
          f"{timed_s:.1f} s timed")
    print(f"  {'metric':<14} {'value':>14}  {'unit':<9} bound")
    for m in spec["end_to_end"]:
        note = ""
        if m["name"].startswith("sim_ms"):
            note = f"  (n={len(out['sim_ms'])})"
        print(f"  {m['name']:<14} {fmt(metrics[m['name']]):>14}  "
              f"{m['unit']:<9} {m['bound']:.0%} {m['better']}{note}")
    frac = failed / attempted if attempted else 0.0
    print(f"  {'failed_frac':<14} {fmt(frac):>14}  {'ratio':<9} "
          f"= {failed} failed / {attempted} checks")


def print_layers(workload, out, values, spec):
    print(f"\n{workload}: per-layer metrics (traced run, lanes "
          f"{out['lanes']})")
    for m in spec["per_layer"]:
        name = m["name"]
        tag = ""
        if is_exact(name, m["unit"], out["lanes"]):
            tag = "exact"
        elif m["unit"] in ("count", "ratio") and name not in TIME_RATIOS:
            tag = "volatile"
        base = f"  ({BASES[name]})" if name in BASES else ""
        print(f"  {name:<36} {fmt(values[name]):>14}  {m['unit']:<6} "
              f"{tag:<8}{base}")


def result_line(attempted, failures, metrics, units):
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


# ------------------------------------------------------------------- modes

def single_run(args, spec):
    """One workload, as the harness calls it; the result is the last line."""
    build()
    traced = args.trace == "1"
    trace_path = None
    if traced:
        args.out.mkdir(parents=True, exist_ok=True)
        trace_path = args.out / f"{args.workload}.trace.json"
    out = run_driver(args.workload, args.seed, args.seconds, trace_path)
    attempted, failures = all_checks(out, args.workload, args.seed, spec)
    for failure in failures[:10]:
        print("check failed: " + failure)
    if traced:
        metrics = layer_metrics(out, spec)
        print_layers(args.workload, out, metrics, spec)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = e2e_metrics(out)
        print_e2e(args.workload, out, metrics, spec, attempted, len(failures))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(result_line(attempted, failures, metrics, units))
    return 0


def suite(args, spec):
    """Every workload, --sets times, each in its own process."""
    build()
    args.out.mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    results = {"seed": args.seed, "seconds": args.seconds, "sets": []}
    attempted = 0
    failures = []
    for _ in range(args.sets):
        one_set = {}
        for w in workloads:
            out = run_driver(w, args.seed, args.seconds)
            n, bad = all_checks(out, w, args.seed, spec)
            attempted += n
            failures += bad
            metrics = e2e_metrics(out)
            print_e2e(w, out, metrics, spec, n, len(bad))
            one_set[w] = {"metrics": metrics,
                          "counts": exact_counts(out, spec),
                          "attempted": n, "failed": len(bad)}
        results["sets"].append(one_set)
    if args.sets > 1:
        # Interquartile range over median of each metric across the sets.
        results["spread"] = {}
        for w in workloads:
            results["spread"][w] = {}
            for m in spec["end_to_end"]:
                values = [s[w]["metrics"][m["name"]] for s in results["sets"]]
                q1, _, q3 = statistics.quantiles(values, n=4,
                                                 method="inclusive")
                results["spread"][w][m["name"]] = \
                    (q3 - q1) / statistics.median(values)
    if args.trace == "1":
        results["layers"] = {}
        for w in workloads:
            out = run_driver(w, args.seed, args.seconds,
                             args.out / f"{w}.trace.json")
            n, bad = all_checks(out, w, args.seed, spec)
            attempted += n
            failures += bad
            values = layer_metrics(out, spec)
            print_layers(w, out, values, spec)
            results["layers"][w] = values
        print(f"\nspans written to {args.out}/<workload>.trace.json")
    for failure in failures[:10]:
        print("check failed: " + failure)
    path = args.out / "results.json"
    with open(path, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    print(f"\nresults written to {path}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures)}))
    return 0 if not failures else 1


def bless(args, spec):
    """Rewrite the expected fingerprints from one round at the default
    seed."""
    build()
    EXPECTED_DIR.mkdir(exist_ok=True)
    for w in spec["workloads"]:
        out = run_driver(w["name"], DEFAULT_SEED, 0)
        if out["checks"]["failures"]:
            print(f"{w['name']}: not blessed, checks failed: "
                  f"{out['checks']['failures'][:3]}", file=sys.stderr)
            return 1
        path = EXPECTED_DIR / f"{w['name']}.tsv"
        with open(path, "w") as f:
            f.write(f"# {w['name']}: outcome fingerprints of the first round "
                    f"at seed {DEFAULT_SEED}\n"
                    "# written by: python3 benchmark/run.py --bless\n")
            for row in out["fingerprints"]:
                f.write(row + "\n")
        print(f"wrote {path} ({len(out['fingerprints'])} rows)")
    return 0


def self_test(args, spec):
    """Every workload at a tiny size, untraced and traced, plus the
    harness's own helpers."""
    build()
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    check(percentile([1, 2, 3, 4], 50) == 2.5, "percentile p50 of 1..4")
    check(percentile([0, 10], 95) == 9.5, "percentile p95 of {0, 10}")
    check(percentile([7], 95) == 7, "percentile of one value")
    check(percentile([3, 1, 2], 0) == 1 and percentile([3, 1, 2], 100) == 3,
          "percentile ends")
    check(percentile([], 50) == 0.0, "percentile of no values")

    scratch = BUILD_DIR / "self-test"
    scratch.mkdir(parents=True, exist_ok=True)
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    started = time.monotonic()
    for w in spec["workloads"]:
        name = w["name"]
        plain = run_driver(name, DEFAULT_SEED, 0, size="tiny")
        traced = run_driver(name, DEFAULT_SEED, 0, size="tiny",
                            trace_path=scratch / f"{name}.trace.json")
        for out in (plain, traced):
            check(not out["checks"]["failures"],
                  f"{name}: driver checks failed: "
                  f"{out['checks']['failures'][:3]}")
        e2e = e2e_metrics(plain)
        check(sorted(e2e) == sorted(e2e_names),
              f"{name}: end-to-end names {sorted(e2e)}")
        check(all(v > 0 and math.isfinite(v) for v in e2e.values()),
              f"{name}: an end-to-end metric is not positive: {e2e}")
        layers = layer_metrics(traced, spec)
        check(sorted(layers) == sorted(layer_names),
              f"{name}: per-layer names differ from BENCHMARK.json")
        check(all(math.isfinite(v) for v in layers.values()),
              f"{name}: a per-layer metric is not finite")
        check(plain["fingerprints"] == traced["fingerprints"],
              f"{name}: fingerprints differ between two processes")
        differ = pair_count_mismatches(traced, spec)
        check(not differ, f"{name}: traced and untraced rounds of one "
                          f"process differ in {differ}")
        check(exact_counts(plain, spec) == exact_counts(traced, spec),
              f"{name}: exact counts differ between two processes")
        with open(scratch / f"{name}.trace.json") as f:
            events = json.load(f)["traceEvents"]
        check(any(e["name"] == "bench.round" for e in events),
              f"{name}: trace has no round spans")
        # A corrupted expected file must be caught.
        corrupt = list(plain["fingerprints"])
        corrupt[-1] = corrupt[-1][:-1] + ("0" if corrupt[-1][-1] != "0"
                                          else "1")
        n, bad = golden_checks(plain["fingerprints"], corrupt)
        check(n > 0 and len(bad) / n > 0,
              f"{name}: a corrupted expected file left failed_frac at 0")
        n, bad = golden_checks(plain["fingerprints"], plain["fingerprints"])
        check(not bad, f"{name}: identical fingerprints reported failed")
    elapsed = time.monotonic() - started
    for failure in failures:
        print("FAIL " + failure)
    print(f"self-test: {len(spec['workloads'])} workloads in {elapsed:.1f} s, "
          f"{len(failures)} failures")
    return 0 if not failures else 1


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget of one run (default %(default)s)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"],
                        help="per-layer metrics from a traced run")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path, default=BUILD_DIR / "out")
    parser.add_argument("--bless", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0 or args.sets < 1:
        parser.error("--seed, --seconds and --sets must be non-negative")
    try:
        if args.self_test:
            return self_test(args, spec)
        if args.bless:
            return bless(args, spec)
        if args.workload and args.sets == 1:
            return single_run(args, spec)
        return suite(args, spec)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
