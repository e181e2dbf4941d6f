#!/usr/bin/env python3
"""Compare two benchmark result sets written by run.py --out DIR.

  python3 benchmark/compare.py A/results.json B/results.json
  python3 benchmark/compare.py --self-test

For every workload and end-to-end metric it prints the median and the
quartiles of each side and a verdict for B against A:

  improved    B wins at least 9 of 10 pairs (set i of A against set i of
              B) and the medians differ by more than A's interquartile
              range
  no worse    B's median is worse than A's by no more than the metric's
              bound (BENCHMARK.json; setup_s also allows 5 ms)
  unresolved  A's own spread, interquartile range over median, is wider
              than the bound, and B is not better on every run
  worse       otherwise

The exact counts of the first round (simulations, events, evaluations,
cache hits, ...) must be identical in every set of both sides when the
seeds match.  Exit status 1 when a metric is worse or a count differs.
Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Absolute slack on top of the relative bound: set-up takes about a
# millisecond, where scheduler noise alone exceeds the relative bound.
FLOOR = {"setup_s": 0.005}


def quartiles(values):
    """First quartile, median, third quartile by linear interpolation
    between closest ranks, the definition run.py's percentiles use."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(a, b, bound, better, floor=0.0):
    """Verdict for B's runs against A's runs of one metric."""
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    a_iqr = a_q3 - a_q1
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(b_med - a_med) > a_iqr and sign * (b_med - a_med) < 0):
        return "improved"
    if a_med != 0 and a_iqr / abs(a_med) > bound and not all_better:
        return "unresolved"
    allowed = max(bound * abs(a_med), floor)
    if sign * (b_med - a_med) <= allowed:
        return "no worse"
    return "worse"


def count_mismatches(a_sets, b_sets):
    """Every exact count must agree across all sets of both sides."""
    problems = []
    all_sets = [("A", i, s) for i, s in enumerate(a_sets)] + \
               [("B", i, s) for i, s in enumerate(b_sets)]
    for workload in sorted(a_sets[0]):
        ref = a_sets[0][workload]["counts"]
        for side, i, one_set in all_sets:
            counts = one_set.get(workload, {}).get("counts")
            if counts is None:
                continue
            for name in sorted(set(ref) | set(counts)):
                if ref.get(name) != counts.get(name):
                    problems.append(f"{workload} {name}: A set 0 has "
                                    f"{ref.get(name)}, {side} set {i} has "
                                    f"{counts.get(name)}")
    return problems


def compare(a, b, spec, out=sys.stdout):
    """Print the comparison; return True when nothing is worse and every
    count matches."""
    ok = True
    workloads = [w["name"] for w in spec["workloads"]
                 if all(w["name"] in s for s in a["sets"] + b["sets"])]
    for workload in workloads:
        print(f"\n{workload}", file=out)
        print(f"  {'metric':<14} {'A q1/med/q3':>32} {'B q1/med/q3':>32}  "
              f"{'bound':>6}  verdict", file=out)
        for m in spec["end_to_end"]:
            name = m["name"]
            av = [s[workload]["metrics"][name] for s in a["sets"]]
            bv = [s[workload]["metrics"][name] for s in b["sets"]]
            v = verdict(av, bv, m["bound"], m["better"], FLOOR.get(name, 0.0))
            ok = ok and v != "worse"
            aq = "/".join(f"{x:.4g}" for x in quartiles(av))
            bq = "/".join(f"{x:.4g}" for x in quartiles(bv))
            print(f"  {name:<14} {aq:>32} {bq:>32}  {m['bound']:>6.0%}  {v}",
                  file=out)
    if a.get("seed") == b.get("seed"):
        problems = count_mismatches(a["sets"], b["sets"])
        for p in problems:
            print("count differs: " + p, file=out)
        print(f"\nexact counts: {'identical' if not problems else 'DIFFER'}",
              file=out)
        ok = ok and not problems
    else:
        print("\nexact counts: not compared (different seeds)", file=out)
    return ok


def self_test(spec):
    failures = []

    def expect(got, want, what):
        if got != want:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    base = [1.00, 1.02, 0.98]
    expect(verdict(base, base, 0.10, "lower"), "no worse", "identical")
    expect(verdict(base, [1.05, 1.06, 1.04], 0.10, "lower"), "no worse",
           "within bound")
    expect(verdict(base, [1.50, 1.52, 1.49], 0.10, "lower"), "worse",
           "50% slower")
    expect(verdict(base, [0.50, 0.51, 0.49], 0.10, "lower"), "improved",
           "twice as fast")
    expect(verdict(base, [2.0, 2.1, 1.9], 0.10, "higher"), "improved",
           "twice the throughput")
    expect(verdict(base, [0.5, 0.52, 0.49], 0.10, "higher"), "worse",
           "half the throughput")
    expect(verdict([1.0, 2.0, 3.0, 1.5], [2.5, 1.2, 2.0, 3.1], 0.10, "lower"),
           "unresolved", "noisy parent")
    expect(verdict([0.001, 0.0011, 0.001], [0.004, 0.004, 0.0041], 0.25,
                   "lower", 0.005), "no worse", "set-up within 5 ms")
    expect(verdict([5.0], [5.0], 0.10, "lower"), "no worse", "one set")

    def sets(counts):
        return [{"w": {"counts": dict(counts), "metrics": {}}}]
    expect(count_mismatches(sets({"sim.events": 10}), sets({"sim.events": 10})),
           [], "equal counts")
    expect(len(count_mismatches(sets({"sim.events": 10}),
                                sets({"sim.events": 11}))), 1,
           "one count differs")

    names = [m["name"] for m in spec["end_to_end"]]
    fixture = {"seed": 42, "sets": [
        {"w1": {"metrics": {n: 1.0 + 0.01 * i for n in names},
                "counts": {"sim.events": 5}}} for i in range(3)]}
    fake_spec = dict(spec, workloads=[{"name": "w1"}])
    sink = open("/dev/null", "w")
    expect(compare(fixture, fixture, fake_spec, sink), True,
           "a result set against itself")
    slower = json.loads(json.dumps(fixture))
    for s in slower["sets"]:
        s["w1"]["metrics"]["wall_s"] *= 2
    expect(compare(fixture, slower, fake_spec, sink), False,
           "twice the wall time")
    sink.close()

    for f in failures:
        print("FAIL " + f)
    print(f"compare self-test: {len(failures)} failures")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", nargs="?", type=Path, help="results.json of A")
    parser.add_argument("b", nargs="?", type=Path, help="results.json of B")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    if args.self_test:
        return self_test(spec)
    if args.a is None or args.b is None:
        parser.error("give two results.json files, or --self-test")
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    return 0 if compare(a, b, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
