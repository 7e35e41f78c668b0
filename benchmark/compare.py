#!/usr/bin/env python3
"""Compares two sets of benchmark results (standard library only).

    python3 benchmark/compare.py A B [--benchmark BENCHMARK.json]
    python3 benchmark/compare.py --bundle DIR > set.json

A and B are each a directory of result files written by run.sh
(<workload>-seed<N>[-smoke][-trace].json) or a bundle: one JSON array of such
results, as --bundle writes and benchmark/baselines/ holds. Read A as the
parent and B as the change.

One row per workload x metric: each side's median and quartiles, and how
many seed-paired runs B won. Verdicts:
  exact       sim-time metric or failed_ops_frac, equal on every common seed
  MISMATCH    such a metric differs on some common seed
  ok          host-time metric whose B median is not worse than A's by more
              than its BENCHMARK.json bound
  REGRESSION  it is worse by more than the bound
  unresolved  the spread (IQR / median) of either side exceeds the bound,
              and B does not beat A on every run
  better      spread above the bound, but every B run beats every A run
  info        printed only (no bound)
Exits 1 on any REGRESSION, MISMATCH or run that failed its own checks.
"""

import argparse
import json
import os
import statistics
import sys


def load_set(path):
    if os.path.isdir(path):
        runs = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".json") and not name.startswith("TRACE_"):
                with open(os.path.join(path, name)) as f:
                    runs.append(json.load(f))
        return runs
    with open(path) as f:
        data = json.load(f)
    return data if isinstance(data, list) else [data]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def group(runs):
    """{(workload, smoke, traced): {metric: {"kind", "unit", "by_seed": {seed: value}}}}."""
    groups = {}
    for run in runs:
        key = (run["workload"], run["smoke"], run["trace"])
        metrics = groups.setdefault(key, {})
        for name, m in run["metrics"].items():
            entry = metrics.setdefault(name, {"kind": m["kind"], "unit": m["unit"], "by_seed": {}})
            entry["by_seed"][run["seed"]] = m["value"]
    return groups


def verdict(kind, spec, a, b):
    """Returns (verdict, "B wins/seed pairs" or "-")."""
    common = sorted(set(a) & set(b))
    if kind == "exact":
        if not common:
            return "no common seed", "-"
        same = all(a[s] == b[s] for s in common)
        return ("exact" if same else "MISMATCH"), "-"
    if spec is None:
        return "info", "-"
    lower = spec["better"] == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    wins = "%d/%d" % (sum(1 for s in common if better(b[s], a[s])), len(common))
    av, bv = list(a.values()), list(b.values())
    a_q1, a_med, a_q3 = quartiles(av)
    b_q1, b_med, b_q3 = quartiles(bv)
    bound = spec["bound"]
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > bound:
        all_better = all(better(x, y) for x in bv for y in av)
        return ("better" if all_better else "unresolved"), wins
    worse = (b_med - a_med) / a_med if lower else (a_med - b_med) / a_med
    return ("REGRESSION" if worse > bound else "ok"), wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="*", help="A (parent) and B (change)")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--bundle", metavar="DIR", help="print DIR's results as one JSON array")
    args = parser.parse_args()

    if args.bundle:
        json.dump(load_set(args.bundle), sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    if len(args.sets) != 2:
        parser.error("need exactly two result sets")
    with open(args.benchmark) as f:
        specs = {m["name"]: m for m in json.load(f)["end_to_end"]}

    runs_a, runs_b = load_set(args.sets[0]), load_set(args.sets[1])
    failed = [r for r in runs_a + runs_b if not r["correct"]]
    groups_a, groups_b = group(runs_a), group(runs_b)

    header = "%-26s %-28s %12s %25s %12s %25s %7s  %s" % (
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B wins",
        "verdict")
    print(header)
    print("-" * len(header))
    bad = 0
    for key in sorted(set(groups_a) & set(groups_b)):
        workload = key[0] + (" (smoke)" if key[1] else "") + (" (trace)" if key[2] else "")
        metrics_a, metrics_b = groups_a[key], groups_b[key]
        for name in [n for n in metrics_a if n in metrics_b]:
            ma, mb = metrics_a[name], metrics_b[name]
            a, b = ma["by_seed"], mb["by_seed"]
            spec = specs.get(name) if ma["kind"] == "gated" else None
            result, wins = verdict(ma["kind"], spec, a, b)
            bad += result in ("REGRESSION", "MISMATCH")
            a_q1, a_med, a_q3 = quartiles(list(a.values()))
            b_q1, b_med, b_q3 = quartiles(list(b.values()))
            print("%-26s %-28s %12.6g %25s %12.6g %25s %7s  %s" % (
                workload, name + " (" + ma["unit"] + ")", a_med,
                "[%.6g, %.6g]" % (a_q1, a_q3), b_med, "[%.6g, %.6g]" % (b_q1, b_q3), wins,
                result))
    for run in failed:
        print("FAILED RUN: %s seed %s" % (run["workload"], run["seed"]))
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main())
