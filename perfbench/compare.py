#!/usr/bin/env python3
"""Compares two benchmark result sets, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

A result set is the directory run.py writes with --results: one
WORKLOAD/seed<N>-trace<T>.json file per run. For every workload the tool
prints each end-to-end metric with median and quartiles on both sides and a
verdict under the bounds of BENCHMARK.json, then the per-layer and workload
metrics' medians and deltas, the failed-operation counts, and the number of
distinct final policies the adaptive loop reached.

Verdicts, for a metric whose bound is b:
  unresolved  either side's quartile spread exceeds b, and the runs of the
              two sides overlap;
  worse       the new median is worse than the base median by more than b;
  better      the new median is better by more than the base side's
              quartile spread, and the new side wins at least nine tenths of
              the runs paired by seed (or by rank when seeds differ);
  same        none of the above.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_set(directory):
    """{workload: {"untraced": {seed: result}, "traced": {seed: result}}}."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*", "seed*-trace*.json"))):
        with open(path) as f:
            result = json.load(f)
        kind = "traced" if result["trace"] else "untraced"
        runs.setdefault(result["workload"], {"untraced": {}, "traced": {}})[kind][result["seed"]] = result
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def pairs(base, new):
    """Pairs of values, by seed where both sides ran it, else by rank."""
    common = sorted(set(base) & set(new))
    if common:
        return [(base[s], new[s]) for s in common]
    return list(zip(sorted(base.values()), sorted(new.values())))


def verdict(base, new, bound, better):
    """base, new: {seed: value}. better: "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    _, nmed, _ = quartiles(n)
    improved = lambda old, cur: sign * (old - cur) > 0
    if spread(b) > bound or spread(n) > bound:
        if all(improved(x, y) for x in b for y in n):
            return "better"
        if all(improved(y, x) for x in b for y in n):
            return "worse"
        return "unresolved"
    if sign * (nmed - bmed) > bound * bmed:
        return "worse"
    paired = pairs(base, new)
    wins = sum(1 for x, y in paired if improved(x, y))
    if sign * (bmed - nmed) > (bq3 - bq1) and wins >= 0.9 * len(paired):
        return "better"
    return "same"


def metric_values(results, group, name):
    return {seed: r[group][name]["value"] for seed, r in results.items() if name in r[group]}


def fmt(v):
    return "%.6g" % v


def compare(base_dir, new_dir, out=sys.stdout):
    with open(BENCHMARK) as f:
        bench = json.load(f)
    base, new = load_set(base_dir), load_set(new_dir)
    for label, runs in (("base", base), ("new", new)):
        machines = {json.dumps(r["machine"], sort_keys=True)
                    for w in runs.values() for kind in w.values() for r in kind.values()}
        for machine in sorted(machines):
            out.write("%s machine: %s\n" % (label, machine))
    for w in bench["workloads"]:
        name = w["name"]
        b = base.get(name, {"untraced": {}, "traced": {}})
        n = new.get(name, {"untraced": {}, "traced": {}})
        out.write("\n== %s (%d vs %d runs, %d vs %d traced)\n" % (
            name, len(b["untraced"]), len(n["untraced"]), len(b["traced"]), len(n["traced"])))
        if not b["untraced"] or not n["untraced"]:
            out.write("  missing runs on one side\n")
            continue
        out.write("  %-16s %-5s %31s   %31s   %s\n" % (
            "end-to-end", "unit", "base q1 / median / q3", "new q1 / median / q3", "verdict"))
        for m in bench["end_to_end"]:
            bv = metric_values(b["untraced"], "metrics", m["name"])
            nv = metric_values(n["untraced"], "metrics", m["name"])
            if not bv or not nv:
                out.write("  %-16s missing\n" % m["name"])
                continue
            bq, nq = quartiles(list(bv.values())), quartiles(list(nv.values()))
            out.write("  %-16s %-5s %31s   %31s   %s (bound %g)\n" % (
                m["name"], m["unit"], " / ".join(fmt(x) for x in bq),
                " / ".join(fmt(x) for x in nq), verdict(bv, nv, m["bound"], m["better"]),
                m["bound"]))
        for group, kind, title in (("metrics", "traced", "per-layer"),
                                   ("detail", "untraced", "workload"),
                                   ("detail", "traced", "traced workload")):
            names = []
            for r in list(b[kind].values()) + list(n[kind].values()):
                names += [k for k in r[group] if k not in names]
            if not names:
                continue
            out.write("  %s medians (base -> new, delta)\n" % title)
            for metric in names:
                bv = list(metric_values(b[kind], group, metric).values())
                nv = list(metric_values(n[kind], group, metric).values())
                if not bv or not nv:
                    continue
                bm, nm = statistics.median(bv), statistics.median(nv)
                delta = "%+.1f%%" % (100.0 * (nm - bm) / bm) if bm else "n/a"
                out.write("    %-34s %12s -> %-12s %s\n" % (metric, fmt(bm), fmt(nm), delta))
        for label, side in (("base", b), ("new", n)):
            runs = list(side["untraced"].values()) + list(side["traced"].values())
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            policies = {r["facts"]["adapt.final_policy"] for r in runs
                        if "adapt.final_policy" in r["facts"]}
            line = "  %s: %d operations, %d failed" % (label, attempted, failed)
            if policies:
                line += ", %d distinct final policies in %d runs" % (len(policies), len(runs))
            out.write(line + "\n")


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    compare(argv[0], argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
