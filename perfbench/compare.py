#!/usr/bin/env python3
"""Records result sets and compares two of them (see perfbench/README.md).

Record one commit's result set (one full result JSON per run):

    python3 perfbench/compare.py record DIR [--seeds 1-10]
        [--workloads isort_serial,corpus_parallel,daemon_closed]

Each seed runs every workload once, untraced, for BENCHMARK.json's
run_seconds, workloads interleaved, and the command ends with each
end-to-end metric's median, quartiles and spread (quartile distance /
median) against its bound.

Compare two result sets, e.g. parent and change:

    python3 perfbench/compare.py diff BASE_DIR CHANGE_DIR

One row per workload x end-to-end metric: both sides' medians and
quartiles, the pair win ratio (pairs share a seed; ties count for
neither side) and a verdict:
  improved      the change wins at least 9/10 of the pairs and the
                medians differ by more than the base's quartile distance;
  unresolved    the base's own spread is wider than the bound and not
                every change run beats every base run;
  regressed     the change's median is worse than the base's by more
                than the bound;
  within bound  otherwise.
These are the rules of a gain claim and a no-regression claim: at
least ten pairs, run length fixed by the benchmark (diff refuses two
sets recorded at different run lengths), every workload in its own row.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Metrics printed and saved but not in BENCHMARK.json get this bound,
# and count as better when lower unless listed here.
DEFAULT_BOUND = 0.1
HIGHER_IS_BETTER = {"sessions_per_s"}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec


def load(dirname):
    """{workload: {seed: result}} of the untraced results in DIRNAME."""
    sets = {}
    for path in sorted(glob.glob(os.path.join(dirname, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if r.get("trace"):
            continue
        sets.setdefault(r["workload"], {})[r["seed"]] = r
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"] and r["metrics"][name]["value"] is not None]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def record(args):
    spec, full = benchmark_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in full["workloads"]])
    seconds = full["run_seconds"]
    failed = False
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0",
                   "--save", args.dir]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print("seed %d %-16s rc=%d %s" % (seed, w, p.returncode, last[0]))
            failed |= p.returncode != 0
    spread(args.dir, spec)
    return 1 if failed else 0


def spread(dirname, spec):
    sets = load(dirname)
    print("\n%-16s %-18s %5s %14s %14s %14s %8s %6s" %
          ("workload", "metric", "runs", "q1", "median", "q3", "spread",
           "bound"))
    for w, by_seed in sorted(sets.items()):
        runs = list(by_seed.values())
        for name, m in spec.items():
            vals = metric_values(runs, name)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = (q3 - q1) / med if med else float("inf")
            print("%-16s %-18s %5d %14.6g %14.6g %14.6g %8.4f %6.2f%s" %
                  (w, name, len(vals), q1, med, q3, s, m["bound"],
                   "" if s <= m["bound"] / 3 else "  (above bound/3)"))


def verdict(base, change, lower_better, bound):
    """Verdict for one metric from paired (base, change) values."""
    pairs = list(zip(base, change))
    better = (lambda c, b: c < b) if lower_better else (lambda c, b: c > b)
    wins = sum(1 for b, c in pairs if better(c, b))
    ratio = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    iqr = bq3 - bq1
    worse_by = (cmed - bmed) if lower_better else (bmed - cmed)
    base_spread = iqr / abs(bmed) if bmed else (0.0 if iqr == 0 else
                                                float("inf"))
    all_better = all(better(c, b) for c in change for b in base)
    if len(pairs) >= 10 and ratio >= 0.9 and -worse_by > iqr:
        return ratio, "improved"
    if base_spread > bound and not all_better:
        return ratio, "unresolved"
    if worse_by > bound * abs(bmed):
        return ratio, "regressed"
    return ratio, "within bound"


def run_seconds(sets):
    return {r["seconds"] for by_seed in sets.values() for r in by_seed.values()}


def diff(args):
    spec, _ = benchmark_spec()
    base, change = load(args.base), load(args.change)
    lengths = run_seconds(base) | run_seconds(change)
    if len(lengths) > 1:
        print("compare: error: the result sets were recorded at different "
              "run lengths (%s s); record both with compare.py record" %
              ", ".join("%g" % x for x in sorted(lengths)), file=sys.stderr)
        return 2
    print("%-16s %-18s %28s %28s %6s %6s  %s" %
          ("workload", "metric", "base median [q1, q3]",
           "change median [q1, q3]", "pairs", "wins", "verdict"))
    for w in sorted(set(base) & set(change)):
        seeds = sorted(set(base[w]) & set(change[w]))
        names = list(spec)
        extra = sorted({n for r in base[w].values() for n, m in
                        r["metrics"].items() if m["kind"] == "end_to_end"}
                       - set(names))
        for name in names + extra:
            b = [base[w][s]["metrics"].get(name, {}).get("value") for s in seeds]
            c = [change[w][s]["metrics"].get(name, {}).get("value") for s in seeds]
            pairs = [(x, y) for x, y in zip(b, c)
                     if x is not None and y is not None]
            if not pairs:
                continue
            b, c = [p[0] for p in pairs], [p[1] for p in pairs]
            m = spec.get(name, {
                "better": "higher" if name in HIGHER_IS_BETTER else "lower",
                "bound": DEFAULT_BOUND})
            ratio, v = verdict(b, c, m["better"] == "lower", m["bound"])
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            print("%-16s %-18s %28s %28s %6d %6.2f  %s%s" %
                  (w, name, "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3),
                   "%.4g [%.4g, %.4g]" % (cmed, cq1, cq3), len(pairs), ratio,
                   v, "" if name in spec else " (default bound)"))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run seeds x workloads into DIR")
    rec.add_argument("dir")
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("--workloads")
    d = sub.add_parser("diff", help="compare BASE and CHANGE result sets")
    d.add_argument("base")
    d.add_argument("change")
    args = ap.parse_args()
    sys.exit(record(args) if args.cmd == "record" else diff(args))


if __name__ == "__main__":
    main()
