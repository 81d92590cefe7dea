#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, judged by the benchmark rule.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W
        [--pairs N] [--seed K] [--seconds S] [--claim METRIC]

--parent and --change are two checkouts of the repository (a clone or a
worktree of the parent commit, and of the change). Pair i runs

    python3 perfbench/run.py --workload W --seed K --seconds S --trace 0

once in each checkout, for W one of the workloads BENCHMARK.json names; the
parent runs first on odd-numbered pairs and the change first on even-numbered
ones. For every end-to-end metric of BENCHMARK.json the script prints both
sides' median and quartiles, the pairs the change won (ties count for neither
side) and a verdict:

  claimed metric (--claim)  "gain" when the change wins at least nine tenths
                            of the pairs, the medians differ, in the change's
                            favour, by more than the parent's interquartile
                            range, and the change's runs failed no larger
                            share of their checks than the parent's; else
                            "no gain".
  every other metric        "holds" when the change's median is worse than
                            the parent's by no more than the metric's bound
                            (a fraction of the parent's median); "unresolved"
                            when it holds but the parent's own interquartile
                            range is wider than the bound, unless every run
                            of the change beats every run of the parent;
                            else "worse".

It reads nothing but the last line perfbench prints and BENCHMARK.json. The
first run in each checkout also builds perfbench there (outside the timed
part of the run). Unit tests: python3 -m unittest discover -s scripts -p
'test_*.py'.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_end_to_end(path):
    """The end-to-end metric specs of BENCHMARK.json, in file order."""
    with open(path) as f:
        return json.load(f)["end_to_end"]


def load_workloads(path):
    """The workload names of BENCHMARK.json, in file order."""
    with open(path) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def parse_result(stdout):
    """perfbench's result line (the last line of its standard output)."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def parent_first(pair):
    """True when pair `pair` (numbered from 1) runs the parent first."""
    return pair % 2 == 1


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty sample."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    """True when value a beats value b for a metric whose better side is
    `direction` ("lower" or "higher")."""
    return a < b if direction == "lower" else a > b


def wins(parent, change, direction):
    """Pairs the change won: (parent[i], change[i]) with the change strictly
    better."""
    return sum(1 for p, c in zip(parent, change) if better(c, p, direction))


def fails_more(parent, change):
    """True when the change's runs failed a larger share of their checks than
    the parent's; each side is a (failed, attempted) total."""
    def share(failed, attempted):
        return failed / attempted if attempted else 0.0
    return share(*change) > share(*parent)


def verdict(spec, parent, change, claimed, more_failures=False):
    """Judge one metric over paired runs; returns a row for the report.
    `more_failures` says the change failed a larger share of its checks,
    which denies a claimed gain."""
    direction = spec["better"]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    n = len(parent)
    won = wins(parent, change, direction)
    iqr = pq3 - pq1
    row = {"name": spec["name"], "unit": spec["unit"], "pairs": n, "won": won,
           "parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3)}
    if claimed:
        gap = pmed - cmed if direction == "lower" else cmed - pmed
        gain = 10 * won >= 9 * n and gap > iqr and not more_failures
        row["verdict"] = "gain" if gain else "no gain"
        return row
    bound = spec["bound"] * abs(pmed)
    worse_by = cmed - pmed if direction == "lower" else pmed - cmed
    if worse_by > bound:
        row["verdict"] = "worse"
    elif iqr > bound and not all(better(c, p, direction) for c in change for p in parent):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "holds"
    return row


def format_row(row):
    p, c = row["parent"], row["change"]
    return "  %-12s %-4s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  won %d/%d  %s" % (
        row["name"], row["unit"], p[1], p[0], p[2], c[1], c[0], c[2], row["won"], row["pairs"],
        row["verdict"])


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, check=False)
    result = parse_result(proc.stdout.decode())
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write("%s: %d of %d checks failed\n" % (checkout, result["failed"],
                                                          result["attempted"]))
    return result


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    ap.add_argument("--workload", required=True, choices=load_workloads(bench_json))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--claim", default=None, help="the end-to-end metric the change claims")
    args = ap.parse_args(argv)
    specs = load_end_to_end(bench_json)
    if args.claim is not None and args.claim not in [s["name"] for s in specs]:
        ap.error("--claim must name an end-to-end metric of BENCHMARK.json")
    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if parent_first(pair) else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.workload, args.seed, args.seconds))
        sys.stderr.write("pair %d/%d done\n" % (pair, args.pairs))
    print("%s seed=%d, %d pairs of %g-s runs (parent first on odd pairs)" % (
        args.workload, args.seed, args.pairs, args.seconds))
    totals = {}
    for side in ("parent", "change"):
        totals[side] = (sum(r["failed"] for r in runs[side]),
                        sum(r["attempted"] for r in runs[side]))
        print("  %s: %d of %d checks failed" % ((side,) + totals[side]))
    more_failures = fails_more(totals["parent"], totals["change"])
    for spec in specs:
        values = {side: [r["metrics"][spec["name"]]["value"] for r in runs[side]]
                  for side in runs}
        print(format_row(verdict(spec, values["parent"], values["change"],
                                 spec["name"] == args.claim, more_failures)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
