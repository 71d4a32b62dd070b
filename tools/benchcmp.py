#!/usr/bin/env python3
"""Tabulate a benchmark ledger: parent against change, per workload.

    python3 tools/benchcmp.py BENCH_<n>.json

A ledger holds the raw result lines of alternating parent/change runs of
`perfbench/run.py`, one object per run:

    {"host": "<fingerprint>",
     "runs": [{"workload": "suite", "pair": 0, "side": "parent",
               "seed": 1901, "line": "<the run's last stdout line>"}, ...]}

For every workload and every metric the runs report, the script prints
the median and quartiles of each side, the change's median against the
parent's in percent, and in how many pairs the change read lower. A
final line per workload gives the runs, the incorrect runs and the
share of failed operations of each side. Standard library only.
"""

import json
import statistics
import sys
from collections import defaultdict

SIDES = ("parent", "change")


def fmt(x):
    return f"{x:.4g}"


def spread(xs):
    """Median and quartiles, as `median (q1–q3)`."""
    if len(xs) < 2:
        return fmt(xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{fmt(q2)} ({fmt(q1)}–{fmt(q3)})"


def main(path):
    with open(path) as f:
        ledger = json.load(f)
    print(f"host: {ledger['host']}\n")
    # workload -> pair -> side -> result
    pairs = defaultdict(lambda: defaultdict(dict))
    for run in ledger["runs"]:
        pairs[run["workload"]][run["pair"]][run["side"]] = json.loads(run["line"])
    for workload, by_pair in pairs.items():
        complete = [p for p in by_pair.values() if all(s in p for s in SIDES)]
        print(f"**`{workload}`** ({len(complete)} pairs)\n")
        print("| metric | parent | change | Δ | lower |")
        print("|---|---|---|---|---|")
        names = sorted({m for p in complete for s in SIDES for m in p[s]["metrics"]})
        for name in names:
            rows = [p for p in complete if all(name in p[s]["metrics"] for s in SIDES)]
            side = {s: [p[s]["metrics"][name]["value"] for p in rows] for s in SIDES}
            base = statistics.median(side["parent"])
            delta = statistics.median(side["change"]) / base - 1 if base else 0.0
            lower = sum(c < b for b, c in zip(side["parent"], side["change"]))
            print(
                f"| `{name}` | {spread(side['parent'])} | {spread(side['change'])} "
                f"| {delta:+.1%} | {lower}/{len(rows)} |"
            )
        counts = []
        for s in SIDES:
            results = [p[s] for p in complete]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            wrong = sum(not r["correct"] for r in results)
            share = failed / attempted if attempted else 0.0
            counts.append(f"{s}: {len(results)} runs, {wrong} incorrect, {failed}/{attempted} failed ({share:.2%})")
        print("\n" + "; ".join(counts) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: benchcmp.py <ledger.json>")
    main(sys.argv[1])
