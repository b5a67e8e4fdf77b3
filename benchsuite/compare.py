#!/usr/bin/env python3
"""Per-layer delta report between two result sets.

    python3 benchsuite/compare.py OLD.jsonl NEW.jsonl

Each file holds run records appended by `run.py --out`, for example ten
runs per workload of the parent commit (OLD) and of a change (NEW).  For
every workload and metric it prints both sides' median and quartiles and
the change of the median.  End-to-end metrics take their direction and
bound from BENCHMARK.json:

  unresolved  either side's spread (quartile distance over median) exceeds
              the bound, unless every NEW run beats every OLD run
  worse       the median moved the wrong way by more than the bound
  better      the median moved the right way by more than OLD's spread
  same        otherwise

Per-layer metrics have no bound; they are marked `moved` when the medians
differ by more than both sides' spreads.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                for name, m in r["metrics"].items():
                    runs.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(old, new, better, bound):
    _, mo, _ = quartiles(old)
    _, mn, _ = quartiles(new)
    delta = (mn - mo) / abs(mo) if mo else 0.0
    gain = delta if better == "higher" else -delta
    if bound is None:
        return "moved" if abs(delta) > max(spread(old), spread(new)) else "same"
    beats = (min(new) > max(old)) if better == "higher" else (max(new) < min(old))
    if max(spread(old), spread(new)) > bound and not beats:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread(old):
        return "better"
    return "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    old, new = load(sys.argv[1]), load(sys.argv[2])
    print("%-15s %-30s %5s %34s %34s %8s  %s" % ("workload", "metric", "runs", "old q1/median/q3",
                                                "new q1/median/q3", "delta", "verdict"))
    for key in sorted(set(old) & set(new)):
        workload, trace, name = key
        m = e2e.get(name)
        better = m["better"] if m else "lower"
        bound = m["bound"] if m and not trace else None
        qo, qn = quartiles(old[key]), quartiles(new[key])
        delta = (qn[1] - qo[1]) / abs(qo[1]) if qo[1] else 0.0
        print("%-15s %-30s %2d/%-2d %34s %34s %+7.1f%%  %s" % (
            workload, name, len(old[key]), len(new[key]),
            "%.4g/%.4g/%.4g" % qo, "%.4g/%.4g/%.4g" % qn, 100 * delta,
            verdict(old[key], new[key], better, bound)))


if __name__ == "__main__":
    main()
