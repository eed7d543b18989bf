#!/usr/bin/env python3
"""Compares two results files of perf/run.py, metric by metric.

    python3 perf/compare.py BASE.json NEW.json

For every (end-to-end metric, workload) pair present in both files it
prints each side's median and quartiles, the pair win-rate of NEW over
BASE (repeat i of one against repeat i of the other; ties count for
neither), and a verdict by the choosing-metrics rule:

  improved    NEW wins at least 9/10 of the pairs and the medians differ
              by more than BASE's own quartile spread
  regressed   NEW's median is worse than BASE's by more than the metric's
              bound on that workload (perf/baseline/bounds.json, measured
              by run.py --calibrate)
  unresolved  not regressed, but either side's spread is wider than the
              bound (and NEW is not better in every run), or the query
              metrics were invalidated by a late load generator
  unchanged   otherwise

Exits 1 when any pair regressed.
"""

import json
import os
import statistics
import sys

sys.dont_write_bytecode = True  # keep perf/ free of build output
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as M  # noqa: E402


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, bound, base, new, valid=True):
    """Returns (verdict, win_rate) for one metric's per-repeat values."""
    sign = 1.0 if metric.better == "higher" else -1.0

    def better(x, y):  # x better than y
        return sign * (x - y) > 0

    q1a, med_a, q3a = quartiles(base)
    q1b, med_b, q3b = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for a, b in pairs if better(b, a))
    win_rate = wins / len(pairs) if pairs else 0.0
    if med_a != 0:
        worse_by = sign * (med_a - med_b) / abs(med_a)
    else:
        worse_by = 0.0 if med_b == 0 else (
            float("inf") if better(med_a, med_b) else float("-inf"))

    def spread(q1, med, q3):
        return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else 1.0)

    if not valid:
        return "unresolved", win_rate
    if (win_rate >= 0.9 and better(med_b, med_a)
            and abs(med_b - med_a) > q3a - q1a):
        return "improved", win_rate
    if worse_by > bound:
        return "regressed", win_rate
    all_better = all(better(b, a) for a in base for b in new)
    too_wide = max(spread(q1a, med_a, q3a),
                   spread(q1b, med_b, q3b)) > bound
    if too_wide and not all_better:
        return "unresolved", win_rate
    return "unchanged", win_rate


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    print(f"base: {argv[1]} ({base['host'].get('git_sha', '?')[:12]})")
    print(f"new:  {argv[2]} ({new['host'].get('git_sha', '?')[:12]})")
    print(f"{'workload':<17} {'metric':<19} {'unit':<6} {'base median':>12} "
          f"{'[q1, q3]':>23} {'new median':>12} {'[q1, q3]':>23} "
          f"{'wins':>5} {'bound':>6}  verdict")
    bounds = M.load_bounds()
    counts = {}
    for w in M.WORKLOADS:
        if w not in base["workloads"] or w not in new["workloads"]:
            continue
        bm, nm = base["workloads"][w]["metrics"], new["workloads"][w]["metrics"]
        for m in M.E2E:
            if m.name not in bm or m.name not in nm:
                continue
            a, b = bm[m.name], nm[m.name]
            valid = a.get("valid", True) and b.get("valid", True)
            bound = M.bound(m, w, bounds)
            v, win_rate = verdict(m, bound, a["values"], b["values"], valid)
            counts[v] = counts.get(v, 0) + 1
            print(f"{w:<17} {m.name:<19} {m.unit:<6} {a['median']:>12.6g} "
                  f"[{a['q1']:>10.5g}, {a['q3']:>10.5g}] "
                  f"{b['median']:>12.6g} [{b['q1']:>10.5g}, {b['q3']:>10.5g}] "
                  f"{win_rate:>5.2f} {bound:>6.3f}  {v}")
    print(", ".join(f"{n} {k}" for k, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
