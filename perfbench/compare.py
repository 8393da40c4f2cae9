#!/usr/bin/env python3
"""Compares two sets of benchmark runs, base and head, metric by metric.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds the records run.py appends to perfbench/out/results.jsonl
(one per run; traced runs are ignored). Runs are paired in file order,
which should alternate base and head runs on one host. For every
workload and every end-to-end metric of BENCHMARK.json:

  regression   head's median is worse than base's by more than the bound
  unresolved   base's own quartile spread is wider than the bound, and not
               every head run beats every base run
  gain         head wins at least 9 of 10 pairs and the medians differ by
               more than base's quartile spread
  same         otherwise

Exits 1 if any metric regressed.
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
            rec = json.loads(line)
            if rec.get("trace") or "e2e" not in rec:
                continue
            runs.setdefault(rec["workload"], []).append(rec["e2e"])
    return runs


def spread(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)


def verdict(base, head, bound, higher):
    mb, mh = statistics.median(base), statistics.median(head)
    worse = (mb - mh) / mb if higher else (mh - mb) / mb
    better = (lambda h, b: h > b) if higher else (lambda h, b: h < b)
    pairs = list(zip(base, head))
    wins = sum(better(h, b) for b, h in pairs)
    if worse > bound:
        return "regression", worse
    if spread(base) > bound and not all(better(h, b) for h in head for b in base):
        return "unresolved", worse
    if pairs and wins >= 0.9 * len(pairs) and abs(mh - mb) / mb > spread(base):
        return "gain", worse
    return "same", worse


def compare(base_path, head_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, head = load(base_path), load(head_path)
    rows, regressed = [], False
    for w in sorted(set(base) & set(head)):
        for m in metrics:
            name = m["name"]
            b = [r[name]["value"] for r in base[w] if name in r]
            h = [r[name]["value"] for r in head[w] if name in r]
            if not b or not h:
                continue
            v, worse = verdict(b, h, m["bound"], m["better"] == "higher")
            regressed |= v == "regression"
            rows.append((w, name, statistics.median(b), statistics.median(h), worse, spread(b), m["bound"], v))
    return rows, regressed


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    rows, regressed = compare(sys.argv[1], sys.argv[2])
    print(f"{'workload':<18} {'metric':<16} {'base':>12} {'head':>12} {'worse':>8} {'spread':>7} {'bound':>6} verdict")
    for w, n, mb, mh, worse, sp, bound, v in rows:
        print(f"{w:<18} {n:<16} {mb:>12.6g} {mh:>12.6g} {worse:>+8.3f} {sp:>7.3f} {bound:>6.2f} {v}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
