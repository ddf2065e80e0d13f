#!/usr/bin/env python3
"""Compare two sets of lsqbench runs against the bounds in BENCHMARK.json.

    python3 lsqbench/compare.py A_DIR B_DIR

A_DIR is the parent (baseline), B_DIR the change. Each holds the
runs.jsonl that `run.py --repeat R --out DIR` writes. One row per
(workload, end-to-end metric): each side's median and quartiles, and a
verdict:

  regression  B's median is worse than A's by more than the bound
  unresolved  either side's quartile spread, as a share of its median,
              exceeds the bound, and the runs do not separate cleanly
              (every B run better than every A run)
  ok          neither

A workload whose share of failed cells grew is a regression too. Exits
1 when any row is a regression, else 0. Standard library only.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = {}
    with open(Path(directory) / "runs.jsonl") as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, lower_is_better):
    qa, qb = quartiles(a), quartiles(b)
    worse = (qb[1] - qa[1]) / qa[1]
    if not lower_is_better:
        worse = -worse
    if worse > bound:
        return "regression"
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    separated = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
    if spread > bound and not separated:
        return "unresolved"
    return "ok"


def span(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def row(workload, metric, a, b, bound, verdict_):
    return (f"{workload:<12} {metric:<12} {a:>34} {b:>34}  {bound:>5.2f}"
            f"  {verdict_}")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    a_runs, b_runs = load(argv[1]), load(argv[2])

    regressions = 0
    print(f"{'workload':<12} {'metric':<12} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  {'bound':>5}  verdict")
    for w in sorted(set(a_runs) | set(b_runs)):
        a, b = a_runs.get(w, []), b_runs.get(w, [])
        if not a or not b:
            print(f"{w:<12} missing on {'A' if not a else 'B'}")
            regressions += 1
            continue
        for m in metrics:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            v = verdict(va, vb, m["bound"], m["better"] == "lower")
            regressions += v == "regression"
            print(row(w, m["name"], span(quartiles(va)),
                      span(quartiles(vb)), m["bound"], v))
        fail_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fail_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        v = "regression" if fail_b > fail_a else "ok"
        regressions += v == "regression"
        print(row(w, "failed_frac", f"{fail_a:.6g}", f"{fail_b:.6g}", 0, v))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
