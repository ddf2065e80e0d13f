#!/usr/bin/env python3
"""lsqbench: build the benchmark, run its workloads, check their outputs.

Run from the root of a checkout. The first call builds the simulator
and the lsqbench program from source into .bench_build/.

One workload, one JSON result line (the benchmark's contract):
    python3 lsqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, --repeat times, with a table of each end-to-end metric
(--trace 1: per-layer metrics instead, spans written under --out):
    python3 lsqbench/run.py [--repeat R] [--seed N] [--out DIR]

Smoke check of every workload at a tiny size:
    python3 lsqbench/run.py --smoke

Rewrite every file in lsqbench/expected/ from fresh runs (after a change
that is meant to alter simulated results):
    python3 lsqbench/run.py --record-expected

Uses only the Python standard library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXPECTED = HERE / "expected"
# A run measures for --seconds plus set-up; this bounds a stuck one.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then (re)build lsqbench; returns its path."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (BUILD / "CMakeCache.txt").exists():
        if subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                          **quiet).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "--target",
                       "lsqbench", "-j", jobs], **quiet).returncode != 0:
        raise BenchError("build failed")
    return BUILD / "lsqbench"


def run_lsqbench(exe, workload, seed, seconds, trace, smoke=False,
                 spans_dir=None):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(BUILD / "work")]
    if spans_dir:
        cmd += ["--spans-dir", str(spans_dir)]
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{workload}: lsqbench exited {p.returncode}")
    return json.loads(lines[-1])


def expected_path(seed, smoke):
    return EXPECTED / ("smoke.json" if smoke else f"seed{seed}.json")


def cell_digest(cell):
    return [cell["cycles"], cell["committed"], cell["sq_searches"],
            cell["lq_searches"], cell["stats_fnv"]]


def check(result, smoke=False):
    """Compare a result's cells with the recorded outputs for its seed.

    lsqbench itself checks that every cell is healthy and that every
    pass reproduces the first; this adds the comparison with the
    committed digests. Returns the result in the contract's shape.
    """
    failed = result["failed"]
    path = expected_path(result["seed"], smoke)
    name = result["workload"]
    if path.exists():
        with open(path) as f:
            want = json.load(f)["workloads"].get(name)
        got = {c["cell"]: cell_digest(c) for c in result["cells"]}
        if want is None:
            log(f"{name}: {path.name} has no record of this workload")
            failed += result["attempted"]
        else:
            bad = sorted(k for k in set(want) | set(got)
                         if want.get(k) != got.get(k))
            for k in bad:
                log(f"{name}: cell {k} expected {want.get(k)}, "
                    f"got {got.get(k)}")
            failed += result["passes"] * len(bad)
    else:
        log(f"{name}: seed {result['seed']} has no recorded outputs; "
            "checked only for health and pass-to-pass identity")
    failed = min(failed, result["attempted"])
    return {"correct": failed == 0, "attempted": result["attempted"],
            "failed": failed, "metrics": result["metrics"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_table(runs, names):
    """Median and quartiles of each metric, per workload."""
    print(f"{'workload':<12} {'metric':<30} {'median':>12} {'q1':>12} "
          f"{'q3':>12}  unit   (runs)")
    for w in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == w]
        for m in names:
            vals = [r["metrics"][m]["value"] for r in mine]
            q1, q2, q3 = quartiles(vals)
            unit = mine[0]["metrics"][m]["unit"]
            print(f"{w:<12} {m:<30} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                  f"  {unit:<6} ({len(vals)})")
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        print(f"{w:<12} {'failed_frac':<30} {failed / attempted:>12.6g}"
              f" {'':>12} {'':>12}  ratio  ({failed}/{attempted} cells)")


def record(exe, workloads):
    """Rewrite expected/smoke.json and every expected/seed<N>.json there
    is: one line per cell, [cycles, committed, sq_searches, lq_searches,
    stats_fnv]."""
    seeds = sorted(int(p.stem[len("seed"):])
                   for p in EXPECTED.glob("seed*.json"))
    for seed, smoke in [(1, True)] + [(s, False) for s in seeds]:
        blocks = []
        for w in workloads:
            r = run_lsqbench(exe, w, seed, 0.01, False, smoke)
            if r["failed"]:
                raise BenchError(f"{w} seed {seed}: {r['failed']} cells "
                                 "failed; not recording")
            cells = ",\n".join(f'  "{c["cell"]}": '
                               f'{json.dumps(cell_digest(c))}'
                               for c in r["cells"])
            blocks.append(f' "{w}": {{\n{cells}\n }}')
        text = (f'{{"schema": "lsqbench-expected-v1", "seed": {seed}, '
                f'"smoke": {json.dumps(smoke)}, "workloads": {{\n'
                + ",\n".join(blocks) + "\n}}\n")
        json.loads(text)
        path = expected_path(seed, smoke)
        path.write_text(text)
        log(f"wrote {path.relative_to(ROOT)}")


def smoke(exe, bench):
    """Every workload at smoke size, untraced and traced: the result
    parses, carries every metric BENCHMARK.json names, and matches the
    committed smoke digests."""
    if not expected_path(1, True).exists():
        raise BenchError(f"{expected_path(1, True)} is missing")
    ok = True
    for w in [x["name"] for x in bench["workloads"]]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = check(run_lsqbench(exe, w, 1, 0.01, trace, smoke=True),
                        smoke=True)
            missing = [m["name"] for m in bench[key]
                       if m["name"] not in res["metrics"]]
            if missing or not res["correct"]:
                log(f"smoke {w} trace={int(trace)}: missing {missing}, "
                    f"failed {res['failed']}/{res['attempted']}")
                ok = False
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run one workload and print its "
                    "result as one JSON line")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1; 2 is held out)")
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: "
                    "BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs per workload without --workload")
    ap.add_argument("--out", help="directory for runs.jsonl and spans "
                    "(default .bench_build/results/<time>)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny-size check of every workload")
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite every file in lsqbench/expected/ from "
                    "fresh runs")
    args = ap.parse_args()

    try:
        bench = spec()
        seconds = args.seconds or bench["run_seconds"]
        exe = build()
        if args.record_expected:
            record(exe, [w["name"] for w in bench["workloads"]])
            return 0
        if args.smoke:
            return smoke(exe, bench)
        if args.workload:
            out = check(run_lsqbench(exe, args.workload, args.seed, seconds,
                                     args.trace, spans_dir=args.out))
            print(json.dumps(out))
            return 0 if out["correct"] else 1

        out_dir = Path(args.out or BUILD / "results" /
                       time.strftime("%Y%m%d-%H%M%S"))
        out_dir.mkdir(parents=True, exist_ok=True)
        runs = []
        with open(out_dir / "runs.jsonl", "a") as f:
            for _ in range(args.repeat):
                for w in [x["name"] for x in bench["workloads"]]:
                    res = check(run_lsqbench(exe, w, args.seed, seconds,
                                             args.trace, spans_dir=out_dir))
                    res["workload"] = w
                    res["seed"] = args.seed
                    runs.append(res)
                    f.write(json.dumps(res) + "\n")
                    f.flush()
        key = "per_layer" if args.trace else "end_to_end"
        print_table(runs, [m["name"] for m in bench[key]])
        log(f"runs written to {out_dir / 'runs.jsonl'}")
        return 0 if all(r["correct"] for r in runs) else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"lsqbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
