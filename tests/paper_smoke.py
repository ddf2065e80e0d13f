#!/usr/bin/env python3
"""Smoke test of the bench/paper evaluation driver.

Usage: paper_smoke.py PAPER_BINARY

Runs the whole evaluation on two benchmarks at 2000 instructions and
checks that every table prints in paper order, that the sweep document
holds each distinct (design, benchmark) cell exactly once, that
`--only fig7` narrows the sweep to Figure 7's four designs, that a
sweep whose cells crash still prints its table but exits 1, and that an
unknown `--only` name fails and lists the valid names. Inherited
LSQSCALE_* variables are dropped so the run is the same everywhere.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCHES = ["bzip", "mcf"]
DESIGNS = 31
FIG7_DESIGNS = 4

# The first line each table prints, in print order.
TITLES = [
    "== Table 2: applications and their base IPCs ==",
    "== Figure 6: SQ search demand relative to a conventional store queue ==",
    "== Figure 7: speedup over a 2-ported conventional store queue ==",
    "== Table 3: accuracy of the store-load pair predictor ==",
    "== Figure 8: LQ search demand relative to a conventional load queue",
    "== Table 4: average number of loads issued out of program order ==",
    "== Figure 9: speedup over a conventional load queue ==",
    "== Figure 10: speedup over a 2-ported conventional LSQ ==",
    "== Figure 11: speedup over a 32-entry conventional LSQ ==",
    "== Table 5: average number of entries needed in the load and store",
    "== Table 6: distribution",
    "== Figure 12: 1-ported LSQ with all three techniques",
    "== Ablation: segmentation contention policy ==",
    "seed 1: Int",
]


def run(paper, args, json_dir, **extra_env):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LSQSCALE_")}
    env.update(LSQSCALE_INSTS="2000", LSQSCALE_BENCH=",".join(BENCHES),
               LSQSCALE_JSON_DIR=json_dir, **extra_env)
    return subprocess.run([paper, *args], env=env, capture_output=True,
                          text=True)


def cells(json_dir):
    with open(os.path.join(json_dir, "BENCH_paper.json")) as f:
        doc = json.load(f)
    pairs = [(c["config"], c["benchmark"]) for c in doc["cells"]]
    if len(set(pairs)) != len(pairs):
        sys.exit("paper_smoke: duplicate (config, benchmark) cells")
    if any(c["status"] != "ok" for c in doc["cells"]):
        sys.exit("paper_smoke: a cell did not finish ok")
    return pairs


def expect_cells(json_dir, designs):
    got = len(cells(json_dir))
    want = designs * len(BENCHES)
    if got != want:
        sys.exit(f"paper_smoke: {got} cells, expected {want}")


def main():
    paper = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        full = os.path.join(tmp, "full")
        r = run(paper, [], full)
        if r.returncode != 0:
            sys.exit(f"paper_smoke: exit {r.returncode}\n{r.stderr}")
        pos = 0
        for title in TITLES:
            at = r.stdout.find(title, pos)
            if at < 0:
                sys.exit(f"paper_smoke: missing or out of order: {title}")
            pos = at + len(title)
        expect_cells(full, DESIGNS)

        only = os.path.join(tmp, "only")
        r = run(paper, ["--only", "fig7"], only)
        if r.returncode != 0:
            sys.exit(f"paper_smoke: --only fig7 exit {r.returncode}")
        expect_cells(only, FIG7_DESIGNS)

        # Every cell aborts in its own child process: the table still
        # prints (poisoned cells read 0) and the driver exits 1. One
        # worker, because forking from several threads can deadlock
        # under ASan.
        r = run(paper, ["--only", "fig7"], os.path.join(tmp, "abort"),
                LSQSCALE_ISOLATION="process", LSQSCALE_JOBS="1",
                LSQSCALE_INJECT="abort:0:100")
        if r.returncode != 1:
            sys.exit(f"paper_smoke: aborted cells exit {r.returncode}, "
                     "expected 1")
        if TITLES[2] not in r.stdout:
            sys.exit("paper_smoke: aborted cells printed no fig7 table")

        r = run(paper, ["--only", "nosuch"], os.path.join(tmp, "bad"))
        if r.returncode == 0 or "fig7" not in r.stderr:
            sys.exit("paper_smoke: --only nosuch must fail and list names")
    print("paper smoke ok")


if __name__ == "__main__":
    main()
