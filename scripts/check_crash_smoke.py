#!/usr/bin/env python3
"""Assertions for the crash-smoke CI flavor (docs/ROBUSTNESS.md).

The flavor runs process-isolated sweeps with a fault injected at a
cycle chosen to split the grid: cells whose measured run is shorter
than the trigger finish healthy, longer ones hit the fault. This
script holds the JSON-level checks:

  pick-cycle CLEAN.json
      Print a trigger cycle strictly between the shortest and longest
      per-cell cycle counts of a clean run (fails if the grid has no
      spread, since then no split is possible).

  check-campaign CLEAN.json INJECTED.json CYCLE --kind crash|hang
      Every cell that should have outrun the trigger must be poisoned
      with the fault's provenance (crash: status "crashed" +
      term_signal SIGSEGV; hang: status "timeout" + "heartbeat" in the
      error); every cell below the trigger must be healthy and carry
      exactly the clean run's ipc/cycles. Both sides must be nonempty.

  check-corrupt INJECTED.json
      A corrupt-lsq campaign with LSQSCALE_CHECK=1: every cell must
      either be caught by the checker (status "crashed", SIGABRT) or
      be architecturally masked (status "ok": the flipped store
      address drained before any load aliased it — possible on
      low-aliasing workloads). At least one cell must be caught, and
      no other failure mode may appear.

Exit status 0 iff every assertion holds.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys


def load_cells(path: str):
    with open(path) as f:
        doc = json.load(f)
    cells = doc.get("cells", [])
    if not cells:
        sys.exit(f"crash-smoke: {path} has no cells")
    return cells


def key(cell) -> tuple[str, str]:
    return (cell["config"], cell["benchmark"])


def pick_cycle(args) -> int:
    cycles = sorted({c["cycles"] for c in load_cells(args.clean)})
    if len(cycles) < 2:
        sys.exit("crash-smoke: all cells have identical cycle counts; "
                 "cannot pick a splitting trigger")
    print((cycles[0] + cycles[-1]) // 2)
    return 0


def check_campaign(args) -> int:
    clean = {key(c): c for c in load_cells(args.clean)}
    injected = {key(c): c for c in load_cells(args.injected)}
    if set(clean) != set(injected):
        sys.exit("crash-smoke: injected sweep ran a different grid")

    healthy, poisoned, problems = 0, 0, []
    for k, cell in sorted(injected.items()):
        ref = clean[k]
        name = f"{k[0]}/{k[1]}"
        if ref["cycles"] < args.cycle:
            # Finished before the trigger: must be untouched.
            if cell["status"] != "ok":
                problems.append(f"{name}: expected ok (clean run took "
                                f"{ref['cycles']} < trigger "
                                f"{args.cycle}), got {cell['status']}")
            elif (cell["cycles"], cell["ipc"]) != (ref["cycles"],
                                                   ref["ipc"]):
                problems.append(f"{name}: healthy cell diverged from "
                                f"the clean run")
            else:
                healthy += 1
            continue
        poisoned += 1
        if args.kind == "crash":
            if cell["status"] != "crashed":
                problems.append(f"{name}: expected crashed, got "
                                f"{cell['status']}")
            elif cell.get("term_signal") != int(signal.SIGSEGV):
                problems.append(f"{name}: expected SIGSEGV provenance, "
                                f"got term_signal="
                                f"{cell.get('term_signal')}")
        else:  # hang
            if cell["status"] != "timeout":
                problems.append(f"{name}: expected timeout, got "
                                f"{cell['status']}")
            elif "heartbeat" not in cell["error"]:
                problems.append(f"{name}: timeout without heartbeat "
                                f"provenance: {cell['error']!r}")

    if healthy == 0:
        problems.append("no cell finished below the trigger; the "
                        "campaign proved nothing about containment")
    if poisoned == 0:
        problems.append("no cell reached the trigger; the fault never "
                        "fired")
    for p in problems:
        print(f"crash-smoke: {p}", file=sys.stderr)
    if not problems:
        print(f"crash-smoke: {args.kind} campaign ok "
              f"({healthy} healthy, {poisoned} poisoned with "
              f"provenance)")
    return 1 if problems else 0


def check_corrupt(args) -> int:
    cells = load_cells(args.injected)
    masked = [c for c in cells if c["status"] == "ok"]
    aborted = [c for c in cells
               if c["status"] == "crashed" and
               c.get("term_signal") == int(signal.SIGABRT)]
    other = [c for c in cells if c not in masked and c not in aborted]
    if other:
        names = ", ".join(f"{c['config']}/{c['benchmark']} "
                          f"({c['status']}, "
                          f"signal={c.get('term_signal')})"
                          for c in other)
        print(f"crash-smoke: corrupt-lsq produced something other "
              f"than a checker SIGABRT or a masked fault: {names}",
              file=sys.stderr)
        return 1
    if not aborted:
        print("crash-smoke: no cell was caught by the checker "
              "(expected SIGABRT provenance on at least one)",
              file=sys.stderr)
        return 1
    print(f"crash-smoke: corrupt-lsq campaign ok ({len(aborted)} "
          f"cell(s) caught by the checker, {len(masked)} "
          f"architecturally masked)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("pick-cycle")
    p.add_argument("clean")
    p.set_defaults(fn=pick_cycle)

    p = sub.add_parser("check-campaign")
    p.add_argument("clean")
    p.add_argument("injected")
    p.add_argument("cycle", type=int)
    p.add_argument("--kind", choices=["crash", "hang"], required=True)
    p.set_defaults(fn=check_campaign)

    p = sub.add_parser("check-corrupt")
    p.add_argument("injected")
    p.set_defaults(fn=check_corrupt)

    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
