#!/usr/bin/env python3
"""Self-test for the lsqlint analyzer (the `lint_fixtures` ctest).

Runs the analyzer over each fixture mini-repo in this directory and
asserts the EXACT per-rule finding counts — a fixture firing an extra
rule is as much a failure as one not firing at all. Then:

  * mutant-catch: the broken_ser run must name the deleted member
    (`pairsTrained_`) — the acceptance criterion that a single-member
    deletion in a predictor-style class is caught;
  * suppression negative control: mangle the `allow(...)` markers in
    a temp copy of suppress/ and assert every silenced finding comes
    back.

Exits non-zero with a diff-style message on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

EXPECT = {
    "broken_ser": {
        "ser-member-coverage": 2,
        "ser-ckpt-sections": 2,
    },
    "broken_hot": {
        "hot-mutex": 1,   # one call level down, in refill()
        "hot-virtual": 1,
        "hot-io": 1,
        "hot-phase-timer": 1,   # the phase(run)-annotated read is the
                                # in-fixture negative control
        "raw-new": 2,     # the two allocations trip the legacy rule
        "stat-dump": 1,   # ...and the printf trips stat-dump in src/core/
    },
    "broken_layer": {
        "layer-upward-include": 1,
        "layer-cycle": 1,
        "layer-bad-rehome": 2,  # invalid claim + unknown subsystem name
    },
    "broken_tax": {
        "tax-trace-hook": 1,
        "tax-trace-analyzer": 1,
        "tax-check-emit": 1,
        "tax-check-test": 1,
    },
    "broken_probe": {
        # An analyzer-mapped probe event with no hook site, plus a
        # probe-squash error kind the oracle never emits and no test
        # mentions: the unhooked-probe shape lsqlint must flag.
        "tax-trace-hook": 1,
        "tax-check-emit": 1,
        "tax-check-test": 1,
    },
    "broken_legacy": {
        "raw-new": 1,
        "bare-assert": 1,
        "narrowing-cast": 1,
        "raw-thread": 1,
        "stat-dump": 1,
        "stats-buckets": 2,   # one finding per inconsistent site
        "unchecked-syscall": 2,  # discarded fork() + bare fsync()
    },
    "clean": {},
    "suppress": {},
}

# What suppress/ reports once its allow(...) markers are mangled.
SUPPRESS_UNMASKED = {
    "raw-new": 2,
    "stats-buckets": 2,
    "hot-mutex": 1,
    "layer-upward-include": 1,
    "ser-member-coverage": 1,
}

failures = []


def fail(msg):
    failures.append(msg)
    print("FAIL: " + msg)


def run_lint(root):
    cmd = [sys.executable, "-m", "tools.lsqlint", "--root", root,
           "--json"]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"lsqlint produced non-JSON output for {root}")
    return doc, proc.returncode


def counts_of(doc):
    out = {}
    for f in doc["findings"]:
        out[f["rule"]] = out.get(f["rule"], 0) + 1
    return out


def check_counts(name, doc, rc, expect):
    got = counts_of(doc)
    if got != expect:
        fail(f"{name}: rule counts {got} != expected {expect}")
    total = sum(expect.values())
    if rc != min(total, 125):
        fail(f"{name}: exit code {rc}, expected {min(total, 125)}")
    if doc["schema"] != "lsqlint-v2":
        fail(f"{name}: bad schema {doc['schema']!r}")
    known = set(doc["rules_known"])
    for f in doc["findings"]:
        if f["rule"] not in known:
            fail(f"{name}: finding with unknown rule {f['rule']}")
        if f["line"] < 1 or not f["path"]:
            fail(f"{name}: bad anchor {f['path']}:{f['line']}")


def main():
    # ---------------------------------------- fixture rule counts ----
    for name, expect in sorted(EXPECT.items()):
        doc, rc = run_lint(os.path.join(HERE, name))
        check_counts(name, doc, rc, expect)
        print(f"ok: {name} ({sum(expect.values())} findings)")

    # ------------------------------------------ mutant-catch check ---
    doc, _rc = run_lint(os.path.join(HERE, "broken_ser"))
    hits = [f for f in doc["findings"]
            if f["rule"] == "ser-member-coverage" and
            "pairsTrained_" in f["message"] and
            "loadState" in f["message"]]
    if not hits:
        fail("broken_ser: deleted member pairsTrained_ not reported "
             "against loadState")
    else:
        print("ok: mutant catch (pairsTrained_ flagged)")

    with tempfile.TemporaryDirectory(prefix="lintfix-") as tmp:
        # ------------------------------ suppression negative control -
        sup = os.path.join(tmp, "suppress")
        shutil.copytree(os.path.join(HERE, "suppress"), sup)
        for dirpath, _dirs, files in os.walk(sup):
            for fn in files:
                p = os.path.join(dirpath, fn)
                with open(p, encoding="utf-8") as fh:
                    text = fh.read()
                text = text.replace("lsqlint: allow(", "lsqlint: zz(")
                with open(p, "w", encoding="utf-8") as fh:
                    fh.write(text)
        doc, rc = run_lint(sup)
        check_counts("suppress-unmasked", doc, rc, SUPPRESS_UNMASKED)
        print("ok: suppression negative control "
              f"({sum(SUPPRESS_UNMASKED.values())} findings return)")

    if failures:
        print(f"\n{len(failures)} fixture check(s) FAILED")
        return 1
    print("\nall lintfix checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
