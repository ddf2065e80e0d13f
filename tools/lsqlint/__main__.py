"""CLI: python3 -m tools.lsqlint [--root DIR] [--json] ...

Exit status is the number of findings, capped at 125, which the `lint`
ctest and the ci.sh `lint` flavor read as pass/fail.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import engine, rules


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="lsqlint",
        description="token-stream static analysis for the lsqscale "
                    "simulator (docs/STATIC_ANALYSIS.md)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels above "
                         "this package)")
    ap.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON on stdout")
    ap.add_argument("--rules", metavar="ID[,ID...]", default=None,
                    help="run only these rule IDs")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid in sorted(rules.RULES):
            sev, desc = rules.RULES[rid]
            print(f"{rid:24s} {sev:5s} {desc}")
        return 0

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    rule_filter = None
    if args.rules:
        rule_filter = {r.strip() for r in args.rules.split(",")
                       if r.strip()}
        unknown = rule_filter - set(rules.RULES)
        if unknown:
            print("lsqlint: unknown rule(s): "
                  + ", ".join(sorted(unknown)), file=sys.stderr)
            return 2

    findings, stats = engine.analyze(root, rule_filter=rule_filter)

    if args.json:
        json.dump(engine.to_json(findings, stats), sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        for f in findings:
            print(f)
        if findings:
            print(f"\nlsqlint: {len(findings)} finding(s)")
        else:
            print(f"lsqlint: clean ({stats['files']} files, "
                  f"{stats['total_seconds']}s)")
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main())
