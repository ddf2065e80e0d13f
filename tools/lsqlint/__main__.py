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
    ap.add_argument("--jobs", type=int, default=None,
                    help="parallel extraction processes "
                         "(default: cpu count)")
    ap.add_argument("--no-cache", action="store_true",
                    help="ignore and do not write .lsqlint.cache")
    ap.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON on stdout")
    ap.add_argument("--json-out", metavar="FILE", default=None,
                    help="also write the JSON report to FILE")
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

    findings, stats = engine.analyze(
        root, jobs=args.jobs, use_cache=not args.no_cache,
        rule_filter=rule_filter)

    report = engine.to_json(findings, stats)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if args.json:
        json.dump(report, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        for f in findings:
            print(f)
        if findings:
            print(f"\nlsqlint: {len(findings)} finding(s)")
        else:
            print(f"lsqlint: clean ({stats['files']} files, "
                  f"{stats['cached']} cached, "
                  f"{stats['total_seconds']}s)")
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main())
