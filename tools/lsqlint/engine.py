"""Analysis driver: file walk, lexing, rule dispatch, suppression
filtering and output.

Every rule reads one file at a time. A serial run over the whole tree
takes well under a second.
"""

from __future__ import annotations

import os
import time

from . import lexer

SOURCE_EXTS = (".hh", ".cc", ".cpp", ".hpp")
# Fixture trees are deliberately-broken inputs for the analyzer's own
# tests; they must never count against the real tree.
EXCLUDED_DIR_NAMES = frozenset(("lintfix",))


class Finding:
    __slots__ = ("rule", "path", "line", "msg", "severity")

    def __init__(self, rule, path, line, msg, severity="error"):
        self.rule = rule
        self.path = path
        self.line = line
        self.msg = msg
        self.severity = severity

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"

    def to_dict(self):
        return {"rule": self.rule, "severity": self.severity,
                "path": self.path, "line": self.line,
                "message": self.msg}


# ---------------------------------------------------------- walking ----

def collect_files(root):
    """Root-relative posix paths of everything the analyzer reads:
    src/ and tools/ sources. Fixture trees and build dirs are
    excluded."""
    rels = []
    for top in ("src", "tools"):
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in EXCLUDED_DIR_NAMES and
                not d.startswith((".", "build")) and
                d != "__pycache__")
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, fn)
                    rels.append(os.path.relpath(full, root)
                                .replace(os.sep, "/"))
    return rels


# ---------------------------------------------------------- analyze ----

def analyze(root, rule_filter=None):
    """Full run over root: returns (sorted, deduped,
    suppression-filtered findings, stats)."""
    from .rules import legacy
    root = os.path.abspath(root)
    t0 = time.monotonic()
    files = collect_files(root)
    found = {}
    for rel in files:
        with open(os.path.join(root, rel), "r", encoding="utf-8",
                  errors="replace") as src:
            lexed = lexer.lex(src.read())
        allowed = legacy.allows(lexed.comments)
        for f in legacy.scan(rel, lexed.tokens):
            if ((rule_filter is None or f.rule in rule_filter) and
                    f.rule not in allowed.get(f.line, ())):
                found[(f.path, f.line, f.rule, f.msg)] = f
    findings = [found[k] for k in sorted(found)]
    stats = {
        "files": len(files),
        "total_seconds": round(time.monotonic() - t0, 3),
        "findings": len(findings),
    }
    return findings, stats


def to_json(findings, stats):
    from . import rules
    counts = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    return {
        "schema": "lsqlint-v2",
        "rules_known": sorted(rules.RULES),
        "stats": stats,
        "counts": counts,
        "findings": [f.to_dict() for f in findings],
    }
