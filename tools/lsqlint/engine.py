"""Analysis driver: file walk, facts extraction, rule dispatch,
suppression filtering and output.

Facts extraction is per-file; the rules, which need cross-file views
(serialization coverage, the include DAG, taxonomy), run over the
merged FactsDB. A serial run over the whole tree takes well under a
second.
"""

from __future__ import annotations

import os
import time

from . import model

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


class FactsDB:
    """Merged per-file facts plus the cross-file indices rules need."""

    def __init__(self, root, facts_by_path):
        self.root = root
        self.facts = facts_by_path

    # ----------------------------------------------------- queries ----
    def paths(self, prefix=None):
        for p in sorted(self.facts):
            if prefix is None or p.startswith(prefix):
                yield p

    def src_and_tools(self):
        for p in sorted(self.facts):
            if p.startswith("src/") or p.startswith("tools/"):
                yield p, self.facts[p]

    def src(self):
        for p in sorted(self.facts):
            if p.startswith("src/"):
                yield p, self.facts[p]

    def tests(self):
        for p in sorted(self.facts):
            if p.startswith("tests/"):
                yield p, self.facts[p]

    def suppressed(self, path, line, rule):
        facts = self.facts.get(path)
        if not facts:
            return False
        return rule in facts["allows"].get(str(line), ())

    def functions(self):
        """Yield (facts-path, function-dict) for src/ definitions."""
        for p, facts in self.src():
            for fn in facts["functions"]:
                yield p, fn

    def classes(self):
        for p, facts in self.src():
            for cls in facts["classes"]:
                yield p, cls


# ---------------------------------------------------------- walking ----

def collect_files(root):
    """Root-relative posix paths of everything the analyzer reads:
    src/ and tools/ sources, plus top-level tests/*.cc (taxonomy
    test-mention scan). Fixture trees and build dirs are excluded."""
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
    tests = os.path.join(root, "tests")
    if os.path.isdir(tests):
        for fn in sorted(os.listdir(tests)):
            if fn.endswith((".cc", ".cpp")):
                rels.append("tests/" + fn)
    return rels


# ---------------------------------------------------------- analyze ----

def build_db(root):
    """Extract facts for every file under root.
    Returns (FactsDB, stats-dict)."""
    root = os.path.abspath(root)
    t0 = time.monotonic()
    facts_by_path = {}
    for rel in collect_files(root):
        with open(os.path.join(root, rel), "r", encoding="utf-8",
                  errors="replace") as f:
            facts_by_path[rel] = model.extract(rel, f.read())
    stats = {
        "files": len(facts_by_path),
        "facts_seconds": round(time.monotonic() - t0, 3),
    }
    return FactsDB(root, facts_by_path), stats


def run_rules(db, rule_filter=None):
    """Run every registered rule over db; returns sorted, deduped,
    suppression-filtered findings."""
    from . import rules
    findings = []
    for runner in rules.RUNNERS:
        findings.extend(runner(db))
    if rule_filter is not None:
        findings = [f for f in findings if f.rule in rule_filter]
    findings = [f for f in findings
                if not db.suppressed(f.path, f.line, f.rule)]
    seen = set()
    out = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule,
                                             f.msg)):
        key = (f.path, f.line, f.rule, f.msg)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def analyze(root, rule_filter=None):
    """Full run: returns (findings, stats)."""
    t0 = time.monotonic()
    db, stats = build_db(root)
    findings = run_rules(db, rule_filter=rule_filter)
    stats["total_seconds"] = round(time.monotonic() - t0, 3)
    stats["findings"] = len(findings)
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
