"""The original regex linter's rules, reimplemented on the token stream.

Semantics match that linter (same scopes, same exemption lists, same
messages) — minus the known false-positive classes: matches inside
comments, string literals and preprocessor bodies are structurally
impossible now, because the facts extractor never tokenizes them as
code.
"""

from __future__ import annotations

from ..engine import Finding

_STAT_DUMP_ALLOWED_DIRS = ("src/obs/", "src/harness/", "tools/")
_STAT_DUMP_ALLOWED_FILES = ("src/sim/cli.cc",)
_STAT_DUMP_ALLOWED_PREFIXES = ("src/common/logging",)

_SYSCALL_DIRS = ("src/harness/", "src/inject/")


def _stat_dump_exempt(path):
    if path.startswith(_STAT_DUMP_ALLOWED_DIRS):
        return True
    return (path in _STAT_DUMP_ALLOWED_FILES or
            path.startswith(_STAT_DUMP_ALLOWED_PREFIXES))


def run(db):
    findings = []

    for path, facts in db.src_and_tools():
        ev = facts["events"]
        for e in ev["new"]:
            findings.append(Finding(
                "raw-new", path, e["line"],
                "raw `new`: use std::make_unique or a container"))
        for e in ev["cast"]:
            findings.append(Finding(
                "narrowing-cast", path, e["line"],
                f"cycle/seq arithmetic narrowed to {e['type']}: "
                f"`{e['operand']}`"))
        for e in ev["assert"]:
            findings.append(Finding(
                "bare-assert", path, e["line"],
                "use LSQ_ASSERT / LSQ_DCHECK instead of assert()"))
        if not path.startswith("src/harness/"):
            for e in ev["thread"]:
                findings.append(Finding(
                    "raw-thread", path, e["line"],
                    "raw thread construction outside src/harness/: "
                    "run work through harness JobPool/Sweep"))
        if not _stat_dump_exempt(path):
            for e in ev["statdump"]:
                findings.append(Finding(
                    "stat-dump", path, e["line"],
                    "ad-hoc stat dump: route output through StatSet, "
                    "a harness sink, or common/logging logLine()"))
        if path.startswith(_SYSCALL_DIRS):
            for e in ev["syscall"]:
                findings.append(Finding(
                    "unchecked-syscall", path, e["line"],
                    f"return value of {e['what']}() discarded in "
                    f"crash-isolation code: check it (or annotate why "
                    f"failure is tolerable)"))
    return findings
