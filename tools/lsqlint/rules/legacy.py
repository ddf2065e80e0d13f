"""The original regex linter's rules, reimplemented on the token stream.

Semantics match that linter (same scopes, same exemption lists, same
messages) — minus the known false-positive classes: matches inside
comments, string literals and preprocessor bodies are structurally
impossible now, because the lexer never tokenizes them as code.

Every rule reads one file's tokens; `scan()` is a single linear pass
plus a second one for C-style casts.
"""

from __future__ import annotations

import re

from ..engine import Finding

# Annotation grammar (docs/STATIC_ANALYSIS.md):
#   // lsqlint: allow(rule[, rule...]) [-- reason]
# The `hot` and `phase(...)` annotations are the hot_path ctest's.
_ALLOW_RE = re.compile(r"lsqlint\s*:\s*allow\s*\(([^)]*)\)")

# The narrow integer types of the narrowing-cast rule (PR 1).
_NARROW_TYPES = frozenset((
    "int", "short", "unsigned",
    "int8_t", "int16_t", "int32_t",
    "uint8_t", "uint16_t", "uint32_t",
))

# Identifier markers of 64-bit cycle/sequence arithmetic.
_WIDE_MARKER_RE = re.compile(
    r"\b(?:now_?|Cycle|cycle|SeqNum|seq\b|executeCycle|commitCycle|"
    r"searchDoneCycle|readyCycle)")

_STATDUMP_CALL_IDENTS = frozenset((
    "printf", "fprintf", "vfprintf", "puts", "fputs",
))

_SYSCALL_IDENTS = frozenset((
    "fork", "waitpid", "write", "rename", "fsync",
))

_THREAD_IDENTS = frozenset(("thread", "jthread"))

_STAT_DUMP_ALLOWED_DIRS = ("src/obs/", "src/harness/", "tools/")
_STAT_DUMP_ALLOWED_FILES = ("src/sim/cli.cc",)
_STAT_DUMP_ALLOWED_PREFIXES = ("src/common/logging",)

_SYSCALL_DIRS = ("src/harness/", "src/inject/")


def allows(comments):
    """{line: rules} silenced by `allow(...)` comments. Each covers
    its comment's own lines plus the next line, so the annotation
    works both trailing and above."""
    out = {}
    for c in comments:
        for m in _ALLOW_RE.finditer(c.text):
            rules = [r.strip() for r in m.group(1).split(",")
                     if r.strip()]
            for ln in range(c.line, c.end_line + 2):
                out.setdefault(ln, set()).update(rules)
    return out


def _stat_dump_exempt(path):
    if path.startswith(_STAT_DUMP_ALLOWED_DIRS):
        return True
    return (path in _STAT_DUMP_ALLOWED_FILES or
            path.startswith(_STAT_DUMP_ALLOWED_PREFIXES))


def _is(tok, kind, *texts):
    return tok is not None and tok.kind == kind and tok.text in texts


def _match_forward(toks, i, open_t, close_t):
    """Index just past the matcher of toks[i] (which must be open_t)."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "p":
            if t.text == open_t:
                depth += 1
            elif t.text == close_t:
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def _skip_template_args(toks, i):
    """toks[i] is '<' opening template args; return index past '>'.
    Heuristic: give up (return i+1) if no balanced close within the
    statement — callers treat that as a comparison operator."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j]
        if t.kind != "p":
            continue
        if t.text == "<":
            depth += 1
        elif t.text == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t.text == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t.text in (";", "{", "}"):
            break  # not template args after all
    return i + 1


def _is_narrow_type(type_toks):
    if not type_toks or any(not (t.kind == "id" or _is(t, "p", "::"))
                            for t in type_toks):
        return False
    core = [t.text for t in type_toks if t.kind == "id" and
            t.text != "std"]
    if core == ["unsigned", "int"]:
        return True
    return len(core) == 1 and core[0] in _NARROW_TYPES


def _syscall_discarded(toks, i):
    """Whether the call at toks[i] starts a statement (optionally
    behind `::`, `std::` or a `(void)` cast)."""
    j = i - 1
    if j >= 0 and _is(toks[j], "p", "::"):
        j -= 1
        if j >= 0 and _is(toks[j], "id", "std"):
            j -= 1
    if j < 0 or _is(toks[j], "p", ";", "{", "}", ":"):
        return True
    return (_is(toks[j], "p", ")") and j >= 2 and
            _is(toks[j - 1], "id", "void") and
            _is(toks[j - 2], "p", "("))


def scan(path, toks):
    """Findings of the six rules over one file's code tokens."""
    findings = []

    def add(rule, line, msg):
        findings.append(Finding(rule, path, line, msg))

    def cast(line, type_toks, operand_toks):
        if not _is_narrow_type(type_toks):
            return
        operand = " ".join(t.text for t in operand_toks)
        if _WIDE_MARKER_RE.search(operand):
            typ = "".join(t.text for t in type_toks)
            add("narrowing-cast", line,
                f"cycle/seq arithmetic narrowed to {typ}: "
                f"`{operand[:80]}`")

    in_harness = path.startswith("src/harness/")
    stat_exempt = _stat_dump_exempt(path)
    syscall_scope = path.startswith(_SYSCALL_DIRS)
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        nxt = toks[i + 1] if i + 1 < n else None
        prev = toks[i - 1] if i > 0 else None
        std_scoped = (_is(prev, "p", "::") and i >= 2 and
                      toks[i - 2].text == "std")
        if t.text == "new" and nxt is not None and (
                nxt.kind == "id" or _is(nxt, "p", "::", "<")):
            add("raw-new", t.line,
                "raw `new`: use std::make_unique or a container")
        elif (t.text == "assert" and _is(nxt, "p", "(") and
              not _is(prev, "p", ".", "->", "::")):
            add("bare-assert", t.line,
                "use LSQ_ASSERT / LSQ_DCHECK instead of assert()")
        elif ((t.text in _THREAD_IDENTS and std_scoped and
               toks[i - 2].kind == "id" and not _is(nxt, "p", "::")) or
              (t.text == "async" and std_scoped and
               _is(nxt, "p", "("))):
            if not in_harness:
                add("raw-thread", t.line,
                    "raw thread construction outside src/harness/: "
                    "run work through harness JobPool/Sweep")
        elif ((t.text in ("cout", "cerr") and std_scoped) or
              (t.text in _STATDUMP_CALL_IDENTS and _is(nxt, "p", "(")
               and not _is(prev, "p", ".", "->"))):
            if not stat_exempt:
                add("stat-dump", t.line,
                    "ad-hoc stat dump: route output through StatSet, "
                    "a harness sink, or common/logging logLine()")
        elif t.text in _SYSCALL_IDENTS and _is(nxt, "p", "("):
            if syscall_scope and _syscall_discarded(toks, i):
                add("unchecked-syscall", t.line,
                    f"return value of {t.text}() discarded in "
                    f"crash-isolation code: check it (or annotate why "
                    f"failure is tolerable)")
        elif t.text == "static_cast" and _is(nxt, "p", "<"):
            close = _skip_template_args(toks, i + 1)
            if close < n and _is(toks[close], "p", "("):
                end = _match_forward(toks, close, "(", ")")
                cast(t.line, toks[i + 2:close - 1],
                     toks[close + 1:end - 1])

    # C-style casts: '(' T ')' '('
    for i, t in enumerate(toks):
        if _is(t, "p", "("):
            close = _match_forward(toks, i, "(", ")")
            if close < n and _is(toks[close], "p", "("):
                end = _match_forward(toks, close, "(", ")")
                cast(t.line, toks[i + 1:close - 1],
                     toks[close + 1:end - 1])
    return findings
