"""Hot-path purity.

Functions annotated `// lsqlint: hot` are per-cycle entry points
(Core::run, Core::tick, the Lsq pipeline methods). The checked set is
the seeds plus everything a seed textually calls, one level down
(resolved by qualified name, then same-class method, then unique free
function). Within the checked set:

  hot-mutex    mutex / lock types and .lock() calls
  hot-virtual  calls through a pointer (or reference) whose static
               type resolves to a class with matching virtual methods
  hot-io       stdio / iostream calls
  hot-phase-timer  host-profiler timing primitives (hostNowNs,
               ScopedHostPhase, noteSampledCycle)

Heap allocation is not a lint rule: tests/alloc_test.cc counts it
exactly, with a replacement operator new, on the pinned design points.

Arguments of LSQ_PANIC / LSQ_FATAL / LSQ_WARN / LSQ_ASSERT /
LSQ_DCHECK / LSQ_TRACE_HOOK are exempt at extraction time: those are
cold failure paths, or run only when a tracer is attached, and that is
exactly where I/O is allowed to live.

Lines carrying `// lsqlint: phase(<name>)` are declared host-profiler
phase boundaries (the lap reads of the profiled Core::tickStages, the
LSQ lap timers behind the profLap_ mask): every purity event on such a
line is exempt. Timer primitives anywhere *else* in the checked set
are hot-phase-timer findings — clock reads must stay behind the
sampling mask, at annotated boundaries, or the "provably free"
overhead gate (scripts/check_metrics_smoke.py overhead) stops holding.
"""

from __future__ import annotations

import re

from ..engine import Finding

_WORD_RE = re.compile(r"[A-Za-z_]\w*")


def _type_words(typ):
    return [w for w in _WORD_RE.findall(typ or "")
            if w not in ("std", "const", "unique_ptr", "shared_ptr",
                         "vector", "deque", "array", "optional")]


def run(db):
    findings = []

    funcs = []           # (path, fn)
    by_qname = {}
    by_name = {}
    classes = {}         # class qname -> (path, cls)
    class_by_name = {}
    for path, fn in db.functions():
        funcs.append((path, fn))
        by_qname.setdefault(fn["qname"], (path, fn))
        by_name.setdefault(fn["name"], []).append((path, fn))
    for path, cls in db.classes():
        classes.setdefault(cls["qname"], (path, cls))
        class_by_name.setdefault(cls["name"], (path, cls))

    def resolve_call(fn, callee):
        """Resolve a free/qualified call to a defined function."""
        callee = callee.removeprefix("std::")
        if "::" in callee:
            hit = by_qname.get(callee.removeprefix("lsqscale::"))
            return hit
        if fn["cls"]:
            hit = by_qname.get(fn["cls"] + "::" + callee)
            if hit:
                return hit
        cands = by_name.get(callee, [])
        if len(cands) == 1:
            return cands[0]
        return None

    def recv_class(path, fn, recv):
        """Static class of a member-call receiver, plus whether the
        receiver is pointer/reference-like."""
        if recv == "this" and fn["cls"]:
            hit = classes.get(fn["cls"])
            return (hit, True) if hit else (None, False)
        typ = fn["params"].get(recv)
        if typ is None and fn["cls"] in classes:
            for m in classes[fn["cls"]][1]["members"]:
                if m["name"] == recv:
                    typ = m["type"]
                    break
        if typ is None:
            return None, False
        indirect = ("*" in typ or "&" in typ or "unique_ptr" in typ or
                    "shared_ptr" in typ)
        for w in _type_words(typ):
            hit = classes.get(w) or class_by_name.get(w)
            if hit:
                return hit, indirect
        return None, indirect

    # checked set: seeds + one level of resolved callees
    checked = {}  # qname -> (path, fn, origin-qname or None)
    for path, fn in funcs:
        if fn["hot"]:
            checked.setdefault(fn["qname"], (path, fn, None))
    for qname, (path, fn, _origin) in list(checked.items()):
        for callee in fn["calls"]:
            hit = resolve_call(fn, callee)
            if hit and hit[1]["qname"] not in checked:
                checked[hit[1]["qname"]] = (hit[0], hit[1], qname)
        for mc in fn["member_calls"]:
            hit, _ind = recv_class(path, fn, mc["recv"])
            if hit is None:
                continue
            target = hit[1]["qname"] + "::" + mc["method"]
            thit = by_qname.get(target)
            if thit and target not in checked:
                checked[target] = (thit[0], thit[1], qname)

    def phase_at(path, line):
        facts = db.facts.get(path)
        if not facts:
            return None
        return facts.get("phase_lines", {}).get(str(line))

    for qname, (path, fn, origin) in sorted(checked.items()):
        where = (f"in hot function `{qname}`" if origin is None else
                 f"in `{qname}` (called from hot `{origin}`)")
        for ev in fn["purity"]:
            if phase_at(path, ev["line"]) is not None:
                # Declared phase boundary: scoped timer reads (and
                # whatever bookkeeping shares the line) are legal.
                continue
            if ev["kind"] == "hot-phase-timer":
                findings.append(Finding(
                    "hot-phase-timer", path, ev["line"],
                    f"profiler timer `{ev['what']}` {where}: clock "
                    f"reads on the per-cycle path are legal only at "
                    f"`// lsqlint: phase(<name>)` annotated "
                    f"boundaries"))
                continue
            findings.append(Finding(
                ev["kind"], path, ev["line"],
                f"{ev['what']} {where}: the per-cycle path must stay "
                f"lock/IO-free"))
        for mc in fn["member_calls"]:
            hit, indirect = recv_class(path, fn, mc["recv"])
            if hit is None:
                continue
            cls = hit[1]
            if mc["method"] not in cls["virtual_methods"]:
                continue
            if mc["op"] == "->" or (mc["op"] == "." and indirect):
                findings.append(Finding(
                    "hot-virtual", path, mc["line"],
                    f"virtual call `{mc['recv']}{mc['op']}"
                    f"{mc['method']}()` through "
                    f"`{cls['qname']}` {where}: devirtualize or keep "
                    f"it off the per-cycle path"))
    return findings
