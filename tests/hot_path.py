#!/usr/bin/env python3
"""Hot-path purity, checked on the compiler's call graph (the
`hot_path` ctest).

Usage: hot_path.py CXX

CXX is GCC's C++ compiler. Every src/*/*.cc is compiled at -O0 with
-fcallgraph-info, and the .ci files it writes are read as one call
graph, its symbols demangled by binutils' c++filt. At -O0 nothing is
inlined, so each call in the source is an edge, with its call site as
file:line.

  Seeds    the functions whose definition starts 1-3 lines below a
           `// lsqlint: hot` comment: the per-cycle entry points
           (Core::tick/run/step/tickStages, the Lsq pipeline
           methods). A template counts once per instantiation.
  Checked  the seeds plus their direct callees: one level down. Calls
           into the cold paths (COLD_STOPS: the callees of LSQ_PANIC,
           LSQ_FATAL, LSQ_WARN, LSQ_ASSERT/LSQ_DCHECK and
           LSQ_TRACE_HOOK) are not followed.
  Findings the calls out of a checked function into

    hot-mutex        a mutex or lock type's functions
    hot-io           stdio (IO_CALLS) or std::basic_ostream output
    hot-virtual      an indirect call (virtual or through a function
                     pointer)
    hot-phase-timer  the host profiler's clock reads (TIMERS)

A finding is dropped when its call site, or the line above it, carries
`// lsqlint: allow(<rule>)` or `// lsqlint: phase(<name>)` (the
declared host-profiler boundaries, whose clock reads the sampling mask
keeps off the common case).

The check fails on any finding, on a `hot` comment that no compiled
function follows, on a COLD_STOPS name the graph lacks and on a graph
without edges. On a tree that passes, it then compiles mutants of
src/lsq/lsq.cc, one per rule, each of which must fail with its rule,
and two annotated variants, each of which must pass.
"""

import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")

COLD_STOPS = ("lsqscale::panicImpl", "lsqscale::fatalImpl",
              "lsqscale::warnImpl", "lsqscale::assertFailImpl",
              "lsqscale::strfmt", "lsqscale::Tracer::record")
IO_CALLS = ("printf", "fprintf", "vfprintf", "snprintf_file", "puts",
            "fputs", "fwrite", "fread", "fopen", "fclose", "fflush",
            "fgets", "fputc", "getline")
MUTEXES = ("mutex", "timed_mutex", "recursive_mutex", "shared_mutex",
           "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
           "condition_variable", "condition_variable_any")
TIMERS = ("hostNowNs", "ScopedHostPhase", "noteSampledCycle")

RULES = (
    ("hot-mutex", re.compile(r"\bstd::(?:%s)\b" % "|".join(MUTEXES))),
    ("hot-io", re.compile(r"(?:^|[\s*&])(?:std::)?(?:%s)$|"
                          r"\bstd::basic_ostream\b" % "|".join(IO_CALLS))),
    ("hot-phase-timer", re.compile(r"\b(?:%s)\b" % "|".join(TIMERS))),
)

ANNOT_RE = re.compile(r"//.*lsqlint\s*:\s*(allow|hot|phase)\b"
                      r"\s*(?:\(([^)]*)\))?")
NODE_RE = re.compile(r'^node: \{ title: "([^"]*)" label: ".*\\n'
                     r'([^"]*):(\d+):\d+"( shape : ellipse)? \}$')
EDGE_RE = re.compile(r'^edge: \{ sourcename: "([^"]*)" targetname: '
                     r'"([^"]*)"(?: label: "([^"]*):\d+")? \}$')
ABI_TAG_RE = re.compile(r"\[abi:\w+\]")
INDIRECT = "__indirect_call"


def name_of(sig):
    """A demangled symbol up to its parameter list: the qualified name,
    after the return type if it is a template's."""
    return sig.replace("operator()", "operator@").split("(", 1)[0]


def compile_graphs(cxx, sources, outdir):
    """Compile each of @p sources (paths relative to ROOT, or absolute)
    in parallel; returns (their .ci paths, errors)."""
    def one(src):
        obj = os.path.join(outdir, src.strip("/").replace("/", "_")
                           .replace(".cc", ".o"))
        proc = subprocess.run(
            [cxx, "-std=c++20", "-O0", "-I", "src", "-fcallgraph-info",
             "-c", src, "-o", obj],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            return None, f"{src}: {cxx} failed:\n{proc.stderr}"
        return obj[:-2] + ".ci", None

    with concurrent.futures.ThreadPoolExecutor(os.cpu_count()) as pool:
        results = list(pool.map(one, sources))
    return ([ci for ci, _ in results if ci],
            [err for _, err in results if err])


class Graph:
    """Merged call graph: where each function is defined, its edges
    and its demangled name (GCC's own labels garble some, such as
    variadic functions')."""

    def __init__(self, ci_paths=()):
        self.defined = {}  # title -> (file, line) of its definition
        self.calls = {}    # title -> [(callee title, "file:line")]; the
                           # compiler's own calls have no call site
        titles = set()
        for path in ci_paths:
            with open(path, encoding="utf-8") as f:
                for line in f:
                    m = EDGE_RE.match(line)
                    if m:
                        src, dst, site = m.groups()
                        self.calls.setdefault(src, []).append(
                            (dst, site or "<no call site>"))
                        titles.update((src, dst))
                        continue
                    m = NODE_RE.match(line)
                    if m:
                        title, path_, line_no, undefined = m.groups()
                        titles.add(title)
                        if not undefined:
                            self.defined[title] = (path_, int(line_no))
        # A title is the symbol, prefixed with "<TU path>:" when local.
        titles = sorted(titles)
        symbols = "\n".join(t.rsplit(":", 1)[-1] for t in titles)
        out = subprocess.run(["c++filt"], input=symbols,
                             capture_output=True, text=True,
                             check=True).stdout.split("\n")
        self.sig = {t: ABI_TAG_RE.sub("", d)
                    for t, d in zip(titles, out)}

    def edges(self):
        return sum(len(v) for v in self.calls.values())


class Annotations:
    """`// lsqlint:` comments of the files the graph names, read on
    demand."""

    def __init__(self):
        self.files = {}

    def of(self, path):
        """(hot comment lines, {line: allowed rules and phases})"""
        if path not in self.files:
            hot, allows = [], {}
            full = os.path.join(ROOT, path)
            if os.path.isfile(full):
                with open(full, encoding="utf-8") as f:
                    for n, text in enumerate(f, 1):
                        m = ANNOT_RE.search(text)
                        if not m:
                            continue
                        kind, arg = m.group(1), m.group(2) or ""
                        if kind == "hot":
                            hot.append(n)
                            continue
                        rules = ({"phase"} if kind == "phase" else
                                 {r.strip() for r in arg.split(",")})
                        for ln in (n, n + 1):
                            allows.setdefault(ln, set()).update(rules)
            self.files[path] = (hot, allows)
        return self.files[path]

    def exempt(self, site, rule):
        path, _, line = site.rpartition(":")
        if not line.isdigit():
            return False
        marks = self.of(path)[1].get(int(line), ())
        return rule in marks or "phase" in marks


def rule_of(title, name):
    if title == INDIRECT:
        return "hot-virtual"
    for rule, pattern in RULES:
        if pattern.search(name):
            return rule
    return None


def check(graph, hot_files, stops=COLD_STOPS):
    """(seed count, findings, errors) for @p graph, whose seeds are
    the functions under `hot` comments in @p hot_files."""
    errors = []
    if graph.edges() == 0:
        errors.append("the call graph has no edges")
    names = {t: name_of(s) for t, s in graph.sig.items()}
    cold = set()
    for stop in stops:
        hits = {t for t, n in names.items()
                if n == stop or n.endswith(" " + stop)}
        if not hits:
            errors.append(f"cold stop {stop} is in no call graph")
        cold |= hits

    notes = Annotations()
    seeds = []
    for path in hot_files:
        for line in notes.of(path)[0]:
            hits = sorted(t for t, (f, ln) in graph.defined.items()
                          if f == path and line < ln <= line + 3)
            if not hits:
                errors.append(f"{path}:{line}: `lsqlint: hot` is "
                              f"above no compiled function")
            seeds += hits

    checked = {s: None for s in seeds}  # title -> calling seed
    for seed in seeds:
        for callee, _ in graph.calls.get(seed, ()):
            if callee not in cold:
                checked.setdefault(callee, seed)

    findings = []
    for fn, seed in sorted(checked.items()):
        where = names[fn]
        if seed:
            where += f" (called from hot {names[seed]})"
        for callee, site in graph.calls.get(fn, ()):
            rule = rule_of(callee, names[callee])
            if rule and not notes.exempt(site, rule):
                findings.append(f"{site}: [{rule}] {graph.sig[callee]} "
                                f"in {where}")
    return len(seeds), sorted(set(findings)), errors


def tree_sources():
    cc = []
    hot = []
    for d in sorted(os.listdir(SRC)):
        full = os.path.join(SRC, d)
        if os.path.isdir(full):
            for f in sorted(os.listdir(full)):
                if f.endswith(".cc"):
                    cc.append(f"src/{d}/{f}")
                if f.endswith((".cc", ".hh")):
                    hot.append(f"src/{d}/{f}")
    return cc, hot


# Mutants of src/lsq/lsq.cc, each MUTANT_PRELUDE + lsq.cc with one
# statement put first in Lsq::commitLoad's body + MUTANT_HELPER:
# (what, the rule it must fail or None if it must pass, the statement).
MUTANT_PRELUDE = """
#include <cstdio>
#include <mutex>
#include "metrics/hostprof.hh"
namespace lsqscale {
struct HotPathMutant { virtual ~HotPathMutant() = default;
                       virtual void poke() = 0; };
extern HotPathMutant *hotPathMutantPtr;
void hotPathMutantHelper();
}
"""
MUTANT_HELPER = """
namespace lsqscale {
std::mutex hotPathMutantLock;
void hotPathMutantHelper()
{
    std::lock_guard<std::mutex> guard(hotPathMutantLock);
}
}
"""
MUTANTS = (
    ("a lock one call below commitLoad", "hot-mutex",
     "hotPathMutantHelper();"),
    ("a virtual call in commitLoad", "hot-virtual",
     "hotPathMutantPtr->poke();"),
    ("std::fputs in commitLoad", "hot-io",
     "std::fputs(\"hot\", stderr);"),
    ("an unannotated clock read in commitLoad", "hot-phase-timer",
     "(void)hostNowNs();"),
    ("a phase(x) clock read in commitLoad", None,
     "(void)hostNowNs(); // lsqlint: phase(x)"),
    ("an allowed virtual call in commitLoad", None,
     "hotPathMutantPtr->poke(); // lsqlint: allow(hot-virtual)"),
)


def mutate(text, stmt):
    lines = text.split("\n")
    at = lines.index("Lsq::commitLoad(SeqNum seq)") + 2
    assert lines[at - 1] == "{", "commitLoad's body moved"
    lines.insert(at, "    " + stmt)
    return MUTANT_PRELUDE + "\n".join(lines) + MUTANT_HELPER


def negative_controls(cxx, graph, ci_paths, hot_files):
    """Failures of the check to flag its mutants, given the tree's
    @p graph, read from @p ci_paths."""
    failures = []
    others = [p for p in ci_paths
              if os.path.basename(p) != "src_lsq_lsq.ci"]
    with open(os.path.join(SRC, "lsq", "lsq.cc"), encoding="utf-8") as f:
        text = f.read()
    with tempfile.TemporaryDirectory(prefix="hot_path-") as tmp:
        paths = []
        for i, (_, _, stmt) in enumerate(MUTANTS):
            path = os.path.join(tmp, f"mutant{i}", "lsq.cc")
            os.makedirs(os.path.dirname(path))
            with open(path, "w", encoding="utf-8") as f:
                f.write(mutate(text, stmt))
            paths.append(path)
        cis, errors = compile_graphs(cxx, paths, tmp)
        if errors:
            return errors
        hot = [f for f in hot_files if f != "src/lsq/lsq.cc"]
        for (what, expect, _), path, ci in zip(MUTANTS, paths, cis):
            _, findings, errs = check(Graph(others + [ci]),
                                      hot + [path])
            own = [f for f in findings if f.startswith(path)
                   and f"[{expect}]" in f]
            if expect is None and not findings and not errs:
                print(f"ok: {what} passes")
            elif expect and own:
                print(f"ok: {what} fails:\n  {own[0]}")
            else:
                failures.append(f"{what} was not "
                                f"{expect or 'clean'}: {findings + errs}")

        # A `hot` comment above no function.
        orphan = os.path.join(tmp, "orphan.hh")
        with open(orphan, "w", encoding="utf-8") as f:
            f.write("// lsqlint: hot\nint hotPathOrphan;\n")
        refusals = (
            ("a hot comment above no function",
             check(graph, hot_files + [orphan])[2], orphan),
            ("a missing cold stop",
             check(graph, hot_files, COLD_STOPS + ("lsqscale::gone",))[2],
             "lsqscale::gone"),
            ("an empty call graph", check(Graph(), hot_files)[2],
             "no edges"))
        for what, errs, needle in refusals:
            hit = [e for e in errs if needle in e]
            if hit:
                print(f"ok: {what} fails:\n  {hit[0]}")
            else:
                failures.append(f"{what} passed")
    return failures


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    cxx = argv[1]
    cc, hot_files = tree_sources()
    with tempfile.TemporaryDirectory(prefix="hot_path-") as tmp:
        ci_paths, errors = compile_graphs(cxx, cc, tmp)
        graph = Graph(ci_paths)
        seeds, findings, check_errors = check(graph, hot_files)
        errors += check_errors + findings
        for e in errors:
            print("FAIL: " + e)
        if errors:
            return 1
        print(f"ok: {seeds} hot seeds, {len(graph.calls)} functions "
              f"with calls, {graph.edges()} edges, no findings")
        failures = negative_controls(cxx, graph, ci_paths, hot_files)
    for f in failures:
        print("FAIL: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
