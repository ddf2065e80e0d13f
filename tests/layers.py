#!/usr/bin/env python3
"""The layer DAG, checked by the compiler (the `layers` ctest).

Usage: layers.py LINK_GRAPH CXX

LINK_GRAPH is the file the root CMakeLists.txt writes at configure
time: one line per library under src/, tab-separated into its name,
its source directory, its SOURCES and its LINK_LIBRARIES, the last two
as `;`-lists exactly as CMake resolved them. CXX is the C++ compiler.

The link graph among the lsqscale_* libraries is the one layer DAG.
This script asserts that:

  1. every src/ directory's .cc files belong to exactly one library,
     which owns the directory's headers too;
  2. the link graph is acyclic (CMake links a cycle of static
     libraries without complaint);
  3. every src/ header in a file's `CXX -MM` dependency set belongs to
     the file's own library or to one it reaches through the graph.

On a tree that passes, it then runs two negative controls, each of
which must fail: a copy of an lsq/ source that includes core/core.hh,
attributed to lsqscale_lsq, and the graph plus an
lsqscale_common -> lsqscale_sim edge.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")


def rel(path):
    """Root-relative form of a path."""
    return os.path.relpath(os.path.realpath(path), ROOT)


def read_graph(path):
    """{library: (root-relative sources, [lsqscale_* link deps])}"""
    graph = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            name, srcdir, sources, links = line.rstrip("\n").split("\t")
            files = {rel(os.path.join(srcdir, s))
                     for s in sources.split(";") if s}
            deps = [d for d in links.split(";")
                    if d.startswith("lsqscale_")]
            graph[name] = (files, deps)
    return graph


def src_files(exts):
    """Root-relative src/<dir>/<file> paths with one of @p exts."""
    out = []
    for d in sorted(os.listdir(SRC)):
        full = os.path.join(SRC, d)
        if os.path.isdir(full):
            out += [f"src/{d}/{f}" for f in sorted(os.listdir(full))
                    if f.endswith(exts)]
    return out


def directory_owners(graph):
    """({src/ directory: library}, errors): check 1."""
    libs_of = {}
    errors = []
    for cc in src_files((".cc",)):
        libs = [lib for lib, (files, _) in graph.items() if cc in files]
        if not libs:
            errors.append(f"{cc} belongs to no library")
        libs_of.setdefault(os.path.dirname(cc), set()).update(libs)
    owner = {}
    for d, libs in sorted(libs_of.items()):
        if len(libs) > 1:
            errors.append(f"{d}/ is split across "
                          + ", ".join(sorted(libs)))
        elif libs:
            owner[d] = libs.pop()
    return owner, errors


def find_cycle(graph):
    """One link cycle as [a, b, ..., a], or None: check 2."""
    state = {}  # library -> "open" while on the DFS path, then "done"
    path = []

    def visit(lib):
        state[lib] = "open"
        path.append(lib)
        for dep in graph.get(lib, ((), ()))[1]:
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep)
                if cycle:
                    return cycle
        path.pop()
        state[lib] = "done"
        return None

    for lib in sorted(graph):
        if lib not in state:
            cycle = visit(lib)
            if cycle:
                return cycle
    return None


def reach(graph, lib):
    """@p lib and every library it links, directly or not."""
    seen = {lib}
    todo = [lib]
    while todo:
        for dep in graph.get(todo.pop(), ((), ()))[1]:
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def include_violations(cxx, graph, owner, files):
    """Check 3 over [(path, library)]: for each file, the first src/
    header it pulls in, by the compiler's account, from each library
    that its own library cannot reach."""
    errors = []
    for path, lib in files:
        proc = subprocess.run(
            [cxx, "-std=c++20", "-MM", "-I", "src", path],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            errors.append(f"{path}: {cxx} -MM failed:\n{proc.stderr}")
            continue
        deps = proc.stdout.replace("\\\n", " ").split(":", 1)[1].split()
        allowed = reach(graph, lib)
        for dep in deps:
            dep = rel(os.path.join(ROOT, dep))
            dep_lib = owner.get(os.path.dirname(dep))
            if dep.startswith("src/") and dep_lib not in allowed:
                allowed.add(dep_lib)  # one report per library
                errors.append(
                    f"{path} ({lib}) includes {dep} "
                    f"({dep_lib or 'no library'}), which {lib} does "
                    f"not link")
    return errors


def check_tree(cxx, graph, owner):
    """Checks 2 and 3 over the tree."""
    cycle = find_cycle(graph)
    if cycle:
        # Every library reaches every other one on a cycle, so check 3
        # would prove nothing.
        return ["link cycle: " + " -> ".join(cycle)]
    files = [(f, owner.get(os.path.dirname(f)))
             for f in src_files((".hh", ".cc"))]
    return include_violations(cxx, graph, owner,
                              [(f, lib) for f, lib in files if lib])


def negative_controls(cxx, graph, owner):
    """Failures of the check to flag its two mutants."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="layers-") as tmp:
        mutant = os.path.join(tmp, "lsq.cc")
        shutil.copy(os.path.join(SRC, "lsq", "lsq.cc"), mutant)
        with open(mutant, "a", encoding="utf-8") as f:
            f.write('\n#include "core/core.hh"\n')
        errors = include_violations(cxx, graph, owner,
                                    [(mutant, "lsqscale_lsq")])
        named = [e for e in errors if mutant in e and
                 "lsqscale_lsq" in e and "lsqscale_core" in e]
        if named:
            print("ok: upward-include mutant fails:\n  " + named[0])
        else:
            failures.append("an lsq/ source including core/core.hh "
                            "was not flagged")

    cyclic = {lib: (files, list(deps))
              for lib, (files, deps) in graph.items()}
    cyclic["lsqscale_common"][1].append("lsqscale_sim")
    cycle = find_cycle(cyclic)
    if cycle:
        print("ok: cycle mutant fails:\n  link cycle: "
              + " -> ".join(cycle))
    else:
        failures.append("the edge lsqscale_common -> lsqscale_sim "
                        "closed no cycle")
    return failures


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    graph = read_graph(argv[1])
    cxx = argv[2]
    owner, errors = directory_owners(graph)
    errors += check_tree(cxx, graph, owner)
    for e in errors:
        print("FAIL: " + e)
    if errors:
        return 1
    print(f"ok: {len(graph)} libraries, acyclic, every include "
          f"reaches its header's library")
    failures = negative_controls(cxx, graph, owner)
    for f in failures:
        print("FAIL: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
