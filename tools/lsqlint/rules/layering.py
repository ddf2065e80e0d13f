"""Include-DAG layering.

The subsystem DAG (DESIGN.md):

    common                                  layer 0
    lsq core memory predictor workload      layer 1
    metrics                                 layer 1
    sim                                     layer 2
    check obs sample                        layer 3
    harness inject mcm                      layer 4

metrics sits at layer 1 (it includes only common): the host profiler
is read from core's sampled tick, so it must live at-or-below core,
and everything above (sim, harness) reaches it transitively.

A file may include same-or-lower layers only (same-layer
cross-subsystem includes are allowed; that is what lets lsq read
predictor headers). Interface headers that are deliberately *below*
their directory — trace.hh is an obs header but is included from
layer-1 lsq code — carry a `// lsqlint: layer(<subsystem>)` claim.
The claim is validated, not trusted: every include of the claiming
file must itself be legal at the claimed layer (layer-bad-rehome
otherwise).

layer-cycle reports strongly-connected components of the file-level
include graph; header guards hide cycles from the compiler until the
day they deadlock a refactor, so the graph itself must stay acyclic.
"""

from __future__ import annotations

from ..engine import Finding

LAYERS = {
    "common": 0,
    "lsq": 1, "core": 1, "memory": 1, "predictor": 1, "workload": 1,
    "metrics": 1,
    "sim": 2,
    "check": 3, "obs": 3, "sample": 3,
    "harness": 4, "inject": 4, "mcm": 4,
}


def _subsystem(path):
    parts = path.split("/")
    if len(parts) >= 3 and parts[0] == "src" and parts[1] in LAYERS:
        return parts[1]
    return None


def run(db):
    findings = []

    # Effective (subsystem, layer) per src file, after valid rehomes.
    effective = {}
    claims = {}
    for path, facts in db.src():
        sub = _subsystem(path)
        if sub is None:
            continue
        claim = facts.get("layer_claim")
        if claim:
            name, line = claim[0], claim[1]
            if name not in LAYERS:
                findings.append(Finding(
                    "layer-bad-rehome", path, line,
                    f"lsqlint: layer({name}) names an unknown "
                    f"subsystem (known: "
                    + ", ".join(sorted(LAYERS)) + ")"))
            else:
                claims[path] = (name, line)
                effective[path] = (name, LAYERS[name])
                continue
        effective[path] = (sub, LAYERS[sub])

    def resolve(target):
        cand = "src/" + target
        return cand if cand in effective else None

    edges = {}  # path -> [(target-path, line, target-as-written)]
    for path, facts in db.src():
        if path not in effective:
            continue
        out = []
        for inc in facts["includes"]:
            if not inc["quoted"]:
                continue
            tgt = resolve(inc["target"])
            if tgt is not None:
                out.append((tgt, inc["line"], inc["target"]))
        edges[path] = out

    # ------------------------------------------ upward includes ----
    for path, out in sorted(edges.items()):
        my_sub, my_layer = effective[path]
        claimed = path in claims
        for tgt, line, written in out:
            tgt_sub, tgt_layer = effective[tgt]
            if tgt_layer <= my_layer:
                continue
            if claimed:
                cname, cline = claims[path]
                findings.append(Finding(
                    "layer-bad-rehome", path, cline,
                    f"layer({cname}) claim is invalid: this file "
                    f"includes \"{written}\" ({tgt_sub}, layer "
                    f"{tgt_layer}), which is above the claimed layer "
                    f"{my_layer}"))
            else:
                findings.append(Finding(
                    "layer-upward-include", path, line,
                    f"{my_sub} (layer {my_layer}) must not include "
                    f"\"{written}\" ({tgt_sub}, layer {tgt_layer}): "
                    f"includes point down the DAG "
                    f"common<-{{lsq,core,memory,predictor,workload}}"
                    f"<-sim<-{{check,obs,sample}}"
                    f"<-{{harness,inject,mcm}}"))

    # ---------------------------------------------- cycles ---------
    # Tarjan SCC over the file graph; any SCC of size > 1 (or a
    # self-loop) is a cycle.
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(v):
        work = [(v, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            succs = [t for t, _, _ in edges.get(node, ())]
            while pi < len(succs):
                w = succs[pi]
                pi += 1
                if w not in index:
                    work[-1] = (node, pi)
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if recurse:
                continue
            if pi >= len(succs):
                if low[node] == index[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    sccs.append(scc)
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

    for v in sorted(edges):
        if v not in index:
            strongconnect(v)

    for scc in sccs:
        self_loop = (len(scc) == 1 and
                     any(t == scc[0]
                         for t, _, _ in edges.get(scc[0], ())))
        if len(scc) > 1 or self_loop:
            members = sorted(scc)
            findings.append(Finding(
                "layer-cycle", members[0], 1,
                "include cycle: " + " -> ".join(members)
                + " -> " + members[0]))
    return findings
