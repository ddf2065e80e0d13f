"""Serialization coverage.

ser-member-coverage — a class that defines both saveState and
loadState has opted into the PR 4 checkpoint machinery; every data
member must then appear in *both* bodies, or carry an explicit
`// lsqlint: no-serialize(reason)` annotation. A member mentioned in a
cold LSQ_ASSERT inside the body counts: asserting a structure is empty
at save time is this codebase's way of documenting why it has no bytes
in the stream.

ser-ckpt-sections — every fourcc section constant (the six
lsqscale-ckpt-v2 sections: CORE/STRM/MEM/BP/SSP/LSQ) must be threaded
through both a save-path and a load-path function in its defining
file, and tags must be unique. A section appended but never opened is
exactly the save/load asymmetry that corrupts resumed runs.
"""

from __future__ import annotations

from ..engine import Finding


def _index_functions(db):
    by_qname = {}
    for path, fn in db.functions():
        by_qname.setdefault(fn["qname"], []).append((path, fn))
    return by_qname


def _find_method(by_qname, cls_qname, name, cls_path):
    cands = by_qname.get(cls_qname + "::" + name, [])
    if not cands:
        return None
    for path, fn in cands:
        if path == cls_path:
            return fn
    # out-of-line definition in the matching .cc
    return cands[0][1]


def run(db):
    findings = []
    by_qname = _index_functions(db)

    # ------------------------------------------- member coverage ----
    for path, cls in db.classes():
        save = _find_method(by_qname, cls["qname"], "saveState", path)
        load = _find_method(by_qname, cls["qname"], "loadState", path)
        if save is None or load is None:
            continue
        save_ids = set(save["idents"])
        load_ids = set(load["idents"])
        for m in cls["members"]:
            if m.get("no_serialize"):
                continue
            in_save = m["name"] in save_ids
            in_load = m["name"] in load_ids
            if in_save and in_load:
                continue
            missing = ("saveState and loadState"
                       if not in_save and not in_load else
                       ("saveState" if not in_save else "loadState"))
            findings.append(Finding(
                "ser-member-coverage", path, m["line"],
                f"member `{m['name']}` of `{cls['qname']}` does not "
                f"appear in {missing}: serialize it or annotate "
                f"`// lsqlint: no-serialize(<why>)`"))

    # ------------------------------------------- ckpt sections ------
    for path, facts in db.src():
        defs = facts["fourcc_defs"]
        if not defs:
            continue
        save_fns = [f for f in facts["functions"]
                    if "save" in f["name"].lower()]
        load_fns = [f for f in facts["functions"]
                    if "load" in f["name"].lower()]
        tags = {}
        for d in defs:
            prior = tags.get(d["tag"])
            if prior is not None:
                findings.append(Finding(
                    "ser-ckpt-sections", path, d["line"],
                    f"section tag '{d['tag']}' declared twice "
                    f"({prior} and {d['name']})"))
            tags[d["tag"]] = d["name"]
            in_save = any(d["name"] in f["idents"] for f in save_fns)
            in_load = any(d["name"] in f["idents"] for f in load_fns)
            if not in_save:
                findings.append(Finding(
                    "ser-ckpt-sections", path, d["line"],
                    f"section constant {d['name']} (tag '{d['tag']}')"
                    f" is never referenced by a save-path function"))
            if not in_load:
                findings.append(Finding(
                    "ser-ckpt-sections", path, d["line"],
                    f"section constant {d['name']} (tag '{d['tag']}')"
                    f" is never referenced by a load-path function"))
    return findings
