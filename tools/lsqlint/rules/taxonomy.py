"""Taxonomy consistency.

The checking enum is a contract, not a suggestion: every
CheckErrorKind enumerator needs an emit site in the src/check/ oracle
(tax-check-emit) and a mention in a top-level tests/ file
(tax-check-test). An error kind no test can provoke is a checker path
nobody has ever seen fire.

TraceEvent is checked by running, not parsing: obs_test's
TraceTaxonomy.EveryEventFires requires every event to fire, and the
exhaustive switches in src/obs/ (-Werror=switch-enum) map every event.

Findings anchor at the enumerator's declaration line, so a
`// lsqlint: allow(...)` there can grandfather a value that is being
staged in across PRs.
"""

from __future__ import annotations

from ..engine import Finding


def _enum_members(db, enum_name):
    for path, facts in db.src():
        for e in facts["enums"]:
            if e["name"] == enum_name:
                return path, e["members"]
    return None, []


def _refs(db, enum_name, path_pred):
    out = set()
    for path, facts in db.facts.items():
        if not path_pred(path):
            continue
        out.update(facts.get("file_refs", {}).get(enum_name, {}))
    return out


def run(db):
    findings = []
    ck_path, ck_members = _enum_members(db, "CheckErrorKind")
    if ck_path is not None:
        emitted = _refs(db, "CheckErrorKind",
                        lambda p: (p.startswith("src/check/") and
                                   not p.endswith((".hh", ".hpp"))))
        tested = _refs(db, "CheckErrorKind",
                       lambda p: p.startswith("tests/"))
        for _path, facts in db.tests():
            tested.update(facts.get("all_idents", ()))
        for m in ck_members:
            if m["name"] not in emitted:
                findings.append(Finding(
                    "tax-check-emit", ck_path, m["line"],
                    f"CheckErrorKind::{m['name']} is never emitted by "
                    f"src/check/: the oracle cannot report it"))
            if m["name"] not in tested:
                findings.append(Finding(
                    "tax-check-test", ck_path, m["line"],
                    f"CheckErrorKind::{m['name']} is not mentioned by "
                    f"any tests/ file: no test can provoke or assert "
                    f"this error kind"))
    return findings
