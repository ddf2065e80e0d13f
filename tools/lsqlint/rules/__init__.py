"""Rule registry. Every rule has a stable ID (used in findings, JSON
output and `// lsqlint: allow(<rule>)` suppressions) and a severity.
docs/STATIC_ANALYSIS.md is the human-facing catalog; keep it in sync.
"""

from . import hotpath, layering, legacy, serialization, taxonomy

# rule id -> (severity, one-line description)
RULES = {
    # ported PR 1/2/3/5 rules (token-stream reimplementations)
    "raw-new": ("error",
                "ownership goes through containers or make_unique"),
    "narrowing-cast": ("error",
                       "64-bit cycle/seq arithmetic must not narrow"),
    "stats-buckets": ("error",
                      "histogram bucket shapes agree across sites"),
    "bare-assert": ("error",
                    "invariants use LSQ_ASSERT/LSQ_DCHECK, not"
                    " assert()"),
    "raw-thread": ("error",
                   "concurrency goes through harness JobPool/Sweep"),
    "stat-dump": ("error",
                  "measurement output goes through StatSet/sinks/obs"),
    "unchecked-syscall": ("error",
                          "crash-isolation syscall results are"
                          " checked"),
    # serialization coverage
    "ser-member-coverage": ("error",
                            "every member of a saveState/loadState"
                            " class round-trips or is annotated"),
    "ser-ckpt-sections": ("error",
                          "checkpoint section constants thread both"
                          " save and load paths"),
    # hot-path purity
    "hot-mutex": ("error", "no locks on the hot path"),
    "hot-virtual": ("error",
                    "no virtual dispatch through pointers on the hot"
                    " path"),
    "hot-io": ("error",
               "no I/O on the hot path outside LSQ_TRACE_HOOK/cold"
               " macros"),
    "hot-phase-timer": ("error",
                        "profiler clock reads on the hot path sit at"
                        " lsqlint: phase() annotated boundaries"),
    # include-DAG layering
    "layer-upward-include": ("error",
                             "includes follow the subsystem DAG"
                             " downward"),
    "layer-cycle": ("error", "the include graph is acyclic"),
    "layer-bad-rehome": ("error",
                         "lsqlint: layer() claims are valid at the"
                         " claimed layer"),
    # taxonomy consistency
    "tax-trace-hook": ("error",
                       "every TraceEvent has a LSQ_TRACE_HOOK site"),
    "tax-trace-analyzer": ("error",
                           "every TraceEvent is mapped by the obs"
                           " analyzers"),
    "tax-check-emit": ("error",
                       "every CheckErrorKind is emitted by the"
                       " checker"),
    "tax-check-test": ("error",
                       "every CheckErrorKind is exercised by a test"),
}

RUNNERS = [
    legacy.run,
    serialization.run,
    hotpath.run,
    layering.run,
    taxonomy.run,
]
