"""Rule registry. Every rule has a stable ID (used in findings, JSON
output and `// lsqlint: allow(<rule>)` suppressions) and a severity.
docs/STATIC_ANALYSIS.md is the human-facing catalog; keep it in sync.
"""

# rule id -> (severity, one-line description)
RULES = {
    # ported PR 1/2/3/5 rules (token-stream reimplementations)
    "raw-new": ("error",
                "ownership goes through containers or make_unique"),
    "narrowing-cast": ("error",
                       "64-bit cycle/seq arithmetic must not narrow"),
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
}
