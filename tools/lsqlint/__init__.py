"""lsqlint: token-stream static analysis for the lsqscale simulator.

Replaces the original regex linter with a real (if lightweight) C++
front end: a comment/string-aware token stream, a declaration-level
parser (classes, members, function bodies, enums, include graph), and
a rule framework with per-rule IDs, inline suppressions, JSON output,
per-file mtime caching and a parallel file walk. See
docs/STATIC_ANALYSIS.md for the rule catalog and the annotation
grammar. Run it from the repository root as `python3 -m tools.lsqlint`;
the exit status is the number of findings, capped at 125.
"""

__version__ = "2.0"
