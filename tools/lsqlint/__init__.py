"""lsqlint: token-stream static analysis for the lsqscale simulator.

Replaces the original regex linter: a comment/string-aware token
stream, six single-file rules over it, per-rule IDs, inline
suppressions and JSON output. Hot-path purity and layering are not
here: tests/hot_path.py and tests/layers.py check them with the
compiler. See docs/STATIC_ANALYSIS.md for the rule catalog and the
annotation grammar. Run it from the repository root as
`python3 -m tools.lsqlint`; the exit status is the number of findings,
capped at 125.
"""

__version__ = "2.0"
