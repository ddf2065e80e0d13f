// Real violations, each silenced by a suppression form the analyzer
// must honor: trailing allow, allow above the line and multi-rule
// allow lists. run_fixtures.py also mangles these markers in a temp
// copy to prove the findings come back.

namespace lsqscale {

int *
makeArena()
{
    // lsqlint: allow(raw-new) -- fixture: line-above form
    return new int[2];
}

void
warm(int **slot)
{
    *slot = new int; // lsqlint: allow(bare-assert,raw-new) -- fixture: multi-rule list
}

} // namespace lsqscale
