// Real violations, each silenced by a suppression form the analyzer
// must honor: trailing allow, allow above the line and multi-rule
// allow lists. run_fixtures.py also mangles these markers in a temp
// copy to prove the findings come back.

#include <mutex>

namespace lsqscale {

int *
makeArena()
{
    // lsqlint: allow(raw-new) -- fixture: line-above form
    return new int[2];
}

// lsqlint: hot
void
warm(std::mutex **slot)
{
    *slot = new std::mutex; // lsqlint: allow(hot-mutex,raw-new) -- fixture: multi-rule list
}

} // namespace lsqscale
