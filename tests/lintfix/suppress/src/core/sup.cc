// Real violations, each silenced by a suppression form the analyzer
// must honor: trailing allow, allow above the line, multi-rule allow
// lists, and stats-buckets site removal. run_fixtures.py also mangles
// these markers in a temp copy to prove the findings come back.

#include <cstdint>
#include <mutex>

namespace lsqscale {

struct StatSetStub
{
    StatSetStub &histogram(const char *name, unsigned buckets);
    void observe(std::uint64_t v);
};

int *
makeArena()
{
    // lsqlint: allow(raw-new) -- fixture: line-above form
    return new int[2];
}

void
report(StatSetStub &stats)
{
    stats.histogram("lintfix.occ", 4).observe(1); // lsqlint: allow(stats-buckets) -- fixture: site drops from comparison
}

void
reportAgain(StatSetStub &stats)
{
    stats.histogram("lintfix.occ", 8).observe(2);
}

// lsqlint: hot
void
warm(std::mutex **slot)
{
    *slot = new std::mutex; // lsqlint: allow(hot-mutex,raw-new) -- fixture: multi-rule list
}

} // namespace lsqscale
