// One of every ported PR 1/2/3/5 rule, as real token patterns (not
// comment/string decoys — those live in the clean fixture and must
// stay silent).

#include <cassert>
#include <cstdint>
#include <iostream>
#include <thread>

namespace lsqscale {

int *
makeBuf()
{
    assert(sizeof(int) == 4);
    return new int[4];
}

unsigned
narrow(std::uint64_t cycle)
{
    return static_cast<unsigned>(cycle + 1);
}

struct StatSetStub
{
    StatSetStub &histogram(const char *name, unsigned buckets);
    void observe(std::uint64_t v);
};

void
spawnAndReport(StatSetStub &stats)
{
    std::thread worker(makeBuf);
    std::cout << "done\n";
    stats.histogram("lintfix.lat", 8).observe(1);
    worker.join();
}

void
reportAgain(StatSetStub &stats)
{
    stats.histogram("lintfix.lat", 16).observe(2);
}

} // namespace lsqscale
