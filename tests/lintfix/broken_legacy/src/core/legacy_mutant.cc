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

void
spawnAndReport()
{
    std::thread worker(makeBuf);
    std::cout << "done\n";
    worker.join();
}

} // namespace lsqscale
