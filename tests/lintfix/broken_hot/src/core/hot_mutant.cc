// Hot-path purity mutants: one of everything the hot-* family bans,
// with the lock one call level below the annotated seed to prove the
// "called from hot" attribution works. The first hostNowNs() is an
// unannotated profiler clock read; the second carries a
// `lsqlint: phase(run)` annotation and must NOT fire — that is the
// fixture's negative control for the boundary exemption. Heap
// allocation is counted by tests/alloc_test.cc, not linted here; the
// two `new`s only trip the legacy raw-new rule.

#include <cstdint>
#include <cstdio>
#include <mutex>

namespace lsqscale {

std::uint64_t hostNowNs();

struct Stepper
{
    virtual void step() = 0;
};

int *
refill()
{
    std::mutex mu; // hot-mutex attributed via the caller
    (void)mu;
    return new int[8];
}

// lsqlint: hot
void
tick(Stepper *s)
{
    std::uint64_t t0 = hostNowNs();
    int *scratch = new int[4];
    s->step();
    std::printf("tick\n");
    delete[] scratch;
    refill();
    std::uint64_t t1 = hostNowNs(); // lsqlint: phase(run)
    (void)t0;
    (void)t1;
}

} // namespace lsqscale
