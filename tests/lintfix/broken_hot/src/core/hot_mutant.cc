// Hot-path purity mutants: one of everything the hot-* family bans,
// plus an allocation one call level below the annotated seed to prove
// the "called from hot" attribution works. The first hostNowNs() is an
// unannotated profiler clock read; the second carries a
// `lsqlint: phase(run)` annotation and must NOT fire — that is the
// fixture's negative control for the boundary exemption.

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace lsqscale {

std::uint64_t hostNowNs();

struct Stepper
{
    virtual void step() = 0;
};

int *
refill()
{
    return new int[8]; // hot-alloc attributed via the caller, raw-new
}

// lsqlint: hot
void
tick(Stepper *s)
{
    std::uint64_t t0 = hostNowNs();
    int *scratch = new int[4];
    std::string label("tick");
    std::mutex mu;
    s->step();
    std::printf("%s\n", label.c_str());
    (void)mu;
    delete[] scratch;
    refill();
    std::uint64_t t1 = hostNowNs(); // lsqlint: phase(run)
    (void)t0;
    (void)t1;
}

} // namespace lsqscale
