/**
 * @file
 * Unit tests for src/common: Rng, SatCounter, stats, tables, strfmt.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace lsqscale;

// ----------------------------------------------------------- Rng ------

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3u);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng r(0);
    EXPECT_NE(r.next(), 0u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng r(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = r.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
        EXPECT_FALSE(r.chance(-0.5));
        EXPECT_TRUE(r.chance(1.5));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMean)
{
    Rng r(19);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(0.25));
    // Mean of geometric (failures before success) = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricCapRespected)
{
    Rng r(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(r.geometric(0.001, 10), 10u);
    // Degenerate p never loops forever.
    EXPECT_EQ(r.geometric(0.0, 5), 5u);
    EXPECT_EQ(r.geometric(1.0), 0u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(31);
    Rng child = a.split();
    unsigned same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == child.next();
    EXPECT_LT(same, 3u);
}

TEST(Rng, StateRoundTrip)
{
    Rng a(37);
    a.next();
    std::uint64_t s = a.state();
    std::uint64_t v = a.next();
    Rng b(1);
    b.setState(s);
    EXPECT_EQ(b.next(), v);
}

TEST(Rng, MixDecorrelatesAdjacentSeeds)
{
    // The original motivation: nearby PCs as raw seeds must not yield
    // structured early draws. Check the first uniform() of 4-spaced
    // seeds covers the unit interval reasonably.
    int buckets[10] = {0};
    for (std::uint64_t pc = 0x400000; pc < 0x400000 + 4000; pc += 4) {
        Rng r(pc * 0x9e3779b97f4a7c15ULL ^ 0x51ed2701);
        // Skip class/region draws like the generator does.
        r.uniform();
        r.uniform();
        double a = r.uniform();
        ++buckets[static_cast<int>(a * 10)];
    }
    for (int b = 0; b < 10; ++b)
        EXPECT_GT(buckets[b], 30) << "bucket " << b;
}

// ---------------------------------------------------- SatCounter ------

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2);
    EXPECT_TRUE(c.increment());
    EXPECT_TRUE(c.increment());
    EXPECT_TRUE(c.increment());
    EXPECT_FALSE(c.increment());
    EXPECT_EQ(c.value(), 3);
    EXPECT_TRUE(c.saturatedHigh());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 1);
    EXPECT_TRUE(c.decrement());
    EXPECT_FALSE(c.decrement());
    EXPECT_EQ(c.value(), 0);
    EXPECT_TRUE(c.isZero());
}

TEST(SatCounter, ThreeBitRange)
{
    SatCounter c(3);
    for (int i = 0; i < 20; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 7);
    for (int i = 0; i < 20; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0);
}

TEST(SatCounter, TakenThreshold)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.taken());  // 0
    c.increment();
    EXPECT_FALSE(c.taken());  // 1
    c.increment();
    EXPECT_TRUE(c.taken());   // 2
    c.increment();
    EXPECT_TRUE(c.taken());   // 3
}

TEST(SatCounter, SetClamps)
{
    SatCounter c(2);
    c.set(200);
    EXPECT_EQ(c.value(), 3);
    c.set(1);
    EXPECT_EQ(c.value(), 1);
}

TEST(SatCounter, ResetZeroes)
{
    SatCounter c(3, 5);
    c.reset();
    EXPECT_TRUE(c.isZero());
}

// --------------------------------------------------------- Stats ------

TEST(Stats, CounterStartsAtZero)
{
    StatSet s;
    EXPECT_EQ(s.value("nothing"), 0u);
    EXPECT_FALSE(s.hasCounter("nothing"));
}

TEST(Stats, CounterIncrements)
{
    StatSet s;
    s.counter("a").inc();
    s.counter("a").inc(4);
    EXPECT_EQ(s.value("a"), 5u);
    EXPECT_TRUE(s.hasCounter("a"));
}

TEST(Stats, LazyCounterRegistersOnFirstTouch)
{
    // A bound-on-first-touch handle leaves dump() exactly as the
    // string-keyed lookup would: absent until incremented.
    StatSet s;
    LazyCounter c(s, "lazy.count");
    EXPECT_FALSE(s.hasCounter("lazy.count"));
    c.inc(0);
    EXPECT_TRUE(s.hasCounter("lazy.count"));
    c.inc();
    c.inc(2);
    s.counter("lazy.count").inc();
    EXPECT_EQ(s.value("lazy.count"), 4u);
}

TEST(Stats, RatioIsNanOnZeroDenominator)
{
    StatSet s;
    s.counter("num").inc(10);
    // "No data" must not read as a true zero ratio: a never-registered
    // or zero denominator yields NaN so callers are forced to guard.
    EXPECT_TRUE(std::isnan(s.ratio("num", "den")));
    s.counter("den");
    EXPECT_TRUE(std::isnan(s.ratio("num", "den")));
    s.counter("den").inc(4);
    EXPECT_DOUBLE_EQ(s.ratio("num", "den"), 2.5);
}

TEST(Stats, ResetAllClears)
{
    StatSet s;
    s.counter("x").inc(3);
    s.histogram("h").sample(5);
    s.resetAll();
    EXPECT_EQ(s.value("x"), 0u);
    EXPECT_EQ(s.getHistogram("h").samples(), 0u);
}

TEST(Stats, DumpContainsNames)
{
    StatSet s;
    s.counter("alpha").inc(7);
    std::string d = s.dump();
    EXPECT_NE(d.find("alpha 7"), std::string::npos);
}

TEST(Stats, CounterNamesSorted)
{
    StatSet s;
    s.counter("b");
    s.counter("a");
    auto names = s.counterNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
}

TEST(Stats, CounterNamesOrderStableAcrossTouches)
{
    // The order is the sorted name order, independent of registration
    // or increment order — JSON/CSV column layouts depend on this.
    StatSet s;
    s.counter("z.last").inc(1);
    s.counter("a.first");
    s.counter("m.middle").inc(5);
    auto before = s.counterNames();
    s.counter("a.first").inc(100);
    s.counter("z.last").inc(2);
    auto after = s.counterNames();
    EXPECT_EQ(before, after);
    ASSERT_EQ(after.size(), 3u);
    EXPECT_EQ(after[0], "a.first");
    EXPECT_EQ(after[1], "m.middle");
    EXPECT_EQ(after[2], "z.last");
}

TEST(Histogram, MeanOfSamples)
{
    Histogram h(16);
    h.sample(2);
    h.sample(4);
    h.sample(6);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    EXPECT_EQ(h.samples(), 3u);
}

TEST(Histogram, OverflowBucket)
{
    Histogram h(4);
    h.sample(100);
    EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Histogram, FractionSums)
{
    Histogram h(8);
    for (std::uint64_t i = 0; i < 8; ++i)
        h.sample(i);
    double total = 0;
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        total += h.fraction(i);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, WeightedSamples)
{
    Histogram h(8);
    h.sample(2, 3);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, EmptyMeanIsZero)
{
    Histogram h(8);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
}

TEST(Histogram, ValueAtMaxBucketBoundary)
{
    // value == numBuckets - 1 lands IN the last bucket; only values
    // beyond it overflow into it. Both must count, neither must drop.
    Histogram h(4);
    h.sample(3);  // exactly the last bucket index
    h.sample(4);  // first overflowing value
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.samples(), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Histogram, EmptyPercentileIsNan)
{
    Histogram h(8);
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
    EXPECT_TRUE(std::isnan(h.percentile(0.0)));
    EXPECT_TRUE(std::isnan(h.percentile(1.0)));
}

TEST(Histogram, PercentileWalksBuckets)
{
    Histogram h(8);
    for (std::uint64_t v = 0; v < 4; ++v)
        h.sample(v); // one sample each in buckets 0..3
    EXPECT_DOUBLE_EQ(h.percentile(0.25), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 3.0);
    // p=0 means "smallest observed", not bucket 0 unconditionally.
    Histogram top(8);
    top.sample(5);
    EXPECT_DOUBLE_EQ(top.percentile(0.0), 5.0);
}

TEST(Histogram, PercentileOfOverflowedSamples)
{
    Histogram h(4);
    h.sample(100, 10); // all weight in the overflow bucket
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.0);
}

// --------------------------------------------------------- Table ------

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header rule present.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(-0.5, 1), "-0.5");
}

TEST(TextTable, PctFormatting)
{
    EXPECT_EQ(TextTable::pct(0.123), "+12.3%");
    EXPECT_EQ(TextTable::pct(-0.05), "-5.0%");
}

TEST(TextTable, RaggedRowsPadded)
{
    TextTable t;
    t.header({"a", "b", "c"});
    t.row({"x"});
    std::string out = t.render();
    EXPECT_NE(out.find("x"), std::string::npos);
}

TEST(TextTable, SeparatorRendered)
{
    TextTable t;
    t.header({"a"});
    t.row({"1"});
    t.separator();
    t.row({"2"});
    std::string out = t.render();
    // Two rule lines: under the header and the explicit separator.
    auto first = out.find("\n-");
    ASSERT_NE(first, std::string::npos);
    auto second = out.find("\n-", first + 2);
    EXPECT_NE(second, std::string::npos);
}

// -------------------------------------------------------- strfmt ------

TEST(Logging, StrfmtBasics)
{
    EXPECT_EQ(strfmt("x=%d", 42), "x=42");
    EXPECT_EQ(strfmt("%s-%s", "a", "b"), "a-b");
    EXPECT_EQ(strfmt("%.2f", 1.5), "1.50");
}

TEST(Logging, StrfmtEmpty)
{
    EXPECT_EQ(strfmt("%s", ""), "");
}

TEST(Logging, AssertDeathOnFalse)
{
    EXPECT_DEATH({ LSQ_ASSERT(false, "boom %d", 3); }, "boom 3");
}

TEST(Logging, PanicDeath)
{
    EXPECT_DEATH({ LSQ_PANIC("fatal condition %s", "x"); },
                 "fatal condition x");
}

// ----------------------------------------------------------- env ------

#include <chrono>
#include <cstdlib>

#include "common/env.hh"
#include "harness/sweep.hh"

TEST(EnvParse, DigitsOnlyTable)
{
    struct Case
    {
        const char *input;
        bool ok;
        std::uint64_t expect;
    };
    // The strtoull-wrap bug class: every historically-misparsed form
    // is here, pinned to rejection.
    const Case cases[] = {
        {"0", true, 0},
        {"1", true, 1},
        {"42", true, 42},
        {"007", true, 7},
        {"18446744073709551615", true, UINT64_MAX},
        {"", false, 0},
        {"-1", false, 0},                    // strtoull wraps this
        {"+5", false, 0},                    // strtoul accepts this
        {" 5", false, 0},                    // strtoul skips the space
        {"5 ", false, 0},
        {"0x10", false, 0},
        {"12a", false, 0},
        {"a12", false, 0},
        {"1.5", false, 0},
        {"18446744073709551616", false, 0},  // 2^64: overflows
        {"99999999999999999999", false, 0},  // strtoull -> ERANGE+MAX
    };
    for (const Case &c : cases) {
        std::uint64_t out = 123456789;
        EXPECT_EQ(parseDigitsU64(c.input, out), c.ok)
            << "input '" << c.input << "'";
        if (c.ok)
            EXPECT_EQ(out, c.expect) << "input '" << c.input << "'";
        else
            EXPECT_EQ(out, 123456789u)
                << "rejected input '" << c.input
                << "' must leave out untouched";
    }
}

TEST(EnvParse, EnvU64FallbackSemantics)
{
    ::setenv("LSQSCALE_TEST_KNOB", "250", 1);
    EXPECT_EQ(envU64("LSQSCALE_TEST_KNOB", 7), 250u);
    ::setenv("LSQSCALE_TEST_KNOB", "-3", 1);
    EXPECT_EQ(envU64("LSQSCALE_TEST_KNOB", 7), 7u);
    ::setenv("LSQSCALE_TEST_KNOB", "", 1);
    EXPECT_EQ(envU64("LSQSCALE_TEST_KNOB", 7), 7u);
    ::unsetenv("LSQSCALE_TEST_KNOB");
    EXPECT_EQ(envU64("LSQSCALE_TEST_KNOB", 7), 7u);
}

TEST(EnvParse, SweepKnobsRejectGarbage)
{
    // LSQSCALE_JOBS / LSQSCALE_WATCHDOG_MS flow through the same
    // digits-only parser; garbage falls back instead of wrapping.
    ::setenv("LSQSCALE_JOBS", "-1", 1);
    unsigned jobs = resolveJobs(0, 64);
    EXPECT_GE(jobs, 1u);
    EXPECT_LE(jobs, 64u);
    ::setenv("LSQSCALE_JOBS", "3", 1);
    EXPECT_EQ(resolveJobs(0, 64), 3u);
    ::unsetenv("LSQSCALE_JOBS");

    ::setenv("LSQSCALE_WATCHDOG_MS", "-1", 1);
    EXPECT_EQ(resolveWatchdog(std::chrono::milliseconds(1234)).count(),
              1234);
    ::setenv("LSQSCALE_WATCHDOG_MS", "+250", 1);
    EXPECT_EQ(resolveWatchdog(std::chrono::milliseconds(1234)).count(),
              1234);
    ::setenv("LSQSCALE_WATCHDOG_MS", "250", 1);
    EXPECT_EQ(resolveWatchdog(std::chrono::milliseconds(1234)).count(),
              250);
    ::setenv("LSQSCALE_WATCHDOG_MS", "0", 1);
    EXPECT_EQ(resolveWatchdog(std::chrono::milliseconds(1234)).count(),
              0);
    ::unsetenv("LSQSCALE_WATCHDOG_MS");
}
