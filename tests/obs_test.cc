/**
 * @file
 * Tests for the observability subsystem (src/obs/): the event-trace
 * ring and binary format, --trace-events parsing, Konata/O3PipeView
 * round trips, stall attribution, interval-stats sampling, and — the
 * load-bearing contract — that instrumented runs stay bit-identical
 * to plain ones, serially and under the parallel sweep.
 *
 * Everything here runs in every build flavor: the hook sites are
 * compiled into every build, so event production is tested end to
 * end, down to a run set that fires every TraceEvent.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/interval.hh"
#include "harness/sink.hh"
#include "harness/sweep.hh"
#include "obs/analyzer.hh"
#include "obs/konata.hh"
#include "obs/trace.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "workload/op_class.hh"

namespace lsqscale {
namespace {

std::string
tempPath(const std::string &name)
{
    std::string p = ::testing::TempDir() + "lsqscale_obs_" + name;
    std::remove(p.c_str());
    return p;
}

TraceRecord
rec(TraceEvent ev, Cycle cycle, SeqNum seq, std::uint64_t payload = 0,
    std::uint8_t a = 0, std::uint16_t b = 0)
{
    TraceRecord r;
    r.cycle = cycle;
    r.seq = seq;
    r.payload = payload;
    r.event = static_cast<std::uint8_t>(ev);
    r.a = a;
    r.b = b;
    return r;
}

/** Fast design point shared by the end-to-end tests. */
SimConfig
tinyConfig(const std::string &bench = "bzip")
{
    SimConfig cfg = configs::base(bench);
    cfg.instructions = 2000;
    cfg.warmup = 200;
    return cfg;
}

/** Balanced braces/brackets outside strings (harness_test idiom). */
bool
jsonBalanced(const std::string &doc)
{
    int depth = 0;
    bool inString = false;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        char ch = doc[i];
        if (inString) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                inString = false;
            continue;
        }
        if (ch == '"')
            inString = true;
        else if (ch == '{' || ch == '[')
            ++depth;
        else if (ch == '}' || ch == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !inString;
}

// ----------------------------------------------------- TraceRing ------

TEST(TraceRing, FillsThenWrapsOverwritingOldest)
{
    TraceRing ring(4);
    EXPECT_TRUE(ring.empty());
    for (SeqNum s = 0; s < 10; ++s)
        ring.push(rec(TraceEvent::Fetch, s, s));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.wrapped(), 6u);
    // Oldest-first: the survivors are seqs 6..9.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(ring.at(i).seq, 6u + i);
    auto drained = ring.drain();
    ASSERT_EQ(drained.size(), 4u);
    EXPECT_EQ(drained.front().seq, 6u);
    EXPECT_EQ(drained.back().seq, 9u);
}

TEST(TraceRing, ClearKeepsWrapCount)
{
    TraceRing ring(2);
    ring.push(rec(TraceEvent::Fetch, 0, 0));
    ring.push(rec(TraceEvent::Fetch, 1, 1));
    ring.push(rec(TraceEvent::Fetch, 2, 2));
    EXPECT_EQ(ring.wrapped(), 1u);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.wrapped(), 1u);
    ring.push(rec(TraceEvent::Issue, 3, 3));
    EXPECT_EQ(ring.at(0).seq, 3u);
}

// ----------------------------------------------- parseTraceEvents -----

TEST(TraceEvents, ParsesNamesAndCategories)
{
    std::uint32_t mask = 0;
    std::string err;
    ASSERT_TRUE(parseTraceEvents("fetch,retire", mask, err)) << err;
    EXPECT_EQ(mask, traceEventBit(TraceEvent::Fetch) |
                        traceEventBit(TraceEvent::Retire));

    ASSERT_TRUE(parseTraceEvents("pipe", mask, err));
    EXPECT_TRUE(mask & traceEventBit(TraceEvent::Dispatch));
    EXPECT_FALSE(mask & traceEventBit(TraceEvent::SqSearch));

    ASSERT_TRUE(parseTraceEvents("all", mask, err));
    EXPECT_EQ(mask, kTraceAllEvents);

    ASSERT_TRUE(parseTraceEvents("pred,squash.violation", mask, err));
    EXPECT_TRUE(mask & traceEventBit(TraceEvent::PredWaitCycle));
    EXPECT_TRUE(mask & traceEventBit(TraceEvent::ViolationSquash));
}

TEST(TraceEvents, RejectsUnknownTokenAndEmptyList)
{
    std::uint32_t mask = 0;
    std::string err;
    EXPECT_FALSE(parseTraceEvents("fetch,bogus", mask, err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    EXPECT_FALSE(parseTraceEvents("", mask, err));
    EXPECT_FALSE(parseTraceEvents(",,", mask, err));
}

TEST(TraceEvents, EveryEventHasAParsableName)
{
    for (unsigned i = 0; i < kNumTraceEvents; ++i) {
        TraceEvent ev = static_cast<TraceEvent>(i);
        std::uint32_t mask = 0;
        std::string err;
        ASSERT_TRUE(parseTraceEvents(traceEventName(ev), mask, err))
            << traceEventName(ev) << ": " << err;
        EXPECT_EQ(mask, traceEventBit(ev));
    }
}

// -------------------------------------------------------- Tracer ------

TEST(Tracer, MaskFiltersRecords)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.eventMask = traceEventBit(TraceEvent::Retire);
    Tracer t(cfg);
    t.record(TraceEvent::Fetch, 1, 10);
    t.record(TraceEvent::Retire, 5, 10);
    t.record(TraceEvent::Issue, 3, 10);
    EXPECT_EQ(t.recorded(), 1u);
    auto recs = t.collect();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].ev(), TraceEvent::Retire);
    EXPECT_EQ(recs[0].cycle, 5u);
}

TEST(Tracer, BinaryFileRoundTripAcrossRingDrains)
{
    std::string path = tempPath("roundtrip.evtrace");
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.ringCapacity = 8; // force many mid-run drains
    cfg.binaryPath = path;
    {
        Tracer t(cfg);
        for (SeqNum s = 0; s < 100; ++s)
            t.record(TraceEvent::Dispatch, 2 * s, s, 0x1000 + s, 1, 3);
        t.finish();
    }
    auto recs = readTraceFile(path);
    ASSERT_EQ(recs.size(), 100u);
    for (SeqNum s = 0; s < 100; ++s) {
        EXPECT_EQ(recs[s].seq, s);
        EXPECT_EQ(recs[s].cycle, 2 * s);
        EXPECT_EQ(recs[s].payload, 0x1000 + s);
        EXPECT_EQ(recs[s].ev(), TraceEvent::Dispatch);
        EXPECT_EQ(recs[s].b, 3u);
    }
    std::remove(path.c_str());
}

TEST(Tracer, CollectPrefersCompleteFileOverWrappedRing)
{
    std::string path = tempPath("collect.evtrace");
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.ringCapacity = 4;
    cfg.binaryPath = path;
    Tracer t(cfg);
    for (SeqNum s = 0; s < 20; ++s)
        t.record(TraceEvent::Issue, s, s);
    // The ring only holds 4 records, but the file has the full stream.
    auto recs = t.collect();
    EXPECT_EQ(recs.size(), 20u);
    std::remove(path.c_str());
}

TEST(Tracer, RecordToStringNamesTheEvent)
{
    std::string s =
        traceRecordToString(rec(TraceEvent::SqSearch, 7, 42, 0xbeef, 1, 4));
    EXPECT_NE(s.find("sq.search"), std::string::npos);
    EXPECT_NE(s.find("seq=42"), std::string::npos);
}

// -------------------------------------------------------- Konata ------

std::vector<TraceRecord>
twoInstLifecycleTrace()
{
    return {
        rec(TraceEvent::Fetch, 1, 100, 0x400000, 0 /* IntAlu */),
        rec(TraceEvent::Fetch, 1, 101, 0x400004, 6 /* Store */),
        rec(TraceEvent::Dispatch, 3, 100, 0x400000),
        rec(TraceEvent::Dispatch, 3, 101, 0x400004),
        rec(TraceEvent::Issue, 5, 100),
        rec(TraceEvent::Issue, 6, 101),
        rec(TraceEvent::Complete, 6, 100),
        rec(TraceEvent::Complete, 8, 101),
        rec(TraceEvent::Retire, 9, 100, 0, 0),
        rec(TraceEvent::Retire, 10, 101, 0, 1),
    };
}

/** Every field of each lifecycle, comparable and printable as one. */
auto
fields(const std::vector<InstLifecycle> &insts)
{
    std::vector<std::tuple<SeqNum, Pc, unsigned, bool, Cycle, Cycle,
                           Cycle, Cycle, Cycle>>
        out;
    for (const InstLifecycle &i : insts)
        out.emplace_back(i.seq, i.pc, i.opclass, i.isStore, i.fetch,
                         i.dispatch, i.issue, i.complete, i.retire);
    return out;
}

TEST(Konata, ReconstructsRetiredLifecycles)
{
    auto insts = reconstructLifecycles(twoInstLifecycleTrace());
    ASSERT_EQ(insts.size(), 2u);
    EXPECT_EQ(insts[0].seq, 100u);
    EXPECT_EQ(insts[0].fetch, 1u);
    EXPECT_EQ(insts[0].dispatch, 3u);
    EXPECT_EQ(insts[0].issue, 5u);
    EXPECT_EQ(insts[0].complete, 6u);
    EXPECT_EQ(insts[0].retire, 9u);
    EXPECT_FALSE(insts[0].isStore);
    EXPECT_TRUE(insts[1].isStore);
    EXPECT_EQ(insts[1].pc, 0x400004u);
}

TEST(Konata, SquashedInstructionsAreOmitted)
{
    std::vector<TraceRecord> records = {
        rec(TraceEvent::Fetch, 1, 7, 0x1000, 0),
        rec(TraceEvent::Dispatch, 2, 7),
        rec(TraceEvent::Issue, 3, 7),
        // seq 7 squashed and re-fetched: the first incarnation dies.
        rec(TraceEvent::Fetch, 10, 7, 0x1000, 0),
        rec(TraceEvent::Dispatch, 11, 7),
        rec(TraceEvent::Retire, 15, 7),
        // seq 8 never retires (still in flight / squashed).
        rec(TraceEvent::Fetch, 1, 8, 0x1004, 0),
    };
    auto insts = reconstructLifecycles(records);
    ASSERT_EQ(insts.size(), 1u);
    EXPECT_EQ(insts[0].fetch, 10u);
    // The pre-squash issue at cycle 3 must not leak into the replay.
    EXPECT_EQ(insts[0].issue, kNoCycle);
}

TEST(Konata, O3PipeViewRoundTrip)
{
    auto insts = reconstructLifecycles(twoInstLifecycleTrace());
    std::string text = exportO3PipeView(insts);
    EXPECT_NE(text.find("O3PipeView:fetch:"), std::string::npos);
    EXPECT_NE(text.find("O3PipeView:retire:"), std::string::npos);

    std::vector<InstLifecycle> parsed;
    std::string err;
    ASSERT_TRUE(parseO3PipeView(text, parsed, err)) << err;
    EXPECT_EQ(fields(parsed), fields(insts));
}

TEST(Konata, ParserRejectsTruncatedInput)
{
    auto insts = reconstructLifecycles(twoInstLifecycleTrace());
    std::string text = exportO3PipeView(insts);
    // Cut the document mid-instruction.
    std::string truncated = text.substr(0, text.rfind("O3PipeView"));
    std::vector<InstLifecycle> parsed;
    std::string err;
    EXPECT_FALSE(parseO3PipeView(truncated, parsed, err));
    EXPECT_FALSE(err.empty());
}

/**
 * Parse the two-instruction export with the first occurrence of
 * @p from replaced by @p to.
 */
bool
parsesWith(const std::string &from, const std::string &to,
           std::string &err)
{
    std::string text =
        exportO3PipeView(reconstructLifecycles(twoInstLifecycleTrace()));
    std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    std::vector<InstLifecycle> parsed;
    return parseO3PipeView(text, parsed, err);
}

TEST(Konata, ParserRejectsSignsSpacesAndTrailingBytes)
{
    // strtoull accepted all of these ("-1000" wrapped to 2^64-1000).
    const std::vector<std::string> bad = {"-1000", "+1000", " 1000",
                                          std::string("1000\0", 5)};
    for (const std::string &tick : bad) {
        std::string err;
        EXPECT_FALSE(parsesWith("fetch:1000:", "fetch:" + tick + ":", err))
            << tick;
        EXPECT_FALSE(err.empty());
    }
    std::string err;
    EXPECT_FALSE(parsesWith(":100:", ":-100:", err));        // seq
    EXPECT_FALSE(parsesWith("0x400000", "0x-400000", err));  // pc
    EXPECT_FALSE(parsesWith("0x400000", "0x 400000", err));
    EXPECT_FALSE(parsesWith("0x400000", "0x10000000000000000", err));
}

TEST(Konata, ParserRejectsTicksBetweenCycles)
{
    // The exporter writes (cycle + 1) * kTicksPerCycle. A tick below
    // one cycle used to read as "stage never happened", so a retire
    // line at tick 250 or 0 yielded a lifecycle that had not retired.
    std::string err;
    EXPECT_FALSE(parsesWith("issue:3000", "issue:3250", err));
    EXPECT_FALSE(parsesWith("retire:5000", "retire:250", err));
    EXPECT_FALSE(parsesWith("retire:5000", "retire:0", err));
    EXPECT_FALSE(err.empty());
}

TEST(Konata, ParserRequiresTheStoreField)
{
    // A missing or garbled store field used to read as "not a store".
    std::string err;
    EXPECT_FALSE(parsesWith("5000:store:0", "5000", err));
    EXPECT_FALSE(parsesWith("5000:store:0", "5000:store:x", err));
    EXPECT_FALSE(parsesWith("5000:store:0", "5000:load:0", err));
    EXPECT_FALSE(err.empty());
}

/** The first @p n retired lifecycles of a real traced run, exported. */
std::string
realO3PipeView(std::size_t n)
{
    std::string path = tempPath("konata_src.evtrace");
    SimConfig cfg = tinyConfig();
    cfg.trace.enabled = true;
    cfg.trace.binaryPath = path;
    Simulator(cfg).run();
    std::vector<InstLifecycle> insts =
        reconstructLifecycles(readTraceFile(path));
    std::remove(path.c_str());
    insts.resize(std::min(insts.size(), n));
    return exportO3PipeView(insts);
}

TEST(Konata, MutatedTextParsesOrFailsWithError)
{
    // The parser reads text from outside the process, so every mutant
    // of a real export must parse or fail with a message: never crash,
    // throw or trip a sanitizer. A mutant it accepts must survive
    // export(parse(.)) unchanged, or the parser accepted a line it
    // could not represent. Forged numeric fields that are not plain
    // numbers must be rejected.
    const std::string text = realO3PipeView(20);
    ASSERT_NE(text.find("store:"), std::string::npos);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    auto check = [&](const std::string &mutant, const char *what,
                     std::size_t k) {
        std::vector<InstLifecycle> parsed;
        std::string err;
        bool ok = false;
        try {
            ok = parseO3PipeView(mutant, parsed, err);
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << " " << k << " threw " << e.what();
            return false;
        }
        if (!ok) {
            EXPECT_FALSE(err.empty()) << what << " " << k;
            ++rejected;
            return false;
        }
        ++accepted;
        std::vector<InstLifecycle> again;
        EXPECT_TRUE(parseO3PipeView(exportO3PipeView(parsed), again, err))
            << what << " " << k << ": " << err;
        EXPECT_TRUE(fields(again) == fields(parsed)) << what << " " << k;
        return true;
    };

    EXPECT_TRUE(check(text, "original", 0));

    // Truncation at every line boundary, before and after the newline.
    for (std::size_t nl = text.find('\n'); nl != std::string::npos;
         nl = text.find('\n', nl + 1)) {
        check(text.substr(0, nl), "cut before newline", nl);
        check(text.substr(0, nl + 1), "cut after newline", nl);
    }

    // Every tick, seq and store-tick field forged to numbers the
    // exporter never writes (accepted or rejected) and to non-numbers
    // (always rejected).
    const std::vector<std::string> nonNumbers = {
        "", "abc", "-1", "-500", "+500", " 500", "500 ", "0x1f4", "5e2",
        "18446744073709551616", std::string("500\0", 4)};
    std::size_t lineStart = 0;
    for (std::size_t line = 0; lineStart < text.size(); ++line) {
        std::size_t lineEnd = text.find('\n', lineStart);
        std::vector<std::size_t> colons;
        for (std::size_t c = text.find(':', lineStart); c < lineEnd;
             c = text.find(':', c + 1))
            colons.push_back(c);
        colons.push_back(lineEnd);
        bool fetch = text.compare(lineStart, 16, "O3PipeView:fetch") == 0;
        bool retire =
            text.compare(lineStart, 17, "O3PipeView:retire") == 0;
        std::vector<std::size_t> numeric = {2};
        if (fetch)
            numeric.push_back(5);
        if (retire)
            numeric.push_back(4);
        for (std::size_t field : numeric) {
            std::size_t from = colons[field - 1] + 1;
            std::size_t len = colons[field] - from;
            for (const char *odd : {"0", "250", "18446744073709551615"}) {
                std::string forged = text;
                forged.replace(from, len, odd);
                check(forged, "odd number on line", line);
            }
            for (const std::string &bad : nonNumbers) {
                std::string forged = text;
                forged.replace(from, len, bad);
                EXPECT_FALSE(check(forged, "non-number field on line",
                                   line))
                    << "field " << field << " = '" << bad << "'";
            }
        }
        lineStart = lineEnd + 1;
    }

    // Fixed-seed byte flips: single bit flips and random bytes.
    Rng rng(19);
    for (std::size_t k = 0; k < 2000; ++k) {
        std::string m = text;
        for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) {
            char &b = m[rng.below(m.size())];
            if (k % 2 == 0)
                b = static_cast<char>(b ^ (1u << rng.below(8)));
            else
                b = static_cast<char>(rng.below(256));
        }
        check(m, "byte flip", k);
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

// -------------------------------------------- event-trace reader -----

/** Run @p bytes through readTraceStream, as if read from a file. */
bool
readTraceBytes(const std::string &bytes, std::vector<TraceRecord> &out,
               std::string &err)
{
    std::FILE *f = std::tmpfile();
    if (f == nullptr) {
        ADD_FAILURE() << "tmpfile failed";
        return false;
    }
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::rewind(f);
    bool ok = readTraceStream(f, out, err);
    std::fclose(f);
    return ok;
}

/** The whole binary trace of a short real run, header included. */
std::string
realTraceBytes()
{
    std::string path = tempPath("mutant_src.evtrace");
    SimConfig cfg = tinyConfig();
    cfg.instructions = 40;
    cfg.warmup = 0;
    cfg.trace.enabled = true;
    cfg.trace.binaryPath = path;
    Simulator(cfg).run();
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return bytes;
}

TEST(TraceFile, TruncatedBodyIsFatal)
{
    std::string path = tempPath("truncated.evtrace");
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.binaryPath = path;
    {
        Tracer t(cfg);
        for (SeqNum s = 0; s < 4; ++s)
            t.record(TraceEvent::Issue, s, s);
        t.finish();
    }
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() - 5));
    }
    EXPECT_EXIT(readTraceFile(path), ::testing::ExitedWithCode(1),
                "corrupt trace: .*record 3 truncated \\(27 of 32 bytes\\)");
    std::remove(path.c_str());
}

TEST(TraceFile, MutatedBytesAreRejectedOrRendered)
{
    // The reader takes files from outside the process (lsqtrace), so
    // every mutant of a real trace must be rejected with a message or
    // read, and whatever it reads must go through every consumer
    // (lsqtrace stalls, konata and dump) without a crash or a
    // sanitizer report.
    const std::string text = realTraceBytes();
    std::vector<TraceRecord> original;
    std::string err;
    ASSERT_TRUE(readTraceBytes(text, original, err)) << err;
    constexpr std::size_t kRec = sizeof(TraceRecord);
    const std::size_t header = text.size() - original.size() * kRec;
    ASSERT_EQ(header, 24u);
    ASSERT_GT(original.size(), 100u);
    ASSERT_FALSE(reconstructLifecycles(original).empty());

    std::size_t accepted = 0;
    std::size_t rejected = 0;
    auto check = [&](const std::string &mutant, const char *what,
                     std::size_t k) {
        std::vector<TraceRecord> recs;
        std::string why;
        if (!readTraceBytes(mutant, recs, why)) {
            EXPECT_FALSE(why.empty()) << what << " " << k;
            ++rejected;
            return false;
        }
        ++accepted;
        EXPECT_EQ(recs.size() * kRec + header, mutant.size())
            << what << " " << k;
        StallAttribution att = attributeStalls(recs);
        EXPECT_LE(att.retired, recs.size()) << what << " " << k;
        EXPECT_FALSE(renderStallTable(att).empty());
        std::vector<InstLifecycle> insts = reconstructLifecycles(recs);
        EXPECT_LE(insts.size(), recs.size()) << what << " " << k;
        exportO3PipeView(insts);
        for (const TraceRecord &r : recs)
            EXPECT_FALSE(traceRecordToString(r).empty());
        return true;
    };

    EXPECT_TRUE(check(text, "original", 0));

    // Truncation inside the header, at every record boundary (a
    // shorter valid trace) and inside every record (rejected).
    for (std::size_t cut = 0; cut < header; ++cut)
        EXPECT_FALSE(check(text.substr(0, cut), "cut in header", cut));
    for (std::size_t n = 0; n <= original.size(); ++n) {
        std::size_t at = header + n * kRec;
        EXPECT_TRUE(check(text.substr(0, at), "cut at record", n));
        if (n == original.size())
            break;
        for (std::size_t in : {std::size_t{1}, kRec / 2, kRec - 1})
            EXPECT_FALSE(
                check(text.substr(0, at + in), "cut inside record", n));
    }

    // The event, a and b fields of every record forged to values the
    // writer never produces: the record still reads and renders.
    for (std::size_t n = 0; n < original.size(); ++n) {
        std::size_t at = header + n * kRec;
        auto forge = [&](std::size_t offset, const void *v,
                         std::size_t len, const char *what) {
            std::string forged = text;
            std::memcpy(forged.data() + at + offset, v, len);
            EXPECT_TRUE(check(forged, what, n));
        };
        for (std::uint8_t ev :
             {std::uint8_t{kNumTraceEvents}, std::uint8_t{0x80},
              std::uint8_t{0xff}}) {
            forge(offsetof(TraceRecord, event), &ev, 1, "forged event");
            TraceRecord r = original[n];
            r.event = ev;
            EXPECT_NE(traceRecordToString(r).find(" ? "),
                      std::string::npos);
        }
        for (std::uint8_t a : {std::uint8_t{kNumOpClasses},
                               std::uint8_t{0xff}})
            forge(offsetof(TraceRecord, a), &a, 1, "forged a");
        for (std::uint16_t b : {std::uint16_t{0}, std::uint16_t{0xffff}})
            forge(offsetof(TraceRecord, b), &b, 2, "forged b");
    }

    // Fixed-seed byte flips: single bit flips and random bytes. A flip
    // in the magic, version or record size rejects the file; anywhere
    // else the trace reads.
    Rng rng(24);
    for (std::size_t k = 0; k < 2000; ++k) {
        std::string m = text;
        for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) {
            char &b = m[rng.below(m.size())];
            if (k % 2 == 0)
                b = static_cast<char>(b ^ (1u << rng.below(8)));
            else
                b = static_cast<char>(rng.below(256));
        }
        check(m, "byte flip", k);
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

// ------------------------------------------------------ Analyzer ------

TEST(Analyzer, AttributesEachStallClass)
{
    std::vector<TraceRecord> records = {
        // 4-segment SQ search: 3 pipelining penalty cycles.
        rec(TraceEvent::SqSearch, 10, 1, 0x100, 1, 4),
        // 1-segment search: no penalty.
        rec(TraceEvent::SqSearch, 11, 2, 0x108, 0, 1),
        // LQ + commit searches: (2-1) + (3-1) = 3 "other" cycles.
        rec(TraceEvent::LqSearch, 12, 3, 0, 0, 2),
        rec(TraceEvent::StoreCommitSearch, 13, 4, 0, 0, 3),
        // A squashed search charged a 3-cycle replay.
        rec(TraceEvent::SqSearchContention, 14, 5, 0, 0, 3),
        rec(TraceEvent::StoreCommitDelay, 15, 6),
        rec(TraceEvent::StoreCommitDelay, 16, 6),
        rec(TraceEvent::PredWaitCycle, 17, 7),
        rec(TraceEvent::PredFalseDep, 18, 7),
        rec(TraceEvent::SqSearchSkip, 19, 8),
        rec(TraceEvent::LbFullStall, 20, 9),
        rec(TraceEvent::ViolationSquash, 21, 5, 0, 1),
        rec(TraceEvent::ForwardHit, 22, 1, 42),
        rec(TraceEvent::Retire, 30, 1),
        rec(TraceEvent::Retire, 31, 2),
    };
    StallAttribution att = attributeStalls(records);
    EXPECT_EQ(att.sqSearches, 2u);
    EXPECT_EQ(att.sqSearchPipelineCycles, 3u);
    EXPECT_EQ(att.otherSearches, 2u);
    EXPECT_EQ(att.otherSearchPipelineCycles, 3u);
    EXPECT_EQ(att.searchSquashes, 1u);
    EXPECT_EQ(att.searchSquashCycles, 3u);
    EXPECT_EQ(att.storeCommitDelayCycles, 2u);
    EXPECT_EQ(att.predictorWaitCycles, 1u);
    EXPECT_EQ(att.predictorFalseDeps, 1u);
    EXPECT_EQ(att.searchesSkipped, 1u);
    EXPECT_EQ(att.loadBufferStalls, 1u);
    EXPECT_EQ(att.violationSquashes, 1u);
    EXPECT_EQ(att.forwardingHits, 1u);
    EXPECT_EQ(att.retired, 2u);
    EXPECT_EQ(att.firstCycle, 10u);
    EXPECT_EQ(att.lastCycle, 31u);
    EXPECT_EQ(att.elapsed(), 22u);
}

TEST(Analyzer, EmptyTraceHasZeroSpan)
{
    StallAttribution att = attributeStalls({});
    EXPECT_EQ(att.elapsed(), 0u);
    EXPECT_EQ(att.retired, 0u);
}

TEST(Analyzer, TableDistinguishesPipeliningFromSquashes)
{
    std::vector<TraceRecord> records = {
        rec(TraceEvent::SqSearch, 1, 1, 0, 0, 4),
        rec(TraceEvent::SqSearchContention, 2, 2, 0, 0, 3),
        rec(TraceEvent::Retire, 3, 1),
    };
    std::string table = renderStallTable(attributeStalls(records));
    EXPECT_NE(table.find("segment search pipelining"),
              std::string::npos);
    EXPECT_NE(table.find("search squash + replay"), std::string::npos);
    EXPECT_NE(table.find("load-buffer capacity"), std::string::npos);
    EXPECT_NE(table.find("retired ops: 1"), std::string::npos);
}

// ------------------------------------------------ IntervalSeries ------

TEST(IntervalSeries, JsonIsWellFormed)
{
    IntervalSeries s({"ipc", "rob"}, 100);
    s.append(100, {1.5, 32.0});
    s.append(200, {1.25, 40.5});
    std::string json = s.toJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"schema\": \"lsqscale-intervals-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"interval_cycles\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"ipc\""), std::string::npos);
    EXPECT_NE(json.find("[100, 1.5, 32]"), std::string::npos);
}

TEST(IntervalSeries, NonFiniteValuesBecomeNull)
{
    IntervalSeries s({"ratio"}, 10);
    s.append(10, {std::nan("")});
    std::string json = s.toJson();
    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_NE(json.find("null"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
}

// ----------------------------------------- interval sampling e2e ------

TEST(IntervalSampling, SimulatorProducesSeries)
{
    SimConfig cfg = tinyConfig();
    cfg.intervalCycles = 100;
    SimResult r = Simulator(cfg).run();
    ASSERT_FALSE(r.intervals.empty());
    EXPECT_EQ(r.intervals.intervalCycles(), 100u);

    const auto &cols = r.intervals.columns();
    auto has = [&](const char *name) {
        return std::find(cols.begin(), cols.end(), name) != cols.end();
    };
    EXPECT_TRUE(has("ipc"));
    EXPECT_TRUE(has("rob"));
    EXPECT_TRUE(has("lb"));
    EXPECT_TRUE(has("sq_searches"));

    Cycle prev = 0;
    for (std::size_t i = 0; i < r.intervals.size(); ++i) {
        const auto &s = r.intervals.sample(i);
        EXPECT_GT(s.cycle, prev);
        prev = s.cycle;
        ASSERT_EQ(s.values.size(), cols.size());
        for (double v : s.values)
            EXPECT_GE(v, 0.0);
    }
}

TEST(IntervalSampling, SegmentedConfigGetsPerSegmentColumns)
{
    SimConfig cfg = configs::allTechniques(tinyConfig());
    cfg.intervalCycles = 100;
    SimResult r = Simulator(cfg).run();
    const auto &cols = r.intervals.columns();
    EXPECT_NE(std::find(cols.begin(), cols.end(), "lq_seg0"),
              cols.end());
    EXPECT_NE(std::find(cols.begin(), cols.end(), "lq_seg3"),
              cols.end());
}

TEST(IntervalSampling, JsonFileWritten)
{
    std::string path = tempPath("intervals.json");
    SimConfig cfg = tinyConfig();
    cfg.intervalCycles = 200;
    cfg.intervalJsonPath = path;
    Simulator(cfg).run();

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_TRUE(jsonBalanced(ss.str()));
    EXPECT_NE(ss.str().find("lsqscale-intervals-v1"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(IntervalSampling, SamplingDoesNotPerturbTiming)
{
    SimConfig plain = tinyConfig();
    SimResult a = Simulator(plain).run();

    SimConfig sampled = tinyConfig();
    sampled.intervalCycles = 50;
    SimResult b = Simulator(sampled).run();

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
}

// -------------------------------------------- tracing bit-identity ----

TEST(TraceIdentity, TracedRunMatchesUntracedRun)
{
    SimConfig plain = tinyConfig();
    SimResult a = Simulator(plain).run();

    std::string bin = tempPath("identity.evtrace");
    std::string kon = tempPath("identity.konata");
    SimConfig traced = tinyConfig();
    traced.trace.enabled = true;
    traced.trace.binaryPath = bin;
    traced.trace.konataPath = kon;
    SimResult b = Simulator(traced).run();

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.sqSearches(), b.sqSearches());
    EXPECT_EQ(a.lqSearches(), b.lqSearches());
    std::remove(bin.c_str());
    std::remove(kon.c_str());
}

/** Per-cell trace file name, keyed on what the row's factory built. */
std::string
jobTraceName(const SimConfig &cfg)
{
    return strfmt("job_%s_%s.evtrace",
                  cfg.lsq.sqPolicy == SqSearchPolicy::Pair ? "pair"
                                                           : "base",
                  cfg.benchmark.c_str());
}

TEST(TraceIdentity, ParallelSweepWithPerJobTraceFiles)
{
    std::vector<NamedConfig> points = {
        {"base", [](const std::string &b) { return tinyConfig(b); }},
        {"pair",
         [](const std::string &b) {
             return configs::withPairPredictor(tinyConfig(b));
         }},
    };
    std::vector<std::string> benches = {"bzip", "gcc"};

    auto runSweep = [&](bool traceOn) {
        SweepOptions opts;
        opts.jobs = 4;
        opts.name = traceOn ? "obs_traced" : "obs_plain";
        Sweep sweep(points, benches, opts);
        sweep.setJobFn([traceOn](const SimConfig &cfg) {
            SimConfig c = cfg;
            if (traceOn) {
                c.trace.enabled = true;
                c.trace.binaryPath = tempPath(jobTraceName(cfg));
            }
            return Simulator(c).run();
        });
        return sweep.run();
    };

    SweepOutcome plain = runSweep(false);
    SweepOutcome traced = runSweep(true);
    ASSERT_EQ(plain.grid.size(), traced.grid.size());
    for (std::size_t r = 0; r < plain.grid.size(); ++r) {
        for (std::size_t c = 0; c < plain.grid[r].size(); ++c) {
            const SimResult &p = plain.grid[r][c].result;
            const SimResult &t = traced.grid[r][c].result;
            EXPECT_EQ(p.cycles, t.cycles) << r << "," << c;
            EXPECT_EQ(p.committed, t.committed) << r << "," << c;
        }
    }
    for (const NamedConfig &point : points)
        for (const std::string &bench : benches)
            std::remove(tempPath(jobTraceName(point.make(bench))).c_str());
}

// ------------------------------------------------ event production ---

TEST(TraceEndToEnd, RetireEventsMatchCommittedCount)
{
    std::string path = tempPath("retire.evtrace");
    SimConfig cfg = tinyConfig();
    cfg.trace.enabled = true;
    cfg.trace.binaryPath = path;
    std::string err;
    ASSERT_TRUE(
        parseTraceEvents("retire", cfg.trace.eventMask, err));
    SimResult r = Simulator(cfg).run();

    auto recs = readTraceFile(path);
    EXPECT_EQ(recs.size(), r.committed);
    Cycle prev = 0;
    for (const auto &rc : recs) {
        EXPECT_EQ(rc.ev(), TraceEvent::Retire);
        EXPECT_GE(rc.cycle, prev); // retirement is in program order
        prev = rc.cycle;
    }
    std::remove(path.c_str());
}

TEST(TraceEndToEnd, KonataExportFromRealRunParses)
{
    std::string bin = tempPath("full.evtrace");
    std::string kon = tempPath("full.konata");
    SimConfig cfg = tinyConfig();
    cfg.trace.enabled = true;
    cfg.trace.binaryPath = bin;
    cfg.trace.konataPath = kon;
    SimResult r = Simulator(cfg).run();

    std::ifstream in(kon);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::vector<InstLifecycle> insts;
    std::string err;
    ASSERT_TRUE(parseO3PipeView(ss.str(), insts, err)) << err;
    // Instructions already in flight when the tracer attached (right
    // after warmup) retire inside the window without a Fetch record
    // and are rightly omitted, so the export can run a little short.
    EXPECT_LE(insts.size(), r.committed);
    EXPECT_GE(insts.size() + 512, r.committed);
    for (const auto &inst : insts) {
        EXPECT_NE(inst.retire, kNoCycle);
        if (inst.fetch != kNoCycle) {
            EXPECT_LE(inst.fetch, inst.retire);
        }
    }
    std::remove(bin.c_str());
    std::remove(kon.c_str());
}

TEST(TraceEndToEnd, SegmentedRunRecordsMultiSegmentSearches)
{
    std::string path = tempPath("seg.evtrace");
    SimConfig cfg = configs::allTechniques(tinyConfig());
    cfg.trace.enabled = true;
    cfg.trace.binaryPath = path;
    Simulator(cfg).run();

    StallAttribution att = attributeStalls(readTraceFile(path));
    EXPECT_GT(att.retired, 0u);
    EXPECT_GT(att.sqSearches + att.searchesSkipped, 0u);
    std::remove(path.c_str());
}

/**
 * The set of events (traceEventBit bits) one 20k-instruction lsqsim
 * cell records; @p args are lsqsim options naming the design point.
 */
std::uint32_t
firedEvents(std::vector<std::string> args)
{
    std::string path = tempPath("taxonomy.evtrace");
    args.insert(args.end(), {"--insts", "20000", "--trace-out", path});
    CliOptions opts;
    std::string err = parseCli(args, opts);
    EXPECT_EQ(err, "");
    Simulator(opts.config).run();
    std::uint32_t fired = 0;
    for (const TraceRecord &r : readTraceFile(path))
        fired |= traceEventBit(r.ev());
    std::remove(path.c_str());
    return fired;
}

TEST(TraceTaxonomy, EveryEventFires)
{
    // A TraceEvent no hook site records is dead taxonomy, and a hook
    // site that stops firing is a silent observability loss. These
    // three cells reach every site: base bzip under probes (the only
    // source of inval.search), all techniques under probes (pair
    // predictor, commit-time searches, load buffer, probe snoops),
    // and a 1-port segmented combined queue (the only source of
    // sq.search.contention).
    std::uint32_t fired =
        firedEvents({"--benchmark", "bzip", "--probe-rate", "5"}) |
        firedEvents({"--benchmark", "bzip", "--all-techniques",
                     "--probe-rate", "5"}) |
        firedEvents({"--benchmark", "equake", "--combined", "--segments",
                     "4", "--lq", "28", "--ports", "1"});
    for (unsigned i = 0; i < kNumTraceEvents; ++i) {
        TraceEvent ev = static_cast<TraceEvent>(i);
        EXPECT_NE(fired & traceEventBit(ev), 0u)
            << traceEventName(ev) << " never fired";
    }
}

} // namespace
} // namespace lsqscale
