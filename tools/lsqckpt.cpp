/**
 * @file
 * lsqckpt — inspect and verify lsqscale-ckpt checkpoint files
 * (docs/SAMPLING.md).
 *
 *   lsqckpt inspect FILE   print header metadata and section sizes
 *   lsqckpt verify FILE    exit 0 iff the file parses and the CRC
 *                          matches (quiet apart from a verdict line)
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "sample/checkpoint.hh"

namespace {

int
usage()
{
    std::fputs("usage: lsqckpt inspect FILE | lsqckpt verify FILE\n",
               stderr);
    return 2;
}

int
inspect(const std::string &path)
{
    lsqscale::CheckpointInfo info;
    try {
        info = lsqscale::inspectCheckpoint(path);
    } catch (const lsqscale::SerialError &err) {
        std::fprintf(stderr, "lsqckpt: %s\n", err.what());
        return 1;
    }
    const lsqscale::CheckpointMeta &m = info.meta;
    std::printf("file        %s\n", path.c_str());
    std::printf("format      lsqscale-ckpt-v%u\n", m.version);
    std::printf("benchmark   %s\n", m.benchmark.c_str());
    std::printf("seed        %llu\n",
                static_cast<unsigned long long>(m.seed));
    std::printf("insts       %llu\n",
                static_cast<unsigned long long>(m.instCount));
    std::printf("cycle       %llu\n",
                static_cast<unsigned long long>(m.cycle));
    std::printf("fingerprint %016llx\n",
                static_cast<unsigned long long>(m.fingerprint));
    std::printf("payload     %llu bytes, crc %08x (%s)\n",
                static_cast<unsigned long long>(m.payloadBytes),
                m.crc, info.crcOk ? "ok" : "MISMATCH");
    for (const auto &sec : info.sections)
        std::printf("  section %-4s %llu bytes\n", sec.tag.c_str(),
                    static_cast<unsigned long long>(sec.bytes));
    return info.crcOk ? 0 : 1;
}

int
verify(const std::string &path)
{
    try {
        lsqscale::CheckpointInfo info =
            lsqscale::inspectCheckpoint(path);
        if (!info.crcOk) {
            std::printf("%s: CRC MISMATCH\n", path.c_str());
            return 1;
        }
    } catch (const lsqscale::SerialError &err) {
        std::printf("%s: INVALID (%s)\n", path.c_str(), err.what());
        return 1;
    }
    std::printf("%s: ok\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3)
        return usage();
    std::string cmd = argv[1];
    std::string path = argv[2];
    if (cmd == "inspect")
        return inspect(path);
    if (cmd == "verify")
        return verify(path);
    return usage();
}
