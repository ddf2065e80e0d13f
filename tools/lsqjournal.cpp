/**
 * @file
 * lsqjournal — inspect lsqscale-journal-v1 sweep journals
 * (docs/ROBUSTNESS.md).
 *
 *   lsqjournal inspect FILE   print the sweep shape and per-cell
 *                             status/provenance, torn-tail verdict
 *   lsqjournal verify FILE    exit 0 iff the file parses, every cell
 *                             is Ok, and the tail is intact
 */

#include <cstdio>
#include <string>

#include "harness/journal.hh"
#include "harness/sink.hh"

namespace {

int
usage()
{
    std::fputs(
        "usage: lsqjournal inspect FILE | lsqjournal verify FILE\n",
        stderr);
    return 2;
}

int
inspect(const std::string &path)
{
    lsqscale::JournalContents j;
    std::string error;
    if (!lsqscale::readJournal(path, j, error)) {
        std::fprintf(stderr, "lsqjournal: %s\n", error.c_str());
        return 1;
    }
    std::printf("file        %s\n", path.c_str());
    std::printf("format      lsqscale-journal-v1\n");
    std::printf("sweep       %s\n", j.name.c_str());
    std::printf("grid        %zu config(s) x %zu benchmark(s)\n",
                j.rows, j.cols);
    std::printf("records     %zu (%zu distinct cell(s) of %zu)\n",
                j.records, j.cells.size(), j.rows * j.cols);
    std::printf("tail        %s\n",
                j.truncatedTail ? "TORN (partial final record dropped)"
                                : "intact");
    for (const auto &cell : j.cells) {
        const char *label = cell.row < j.configLabels.size()
                                ? j.configLabels[cell.row].c_str()
                                : "?";
        const char *bench = cell.col < j.benchmarks.size()
                                ? j.benchmarks[cell.col].c_str()
                                : "?";
        std::printf("  (%zu,%zu) %-22s %-10s %-8s attempts=%u",
                    cell.row, cell.col, label, bench,
                    lsqscale::jobStatusName(cell.status),
                    cell.attempts);
        if (cell.termSignal != 0)
            std::printf(" signal=%d", cell.termSignal);
        if (cell.exitStatus != 0)
            std::printf(" exit=%d", cell.exitStatus);
        if (!cell.error.empty())
            std::printf(" error=%s", cell.error.c_str());
        std::printf("\n");
    }
    return 0;
}

int
verify(const std::string &path)
{
    lsqscale::JournalContents j;
    std::string error;
    if (!lsqscale::readJournal(path, j, error)) {
        std::printf("%s: INVALID (%s)\n", path.c_str(), error.c_str());
        return 1;
    }
    std::size_t poisoned = 0;
    for (const auto &cell : j.cells)
        if (cell.status != lsqscale::JobStatus::Ok)
            ++poisoned;
    std::size_t missing = j.rows * j.cols - j.cells.size();
    if (j.truncatedTail || poisoned > 0 || missing > 0) {
        std::printf("%s: INCOMPLETE (%zu poisoned, %zu missing%s)\n",
                    path.c_str(), poisoned, missing,
                    j.truncatedTail ? ", torn tail" : "");
        return 1;
    }
    std::printf("%s: ok (%zu cell(s))\n", path.c_str(),
                j.cells.size());
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
