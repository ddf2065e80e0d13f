#include "common/serialize.hh"

#include <array>

namespace lsqscale {

namespace {

/**
 * Slice-by-16 tables: kCrcTables[0] is the classic byte table, and
 * kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so
 * sixteen lookups advance the CRC over sixteen bytes at once.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/** The entries for @p w's four bytes: table @p k for the lowest. */
inline std::uint32_t
crcWord(std::uint32_t w, std::size_t k)
{
    return kCrcTables[k][w & 0xffu] ^
           kCrcTables[k - 1][(w >> 8) & 0xffu] ^
           kCrcTables[k - 2][(w >> 16) & 0xffu] ^
           kCrcTables[k - 3][w >> 24];
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n)
{
    const auto *p = static_cast<const char *>(data);
    std::uint32_t c = 0xffffffffu;
    for (; n >= 16; p += 16, n -= 16)
        c = crcWord(loadLe<std::uint32_t>(p) ^ c, 15) ^
            crcWord(loadLe<std::uint32_t>(p + 4), 11) ^
            crcWord(loadLe<std::uint32_t>(p + 8), 7) ^
            crcWord(loadLe<std::uint32_t>(p + 12), 3);
    for (; n > 0; ++p, --n)
        c = kCrcTables[0][(c ^ static_cast<unsigned char>(*p)) & 0xffu] ^
            (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace lsqscale
