/**
 * @file
 * Byte-level serialization primitives for the checkpoint subsystem.
 *
 * Fixed-width little-endian encoders over a growable byte buffer and
 * decoders over a borrowed one. Components expose
 * saveState(SerialWriter&)/loadState(SerialReader&) member pairs
 * built on these; the lsqscale-ckpt-v4 container format (header,
 * sections, CRC) lives one layer up in sample/checkpoint.hh. See
 * docs/SAMPLING.md.
 *
 * Determinism contract: a component's saveState must produce identical
 * bytes for identical logical state — unordered containers are sorted
 * on save, doubles are stored as raw IEEE-754 bit patterns — so that
 * checkpoint files can be diffed byte-for-byte across runs and worker
 * threads (the fast-forward determinism test relies on this).
 *
 * Errors (underflow, malformed payloads) throw SerialError rather than
 * aborting: checkpoint files are external inputs, and callers (the
 * CLI, the sweep harness, tests) decide how a bad file is reported.
 */

#ifndef LSQSCALE_COMMON_SERIALIZE_HH
#define LSQSCALE_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace lsqscale {

/** Malformed or truncated serialized data. */
class SerialError : public std::runtime_error
{
  public:
    explicit SerialError(const std::string &what)
        : std::runtime_error(what)
    {}
};

// The encoders copy whole host words: the formats are little-endian.
static_assert(std::endian::native == std::endian::little,
              "serialized formats are little-endian host words");

/** The little-endian @p T stored at @p p. */
template <typename T>
T
loadLe(const char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Appends fixed-width little-endian fields to a byte buffer. */
class SerialWriter
{
  public:
    void u8(std::uint8_t v) { word(v); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u16(std::uint16_t v) { word(v); }
    void u32(std::uint32_t v) { word(v); }
    void u64(std::uint64_t v) { word(v); }

    /** Raw IEEE-754 bit pattern: bit-exact and deterministic. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Length-prefixed byte string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    void
    raw(const void *data, std::size_t n)
    {
        buf_.append(static_cast<const char *>(data), n);
    }

    /** Overwrite the u64 written at byte offset @p at. */
    void
    patchU64(std::size_t at, std::uint64_t v)
    {
        std::memcpy(buf_.data() + at, &v, sizeof(v));
    }

    const std::string &buffer() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    template <typename T>
    void
    word(T v)
    {
        char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        buf_.append(bytes, sizeof(T));
    }

    std::string buf_;
};

/**
 * Consumes fields written by SerialWriter from a borrowed buffer (it
 * never copies); throws SerialError.
 */
class SerialReader
{
  public:
    SerialReader(const char *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit SerialReader(const std::string &buf)
        : data_(buf.data()), size_(buf.size())
    {}

    std::uint8_t u8() { return word<std::uint8_t>(); }
    bool b() { return u8() != 0; }
    std::uint16_t u16() { return word<std::uint16_t>(); }
    std::uint32_t u32() { return word<std::uint32_t>(); }
    std::uint64_t u64() { return word<std::uint64_t>(); }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        std::uint64_t n = u64();
        need(n);
        return std::string(take(static_cast<std::size_t>(n)),
                           static_cast<std::size_t>(n));
    }

    void
    raw(void *out, std::size_t n)
    {
        std::memcpy(out, take(n), n);
    }

    /**
     * Consume the next @p n bytes and return where they start, for a
     * decoder that checks a whole array's length once.
     */
    const char *
    take(std::size_t n)
    {
        need(n);
        const char *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

    /** Fail unless the stream was consumed exactly. */
    void
    expectEnd(const char *what)
    {
        if (!done())
            throw SerialError(std::string(what) +
                              ": trailing bytes in serialized state");
    }

  private:
    template <typename T>
    T
    word()
    {
        return loadLe<T>(take(sizeof(T)));
    }

    void
    need(std::uint64_t n)
    {
        if (n > size_ - pos_)
            throw SerialError("serialized state truncated");
    }

    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** CRC-32 (IEEE 802.3 polynomial, the zlib convention). */
std::uint32_t crc32(const void *data, std::size_t n);

} // namespace lsqscale

#endif // LSQSCALE_COMMON_SERIALIZE_HH
