/**
 * @file
 * Flat byte-buffer serialization for warm-state checkpoints.
 *
 * A checkpoint is a value snapshot of every piece of machine state that
 * carries *history* — architectural registers and memory, cache tags,
 * predictor tables, return-address stack — written as one append-only
 * byte stream and read back in the same order. The format is private
 * to a single process run (checkpoints move from one Core, detailed or
 * fast-forwarding, into another; they are never written to disk), so
 * structs may be copied raw; scalars
 * still go through explicit little-endian accessors so saves and
 * restores cannot disagree on width.
 *
 * Every read is bounds-checked by hard assertion: truncation or a
 * save/restore ordering mismatch dies loudly instead of silently
 * deserializing garbage into a predictor table.
 */

#ifndef WISC_COMMON_BYTES_HH_
#define WISC_COMMON_BYTES_HH_

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/log.hh"

namespace wisc {

/** The serialized form: what ByteWriter builds and ByteReader walks. */
using ByteBuffer = std::vector<std::uint8_t>;

/** Append-only little-endian byte stream. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    raw(const void *p, std::size_t n)
    {
        const auto *bytes = static_cast<const std::uint8_t *>(p);
        buf_.insert(buf_.end(), bytes, bytes + n);
    }

    /** Length-prefixed raw dump of a vector of trivially copyable
     *  elements (predictor tables, cache line arrays). */
    template <class T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "vec() requires raw-copyable elements");
        u64(v.size());
        if (!v.empty())
            raw(v.data(), v.size() * sizeof(T));
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Sequential reader over a ByteWriter's buffer. */
class ByteReader
{
  public:
    explicit ByteReader(const std::vector<std::uint8_t> &buf) : buf_(&buf) {}

    std::uint8_t
    u8()
    {
        need(1);
        return (*buf_)[pos_++];
    }

    bool
    b()
    {
        return u8() != 0;
    }

    std::uint16_t
    u16()
    {
        std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo | (std::uint16_t(u8()) << 8));
    }

    std::uint32_t
    u32()
    {
        std::uint32_t lo = u16();
        return lo | (std::uint32_t(u16()) << 16);
    }

    std::uint64_t
    u64()
    {
        std::uint64_t lo = u32();
        return lo | (std::uint64_t(u32()) << 32);
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    void
    raw(void *p, std::size_t n)
    {
        need(n);
        std::memcpy(p, buf_->data() + pos_, n);
        pos_ += n;
    }

    /** Restore a vec()-written vector. The element count must match
     *  what the current configuration sized the table to: geometry is
     *  a function of SimParams, never of the checkpoint. */
    template <class T>
    void
    vec(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "vec() requires raw-copyable elements");
        std::uint64_t n = u64();
        wisc_assert(n == v.size(), "checkpoint table has ", n,
                    " entries, machine is configured for ", v.size());
        if (n != 0)
            raw(v.data(), n * sizeof(T));
    }

    /** All bytes consumed — the save and restore walked the same
     *  structure list. */
    bool done() const { return pos_ == buf_->size(); }

    std::size_t pos() const { return pos_; }

  private:
    void
    need(std::size_t n)
    {
        wisc_assert(pos_ + n <= buf_->size(),
                    "checkpoint stream truncated: need ", n, " bytes at ",
                    pos_, " of ", buf_->size());
    }

    const std::vector<std::uint8_t> *buf_;
    std::size_t pos_ = 0;
};

} // namespace wisc

#endif // WISC_COMMON_BYTES_HH_
