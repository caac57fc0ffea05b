/**
 * @file
 * Streaming 64-bit content hashing for fingerprinting immutable
 * simulation inputs (Program images, SimParams) and checksumming the
 * on-disk run cache.
 *
 * The hasher is FNV-1a over the appended byte stream with a splitmix64
 * finalizer to decorrelate the low bits (plain FNV-1a is weak in its
 * low bits for short inputs). It is *not* cryptographic — the cache it
 * keys is a local performance artifact, not a trust boundary — but it
 * is stable across processes and runs, which is what content
 * addressing needs. Never hash raw struct memory: padding bytes are
 * indeterminate. Append each field explicitly.
 */

#ifndef WISC_COMMON_HASH_HH_
#define WISC_COMMON_HASH_HH_

#include <cstddef>
#include <cstdint>
#include <string>

namespace wisc {

class Hasher
{
  public:
    /** Append raw bytes to the stream. */
    void
    bytes(const void *data, std::size_t n)
    {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            state_ ^= p[i];
            state_ *= kFnvPrime;
        }
    }

    /** Append one unsigned 64-bit value (little-endian byte order,
     *  independent of host endianness). */
    void
    u64(std::uint64_t v)
    {
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes(b, 8);
    }

    void u32(std::uint32_t v) { u64(v); }
    void u8(std::uint8_t v) { u64(v); }
    void b(bool v) { u64(v ? 1 : 0); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** Append a string: length prefix + contents, so ("ab","c") and
     *  ("a","bc") hash differently. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Final digest. The hasher may keep accumulating afterwards;
     *  digest() is a pure function of the bytes appended so far. */
    std::uint64_t
    digest() const
    {
        return mix(state_);
    }

    /** splitmix64 finalizer (public: the disk cache uses it to derive
     *  independent check words from one stream hash). */
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

  private:
    static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

    std::uint64_t state_ = kFnvOffset;
};

/** One-shot convenience: FNV-1a + finalizer over a byte buffer. */
std::uint64_t hashBytes(const void *data, std::size_t n);

} // namespace wisc

#endif // WISC_COMMON_HASH_HH_
