/**
 * @file
 * StateIO: the one byte codec, for warm-state checkpoints and run-cache
 * entries alike.
 *
 * One walk per structure. Each format is written once, as a walk: a
 * function `io(StateIO &)` — a member, or a free `io(StateIO &, T &)` —
 * that names every field in order. Run over a writer, the walk appends
 * each field; run over a reader, it assigns each field from the stream.
 * Save and restore are the same code, so they cannot disagree on order
 * or width. The checkpoint is Core::ioWarmState (uarch/checkpoint.hh);
 * the cache entry is the RunOutcome walk in harness/run_cache.cc.
 *
 * Encoding. A scalar — integer, bool or enum — is little-endian at its
 * own width (a bool is one byte, an enum its underlying type). A count,
 * the size of a container, is always a u64. A string is a count and
 * then its bytes; table() is a count and then the raw element bytes,
 * which are host-layout and so only for in-process checkpoints.
 *
 * The latch rule. A reader never aborts. A read past the end, a count
 * larger than the bytes left, or a table() whose stored size differs
 * from the size the owner configured latches ok() false; from then on
 * every read yields zero and no container grows. The caller decides
 * what a latch means: the run cache rejects the entry and simulates
 * afresh, and a checkpoint restore asserts done(), since its save and
 * restore walked the same machine in one process.
 *
 * Writing only reads the walked object, so a const owner may pass
 * itself through const_cast to write.
 */

#ifndef WISC_COMMON_BYTES_HH_
#define WISC_COMMON_BYTES_HH_

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wisc {

class StateIO
{
  public:
    /** A writer; take() returns what was written. */
    StateIO() = default;

    /** A reader over 'in', which must outlive it. */
    explicit StateIO(std::string_view in) : in_(in), loading_(true) {}

    bool loading() const { return loading_; }

    /** False once a read has latched (never false for a writer). */
    bool ok() const { return ok_; }

    /** Reader: nothing latched and every byte consumed. */
    bool done() const { return ok_ && pos_ == in_.size(); }

    /** Reader: bytes consumed so far. */
    std::size_t pos() const { return pos_; }

    /** Writer: the bytes written so far, moved out. */
    std::string take() { return std::move(out_); }

    /** Walk scalars in order, each at its own width. */
    template <class... T>
    void
    operator()(T &...v)
    {
        (scalar(v), ...);
    }

    /** Raw bytes. */
    void
    bytes(void *p, std::size_t n)
    {
        if (n == 0)
            return;
        if (!loading_)
            out_.append(static_cast<const char *>(p), n);
        else if (const char *src = take(n))
            std::memcpy(p, src, n);
        else
            std::memset(p, 0, n);
    }

    /** A count, then the bytes. Reading into a std::string_view views
     *  the input instead of copying it. */
    template <class S>
    void
    str(S &s)
    {
        std::uint64_t n = s.size();
        count(n);
        if (!loading_) {
            out_.append(s.data(), s.size());
            return;
        }
        s = S(in_.substr(pos_, n));
        pos_ += n;
    }

    /** A fixed-geometry table of trivially copyable entries: its size,
     *  then the raw entries. The size comes from the machine's
     *  configuration, never from the stream: reading latches when the
     *  stored size differs, and leaves the table as it was. */
    template <class T>
    void
    table(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "table() copies raw entries");
        std::uint64_t n = v.size();
        scalar(n);
        if (n != v.size()) {
            ok_ = false;
            return;
        }
        bytes(v.data(), v.size() * sizeof(T));
    }

    /** A vector of any length: its count, then elem(e) per element. */
    template <class T, class F>
    void
    seq(std::vector<T> &v, F &&elem)
    {
        std::uint64_t n = v.size();
        count(n);
        if (loading_)
            v.resize(n);
        for (T &e : v)
            elem(e);
    }

    /** A map: its count, then entry(key, value) per element in key
     *  order. Reading replaces the contents, appending each entry at
     *  the end. */
    template <class K, class V, class F>
    void
    map(std::map<K, V> &m, F &&entry)
    {
        std::uint64_t n = m.size();
        count(n);
        if (!loading_) {
            for (auto &kv : m)
                entry(const_cast<K &>(kv.first), kv.second);
            return;
        }
        m.clear();
        for (std::uint64_t i = 0; i < n && ok_; ++i) {
            K k{};
            V v{};
            entry(k, v);
            if (ok_)
                m.emplace_hint(m.end(), std::move(k), std::move(v));
        }
    }

  private:
    /** A container size. Reading latches (and yields 0) when the count
     *  exceeds the bytes left: every element costs at least one. */
    void
    count(std::uint64_t &n)
    {
        scalar(n);
        if (loading_ && n > in_.size() - pos_) {
            ok_ = false;
            n = 0;
        }
    }

    template <class T>
    void
    scalar(T &v)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                      "StateIO walks integers, bools and enums");
        if constexpr (std::is_enum_v<T>) {
            auto u = static_cast<std::underlying_type_t<T>>(v);
            scalar(u);
            if (loading_)
                v = static_cast<T>(u);
        } else if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t b = v ? 1 : 0;
            scalar(b);
            if (loading_)
                v = b != 0;
        } else {
            using U = std::make_unsigned_t<T>;
            if (!loading_) {
                char b[sizeof(T)];
                for (std::size_t i = 0; i < sizeof(T); ++i)
                    b[i] = static_cast<char>(static_cast<U>(v) >> (8 * i));
                out_.append(b, sizeof(T));
                return;
            }
            U u = 0;
            if (const char *b = take(sizeof(T)))
                for (std::size_t i = 0; i < sizeof(T); ++i)
                    u |= static_cast<U>(static_cast<unsigned char>(b[i]))
                         << (8 * i);
            v = static_cast<T>(u);
        }
    }

    /** The next n input bytes, or nullptr (latching) if fewer remain. */
    const char *
    take(std::size_t n)
    {
        if (!ok_ || in_.size() - pos_ < n) {
            ok_ = false;
            return nullptr;
        }
        pos_ += n;
        return in_.data() + pos_ - n;
    }

    std::string out_;
    std::string_view in_;
    std::size_t pos_ = 0;
    bool loading_ = false;
    bool ok_ = true;
};

} // namespace wisc

#endif // WISC_COMMON_BYTES_HH_
