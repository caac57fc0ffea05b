#include "harness/run_cache.hh"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "common/hash.hh"
#include "common/log.hh"

namespace wisc {

namespace {

constexpr char kMagic[8] = {'W', 'I', 'S', 'C', 'R', 'U', 'N', '\0'};
/** v2: appended the StatTable section (core.branch_profile etc.) after
 *  the histograms. v1 readers reject v2 entries by version (and vice
 *  versa) and fall back to a fresh simulation; entryPath() embeds the
 *  version so a mixed-version cache directory simply never collides. */
constexpr std::uint32_t kFormatVersion = 2;

// ---- little-endian primitive writers/readers --------------------------

void
putU64(std::string &buf, std::uint64_t v)
{
    char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<char>(v >> (8 * i));
    buf.append(b, 8);
}

void
putU32(std::string &buf, std::uint32_t v)
{
    char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<char>(v >> (8 * i));
    buf.append(b, 4);
}

void
putStr(std::string &buf, const std::string &s)
{
    putU64(buf, s.size());
    buf.append(s);
}

/** Bounds-checked sequential reader; ok_ latches false on any overrun
 *  so decode failures are detected without exceptions. */
class Reader
{
  public:
    Reader(const std::string &buf, std::size_t pos) : buf_(buf), pos_(pos)
    {
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(buf_[pos_ - 8 + i]))
                 << (8 * i);
        return v;
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(buf_[pos_ - 4 + i]))
                 << (8 * i);
        return v;
    }

    std::string
    str()
    {
        std::uint64_t n = u64();
        if (!ok_ || n > buf_.size() - pos_) {
            ok_ = false;
            return {};
        }
        std::string s = buf_.substr(pos_, n);
        pos_ += n;
        return s;
    }

    bool ok() const { return ok_; }
    std::size_t pos() const { return pos_; }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || buf_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    const std::string &buf_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

std::string
hexKey(std::uint64_t v)
{
    static const char *digits = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        s[i] = digits[v & 0xf];
    return s;
}

/** Monotonic suffix so concurrent writers in one process never share a
 *  temp file; cross-process uniqueness comes from the pid. */
std::string
tmpSuffix()
{
    static std::atomic<std::uint64_t> counter{0};
    std::ostringstream os;
    os << ".tmp." << ::getpid() << "." << counter.fetch_add(1);
    return os.str();
}

} // namespace

// ---- entry encoding ---------------------------------------------------

std::string
encodeRunOutcome(const RunKey &key, const RunOutcome &out)
{
    std::string payload;
    putU32(payload, out.result.halted ? 1 : 0);
    putU64(payload, out.result.cycles);
    putU64(payload, out.result.retiredUops);
    putU64(payload, static_cast<std::uint64_t>(out.result.resultReg));
    putU64(payload, out.result.memFingerprint);

    putU64(payload, out.stats.size());
    for (const auto &kv : out.stats) {
        putStr(payload, kv.first);
        putU64(payload, kv.second);
    }
    putU64(payload, out.hists.size());
    for (const auto &kv : out.hists) {
        putStr(payload, kv.first);
        putU64(payload, kv.second.count);
        putU64(payload, kv.second.buckets.size());
        for (std::uint64_t b : kv.second.buckets)
            putU64(payload, b);
    }
    putU64(payload, out.tables.size());
    for (const auto &kv : out.tables) {
        putStr(payload, kv.first);
        putU64(payload, kv.second.columns.size());
        for (const std::string &c : kv.second.columns)
            putStr(payload, c);
        putU64(payload, kv.second.rows.size());
        for (const auto &row : kv.second.rows) {
            putU64(payload, row.first);
            for (std::uint64_t v : row.second)
                putU64(payload, v);
        }
    }

    std::string file(kMagic, sizeof(kMagic));
    putU32(file, kFormatVersion);
    putU64(file, key.prog);
    putU64(file, key.params);
    putU64(file, payload.size());
    file += payload;
    putU64(file, hashBytes(payload.data(), payload.size()));
    return file;
}

bool
decodeRunOutcome(const std::string &bytes, const RunKey &key,
                 RunOutcome &out)
{
    // Header: magic(8) version(4) prog(8) params(8) payloadLen(8).
    constexpr std::size_t kHeader = 8 + 4 + 8 + 8 + 8;
    if (bytes.size() < kHeader + 8)
        return false;
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return false;

    Reader hdr(bytes, sizeof(kMagic));
    if (hdr.u32() != kFormatVersion)
        return false;
    if (hdr.u64() != key.prog || hdr.u64() != key.params)
        return false;
    std::uint64_t payloadLen = hdr.u64();
    if (!hdr.ok() || bytes.size() != kHeader + payloadLen + 8)
        return false;

    Reader trailer(bytes, kHeader + payloadLen);
    if (trailer.u64() !=
        hashBytes(bytes.data() + kHeader, payloadLen))
        return false;

    Reader r(bytes, kHeader);
    RunOutcome tmp;
    tmp.result.halted = r.u32() != 0;
    tmp.result.cycles = r.u64();
    tmp.result.retiredUops = r.u64();
    tmp.result.resultReg = static_cast<Word>(r.u64());
    tmp.result.memFingerprint = r.u64();

    std::uint64_t nstats = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < nstats; ++i) {
        std::string name = r.str();
        std::uint64_t value = r.u64();
        if (r.ok())
            tmp.stats.emplace(std::move(name), value);
    }
    std::uint64_t nhists = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < nhists; ++i) {
        std::string name = r.str();
        HistogramSnapshot snap;
        snap.count = r.u64();
        std::uint64_t nbuckets = r.u64();
        // A bucket costs 8 payload bytes; reject counts the payload
        // cannot hold before reserving.
        if (!r.ok() || nbuckets > payloadLen / 8)
            return false;
        snap.buckets.reserve(nbuckets);
        for (std::uint64_t b = 0; r.ok() && b < nbuckets; ++b)
            snap.buckets.push_back(r.u64());
        if (r.ok())
            tmp.hists.emplace(std::move(name), std::move(snap));
    }
    std::uint64_t ntables = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < ntables; ++i) {
        std::string name = r.str();
        TableSnapshot snap;
        std::uint64_t ncols = r.u64();
        // A column costs at least 8 payload bytes (its name length).
        if (!r.ok() || ncols == 0 || ncols > payloadLen / 8)
            return false;
        snap.columns.reserve(ncols);
        for (std::uint64_t c = 0; r.ok() && c < ncols; ++c)
            snap.columns.push_back(r.str());
        std::uint64_t nrows = r.u64();
        if (!r.ok() || nrows > payloadLen / (8 * ncols))
            return false;
        for (std::uint64_t rw = 0; r.ok() && rw < nrows; ++rw) {
            std::uint64_t rowKey = r.u64();
            std::vector<std::uint64_t> vals;
            vals.reserve(ncols);
            for (std::uint64_t c = 0; r.ok() && c < ncols; ++c)
                vals.push_back(r.u64());
            if (r.ok())
                snap.rows.emplace(rowKey, std::move(vals));
        }
        if (r.ok())
            tmp.tables.emplace(std::move(name), std::move(snap));
    }
    if (!r.ok() || r.pos() != kHeader + payloadLen)
        return false;

    out = std::move(tmp);
    return true;
}

// ---- RunService -------------------------------------------------------

RunService::RunService(std::string cacheDir) : memoize_(true)
{
    setCacheDir(std::move(cacheDir));
}

void
RunService::setCacheDir(std::string dir)
{
    std::lock_guard<std::mutex> lk(mutex_);
    dir_ = std::move(dir);
}

std::string
RunService::cacheDir() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return dir_;
}

void
RunService::setMemoize(bool on)
{
    std::lock_guard<std::mutex> lk(mutex_);
    memoize_ = on;
}

bool
RunService::memoize() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return memoize_;
}

RunCacheStats
RunService::stats() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return stats_;
}

std::string
RunService::entryPath(const RunKey &key) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    if (dir_.empty())
        return {};
    return dir_ + "/run-" + hexKey(key.prog) + "-" + hexKey(key.params) +
           ".v2.bin";
}

RunService &
RunService::global()
{
    static RunService *service = new RunService; // pass-through
    return *service;
}

RunOutcome
RunService::run(const Program &prog, const SimParams &params)
{
    bool passThrough = false;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        passThrough = !memoize_ && dir_.empty();
        if (passThrough)
            ++stats_.misses;
    }
    if (passThrough) // no key computation, no coalescing
        return captureRun(prog, params);

    const RunKey key{prog.fingerprint(), params.fingerprint()};

    std::shared_future<OutcomePtr> fut;
    std::promise<OutcomePtr> prom;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            ++stats_.dedupHits;
            fut = it->second;
        } else {
            fut = prom.get_future().share();
            inflight_.emplace(key, fut);
            owner = true;
        }
    }
    if (!owner)
        return *fut.get(); // rethrows the producer's exception, if any

    OutcomePtr out;
    try {
        out = produce(key, prog, params);
    } catch (...) {
        prom.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lk(mutex_);
        inflight_.erase(key); // let a later request retry
        throw;
    }
    prom.set_value(out);
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!memoize_)
            inflight_.erase(key); // waiters already hold the future
    }
    return *out;
}

RunService::OutcomePtr
RunService::produce(const RunKey &key, const Program &prog,
                    const SimParams &params)
{
    const std::string path = entryPath(key);
    if (!path.empty()) {
        RunOutcome cached;
        if (tryLoad(key, cached)) {
            std::lock_guard<std::mutex> lk(mutex_);
            ++stats_.diskHits;
            return std::make_shared<const RunOutcome>(std::move(cached));
        }
    }

    auto out = std::make_shared<const RunOutcome>(
        captureRun(prog, params));
    {
        std::lock_guard<std::mutex> lk(mutex_);
        ++stats_.misses;
    }
    if (!path.empty())
        store(key, *out);
    return out;
}

bool
RunService::tryLoad(const RunKey &key, RunOutcome &out)
{
    const std::string path = entryPath(key);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false; // plain miss, not corruption
    std::ostringstream buf;
    buf << in.rdbuf();
    if (decodeRunOutcome(buf.str(), key, out))
        return true;

    // The entry exists but failed validation: corrupt, truncated, or
    // written by an incompatible format version. Fall back to a fresh
    // simulation (which overwrites it) rather than failing the run.
    // Warn once per offending path: under N --shard processes sharing
    // the directory one poisoned entry would otherwise emit a warning
    // per request.
    bool firstSighting;
    std::uint64_t total;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        ++stats_.corrupt;
        total = stats_.corrupt;
        firstSighting = warnedCorrupt_.insert(path).second;
        // Bound the memory a pathological cache directory can pin.
        if (warnedCorrupt_.size() > 1024)
            warnedCorrupt_.clear();
    }
    if (firstSighting)
        wisc_warn("run cache entry '", path,
                  "' is corrupt or incompatible; re-simulating "
                  "(warning once per entry; ", total,
                  " corrupt rejection", total == 1 ? "" : "s",
                  " so far)");
    return false;
}

void
RunService::store(const RunKey &key, const RunOutcome &out)
{
    const std::string path = entryPath(key);
    if (path.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);

    // tmp + rename: the final name only ever refers to a complete
    // entry, so a concurrent reader (or a crash mid-write) can never
    // observe a torn file. Concurrent writers of the same key race
    // benignly — both rename byte-identical content.
    const std::string tmp = path + tmpSuffix();
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        const std::string bytes = encodeRunOutcome(key, out);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
        if (!os) {
            wisc_warn("run cache: failed to write '", tmp,
                      "' (caching disabled for this entry)");
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        wisc_warn("run cache: failed to publish '", path, "': ",
                  ec.message());
        std::filesystem::remove(tmp, ec);
        return;
    }
    std::lock_guard<std::mutex> lk(mutex_);
    ++stats_.diskWrites;
}

} // namespace wisc
