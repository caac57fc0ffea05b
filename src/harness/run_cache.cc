#include "harness/run_cache.hh"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "common/bytes.hh"
#include "common/hash.hh"
#include "common/log.hh"

namespace wisc {

namespace {

/** "WISCRUN\0", read as a little-endian u64. */
constexpr std::uint64_t kMagic = 0x004e555243534957;
/** v2: appended the StatTable section (core.branch_profile etc.) after
 *  the histograms. v1 readers reject v2 entries by version (and vice
 *  versa) and fall back to a fresh simulation; entryPath() embeds the
 *  version so a mixed-version cache directory simply never collides. */
constexpr std::uint32_t kFormatVersion = 2;

/** The entry around a payload: magic, version, the key it answers, the
 *  payload (a count, then its bytes) and the payload's checksum. */
struct Frame
{
    std::uint64_t magic = kMagic;
    std::uint32_t version = kFormatVersion;
    RunKey key;
    std::string_view payload;
    std::uint64_t checksum = 0;
};

void
io(StateIO &io, Frame &f)
{
    io(f.magic, f.version, f.key.prog, f.key.params);
    io.str(f.payload);
    io(f.checksum);
}

/** The payload: the SimResult (halted as a u32), then every counter,
 *  histogram and table by name, each histogram and table as its own
 *  walk writes it. */
void
io(StateIO &io, RunOutcome &out)
{
    SimResult &r = out.result;
    std::uint32_t halted = r.halted ? 1 : 0;
    io(halted, r.cycles, r.retiredUops, r.resultReg, r.memFingerprint);
    if (io.loading())
        r.halted = halted != 0;

    io.map(out.stats, [&](std::string &name, std::uint64_t &value) {
        io.str(name);
        io(value);
    });
    io.map(out.hists, [&](std::string &name, Histogram &h) {
        io.str(name);
        h.io(io);
    });
    io.map(out.tables, [&](std::string &name, StatTable &t) {
        io.str(name);
        t.io(io);
    });
}

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
    StateIO payload;
    io(payload, const_cast<RunOutcome &>(out)); // writing only reads out
    const std::string bytes = payload.take();
    Frame f{.key = key,
            .payload = bytes,
            .checksum = hashBytes(bytes.data(), bytes.size())};
    StateIO file;
    io(file, f);
    return file.take();
}

bool
decodeRunOutcome(const std::string &bytes, const RunKey &key,
                 RunOutcome &out)
{
    StateIO file(bytes);
    Frame f;
    io(file, f);
    if (!file.done() || f.magic != kMagic || f.version != kFormatVersion ||
        f.key != key ||
        f.checksum != hashBytes(f.payload.data(), f.payload.size()))
        return false;

    StateIO payload(f.payload);
    RunOutcome tmp;
    io(payload, tmp);
    if (!payload.done())
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
           ".v" + std::to_string(kFormatVersion) + ".bin";
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
