#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perf {
namespace {

using Clock = std::chrono::steady_clock;

/** One thread's spans plus the stack of its open span ids. Owned by
 *  the Recorder, so the spans survive the thread. */
struct Buffer
{
    std::uint32_t tid = 0;
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;
};

struct Recorder
{
    const Clock::time_point epoch = Clock::now();
    std::atomic<bool> on{false};
    std::atomic<std::uint64_t> nextId{1};
    std::mutex mutex;
    std::vector<std::unique_ptr<Buffer>> buffers; // guarded by mutex
};

Recorder &
recorder()
{
    static Recorder r;
    return r;
}

Buffer &
threadBuffer()
{
    thread_local Buffer *buf = nullptr;
    if (!buf) {
        Recorder &r = recorder();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.buffers.push_back(std::make_unique<Buffer>());
        buf = r.buffers.back().get();
        buf->tid = static_cast<std::uint32_t>(r.buffers.size() - 1);
    }
    return *buf;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - recorder().epoch)
        .count();
}

} // namespace

void
setTracing(bool on)
{
    recorder().on.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return recorder().on.load(std::memory_order_relaxed);
}

std::vector<Span>
collectSpans()
{
    Recorder &r = recorder();
    std::vector<Span> all;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        for (const auto &b : r.buffers)
            all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    std::sort(all.begin(), all.end(), [](const Span &a, const Span &b) {
        return a.startNs != b.startNs ? a.startNs < b.startNs : a.id < b.id;
    });
    return all;
}

std::vector<double>
childSeconds(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;

    using Interval = std::pair<std::int64_t, std::int64_t>;
    std::vector<std::vector<Interval>> kids(spans.size());
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            kids[it->second].push_back({s.startNs, s.endNs});
    }

    std::vector<double> covered(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::vector<Interval> &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t total = 0;
        std::int64_t cursor = spans[i].startNs;
        for (const Interval &c : iv) {
            const std::int64_t lo = std::max(c.first, cursor);
            const std::int64_t hi = std::min(c.second, spans[i].endNs);
            if (hi > lo) {
                total += hi - lo;
                cursor = hi;
            }
        }
        covered[i] = total * 1e-9;
    }
    return covered;
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const wisc::json::Value &meta)
{
    using wisc::json::Value;
    const std::vector<double> kids = childSeconds(spans);
    Value events = Value::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        Value e = Value::object();
        e["name"] = s.name;
        // Category: the layer, i.e. the name up to its last '.'.
        e["cat"] = s.name.substr(0, s.name.rfind('.'));
        e["ph"] = "X";
        e["ts"] = s.startNs * 1e-3;
        e["dur"] = (s.endNs - s.startNs) * 1e-3;
        e["pid"] = 1;
        e["tid"] = s.tid;
        Value args = s.args;
        args["id"] = s.id;
        args["parent"] = s.parent;
        args["self_us"] = (s.seconds() - kids[i]) * 1e6;
        e["args"] = std::move(args);
        events.push(std::move(e));
    }
    Value doc = Value::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    doc["otherData"] = meta;

    std::ofstream out(path);
    doc.write(out, 0);
    out << '\n';
    return out.good();
}

Scope::Scope(const char *name, std::uint64_t parent)
{
    if (!tracing())
        return;
    on_ = true;
    Buffer &b = threadBuffer();
    span_.name = name;
    span_.id = recorder().nextId.fetch_add(1, std::memory_order_relaxed);
    if (parent != kInnermost)
        span_.parent = parent;
    else if (!b.open.empty())
        span_.parent = b.open.back();
    span_.tid = b.tid;
    b.open.push_back(span_.id);
    span_.startNs = nowNs();
}

Scope::~Scope()
{
    if (!on_)
        return;
    span_.endNs = nowNs();
    Buffer &b = threadBuffer();
    b.open.pop_back();
    b.spans.push_back(std::move(span_));
}

void
Scope::arg(const char *key, wisc::json::Value v)
{
    if (on_)
        span_.args[key] = std::move(v);
}

} // namespace perf
