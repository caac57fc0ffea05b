/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A Span brackets one call from the benchmark into a simulator layer:
 * name ("layer.call"), start and end on one steady clock, the span that
 * caused it, the recording thread, and free-form args. Spans go into a
 * per-thread buffer, so ParallelRunner workers record without locking,
 * and are written out as Chrome trace-event JSON when the run ends.
 *
 * Recording is off by default. While it is off a Scope reads one flag
 * and does nothing else, which is what lets a traced run alternate
 * traced and untraced rounds and report the difference as overhead.
 * Spans whose name starts with "probe." bracket calls made only to
 * measure a layer, never calls a workload makes.
 */

#ifndef WISC_BENCH_PERF_TRACE_HH_
#define WISC_BENCH_PERF_TRACE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perf {

struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: a root span
    std::uint32_t tid = 0;    ///< 0 is the first thread that recorded
    std::int64_t startNs = 0; ///< since the recorder was created
    std::int64_t endNs = 0;
    wisc::json::Value args = wisc::json::Value::object();

    double seconds() const { return (endNs - startNs) * 1e-9; }
    double num(const char *key) const { return args.at(key).asDouble(); }
    const std::string &str(const char *key) const
    {
        return args.at(key).asString();
    }
};

/** Turn recording on or off. Call only while no Scope is open. */
void setTracing(bool on);
bool tracing();

/** Every span recorded so far, from all threads, in start order. Call
 *  only while no other thread is recording. */
std::vector<Span> collectSpans();

/**
 * Time the spans' children cover, per span id: the union of the child
 * intervals clipped to the parent, so overlapping children running on
 * several threads count once. A span's self time is its duration minus
 * this.
 */
std::vector<double> childSeconds(const std::vector<Span> &spans);

/** Write the spans as a Chrome trace-event document (chrome://tracing,
 *  Perfetto), with each span's id, parent and self time in its args.
 *  'meta' goes into the document's otherData. Returns false on an I/O
 *  error. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans,
                      const wisc::json::Value &meta);

/** RAII span: opens at construction, closes at destruction. With
 *  recording off it does nothing. */
class Scope
{
  public:
    /** Parent defaults to the innermost open Scope on this thread; pass
     *  an id to link work done on another thread to the span that
     *  caused it. */
    explicit Scope(const char *name, std::uint64_t parent = kInnermost);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Attach an argument to the span (no-op when not recording). */
    void arg(const char *key, wisc::json::Value v);

    /** This span's id (0 when not recording). */
    std::uint64_t id() const { return span_.id; }

    static constexpr std::uint64_t kInnermost = ~std::uint64_t{0};

  private:
    Span span_;
    bool on_ = false;
};

} // namespace perf

#endif // WISC_BENCH_PERF_TRACE_HH_
