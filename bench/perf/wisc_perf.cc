/**
 * @file
 * wisc_perf: host-time benchmark of the wisc simulator (README.md).
 *
 *   wisc_perf --workload detail|sampled|sweep|fuzz [--seed N]
 *             [--seconds S] [--trace 0|1] [--trace-out PATH]
 *             [--json PATH] [--smoke] [--self-test]
 *             [--commit SHA] [--dirty 0|1]
 *
 * Sets the workload up at least three times (setup_s is the median),
 * then runs rounds of its closed batch while the next round is expected
 * to end within --seconds: one warm-up round, then timed rounds, of
 * which wall_s is the fastest. It prints
 * `workload metric value unit` rows and, as its last line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics, or with --trace 1 the per-layer ones.
 *
 * A traced run alternates untraced and traced rounds, runs the
 * workload's probes, derives the per-layer metrics from the recorded
 * spans, and writes them as a Chrome trace (default
 * <build>/trace-<workload>.json).
 *
 * Exit status: 0 when every op matched its reference and the stats
 * digest was the same in every round, 1 otherwise, 2 on bad usage.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "trace.hh"
#include "workloads.hh"

namespace {

using Clock = std::chrono::steady_clock;
using wisc::json::Value;

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 50;
constexpr double kSetupBudget = 0.5;

const char *const kUsage =
    "usage: wisc_perf --workload detail|sampled|sweep|fuzz [--seed N]\n"
    "                 [--seconds S] [--trace 0|1] [--trace-out PATH]\n"
    "                 [--json PATH] [--smoke] [--self-test]\n"
    "                 [--commit SHA] [--dirty 0|1]\n";

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0; ///< 0: 25, or 1 with --smoke
    bool trace = false;
    std::string traceOut;
    std::string json;
    bool smoke = false;
    bool selfTest = false;
    std::string commit = "unknown";
    std::string dirty = "unknown";
};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Parse argv into 'o'; false (after printing why) on bad usage. */
bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help") {
            std::cout << kUsage;
            std::exit(0);
        }
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (a == "--self-test") {
            o.selfTest = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "wisc_perf: " << a << ": missing value or unknown "
                      << "flag\n";
            return false;
        }
        const std::string v = argv[++i];
        try {
            std::size_t used = 0;
            if (a == "--workload") {
                o.workload = v;
            } else if (a == "--seed") {
                o.seed = std::stoull(v, &used);
            } else if (a == "--seconds") {
                o.seconds = std::stod(v, &used);
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    throw std::invalid_argument(v);
                o.trace = v == "1";
            } else if (a == "--trace-out") {
                o.traceOut = v;
            } else if (a == "--json") {
                o.json = v;
            } else if (a == "--commit") {
                o.commit = v;
            } else if (a == "--dirty") {
                o.dirty = v;
            } else {
                std::cerr << "wisc_perf: unknown flag " << a << "\n";
                return false;
            }
            if (used != 0 && used != v.size())
                throw std::invalid_argument(v);
        } catch (const std::exception &) {
            std::cerr << "wisc_perf: bad value for " << a << ": " << v
                      << "\n";
            return false;
        }
    }
    if (o.seconds < 0.0) {
        std::cerr << "wisc_perf: --seconds must be positive\n";
        return false;
    }
    if (o.seconds == 0.0)
        o.seconds = o.smoke ? 1.0 : 25.0;
    return true;
}

/**
 * Host-speed calibration independent of this repository's code: a
 * dependent random walk once around a single 4 MB cycle, median of
 * three walks, in ms. Host time on shared VMs drifts between phases by
 * up to 2x; this number says which phase a run landed in.
 */
double
calibrateMs()
{
    constexpr std::uint32_t kWords = (4u << 20) / sizeof(std::uint32_t);
    std::vector<std::uint32_t> next(kWords);
    std::iota(next.begin(), next.end(), 0u);
    // Sattolo's shuffle: one cycle through every word.
    wisc::Rng rng(0x5eed);
    for (std::uint32_t i = kWords - 1; i > 0; --i)
        std::swap(next[i], next[rng.below(i)]);

    std::vector<double> ms;
    std::uint32_t at = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const Clock::time_point t0 = Clock::now();
        for (std::uint32_t i = 0; i < kWords; ++i)
            at = next[at];
        ms.push_back(since(t0) * 1e3);
    }
    wisc_assert(at == 0, "calibration walk left its cycle");
    return perf::median(ms);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string
number(double v)
{
    return Value(v).dump(0);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

Value
metricsObject(const std::vector<Metric> &ms)
{
    Value o = Value::object();
    for (const Metric &m : ms) {
        Value e = Value::object();
        e["value"] = m.value;
        e["unit"] = m.unit;
        o[m.name] = std::move(e);
    }
    return o;
}

int
run(const Options &opt, perf::Workload &w)
{
    const double calibMs = calibrateMs();

    // Set up at least kMinSetups times, and more while that costs under
    // kSetupBudget seconds, so a set-up of a few ms gets a steady median.
    std::vector<double> setups;
    double setupTotal = 0.0;
    perf::setTracing(opt.trace);
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups && setupTotal < kSetupBudget)) {
        const Clock::time_point t0 = Clock::now();
        {
            perf::Scope s("setup");
            w.setup();
        }
        setups.push_back(since(t0));
        setupTotal += setups.back();
    }
    perf::setTracing(false);

    if (opt.selfTest) {
        w.corruptReference();
        const perf::Round r = w.round();
        if (r.failed != 1) {
            std::cerr << "wisc_perf: self-test expected exactly 1 failed op, "
                      << "got " << r.failed << "\n";
            return 1;
        }
        std::cout << "self-test passed: the corrupted reference failed "
                  << "exactly 1 of " << r.ops << " ops\n";
        return 0;
    }

    // Rounds. Round 0 warms up (first-touch allocation of the core's
    // tables makes it slower) and is checked but not timed. A traced run
    // then alternates untraced and traced rounds, so host drift hits
    // both alike.
    std::vector<double> plain, traced, all;
    std::uint64_t ops = 0, failed = 0, opsPerRound = 0;
    std::uint64_t digest = 0;
    bool digestStable = true;
    const Clock::time_point start = Clock::now();
    for (unsigned i = 0;; ++i) {
        const bool traceRound = opt.trace && i > 0 && i % 2 == 0;
        perf::setTracing(traceRound);
        const Clock::time_point t0 = Clock::now();
        perf::Round r;
        {
            perf::Scope s("round");
            s.arg("index", i);
            r = w.round();
        }
        const double dt = since(t0);
        perf::setTracing(false);

        if (i > 0)
            (traceRound ? traced : plain).push_back(dt);
        all.push_back(dt);
        ops += r.ops;
        failed += r.failed;
        opsPerRound = r.ops;
        if (i == 0)
            digest = r.digest;
        else if (r.digest != digest)
            digestStable = false;

        const std::size_t minRounds = opt.trace ? 3 : 2;
        if (all.size() >= minRounds &&
            since(start) + perf::median(all) > opt.seconds)
            break;
    }
    if (!digestStable)
        std::cerr << "wisc_perf: stats digest changed between rounds\n";
    const bool correct = failed == 0 && digestStable;

    // Every round does the same deterministic work, so the spread
    // between rounds is host interference, which only adds time: the
    // fastest round is the estimate of the program's own cost.
    const double wall = *std::min_element(plain.begin(), plain.end());
    const std::vector<Metric> endToEnd = {
        {"setup_s", perf::median(setups), "s"},
        {"wall_s", wall, "s"},
        {"ops_per_s", static_cast<double>(opsPerRound) / wall, "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };

    char digestHex[19];
    std::snprintf(digestHex, sizeof(digestHex), "0x%016llx",
                  static_cast<unsigned long long>(digest));

    Value prov = Value::object();
    prov["commit"] = opt.commit;
    prov["dirty"] = opt.dirty;
    prov["build_type"] = WISC_PERF_BUILD_TYPE;
    prov["compiler"] = WISC_PERF_COMPILER;
    prov["sanitizer"] = "none"; // the standalone build never instruments
    prov["nproc"] = std::thread::hardware_concurrency();
    prov["workload"] = opt.workload;
    prov["seed"] = opt.seed;
    prov["rounds"] = static_cast<std::uint64_t>(all.size());
    prov["smoke"] = opt.smoke;
    prov["host.calib_ms"] = calibMs;

    std::vector<Metric> perLayer;
    if (opt.trace) {
        perf::setTracing(true);
        w.probe();
        perf::setTracing(false);
        const std::vector<perf::Span> spans = perf::collectSpans();
        perf::LayerValues lv;
        w.layerMetrics(spans, lv);
        lv["trace.overhead_pct"] =
            (*std::min_element(traced.begin(), traced.end()) / wall - 1.0) *
            100.0;
        for (const perf::LayerMetric &m : perf::layerCatalogue()) {
            auto it = lv.find(m.name);
            perLayer.push_back(
                {m.name, it == lv.end() ? 0.0 : it->second, m.unit});
        }

        const std::string path =
            !opt.traceOut.empty()
                ? opt.traceOut
                : std::string(WISC_PERF_BUILD_DIR) + "/trace-" +
                      opt.workload + ".json";
        if (!perf::writeChromeTrace(path, spans, prov)) {
            std::cerr << "wisc_perf: cannot write trace " << path << "\n";
            return 1;
        }
        std::cerr << "wisc_perf: trace of " << spans.size()
                  << " spans written to " << path << "\n";
    }

    auto row = [&](const std::string &name, const std::string &value,
                   const std::string &unit) {
        std::cout << opt.workload << ' ' << name << ' ' << value << ' '
                  << unit << '\n';
    };
    for (const auto &[key, v] : prov.members())
        if (key != "workload")
            row("provenance." + key,
                v.kind() == Value::Kind::String ? v.asString() : v.dump(0),
                "-");
    for (const Metric &m : endToEnd)
        row(m.name, number(m.value), m.unit);
    for (const Metric &m : perLayer)
        row(m.name, number(m.value), m.unit);
    row("ops_total", std::to_string(ops), "count");
    row("ops_failed", std::to_string(failed), "count");
    row("stats_digest", digestHex, "hex");

    if (!opt.json.empty()) {
        Value doc = Value::object();
        doc["provenance"] = prov;
        doc["correct"] = correct;
        doc["ops_total"] = ops;
        doc["ops_failed"] = failed;
        doc["stats_digest"] = digestHex;
        Value rounds = Value::array();
        for (double t : plain)
            rounds.push(t);
        doc["round_s"] = std::move(rounds);
        Value tracedRounds = Value::array();
        for (double t : traced)
            tracedRounds.push(t);
        doc["traced_round_s"] = std::move(tracedRounds);
        doc["end_to_end"] = metricsObject(endToEnd);
        if (opt.trace)
            doc["per_layer"] = metricsObject(perLayer);
        std::ofstream out(opt.json);
        doc.write(out, 2);
        out << '\n';
        if (!out.good()) {
            std::cerr << "wisc_perf: cannot write " << opt.json << "\n";
            return 1;
        }
    }

    Value result = Value::object();
    result["correct"] = correct;
    result["attempted"] = ops;
    result["failed"] = failed;
    result["metrics"] = metricsObject(opt.trace ? perLayer : endToEnd);
    std::cout << result.dump(0) << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::cerr << kUsage;
        return 2;
    }
    std::unique_ptr<perf::Workload> w =
        perf::makeWorkload(opt.workload, opt.seed, opt.smoke);
    if (!w) {
        std::cerr << "wisc_perf: unknown workload '" << opt.workload
                  << "'\n"
                  << kUsage;
        return 2;
    }
    try {
        return run(opt, *w);
    } catch (const std::exception &e) {
        std::cerr << "wisc_perf: " << e.what() << "\n";
        return 1;
    }
}
