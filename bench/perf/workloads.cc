#include "workloads.hh"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <iterator>
#include <iostream>
#include <set>
#include <thread>
#include <unistd.h>

#include "arch/emulator.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "compiler/driver.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/generator.hh"
#include "harness/parallel_runner.hh"
#include "harness/run_cache.hh"
#include "harness/sampled_runner.hh"
#include "uarch/core.hh"
#include "uarch/fastfwd.hh"
#include "workloads/workload.hh"

namespace perf {
namespace {

using namespace wisc;

// ---- shared helpers ------------------------------------------------

std::vector<std::string>
kernelNames(bool smoke)
{
    return smoke ? std::vector<std::string>{"gzip", "mcf"} : workloadNames();
}

/** Fisher-Yates with the repo's platform-independent generator, so a
 *  seed gives the same order everywhere. */
template <typename T>
void
shuffle(std::vector<T> &v, std::uint64_t seed)
{
    Rng rng(mixHash(seed));
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

CompiledWorkload
compileKernel(const std::string &kernel)
{
    Scope s("compiler.compileWorkload");
    s.arg("kernel", kernel);
    return compileWorkload(kernel);
}

Program
buildProgram(const CompiledWorkload &w, BinaryVariant v, InputSet in,
             std::uint64_t tripScale)
{
    Scope s("workloads.programFor");
    return programFor(w, v, in, tripScale);
}

/** What a correct run of a kernel program must produce. */
struct Reference
{
    std::uint64_t uops = 0;   ///< functionally executed instructions
    std::uint64_t qpTrue = 0; ///< of those, qp-true: the sampled run length
    Word resultReg = 0;
    std::uint64_t memFingerprint = 0;
};

Reference
emulate(const Program &prog)
{
    Scope s("arch.Emulator.run");
    const EmuResult r = Emulator().run(prog);
    s.arg("uops", r.dynInsts);
    if (!r.halted)
        wisc_fatal("reference emulation did not halt");
    return {r.dynInsts, r.dynInsts - r.predFalse, r.resultReg,
            r.memFingerprint};
}

/** Empty when the run matches its reference, else what differs. */
std::string
mismatch(const Reference &ref, const SimResult &r)
{
    if (!r.halted)
        return "did not halt";
    if (r.resultReg != ref.resultReg)
        return detail::format("result register ", r.resultReg,
                              " != reference ", ref.resultReg);
    if (r.memFingerprint != ref.memFingerprint)
        return "memory fingerprint differs from the reference";
    return {};
}

std::map<std::string, std::uint64_t>
counters(const StatSet &stats)
{
    std::map<std::string, std::uint64_t> m;
    for (const std::string &name : stats.counterNames())
        m[name] = stats.get(name);
    return m;
}

std::uint64_t
outcomeHash(const std::string &op, const SimResult &r,
            const std::map<std::string, std::uint64_t> &stats)
{
    Hasher h;
    h.str(op);
    h.b(r.halted);
    h.u64(r.cycles);
    h.u64(r.retiredUops);
    h.u64(static_cast<std::uint64_t>(r.resultReg));
    h.u64(r.memFingerprint);
    for (const auto &[name, value] : stats) {
        h.str(name);
        h.u64(value);
    }
    return h.digest();
}

/** Count one op into the round: a failure when 'why' is non-empty. */
void
tally(Round &r, const std::string &op, const std::string &why,
      std::uint64_t hash)
{
    ++r.ops;
    if (why.empty()) {
        r.digest += hash;
        return;
    }
    ++r.failed;
    std::cerr << "wisc_perf: " << op << " FAILED: " << why << "\n";
}

// ---- span queries --------------------------------------------------

std::vector<const Span *>
named(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<const Span *> out;
    for (const Span &s : spans)
        if (s.name == name)
            out.push_back(&s);
    return out;
}

double
seconds(const std::vector<const Span *> &spans)
{
    double t = 0.0;
    for (const Span *s : spans)
        t += s->seconds();
    return t;
}

double
sumArg(const std::vector<const Span *> &spans, const char *key)
{
    double t = 0.0;
    for (const Span *s : spans)
        t += s->num(key);
    return t;
}

std::vector<double>
durations(const std::vector<const Span *> &spans, double scale)
{
    std::vector<double> out;
    for (const Span *s : spans)
        out.push_back(s->seconds() * scale);
    return out;
}

/** Spans named 'child' whose parent is one of 'parents'. */
std::vector<const Span *>
childrenOf(const std::vector<Span> &spans,
           const std::vector<const Span *> &parents, const std::string &child)
{
    std::set<std::uint64_t> ids;
    for (const Span *p : parents)
        ids.insert(p->id);
    std::vector<const Span *> out;
    for (const Span &s : spans)
        if (s.name == child && ids.count(s.parent))
            out.push_back(&s);
    return out;
}

/** For each span named 'parent', the seconds of its 'child' spans. */
std::vector<double>
perParent(const std::vector<Span> &spans, const std::string &parent,
          const std::string &child)
{
    std::vector<double> out;
    for (const Span *p : named(spans, parent))
        out.push_back(seconds(childrenOf(spans, {p}, child)));
    return out;
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

/** Compile, program-build and reference-emulation speed, from the
 *  spans of the traced set-ups of a kernel workload. */
void
setupMetrics(const std::vector<Span> &spans, LayerValues &out)
{
    out["compiler.kernel_compile_ms"] =
        median(perParent(spans, "setup", "compiler.compileWorkload")) * 1e3;
    out["workloads.program_build_ms"] =
        median(perParent(spans, "setup", "workloads.programFor")) * 1e3;
    const auto emu = named(spans, "arch.Emulator.run");
    out["emu.muops_per_s"] = ratio(sumArg(emu, "uops"), seconds(emu)) / 1e6;
}

// ---- detail --------------------------------------------------------

/** The three binaries the paper's experiments run most. */
struct VariantSpec
{
    const char *label;
    BinaryVariant variant;
};

const VariantSpec kDetailVariants[] = {
    {"normal", BinaryVariant::Normal},
    {"base-max", BinaryVariant::BaseMax},
    {"wish-jjl", BinaryVariant::WishJumpJoinLoop},
};

/** Serial full-detail runs at the default machine (rob=512): the cycle
 *  loop does nearly all the work. */
class Detail final : public Workload
{
  public:
    Detail(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

    void
    setup() override
    {
        ops_.clear();
        for (const std::string &k : kernelNames(smoke_)) {
            const CompiledWorkload w = compileKernel(k);
            for (const VariantSpec &vs : kDetailVariants) {
                Op op;
                op.name = k + "/" + vs.label;
                op.variant = vs.label;
                op.prog = buildProgram(w, vs.variant, InputSet::A, 1);
                op.ref = emulate(op.prog);
                ops_.push_back(std::move(op));
            }
        }
        shuffle(ops_, seed_);
    }

    Round
    round() override
    {
        Round r;
        const SimParams params;
        for (const Op &op : ops_) {
            std::string why;
            std::uint64_t hash = 0;
            try {
                StatSet stats;
                SimResult res;
                {
                    Scope s("uarch.simulate");
                    res = simulate(op.prog, params, stats);
                    s.arg("variant", op.variant);
                    s.arg("uops", res.retiredUops);
                    s.arg("cycles", res.cycles);
                }
                why = mismatch(op.ref, res);
                hash = outcomeHash(op.name, res, counters(stats));
            } catch (const std::exception &e) {
                why = e.what();
            }
            tally(r, op.name, why, hash);
        }
        return r;
    }

    void corruptReference() override { ops_.front().ref.resultReg ^= 1; }

    void
    layerMetrics(const std::vector<Span> &spans,
                 LayerValues &out) const override
    {
        setupMetrics(spans, out);
        const auto sims = named(spans, "uarch.simulate");
        for (const VariantSpec &vs : kDetailVariants) {
            std::vector<const Span *> v;
            for (const Span *s : sims)
                if (s->str("variant") == vs.label)
                    v.push_back(s);
            out[std::string("core.muops_per_s.") + vs.label] =
                ratio(sumArg(v, "uops"), seconds(v)) / 1e6;
        }
        out["core.ns_per_sim_cycle"] =
            ratio(seconds(sims) * 1e9, sumArg(sims, "cycles"));
    }

  private:
    struct Op
    {
        std::string name;
        const char *variant = "";
        Program prog;
        Reference ref;
    };

    std::uint64_t seed_;
    bool smoke_;
    std::vector<Op> ops_;
};

// ---- sampled -------------------------------------------------------

/** SMARTS-sampled runs of long (tripScale 128) wish-jjl kernels with
 *  sampling_validation's window geometry: functional fast-forward
 *  carries most of the time, the core runs only the windows. */
class Sampled final : public Workload
{
  public:
    Sampled(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

    void
    setup() override
    {
        ops_.clear();
        for (const std::string &k : kernelNames(smoke_)) {
            const CompiledWorkload w = compileKernel(k);
            Op op;
            op.name = k;
            op.prog = buildProgram(w, BinaryVariant::WishJumpJoinLoop,
                                   InputSet::A, smoke_ ? 8 : 128);
            op.ref = emulate(op.prog);

            // Prefix-length probe: one unscaled pass touches the
            // kernel's whole working set, and the detailed prefix must
            // cover it (see bench/sampling_validation.cc).
            const Program base = buildProgram(
                w, BinaryVariant::WishJumpJoinLoop, InputSet::A, 1);
            std::uint64_t baseUops = 0;
            {
                Scope s("uarch.FastForward.advanceTo");
                FastForward ff(base, SimParams{});
                ff.advanceTo(Emulator::kDefaultMaxSteps);
                if (!ff.halted())
                    wisc_fatal(k, ": unscaled fast-forward did not halt");
                baseUops = ff.uops();
                s.arg("uops", baseUops);
            }

            SimParams::SamplingParams &sp = op.params.sampling;
            sp.enabled = true;
            sp.warmupUops = 8 * op.params.robSize;
            sp.measureUops = 16 * op.params.robSize;
            sp.periodUops = std::max<std::uint64_t>(
                op.ref.qpTrue / 32, sp.warmupUops + sp.measureUops);
            sp.prefixUops = 2 * baseUops;
            ops_.push_back(std::move(op));
        }
        shuffle(ops_, seed_);
    }

    Round
    round() override
    {
        Round r;
        for (const Op &op : ops_) {
            std::string why;
            std::uint64_t hash = 0;
            try {
                RunOutcome o;
                {
                    Scope s("harness.runSampled");
                    o = runSampled(op.prog, op.params);
                    s.arg("uops", op.ref.uops);
                    s.arg("windows", o.require("sampling.windows"));
                }
                why = mismatch(op.ref, o.result);
                const std::uint64_t qt = o.require("sampling.qp_true_uops");
                if (why.empty() && qt != op.ref.qpTrue)
                    why = detail::format("sampling.qp_true_uops ", qt,
                                         " != reference ", op.ref.qpTrue);
                if (why.empty() && o.stats.count("sampling.fallback"))
                    why = "fell back to full-detail simulation";
                hash = outcomeHash(op.name, o.result, o.stats);
            } catch (const std::exception &e) {
                why = e.what();
            }
            tally(r, "sampled " + op.name, why, hash);
        }
        return r;
    }

    void corruptReference() override { ops_.front().ref.qpTrue += 1; }

    /** Fast-forward each program end to end, as runSampled's own
     *  functional engine does, to split its time. */
    void
    probe() override
    {
        for (const Op &op : ops_) {
            Scope s("probe.uarch.FastForward.advanceTo");
            SimParams wp = op.params;
            wp.checkFinalState = false; // as runSampled's engine
            FastForward ff(op.prog, wp);
            ff.advanceTo(Emulator::kDefaultMaxSteps);
            s.arg("uops", ff.uops());
        }
    }

    void
    layerMetrics(const std::vector<Span> &spans,
                 LayerValues &out) const override
    {
        setupMetrics(spans, out);
        const auto ff = named(spans, "probe.uarch.FastForward.advanceTo");
        const double ffSeconds = seconds(ff);
        out["fastfwd.muops_per_s"] = ratio(sumArg(ff, "uops"), ffSeconds) /
                                     1e6;
        const double sampled =
            median(perParent(spans, "round", "harness.runSampled"));
        out["sampler.ff_share"] = ratio(ffSeconds, sampled);
        out["sampler.detail_s"] = sampled - ffSeconds;
        out["sampler.windows"] =
            ratio(sumArg(named(spans, "harness.runSampled"), "windows"),
                  static_cast<double>(named(spans, "round").size()));
    }

  private:
    struct Op
    {
        std::string name;
        Program prog;
        SimParams params;
        Reference ref;
    };

    std::uint64_t seed_;
    bool smoke_;
    std::vector<Op> ops_;
};

// ---- sweep ---------------------------------------------------------

SimParams
machine(unsigned rob)
{
    SimParams p;
    p.robSize = rob;
    p.iqSize = rob / 4;
    p.lsqSize = rob / 2;
    return p;
}

/** The experiment-matrix path: 9 kernels x 5 variants x inputs A/B/C x
 *  rob {128, 512} through one RunService with a fresh cache directory,
 *  fanned out over min(nproc, 4) threads, then replayed warm from a new
 *  RunService on the same directory. */
class Sweep final : public Workload
{
  public:
    Sweep(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

    void
    setup() override
    {
        progs_.clear();
        reqs_.clear();
        pool_.reset();
        const std::vector<InputSet> inputs =
            smoke_ ? std::vector<InputSet>{InputSet::A}
                   : std::vector<InputSet>{InputSet::A, InputSet::B,
                                           InputSet::C};
        // A request is fresh when no earlier one has its run-cache key:
        // fresh requests are the simulations a cold cache must run.
        std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
        for (const std::string &k : kernelNames(smoke_)) {
            const CompiledWorkload w = compileKernel(k);
            for (BinaryVariant v : kAllVariants) {
                for (InputSet in : inputs) {
                    progs_.push_back(buildProgram(w, v, in, 1));
                    const Reference ref = emulate(progs_.back());
                    for (unsigned rob : {128u, 512u}) {
                        Request q;
                        q.prog = progs_.size() - 1;
                        q.name = detail::format(k, "/", variantName(v), "/",
                                                inputSetName(in), "/rob",
                                                rob);
                        q.params = machine(rob);
                        q.ref = ref;
                        q.fresh = keys.insert({progs_.back().fingerprint(),
                                               q.params.fingerprint()})
                                      .second;
                        reqs_.push_back(std::move(q));
                    }
                }
            }
        }
        shuffle(reqs_, seed_);

        const unsigned nproc =
            std::max(1u, std::thread::hardware_concurrency());
        pool_ = std::make_unique<ParallelRunner>(std::min(nproc, 4u));
    }

    Round
    round() override
    {
        const std::string dir = detail::format(WISC_PERF_BUILD_DIR, "/sweep-",
                                               ::getpid());
        std::filesystem::remove_all(dir);
        const Pass cold = pass("sweep.cold", dir);
        const Pass warm = pass("sweep.warm", dir);
        std::filesystem::remove_all(dir);

        Round r;
        for (std::size_t i = 0; i < reqs_.size(); ++i) {
            std::string why = cold.why[i];
            if (why.empty())
                why = warm.why[i];
            if (why.empty() && warm.hash[i] != cold.hash[i])
                why = "warm replay differs from the cold run";
            tally(r, reqs_[i].name, why, cold.hash[i]);
        }
        return r;
    }

    void corruptReference() override { reqs_.front().ref.resultReg ^= 1; }

    /** Cache-entry codec and key speed on this sweep's own outcomes. */
    void
    probe() override
    {
        RunService passThrough;
        std::vector<std::pair<RunKey, RunOutcome>> outs;
        for (std::size_t i = 0; i < std::min<std::size_t>(4, progs_.size());
             ++i) {
            const SimParams params = machine(512);
            outs.push_back({{progs_[i].fingerprint(), params.fingerprint()},
                            passThrough.run(progs_[i], params)});
        }
        constexpr int kReps = 50;
        std::vector<std::string> encoded;
        {
            Scope s("probe.harness.encodeRunOutcome");
            std::uint64_t bytes = 0;
            for (int rep = 0; rep < kReps; ++rep) {
                encoded.clear();
                for (const auto &[key, out] : outs) {
                    encoded.push_back(encodeRunOutcome(key, out));
                    bytes += encoded.back().size();
                }
            }
            s.arg("bytes", bytes);
        }
        {
            Scope s("probe.harness.decodeRunOutcome");
            std::uint64_t bytes = 0;
            for (int rep = 0; rep < kReps; ++rep) {
                for (std::size_t i = 0; i < outs.size(); ++i) {
                    RunOutcome back;
                    if (!decodeRunOutcome(encoded[i], outs[i].first, back))
                        wisc_fatal("cache entry failed to decode");
                    bytes += encoded[i].size();
                }
            }
            s.arg("bytes", bytes);
        }
        {
            Scope s("probe.harness.fingerprint");
            std::uint64_t sink = 0;
            for (const Request &q : reqs_)
                sink ^= progs_[q.prog].fingerprint() ^ q.params.fingerprint();
            s.arg("keys", reqs_.size());
            s.arg("xor", sink);
        }
    }

    void
    layerMetrics(const std::vector<Span> &spans,
                 LayerValues &out) const override
    {
        setupMetrics(spans, out);

        const auto colds = named(spans, "sweep.cold");
        const auto warms = named(spans, "sweep.warm");
        // The cache counters repeat exactly every round.
        const Span &c = *colds.front();
        const Span &w = *warms.front();
        auto both = [&](const char *key) { return c.num(key) + w.num(key); };
        out["run_cache.misses"] = both("misses");
        out["run_cache.dedup_hits"] = both("dedup_hits");
        out["run_cache.disk_hits"] = both("disk_hits");
        out["run_cache.disk_writes"] = both("disk_writes");
        out["run_cache.useful_ratio"] =
            ratio(both("dedup_hits") + both("disk_hits"), both("requests"));

        const auto requests =
            childrenOf(spans, colds, "harness.RunService.run");
        out["run_cache.request_ms.p50"] =
            quantile(durations(requests, 1e3), 0.50);
        out["run_cache.request_ms.p98"] =
            quantile(durations(requests, 1e3), 0.98);
        out["run_cache.warm_replay_ms"] = median(durations(warms, 1e3));

        std::vector<double> busy, tail;
        for (const Span *pass : colds) {
            const auto tasks =
                childrenOf(spans, {pass}, "harness.RunService.run");
            busy.push_back(ratio(seconds(tasks),
                                 pass->num("jobs") * pass->seconds()));
            std::int64_t lastStart = pass->startNs;
            for (const Span *t : tasks)
                lastStart = std::max(lastStart, t->startNs);
            tail.push_back((pass->endNs - lastStart) * 1e-9);
        }
        out["parallel.busy_share"] = median(busy);
        out["parallel.tail_s"] = median(tail);
        out["core.parallel_muops_per_s"] =
            ratio(sumArg(colds, "fresh_uops"), seconds(requests)) / 1e6;

        const auto enc = named(spans, "probe.harness.encodeRunOutcome");
        const auto dec = named(spans, "probe.harness.decodeRunOutcome");
        const auto key = named(spans, "probe.harness.fingerprint");
        out["run_cache.encode_mb_per_s"] =
            ratio(sumArg(enc, "bytes"), seconds(enc)) / 1e6;
        out["run_cache.decode_mb_per_s"] =
            ratio(sumArg(dec, "bytes"), seconds(dec)) / 1e6;
        out["run_cache.key_us"] =
            ratio(seconds(key), sumArg(key, "keys")) * 1e6;
    }

  private:
    struct Request
    {
        std::size_t prog = 0; ///< index into progs_
        std::string name;
        SimParams params;
        Reference ref;
        bool fresh = false;
    };

    struct Pass
    {
        std::vector<std::string> why;
        std::vector<std::uint64_t> hash;
    };

    /** Serve every request once through a new RunService on 'dir'. */
    Pass
    pass(const char *name, const std::string &dir)
    {
        const std::size_t n = reqs_.size();
        Pass p{std::vector<std::string>(n), std::vector<std::uint64_t>(n)};
        std::vector<std::uint64_t> uops(n, 0);
        Scope s(name);
        RunService svc(dir);
        const std::uint64_t parent = s.id();
        pool_->forEach(n, [&](std::size_t i) {
            const Request &q = reqs_[i];
            try {
                RunOutcome o;
                {
                    Scope rs("harness.RunService.run", parent);
                    o = svc.run(progs_[q.prog], q.params);
                    rs.arg("uops", o.result.retiredUops);
                }
                p.why[i] = mismatch(q.ref, o.result);
                p.hash[i] = outcomeHash(q.name, o.result, o.stats);
                uops[i] = o.result.retiredUops;
            } catch (const std::exception &e) {
                p.why[i] = e.what();
            }
        });
        std::uint64_t freshUops = 0;
        for (std::size_t i = 0; i < n; ++i)
            if (reqs_[i].fresh)
                freshUops += uops[i];
        const RunCacheStats st = svc.stats();
        s.arg("requests", n);
        s.arg("jobs", pool_->jobs());
        s.arg("misses", st.misses);
        s.arg("dedup_hits", st.dedupHits);
        s.arg("disk_hits", st.diskHits);
        s.arg("disk_writes", st.diskWrites);
        s.arg("fresh_uops", freshUops);
        return p;
    }

    std::uint64_t seed_;
    bool smoke_;
    std::vector<Program> progs_;
    std::vector<Request> reqs_;
    std::unique_ptr<ParallelRunner> pool_;
};

// ---- fuzz ----------------------------------------------------------

/** Seeded differential fuzz checks: each program takes ~35 tiny core
 *  runs, so per-run core set-up, not the cycle loop, dominates. */
class Fuzz final : public Workload
{
  public:
    Fuzz(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

    void
    setup() override
    {
        ops_.clear();
        opts_ = FuzzOptions{};
        opts_.seed = seed_;
        // The reference: a passing check runs every matrix point on
        // every variant, plus the event-scheduler twin of poll points.
        unsigned runs = 0;
        for (const ParamsPoint &pt : opts_.matrix)
            runs += pt.params.pollScheduler ? 2 : 1;
        const unsigned nprog = smoke_ ? 20 : 350;
        for (unsigned i = 0; i < nprog; ++i) {
            Op op;
            op.seed = mixHash(seed_ + 0x9e3779b97f4a7c15ull * (i + 1));
            op.coreRuns = runs * std::size(kAllVariants);
            Scope s("fuzz.generateProgram");
            op.fn = generateProgram(op.seed);
            ops_.push_back(std::move(op));
        }
    }

    Round
    round() override
    {
        Round r;
        for (const Op &op : ops_) {
            const std::string name = detail::format("fuzz seed ", op.seed);
            std::string why;
            std::uint64_t hash = 0;
            try {
                CheckOutcome c;
                {
                    Scope s("fuzz.checkProgram");
                    c = checkProgram(op.fn, opts_);
                    s.arg("core_runs", c.coreRuns);
                }
                // A compile reject is a documented skip, not a failure.
                const unsigned expect = c.compileReject ? op.rejectRuns
                                                        : op.coreRuns;
                if (!c.ok)
                    why = c.kind + ": " + c.detail;
                else if (c.coreRuns != expect)
                    why = detail::format(c.coreRuns, " core runs, expected ",
                                         expect);
                Hasher h;
                h.u64(op.seed);
                h.b(c.compileReject);
                h.u64(c.variantsChecked);
                h.u64(c.dispatchChecked);
                h.u64(c.coreRuns);
                hash = h.digest();
            } catch (const std::exception &e) {
                why = e.what();
            }
            tally(r, name, why, hash);
        }
        return r;
    }

    void
    corruptReference() override
    {
        ops_.front().coreRuns += 1;
        ops_.front().rejectRuns += 1;
    }

    /** Split a check into its layers: compile the variants, emulate
     *  each, and run the core matrix, beside the whole checkProgram. */
    void
    probe() override
    {
        CompileOptions copts;
        copts.profileMaxSteps = opts_.emuMaxSteps; // as checkProgram
        const std::size_t n = std::min<std::size_t>(ops_.size(),
                                                    smoke_ ? 5 : 40);
        for (std::size_t i = 0; i < n; ++i) {
            const IrFunction &fn = ops_[i].fn;
            std::map<BinaryVariant, CompiledBinary> variants;
            try {
                variants = compileAllVariants(fn, copts);
            } catch (const FatalError &) {
                continue; // a compile reject: nothing to split
            }
            {
                Scope s("probe.compiler.compileAllVariants");
                variants = compileAllVariants(fn, copts);
            }
            {
                Scope s("probe.fuzz.checkProgram");
                checkProgram(fn, opts_);
            }
            auto emulateOnce = [](const Program &prog) {
                Scope s("probe.arch.Emulator.run");
                s.arg("uops", Emulator().run(prog).dynInsts);
            };
            emulateOnce(variants.at(BinaryVariant::Normal).program);
            for (const auto &kv : variants)
                emulateOnce(kv.second.program);
            for (const ParamsPoint &pt : opts_.matrix) {
                SimParams twin = pt.params;
                twin.pollScheduler = false;
                for (const auto &kv : variants) {
                    auto sim = [&](const SimParams &p) {
                        Scope s("probe.uarch.simulate");
                        StatSet stats;
                        simulate(kv.second.program, p, stats);
                    };
                    sim(pt.params);
                    if (pt.params.pollScheduler)
                        sim(twin);
                }
            }
        }
    }

    void
    layerMetrics(const std::vector<Span> &spans,
                 LayerValues &out) const override
    {
        const auto gen = named(spans, "fuzz.generateProgram");
        out["fuzz.generate_us"] = median(durations(gen, 1e6));

        const auto checks = named(spans, "fuzz.checkProgram");
        out["fuzz.check_ms.p50"] = quantile(durations(checks, 1e3), 0.50);
        out["fuzz.check_ms.p99"] = quantile(durations(checks, 1e3), 0.99);
        out["fuzz.core_runs"] =
            ratio(sumArg(checks, "core_runs"),
                  static_cast<double>(named(spans, "round").size()));

        const double check = seconds(named(spans, "probe.fuzz.checkProgram"));
        const auto sims = named(spans, "probe.uarch.simulate");
        const auto emu = named(spans, "probe.arch.Emulator.run");
        out["core.fuzz_share"] = ratio(seconds(sims), check);
        out["core.tiny_run_us"] = median(durations(sims, 1e6));
        out["emu.fuzz_share"] = ratio(seconds(emu), check);
        out["emu.muops_per_s"] = ratio(sumArg(emu, "uops"), seconds(emu)) /
                                 1e6;
        out["compiler.fuzz_share"] = ratio(
            seconds(named(spans, "probe.compiler.compileAllVariants")),
            check);
    }

  private:
    struct Op
    {
        std::uint64_t seed = 0;
        IrFunction fn;
        unsigned coreRuns = 0;   ///< expected from a passing check
        unsigned rejectRuns = 0; ///< expected from a compile reject
    };

    std::uint64_t seed_;
    bool smoke_;
    FuzzOptions opts_;
    std::vector<Op> ops_;
};

} // namespace

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    if (name == "detail")
        return std::make_unique<Detail>(seed, smoke);
    if (name == "sampled")
        return std::make_unique<Sampled>(seed, smoke);
    if (name == "sweep")
        return std::make_unique<Sweep>(seed, smoke);
    if (name == "fuzz")
        return std::make_unique<Fuzz>(seed, smoke);
    return nullptr;
}

const std::vector<LayerMetric> &
layerCatalogue()
{
    static const std::vector<LayerMetric> kCatalogue = {
        {"core.muops_per_s.normal", "Muops/s"},
        {"core.muops_per_s.base-max", "Muops/s"},
        {"core.muops_per_s.wish-jjl", "Muops/s"},
        {"core.ns_per_sim_cycle", "ns"},
        {"core.parallel_muops_per_s", "Muops/s"},
        {"core.tiny_run_us", "us"},
        {"core.fuzz_share", "share"},
        {"fastfwd.muops_per_s", "Muops/s"},
        {"sampler.ff_share", "share"},
        {"sampler.detail_s", "s"},
        {"sampler.windows", "count"},
        {"emu.muops_per_s", "Muops/s"},
        {"emu.fuzz_share", "share"},
        {"compiler.kernel_compile_ms", "ms"},
        {"workloads.program_build_ms", "ms"},
        {"compiler.fuzz_share", "share"},
        {"fuzz.generate_us", "us"},
        {"fuzz.check_ms.p50", "ms"},
        {"fuzz.check_ms.p99", "ms"},
        {"fuzz.core_runs", "count"},
        {"run_cache.misses", "count"},
        {"run_cache.dedup_hits", "count"},
        {"run_cache.disk_hits", "count"},
        {"run_cache.disk_writes", "count"},
        {"run_cache.useful_ratio", "share"},
        {"run_cache.request_ms.p50", "ms"},
        {"run_cache.request_ms.p98", "ms"},
        {"run_cache.warm_replay_ms", "ms"},
        {"run_cache.encode_mb_per_s", "MB/s"},
        {"run_cache.decode_mb_per_s", "MB/s"},
        {"run_cache.key_us", "us"},
        {"parallel.busy_share", "share"},
        {"parallel.tail_s", "s"},
        {"trace.overhead_pct", "%"},
    };
    return kCatalogue;
}

} // namespace perf
