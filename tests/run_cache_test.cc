/**
 * @file
 * Tests for the run-memoization subsystem (ctest label: cache):
 * fingerprint stability and sensitivity, in-process dedup semantics,
 * persistent round-trips that are bit-identical to fresh simulations,
 * corruption fallback (truncation, bit flips, version skew, a lying
 * count), and the StateIO codec's byte layout and latching.
 *
 * The concurrency hammer lives in run_cache_concurrency_test.cc inside
 * the tsan-labeled wisc_parallel_tests binary.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/bytes.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "fuzz/fuzzer.hh"
#include "golden_runs.hh"
#include "harness/experiments.hh"
#include "harness/run_cache.hh"
#include "harness/runner.hh"
#include "workloads/workload.hh"

namespace wisc {
namespace {

namespace fs = std::filesystem;

/** Fresh temp directory per test, removed on destruction. */
class TempDir
{
  public:
    TempDir()
    {
        dir_ = fs::temp_directory_path() /
               ("wisc_cache_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter_++));
        fs::create_directories(dir_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string path() const { return dir_.string(); }

  private:
    static inline int counter_ = 0;
    fs::path dir_;
};

/** Minimal halting program whose checksum register (r4) carries seed. */
Program
tinyProgram(Word seed)
{
    Program p;
    p.append({.op = Opcode::Li, .rd = 4, .imm = seed});
    p.append({.op = Opcode::AddI, .rd = 4, .rs1 = 4, .imm = 1});
    p.append({.op = Opcode::Halt});
    return p;
}

void
expectOutcomesIdentical(const RunOutcome &a, const RunOutcome &b)
{
    EXPECT_EQ(a.result.halted, b.result.halted);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.retiredUops, b.result.retiredUops);
    EXPECT_EQ(a.result.resultReg, b.result.resultReg);
    EXPECT_EQ(a.result.memFingerprint, b.result.memFingerprint);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.hists, b.hists);
    EXPECT_EQ(a.tables, b.tables);
}

// ---- fingerprints -----------------------------------------------------

TEST(HashTest, StreamingMatchesOneShotAndChunking)
{
    const char data[] = "wish branches";
    Hasher whole;
    whole.bytes(data, sizeof(data));
    Hasher split;
    split.bytes(data, 5);
    split.bytes(data + 5, sizeof(data) - 5);
    EXPECT_EQ(whole.digest(), split.digest());
    EXPECT_EQ(whole.digest(), hashBytes(data, sizeof(data)));
    EXPECT_NE(whole.digest(), hashBytes(data, sizeof(data) - 1));
}

// ---- the codec ----------------------------------------------------------

enum class Tiny : std::uint8_t { A, B = 0x7f };

TEST(StateIOTest, ScalarsAreLittleEndianAtTheirOwnWidth)
{
    std::uint8_t u8 = 0x12;
    std::uint16_t u16 = 0x3456;
    std::uint32_t u32 = 0x789abcde;
    std::uint64_t u64 = 0x0123456789abcdefull;
    std::int8_t i8 = -2;
    std::int64_t i64 = -3;
    bool b = true;
    Tiny e = Tiny::B;

    StateIO w;
    w(u8, u16, u32, u64, i8, i64, b, e);
    const std::string bytes = w.take();
    const std::string want("\x12"
                           "\x56\x34"
                           "\xde\xbc\x9a\x78"
                           "\xef\xcd\xab\x89\x67\x45\x23\x01"
                           "\xfe"
                           "\xfd\xff\xff\xff\xff\xff\xff\xff"
                           "\x01"
                           "\x7f",
                           1 + 2 + 4 + 8 + 1 + 8 + 1 + 1);
    EXPECT_EQ(bytes, want);

    std::uint8_t ru8 = 0;
    std::uint16_t ru16 = 0;
    std::uint32_t ru32 = 0;
    std::uint64_t ru64 = 0;
    std::int8_t ri8 = 0;
    std::int64_t ri64 = 0;
    bool rb = false;
    Tiny re = Tiny::A;
    StateIO r(bytes);
    r(ru8, ru16, ru32, ru64, ri8, ri64, rb, re);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(ru8, u8);
    EXPECT_EQ(ru16, u16);
    EXPECT_EQ(ru32, u32);
    EXPECT_EQ(ru64, u64);
    EXPECT_EQ(ri8, i8);
    EXPECT_EQ(ri64, i64);
    EXPECT_EQ(rb, b);
    EXPECT_EQ(re, e);
}

TEST(StateIOTest, ShortStreamLatchesAndReadsZeros)
{
    StateIO r(std::string_view("\x01\x02\x03", 3));
    std::uint32_t v = 99;
    r(v);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(v, 0u);
    // Latched: even a read the bytes left could serve yields zero.
    std::uint8_t b = 99;
    r(b);
    EXPECT_EQ(b, 0u);
    EXPECT_FALSE(r.done());
}

TEST(StateIOTest, CountPastTheEndLatchesWithoutGrowing)
{
    StateIO w;
    std::uint64_t claimed = 1000; // a count is a u64
    w(claimed);
    const std::string bytes = w.take() + "ten bytes!";

    StateIO r(bytes);
    std::string s = "kept?";
    r.str(s);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(s.empty());

    StateIO rm(bytes);
    std::map<std::uint64_t, std::uint64_t> m{{1, 2}};
    rm.map(m, [&](std::uint64_t &k, std::uint64_t &v) { rm(k, v); });
    EXPECT_FALSE(rm.ok());
    EXPECT_TRUE(m.empty());

    StateIO rs(bytes);
    std::vector<std::uint64_t> v{7};
    rs.seq(v, [&](std::uint64_t &e) { rs(e); });
    EXPECT_FALSE(rs.ok());
    EXPECT_TRUE(v.empty());
}

TEST(StateIOTest, TableSizeMismatchLatchesAndKeepsGeometry)
{
    std::vector<std::uint32_t> four{1, 2, 3, 4};
    StateIO w;
    w.table(four);
    std::uint32_t after = 5;
    w(after);
    const std::string bytes = w.take();

    std::vector<std::uint32_t> eight(8, 9);
    StateIO r(bytes);
    r.table(eight);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(eight, std::vector<std::uint32_t>(8, 9))
        << "a mismatched table keeps the configured geometry";
    std::uint32_t next = 99;
    r(next);
    EXPECT_EQ(next, 0u);

    std::vector<std::uint32_t> same(4);
    StateIO ok(bytes);
    ok.table(same);
    ok(after);
    EXPECT_TRUE(ok.done());
    EXPECT_EQ(same, four);
}

TEST(FingerprintTest, ProgramFingerprintIsStableAndContentAddressed)
{
    // Two structurally identical builds hash identically.
    EXPECT_EQ(tinyProgram(7).fingerprint(), tinyProgram(7).fingerprint());
    // Any content change lands in the digest.
    EXPECT_NE(tinyProgram(7).fingerprint(), tinyProgram(8).fingerprint());

    Program extraData = tinyProgram(7);
    extraData.addData(0x20000, {1, 2, 3});
    EXPECT_NE(extraData.fingerprint(), tinyProgram(7).fingerprint());

    // Labels are listing metadata: relabeling must not invalidate
    // cached runs.
    Program labeled = tinyProgram(7);
    labeled.defineLabel("epilogue");
    EXPECT_EQ(labeled.fingerprint(), tinyProgram(7).fingerprint());
}

TEST(FingerprintTest, CompiledWorkloadFingerprintsAreReproducible)
{
    CompiledWorkload a = compileWorkload("gzip");
    CompiledWorkload b = compileWorkload("gzip");
    for (BinaryVariant v : kAllVariants) {
        Program pa = programFor(a, v, InputSet::A);
        Program pb = programFor(b, v, InputSet::A);
        EXPECT_EQ(pa.fingerprint(), pb.fingerprint())
            << variantName(v);
        // Different input data, same code: different fingerprint.
        Program pc = programFor(a, v, InputSet::C);
        EXPECT_NE(pa.fingerprint(), pc.fingerprint())
            << variantName(v);
    }
}

/** Every SimParams scalar must perturb the fingerprint: a field that
 *  does not land in the digest would let the cache replay a stale
 *  result for a different machine. The test walks the list the hash
 *  walks, so a new row is covered with no edit here. */
TEST(FingerprintTest, EverySimParamsFieldPerturbsTheHash)
{
    const std::uint64_t base = SimParams{}.fingerprint();
    EXPECT_EQ(base, SimParams{}.fingerprint()); // stable

    // Change only the i-th scalar of a default machine: flip a bool,
    // move an enum to its next value, step an integer.
    for (std::size_t i = 0;; ++i) {
        SimParams p;
        std::size_t at = 0;
        const char *changed = nullptr;
        forEachParam(p, [&](const char *name, auto &v) {
            if (at++ != i)
                return;
            changed = name;
            using T = std::remove_reference_t<decltype(v)>;
            if constexpr (std::is_same_v<T, bool>)
                v = !v;
            else if constexpr (std::is_enum_v<T>)
                v = static_cast<T>(
                    static_cast<std::underlying_type_t<T>>(v) + 1);
            else
                ++v;
        });
        if (!changed)
            break;
        EXPECT_NE(p.fingerprint(), base)
            << "scalar " << i << " ('" << changed
            << "') does not land in SimParams::fingerprint()";
    }
}

/** The run-cache keys of the machines the experiments, the golden
 *  matrix and the fuzzer run, pinned to the values the hash gave when
 *  they were captured. A hash that reorders or re-widens a field
 *  passes every other test here, yet makes every existing cache
 *  directory miss. */
TEST(FingerprintTest, KnownMachinesKeepTheirKeys)
{
    EXPECT_EQ(SimParams{}.fingerprint(), 0x1a3c46c8b3a3d6f9ull);

    std::vector<std::pair<std::string, std::uint64_t>> keys;
    for (const GoldenRunSpec &spec : goldenRuns())
        keys.emplace_back("golden " + spec.label, spec.params.fingerprint());
    for (const ParamsPoint &pt : defaultParamsMatrix(false))
        keys.emplace_back("fuzz " + pt.label, pt.params.fingerprint());

    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        {"golden normal", 0x1a3c46c8b3a3d6f9ull},
        {"golden base-max", 0x1a3c46c8b3a3d6f9ull},
        {"golden wish-jjl", 0x1a3c46c8b3a3d6f9ull},
        {"golden wish-jjl-selectuop", 0x4a47a27b1cdd7a5bull},
        {"golden wish-jjl-win128", 0xfacaa056aef6fa62ull},
        {"golden sampled-attrib", 0xb8dea4d7f230c91cull},
        {"golden sampled-tage", 0x30defd2bfef1a212ull},
        {"golden base-max-nodep-nofetch", 0x4215f057a3b5341aull},
        {"golden wish-jj-mergepoint-profile", 0x963f220dd2af3c57ull},
        {"golden wish-jj-perfectcbp-profile", 0xc65e9e76f1df1f47ull},
        {"fuzz default-attrib", 0x540187d4e2348260ull},
        {"fuzz small-poll", 0x2c9e274d99e4883dull},
        {"fuzz tiny-conf-shallow", 0x8594ff984fe9f6c5ull},
        {"fuzz tage-small", 0xb6c5f7b5ede8c684ull},
        {"fuzz bimodal", 0x22b3f3fcd8679f03ull},
        {"fuzz dynpred-merge", 0xf11c07987c91c970ull},
        {"fuzz select-uop", 0xb33838aa5235a5fbull},
        {"fuzz updown-conf", 0x0c82e3e1d38e2ae7ull},
        {"fuzz two-level", 0x21430674bfd98a1cull},
        {"fuzz dynpred-merge-select", 0x554fecba1ab32718ull},
        {"fuzz dynpred-fetchgate", 0x20d3303df95843e9ull},
    };
    EXPECT_EQ(keys, pinned);
}

// ---- in-process dedup -------------------------------------------------

TEST(RunServiceTest, PassThroughServiceAlwaysSimulates)
{
    RunService svc; // default: no memo, no disk
    Program p = tinyProgram(1);
    RunOutcome a = svc.run(p, SimParams{});
    RunOutcome b = svc.run(p, SimParams{});
    expectOutcomesIdentical(a, b);
    EXPECT_EQ(svc.stats().misses, 2u);
    EXPECT_EQ(svc.stats().dedupHits, 0u);
}

TEST(RunServiceTest, MemoizationRunsEachDistinctSimulationOnce)
{
    RunService svc;
    svc.setMemoize(true);
    Program p1 = tinyProgram(1);
    Program p2 = tinyProgram(2);

    RunOutcome first = svc.run(p1, SimParams{});
    RunOutcome again = svc.run(p1, SimParams{});
    RunOutcome other = svc.run(p2, SimParams{});
    expectOutcomesIdentical(first, again);
    EXPECT_NE(first.result.resultReg, other.result.resultReg);

    RunCacheStats s = svc.stats();
    EXPECT_EQ(s.misses, 2u);    // p1 and p2, once each
    EXPECT_EQ(s.dedupHits, 1u); // the repeat of p1
    EXPECT_EQ(s.diskHits, 0u);
}

TEST(RunServiceTest, MemoizedOutcomeMatchesFreshSimulation)
{
    RunService svc;
    svc.setMemoize(true);
    for (const GoldenRunSpec &spec : goldenRuns()) {
        CompiledWorkload w = compileWorkload(spec.workload);
        Program prog = programFor(w, spec.variant, spec.input);
        RunOutcome cached = svc.run(prog, spec.params);
        RunOutcome fresh = captureRun(prog, spec.params);
        expectOutcomesIdentical(cached, fresh);
    }
}

// ---- persistent layer -------------------------------------------------

TEST(RunCacheDiskTest, EncodeDecodeRoundTripsExactly)
{
    Program prog = tinyProgram(3);
    RunOutcome out = captureRun(prog, SimParams{});
    const RunKey key{prog.fingerprint(), SimParams{}.fingerprint()};

    std::string bytes = encodeRunOutcome(key, out);
    RunOutcome back;
    ASSERT_TRUE(decodeRunOutcome(bytes, key, back));
    expectOutcomesIdentical(out, back);

    // Wrong key: rejected (entry content-addressed by both hashes).
    RunOutcome scratch;
    EXPECT_FALSE(
        decodeRunOutcome(bytes, RunKey{key.prog + 1, key.params},
                         scratch));
    EXPECT_FALSE(
        decodeRunOutcome(bytes, RunKey{key.prog, key.params + 1},
                         scratch));
}

/** Lowercase hex of every byte, two digits each. */
std::string
toHex(const std::string &bytes)
{
    static const char *digits = "0123456789abcdef";
    std::string s;
    for (unsigned char c : bytes) {
        s += digits[c >> 4];
        s += digits[c & 0xf];
    }
    return s;
}

/** The v2 entry layout, byte for byte: a change to how a result,
 *  counter, histogram or table is written must fail here, not
 *  silently orphan every cache directory written before it. */
TEST(RunCacheDiskTest, EntryBytesArePinned)
{
    RunOutcome out;
    out.result = {.halted = true,
                  .cycles = 1000,
                  .retiredUops = 800,
                  .resultReg = -2,
                  .memFingerprint = 0x0123456789abcdefull};
    out.stats["core.cycles"] = 1000;
    out.stats["core.flushes"] = 7;
    Histogram &h = out.hists["core.fetch_width"] = Histogram(2);
    for (std::size_t v : {0, 0, 5})
        h.sample(v); // buckets 2, 0 and one overflow
    StatTable &t = out.tables["core.branch_profile"] =
        StatTable({"count", "mispred"});
    t.row(0x40) = {9, 4};
    t.row(0x80) = {5, 0};

    const RunKey key{0x1122334455667788ull, 0x99aabbccddeeff00ull};
    const std::string bytes = encodeRunOutcome(key, out);
    EXPECT_EQ(toHex(bytes),
              "5749534352554e0002000000887766554433221100ffeeddccbbaa992a010000"
              "0000000001000000e8030000000000002003000000000000feffffffffffffff"
              "efcdab896745230102000000000000000b00000000000000636f72652e637963"
              "6c6573e8030000000000000c00000000000000636f72652e666c757368657307"
              "0000000000000001000000000000001000000000000000636f72652e66657463"
              "685f776964746803000000000000000300000000000000020000000000000000"
              "0000000000000001000000000000000100000000000000130000000000000063"
              "6f72652e6272616e63685f70726f66696c650200000000000000050000000000"
              "0000636f756e7407000000000000006d69737072656402000000000000004000"
              "0000000000000900000000000000040000000000000080000000000000000500"
              "0000000000000000000000000000951960beb6d7335b");

    RunOutcome back;
    ASSERT_TRUE(decodeRunOutcome(bytes, key, back));
    expectOutcomesIdentical(out, back);
}

/** Runs that produce StatTables (attribution observability on) must
 *  survive the v2 entry format: encode/decode round-trips the tables
 *  exactly, and a second service replays them from disk. */
TEST(RunCacheDiskTest, AttributionTablesRoundTripAndReplayFromDisk)
{
    TempDir dir;
    CompiledWorkload w = compileWorkload("gzip");
    Program prog = programFor(w, BinaryVariant::WishJumpJoinLoop,
                              InputSet::A);
    SimParams p;
    p.collectAttribution = true;
    p.collectBranchProfile = true;

    RunService writer(dir.path());
    RunOutcome fresh = writer.run(prog, p);
    ASSERT_TRUE(fresh.stats.count("attrib.base"));
    ASSERT_TRUE(fresh.tables.count("core.branch_profile"));
    EXPECT_FALSE(fresh.tables.at("core.branch_profile").rows().empty());

    const RunKey key{prog.fingerprint(), p.fingerprint()};
    std::string bytes = encodeRunOutcome(key, fresh);
    RunOutcome back;
    ASSERT_TRUE(decodeRunOutcome(bytes, key, back));
    expectOutcomesIdentical(fresh, back);

    RunService reader(dir.path());
    RunOutcome replayed = reader.run(prog, p);
    EXPECT_EQ(reader.stats().diskHits, 1u);
    expectOutcomesIdentical(fresh, replayed);
}

TEST(RunCacheDiskTest, SecondServiceReplaysBitIdenticalOutcome)
{
    TempDir dir;
    CompiledWorkload w = compileWorkload("crafty");
    Program prog = programFor(w, BinaryVariant::WishJumpJoinLoop,
                              InputSet::A);

    RunService writer(dir.path());
    RunOutcome fresh = writer.run(prog, SimParams{});
    EXPECT_EQ(writer.stats().misses, 1u);
    ASSERT_TRUE(
        fs::exists(writer.entryPath(
            RunKey{prog.fingerprint(), SimParams{}.fingerprint()})));

    // A different service (≈ a different process) replays from disk.
    RunService reader(dir.path());
    RunOutcome replayed = reader.run(prog, SimParams{});
    EXPECT_EQ(reader.stats().diskHits, 1u);
    EXPECT_EQ(reader.stats().misses, 0u);
    expectOutcomesIdentical(fresh, replayed);
}

TEST(RunCacheDiskTest, TruncatedEntryFallsBackToFreshRun)
{
    TempDir dir;
    Program prog = tinyProgram(4);
    const RunKey key{prog.fingerprint(), SimParams{}.fingerprint()};

    RunOutcome fresh;
    {
        RunService svc(dir.path());
        fresh = svc.run(prog, SimParams{});
    }
    const std::string path = RunService(dir.path()).entryPath(key);
    ASSERT_TRUE(fs::exists(path));

    // Truncate the entry to half its size.
    const auto full = fs::file_size(path);
    fs::resize_file(path, full / 2);

    RunService svc(dir.path());
    RunOutcome recovered = svc.run(prog, SimParams{});
    expectOutcomesIdentical(fresh, recovered);
    RunCacheStats s = svc.stats();
    EXPECT_EQ(s.corrupt, 1u);
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(s.misses, 1u);
    // The fresh run repaired the entry.
    EXPECT_EQ(fs::file_size(path), full);
}

TEST(RunCacheDiskTest, BitFlippedEntryFallsBackToFreshRun)
{
    TempDir dir;
    Program prog = tinyProgram(5);
    const RunKey key{prog.fingerprint(), SimParams{}.fingerprint()};

    RunOutcome fresh;
    {
        RunService svc(dir.path());
        fresh = svc.run(prog, SimParams{});
    }
    const std::string path = RunService(dir.path()).entryPath(key);

    // Flip one bit in the middle of the payload.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    bytes[bytes.size() / 2] ^= 0x10;
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }

    RunService svc(dir.path());
    RunOutcome recovered = svc.run(prog, SimParams{});
    expectOutcomesIdentical(fresh, recovered);
    EXPECT_EQ(svc.stats().corrupt, 1u);
    EXPECT_EQ(svc.stats().misses, 1u);
}

TEST(RunCacheDiskTest, VersionSkewIsRejectedNotMisread)
{
    TempDir dir;
    Program prog = tinyProgram(6);
    const RunKey key{prog.fingerprint(), SimParams{}.fingerprint()};

    {
        RunService svc(dir.path());
        svc.run(prog, SimParams{});
    }
    const std::string path = RunService(dir.path()).entryPath(key);

    // Bump the format version field (bytes 8..11, after the magic).
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    char v99 = 99;
    f.write(&v99, 1);
    f.close();

    RunService svc(dir.path());
    RunOutcome out = svc.run(prog, SimParams{});
    EXPECT_TRUE(out.result.halted);
    EXPECT_EQ(svc.stats().corrupt, 1u);
    EXPECT_EQ(svc.stats().misses, 1u);
}

TEST(RunCacheDiskTest, OverLongCountIsRejectedAndResimulated)
{
    // The other corruption tests break the length, the checksum or the
    // version. Here all three stay valid and only a count inside the
    // payload lies, so decode's own bounds must catch it.
    TempDir dir;
    Program prog = tinyProgram(7);
    const RunKey key{prog.fingerprint(), SimParams{}.fingerprint()};
    RunOutcome fresh;
    {
        RunService svc(dir.path());
        fresh = svc.run(prog, SimParams{});
    }

    // Frame: magic(8) version(4) prog(8) params(8) payload length(8).
    // The payload opens with halted(4) and four u64s, then the number
    // of stats; the checksum closes the entry.
    constexpr std::size_t kPayload = 36;
    constexpr std::size_t kStatCount = kPayload + 36;
    std::string bytes = encodeRunOutcome(key, fresh);
    const std::size_t payloadLen = bytes.size() - kPayload - 8;
    auto readU64At = [&](std::size_t off) {
        StateIO r(std::string_view(bytes).substr(off, 8));
        std::uint64_t v = 0;
        r(v);
        return v;
    };
    auto writeU64At = [&](std::size_t off, std::uint64_t v) {
        StateIO w;
        w(v);
        bytes.replace(off, 8, w.take());
    };
    ASSERT_EQ(readU64At(kPayload - 8), payloadLen);
    ASSERT_EQ(readU64At(kStatCount), fresh.stats.size());
    writeU64At(kStatCount, std::uint64_t(1) << 60);
    writeU64At(bytes.size() - 8,
               hashBytes(bytes.data() + kPayload, payloadLen));

    RunOutcome scratch;
    EXPECT_FALSE(decodeRunOutcome(bytes, key, scratch));

    const std::string path = RunService(dir.path()).entryPath(key);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }
    RunService svc(dir.path());
    RunOutcome recovered = svc.run(prog, SimParams{});
    expectOutcomesIdentical(fresh, recovered);
    EXPECT_EQ(svc.stats().corrupt, 1u);
    EXPECT_EQ(svc.stats().misses, 1u);
}

// ---- harness wiring ---------------------------------------------------

TEST(ExperimentGuardTest, EmptyBenchmarkListIsAHardError)
{
    EXPECT_THROW(runNormalizedExperiment({}, InputSet::A, SimParams{},
                                         /*benchmarks=*/{}, /*jobs=*/1),
                 FatalError);
}

/** The acceptance gate: a normalized experiment served entirely from a
 *  warm disk cache is bit-identical to one computed fresh. */
TEST(RunCacheDiskTest, NormalizedExperimentIsBitIdenticalWarmVsCold)
{
    TempDir dir;
    const std::vector<SeriesSpec> series = {
        {"wish-jjl", BinaryVariant::WishJumpJoinLoop, SimParams{}},
    };
    const std::vector<std::string> benches = {"gzip"};

    RunService &svc = RunService::global();
    const std::string oldDir = svc.cacheDir();
    const bool oldMemo = svc.memoize();

    svc.setCacheDir(dir.path());
    svc.setMemoize(false); // force the second pass to the disk layer
    NormalizedResults cold = runNormalizedExperiment(
        series, InputSet::A, SimParams{}, benches, 1);
    NormalizedResults warm = runNormalizedExperiment(
        series, InputSet::A, SimParams{}, benches, 1);

    svc.setCacheDir(oldDir);
    svc.setMemoize(oldMemo);

    ASSERT_EQ(cold.baseline.size(), warm.baseline.size());
    expectOutcomesIdentical(cold.baseline[0], warm.baseline[0]);
    expectOutcomesIdentical(cold.outcomes[0][0], warm.outcomes[0][0]);
    EXPECT_EQ(cold.relTime, warm.relTime);
}

} // namespace
} // namespace wisc
