/**
 * @file
 * The process-wide run service ignores WISC_CACHE_DIR: no code reads
 * that variable (nor WISC_RESULTS_JSON), and only BenchCli's --cache
 * flag turns the persistent layer on. Tests and tools that call
 * run(RunRequest) directly (the golden-stat test among them) must
 * simulate every time, because the cache key does not cover the timing
 * model's code and a disk entry could replay a stale result.
 *
 * ctest runs this binary with WISC_CACHE_DIR set (tests/CMakeLists.txt).
 * It is its own binary because RunService::global() is built on first
 * use: the environment must be in place before anything in the process
 * touches it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "harness/bench_cli.hh"
#include "harness/run_cache.hh"
#include "harness/runner.hh"

namespace wisc {
namespace {

namespace fs = std::filesystem;

TEST(RunServiceGlobal, IgnoresCacheDirEnvironment)
{
    // Run by hand without the variable: set it here, before the first
    // use of the global service.
    if (!std::getenv("WISC_CACHE_DIR"))
        setenv("WISC_CACHE_DIR",
               (fs::temp_directory_path() /
                ("wisc_cache_env_" + std::to_string(::getpid())))
                   .c_str(),
               1);
    const fs::path dir = std::getenv("WISC_CACHE_DIR");
    std::error_code ec;
    fs::remove_all(dir, ec);

    Program p;
    p.append({.op = Opcode::Li, .rd = 4, .imm = 7});
    p.append({.op = Opcode::Halt});

    const RunCacheStats before = RunService::global().stats();
    const RunOutcome a = run(RunRequest{p});
    const RunOutcome b = run(RunRequest{p});
    const RunCacheStats after = RunService::global().stats();

    EXPECT_EQ(a.result.resultReg, 7);
    EXPECT_EQ(b.result.resultReg, 7);
    EXPECT_EQ(after.misses - before.misses, 2u)
        << "every run must simulate";
    EXPECT_EQ(after.diskHits, before.diskHits);
    EXPECT_EQ(after.dedupHits, before.dedupHits);
    EXPECT_EQ(after.diskWrites, before.diskWrites);
    EXPECT_TRUE(!fs::exists(dir) || fs::is_empty(dir))
        << dir << " was written";
    fs::remove_all(dir, ec);
}

/** Builds and finishes a BenchCli with both variables set; true when
 *  it configured no cache directory and wrote no JSON file. */
bool
benchCliIgnoresEnvironment(const fs::path &json)
{
    setenv("WISC_CACHE_DIR", "cache_env_dir", 1);
    setenv("WISC_RESULTS_JSON", json.c_str(), 1);
    std::string name = "bench";
    char *argv[] = {name.data(), nullptr};
    BenchCli cli(1, argv, name);
    cli.finish();
    return RunService::global().cacheDir().empty() && !fs::exists(json);
}

TEST(BenchCliDeathTest, ReadsNoEnvironment)
{
    // BenchCli takes its cache directory and JSON path from its flags
    // alone. In a child process, so this process's global service
    // stays the pass-through the test above checks.
    const fs::path json =
        fs::temp_directory_path() /
        ("wisc_env_json_" + std::to_string(::getpid()) + ".json");
    EXPECT_EXIT(std::exit(benchCliIgnoresEnvironment(json) ? 0 : 1),
                ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace wisc
