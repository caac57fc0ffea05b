/**
 * @file
 * Emits tests/golden_stats_data.inc: the full StatSet (every counter and
 * every histogram bucket) of each golden run, as C++ initializers. Run
 * from the repo root after an intentional timing-model change:
 *
 *   build/tests/golden_stats_gen > tests/golden_stats_data.inc
 */

#include <cstdio>
#include <map>

#include "golden_runs.hh"

using namespace wisc;

int
main()
{
    std::map<std::string, CompiledWorkload> compiled;

    std::printf("// Generated by golden_stats_gen — do not edit.\n");
    std::printf("// Full StatSet snapshots of the goldenRuns() matrix "
                "(see golden_runs.hh).\n");
    std::printf("// clang-format off\n");
    std::printf("static const std::vector<GoldenRun> kGolden = {\n");
    for (const GoldenRunSpec &spec : goldenRuns()) {
        auto it = compiled.find(spec.workload);
        if (it == compiled.end())
            it = compiled.emplace(spec.workload,
                                  compileWorkload(spec.workload)).first;
        RunOutcome o = run(
            programFor(it->second, spec.variant, spec.input), spec.params);

        std::printf("{ \"%s\",\n", spec.label.c_str());
        std::printf("  { %lluull, %lluull, %lluull, %lluull },\n",
                    (unsigned long long)o.result.cycles,
                    (unsigned long long)o.result.retiredUops,
                    (unsigned long long)o.result.resultReg,
                    (unsigned long long)o.result.memFingerprint);
        std::printf("  {\n");
        for (const auto &[name, value] : o.stats)
            std::printf("    { \"%s\", %lluull },\n", name.c_str(),
                        (unsigned long long)value);
        std::printf("  },\n  {\n");
        for (const auto &[name, h] : o.hists) {
            std::printf("    { \"%s\", %lluull, {", name.c_str(),
                        (unsigned long long)h.count());
            for (std::size_t i = 0; i < h.buckets().size(); ++i)
                std::printf("%s%lluull", i ? ", " : " ",
                            (unsigned long long)h.buckets()[i]);
            std::printf(" } },\n");
        }
        std::printf("  },\n},\n");
    }
    std::printf("};\n");
    std::printf("// clang-format on\n");
    return 0;
}
