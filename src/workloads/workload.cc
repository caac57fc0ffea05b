#include "workloads/workload.hh"

#include "common/log.hh"
#include "workloads/kernels.hh"

namespace wisc {

const char *
inputSetName(InputSet s)
{
    switch (s) {
      case InputSet::A: return "input-A";
      case InputSet::B: return "input-B";
      case InputSet::C: return "input-C";
    }
    return "?";
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "gzip", "vpr", "mcf", "crafty", "parser",
        "gap",  "vortex", "bzip2", "twolf",
    };
    return names;
}

IrFunction
buildWorkloadFn(const std::string &name)
{
    using namespace kernels;
    if (name == "gzip") return buildGzip();
    if (name == "vpr") return buildVpr();
    if (name == "mcf") return buildMcf();
    if (name == "crafty") return buildCrafty();
    if (name == "parser") return buildParser();
    if (name == "gap") return buildGap();
    if (name == "vortex") return buildVortex();
    if (name == "bzip2") return buildBzip2();
    if (name == "twolf") return buildTwolf();
    wisc_fatal("unknown workload '", name, "'");
}

std::vector<DataSegment>
workloadInput(const std::string &name, InputSet input)
{
    using namespace kernels;
    if (name == "gzip") return inputGzip(input);
    if (name == "vpr") return inputVpr(input);
    if (name == "mcf") return inputMcf(input);
    if (name == "crafty") return inputCrafty(input);
    if (name == "parser") return inputParser(input);
    if (name == "gap") return inputGap(input);
    if (name == "vortex") return inputVortex(input);
    if (name == "bzip2") return inputBzip2(input);
    if (name == "twolf") return inputTwolf(input);
    wisc_fatal("unknown workload '", name, "'");
}

CompiledWorkload
compileWorkload(const std::string &name, const CompileOptions &opts)
{
    IrFunction fn = buildWorkloadFn(name);
    // Profile against the B ("train") input, like a profile-guided
    // compiler would.
    for (const DataSegment &seg : workloadInput(name, InputSet::B))
        fn.addData(seg.base, seg.words);

    CompiledWorkload w;
    w.name = name;
    w.variants = compileAllVariants(fn, opts);
    return w;
}

Program
programFor(const CompiledWorkload &w, BinaryVariant v, InputSet input,
           std::uint64_t tripScale)
{
    wisc_assert(tripScale > 0, "tripScale must be at least 1");
    Program p = w.variants.at(v).program;
    std::vector<DataSegment> segs = workloadInput(w.name, input);
    // Every kernel reads its outer trip count (mcf: pass count) from
    // word[0] of the parameter block, and every kernel wraps its data
    // indices with a power-of-two mask, so multiplying the trip count
    // lengthens the run without ever walking off the input arrays.
    // Branch/memory *statistics* are unchanged; only the run length
    // (and thus the weight of the cold-start transient) scales.
    bool scaled = false;
    for (DataSegment &seg : segs) {
        if (seg.base == kParamBase) {
            wisc_assert(!seg.words.empty(), "empty parameter block");
            seg.words[0] = static_cast<Word>(
                static_cast<UWord>(seg.words[0]) * tripScale);
            scaled = true;
        }
    }
    wisc_assert(scaled, "workload '", w.name, "' has no parameter block");
    p.setData(segs);
    return p;
}

namespace kernels {

std::vector<Word>
packBytes(const std::vector<std::uint8_t> &bytes)
{
    std::vector<Word> words((bytes.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        words[i / 8] |= static_cast<Word>(
            static_cast<UWord>(bytes[i]) << (8 * (i % 8)));
    return words;
}

} // namespace kernels
} // namespace wisc
