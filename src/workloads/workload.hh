/**
 * @file
 * The workload suite: nine synthetic kernels modeled on the branch and
 * memory behavior of the SPEC INT 2000 benchmarks the paper evaluates
 * (gzip, vpr, mcf, crafty, parser, gap, vortex, bzip2, twolf), each with
 * three input sets (A/B/C) whose branch statistics differ the way
 * different SPEC inputs do.
 *
 * Kernel *code* is input-independent; an input set is pure data (a
 * parameter block at kParamBase plus data arrays). Binaries are compiled
 * once against the B ("train") input profile and can then be run on any
 * input — which is exactly the setup behind the paper's Figure 1
 * input-sensitivity experiment.
 */

#ifndef WISC_WORKLOADS_WORKLOAD_HH_
#define WISC_WORKLOADS_WORKLOAD_HH_

#include <map>
#include <string>
#include <vector>

#include "compiler/driver.hh"

namespace wisc {

/** The three input sets of Figure 1. */
enum class InputSet { A, B, C };

const char *inputSetName(InputSet s);

/** Memory layout conventions shared by all kernels. */
inline constexpr Addr kParamBase = 0x18000; ///< word[0] = outer trip etc.
inline constexpr Addr kDataBase = 0x20000;  ///< first input array
inline constexpr Addr kOutBase = 0x80000;   ///< kernel output area

/** All nine benchmark names, in the paper's order. */
const std::vector<std::string> &workloadNames();

/** Build a kernel's IR (code only, no input data attached). */
IrFunction buildWorkloadFn(const std::string &name);

/** The data segments of one input set. */
std::vector<DataSegment> workloadInput(const std::string &name,
                                       InputSet input);

/** A kernel compiled into all five Table-3 binary variants. */
struct CompiledWorkload
{
    std::string name;
    std::map<BinaryVariant, CompiledBinary> variants;
};

/**
 * Compile all five variants of a kernel, profiling against the B
 * ("train") input.
 */
CompiledWorkload compileWorkload(const std::string &name,
                                 const CompileOptions &opts =
                                     CompileOptions{});

/**
 * A runnable program: the chosen variant with the chosen input data,
 * the kernel's outer trip count multiplied by `tripScale` (>= 1). A
 * scale above 1 gives a long-running variant of the same workload,
 * with identical code and identical per-iteration branch/memory
 * statistics. All kernels index their data through power-of-two wrap
 * masks, so scaled runs stay within the input arrays. Used by
 * sampled-simulation validation, which needs runs long enough that
 * the cold-start transient is a negligible fraction of total cycles
 * (the regime sampling — and the paper's own SPEC methodology —
 * assumes).
 */
Program programFor(const CompiledWorkload &w, BinaryVariant v,
                   InputSet input, std::uint64_t tripScale = 1);

} // namespace wisc

#endif // WISC_WORKLOADS_WORKLOAD_HH_
