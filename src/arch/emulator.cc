#include "arch/emulator.hh"

#include "arch/threaded.hh"

namespace wisc {

namespace {

/** threadedRun() hooks that maintain the compiler's edge profile. */
struct ProfileHooks
{
    Profile *profile;

    void onInst(std::uint32_t pc, const Instruction &, bool)
    {
        ++profile->perInst[pc].execCount;
    }
    void onBranch(std::uint32_t pc, const Instruction &, bool taken)
    {
        if (taken)
            ++profile->perInst[pc].takenCount;
    }
    void onCtrl(std::uint32_t, const Instruction &, std::uint32_t) {}
    void onMem(Addr, unsigned, bool) {}
};

} // namespace

double
Profile::takenProb(std::uint32_t idx) const
{
    if (idx >= perInst.size() || perInst[idx].execCount == 0)
        return 0.5;
    return static_cast<double>(perInst[idx].takenCount) /
           static_cast<double>(perInst[idx].execCount);
}

double
Profile::mispredictEstimate(std::uint32_t idx) const
{
    double p = takenProb(idx);
    return p < 1.0 - p ? p : 1.0 - p;
}

EmuResult
Emulator::run(const Program &prog, Profile *profile, std::uint64_t maxSteps)
{
    prog.validate();

    state_.reset();
    state_.loadData(prog);

    if (profile) {
        profile->perInst.assign(prog.size(), InstProfile{});
        profile->dynInsts = 0;
    }

    const std::uint32_t pc = prog.entry();
    ThreadedResult tr =
        profile ? threadedRun(prog, state_, pc, maxSteps,
                              ProfileHooks{profile})
                : threadedRun(prog, state_, pc, maxSteps, NullExecHooks{});
    if (profile)
        profile->dynInsts = tr.steps;

    EmuResult res;
    res.dynInsts = tr.steps;
    res.predFalse = tr.predFalse;
    res.halted = tr.halted;
    res.resultReg = state_.readReg(4);
    res.memFingerprint = state_.mem().fingerprint();
    return res;
}

} // namespace wisc
