#include "uarch/fastfwd.hh"

namespace wisc {

FastForward::FastForward(const Program &prog, const SimParams &params)
    : core_(params, stats_, prog)
{
}

std::uint64_t
FastForward::predFalse() const
{
    return stats_.get("core.retired_pred_false");
}

} // namespace wisc
