#include "uarch/params.hh"

#include "common/hash.hh"

namespace wisc {

std::uint64_t
SimParams::fingerprint() const
{
    // One u64 per scalar, in list order: Hasher's u32, u8 and b widen
    // the same way, which keeps the keys of existing cache directories
    // (FingerprintTest.KnownMachinesKeepTheirKeys pins them).
    Hasher h;
    h.str("wisc.simparams.v2");
    forEachParam(*this, [&h](const char *, auto v) {
        static_assert(std::is_integral_v<decltype(v)> ||
                          std::is_enum_v<decltype(v)>,
                      "hash a new kind of parameter explicitly");
        h.u64(static_cast<std::uint64_t>(v));
    });
    return h.digest();
}

} // namespace wisc
