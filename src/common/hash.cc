#include "common/hash.hh"

namespace wisc {

std::uint64_t
hashBytes(const void *data, std::size_t n)
{
    Hasher h;
    h.bytes(data, n);
    return h.digest();
}

} // namespace wisc
