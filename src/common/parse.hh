/**
 * @file
 * Strict parsing of the counts that command lines take (wisc-run,
 * run_matrix --shard, wisc_fuzz).
 */

#ifndef WISC_COMMON_PARSE_HH_
#define WISC_COMMON_PARSE_HH_

#include <charconv>
#include <string_view>
#include <type_traits>

namespace wisc {

/** Parse a whole decimal count: digits only (from_chars takes no sign
 *  or space for an unsigned type), no overflow, nothing after. */
template <typename T>
bool
parseCount(std::string_view s, T &out)
{
    static_assert(std::is_unsigned_v<T>, "a count has no sign");
    const char *last = s.data() + s.size();
    auto [end, ec] = std::from_chars(s.data(), last, out);
    return ec == std::errc() && end == last;
}

} // namespace wisc

#endif // WISC_COMMON_PARSE_HH_
