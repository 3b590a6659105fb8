/**
 * @file
 * The one reader of untrusted decimal integers: wire fields, manifest
 * and `set=` values, disk-cache entries, `gen:` names, corpus lines and
 * daemon flags all go through parseCanonicalU64, so every number has
 * exactly one spelling and one reading.
 */
#ifndef RFV_COMMON_DECIMAL_H
#define RFV_COMMON_DECIMAL_H

#include <charconv>
#include <limits>
#include <optional>
#include <string_view>

#include "common/types.h"

namespace rfv {

/**
 * @p text as a canonical decimal in [0, @p max]: digits only (no sign,
 * no whitespace, no base prefix), no leading zero except "0" itself,
 * not empty and no overflow.  Anything else is std::nullopt.
 */
inline std::optional<u64>
parseCanonicalU64(std::string_view text, u64 max)
{
    const char *last = text.data() + text.size();
    u64 v = 0;
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last || v > max ||
        (text.size() > 1 && text[0] == '0'))
        return std::nullopt;
    return v;
}

/**
 * parseCanonicalU64 into a field of type @p T, capped at @p max (the
 * type's maximum by default); @p out is untouched on failure.
 */
template <class T>
bool
parseCanonical(std::string_view text, T &out,
               u64 max = static_cast<u64>(std::numeric_limits<T>::max()))
{
    const std::optional<u64> v = parseCanonicalU64(text, max);
    if (v)
        out = static_cast<T>(*v);
    return v.has_value();
}

} // namespace rfv

#endif // RFV_COMMON_DECIMAL_H
