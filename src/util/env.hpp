#pragma once
// Environment-variable helpers for bench/example knobs (e.g. SCAL_BENCH_FAST).
// A set variable whose text is not a valid value is an error, never a
// silent fallback: the numeric readers throw std::invalid_argument
// naming the variable and its text.

#include <cstdint>
#include <string>

namespace scal::util {

/// Returns the variable's value or `fallback` if unset/empty.
std::string env_or(const std::string& name, const std::string& fallback);

/// Truthy if set to anything other than "", "0", "false", "off".
bool env_flag(const std::string& name);

/// Base-10 integer value, or `fallback` if unset or empty.  Throws on a
/// non-number, trailing characters, or a value out of int64 range.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// A count or byte budget: env_int that also throws on a negative value.
std::uint64_t env_count(const std::string& name, std::uint64_t fallback);

}  // namespace scal::util
