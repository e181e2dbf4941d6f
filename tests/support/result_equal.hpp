#pragma once
// The one SimulationResult comparator for tests.  It walks the result
// schema (grid/result_schema.hpp) and expects every stored field of two
// results to be bitwise equal, doubles by bit pattern, so a field added
// to the schema is compared everywhere without touching a test.  A call
// site may leave a field out only by naming it with a one-line reason.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <sstream>
#include <string>
#include <type_traits>

#include "grid/metrics.hpp"

namespace scal::test {

/// A field a comparison deliberately leaves out.  `name` is a schema
/// field ("p95_response") or one stat of a nested one
/// ("workload_stats.span"); naming the nested field skips all its stats.
struct Skip {
  constexpr Skip(const char* field, const char* why)
      : name(field), reason(why) {}
  const char* name;
  const char* reason;
};

/// Whether a run recalled its arrival stream from the process-wide
/// ArrivalCache depends on what the process ran before it, so the second
/// of two otherwise identical runs differs from the first here.
inline constexpr Skip kFromCache{"workload_from_cache",
                                 "process-wide arrival-cache provenance"};

namespace result_equal_detail {

inline bool covers(const std::string& skip, const std::string& field) {
  return field == skip || field.rfind(skip + ".", 0) == 0;
}

/// The value's bit pattern (doubles bit for bit, so -0.0 != 0.0 and a
/// NaN equals itself), widened to 64 bits.
template <typename T>
std::uint64_t bits(const T& value) {
  if constexpr (std::is_same_v<T, double>) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof(out));
    return out;
  } else {
    return static_cast<std::uint64_t>(value);
  }
}

template <typename T>
std::string show(const T& value) {
  std::ostringstream out;
  out.precision(17);
  if constexpr (std::is_enum_v<T>) {
    out << static_cast<std::uint64_t>(value);
  } else {
    out << value;
  }
  return out.str();
}

}  // namespace result_equal_detail

/// EXPECTs `a` and `b` to agree bit for bit on every stored result
/// field not named in `skips`.  Each skip must name a schema field.
inline void expect_same_result(const grid::SimulationResult& a,
                               const grid::SimulationResult& b,
                               std::initializer_list<Skip> skips = {}) {
  namespace d = result_equal_detail;
  for (const Skip& skip : skips) {
    bool known = false;
    grid::for_each_field(
        [&](const grid::FieldName& field, const auto&) {
          known = known || d::covers(skip.name, field.str());
        },
        a);
    EXPECT_TRUE(known) << "skip names no result field: " << skip.name;
  }
  grid::for_each_field(
      [&](const grid::FieldName& field, const auto& x, const auto& y) {
        const std::string name = field.str();
        for (const Skip& skip : skips) {
          if (d::covers(skip.name, name)) return;
        }
        EXPECT_EQ(d::bits(x), d::bits(y))
            << "result field " << name << ": " << d::show(x) << " vs "
            << d::show(y);
      },
      a, b);
}

}  // namespace scal::test
