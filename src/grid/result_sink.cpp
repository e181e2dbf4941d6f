#include "grid/result_sink.hpp"

#include <stdexcept>

namespace scal::grid {

std::string to_string(ResultMode mode) {
  switch (mode) {
    case ResultMode::kFull: return "full";
    case ResultMode::kStreaming: return "streaming";
  }
  return "?";
}

ResultMode result_mode_from_string(const std::string& name) {
  if (name == "full") return ResultMode::kFull;
  if (name == "streaming") return ResultMode::kStreaming;
  throw std::invalid_argument("result_mode_from_string: unknown mode '" +
                              name + "' (expected full|streaming)");
}

}  // namespace scal::grid
