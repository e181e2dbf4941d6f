#include "util/env.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace scal::util {

std::string env_or(const std::string& name, const std::string& fallback) {
  const char* v = std::getenv(name.c_str());
  return (v && *v) ? std::string(v) : fallback;
}

bool env_flag(const std::string& name) {
  const std::string v = env_or(name, "");
  return !(v.empty() || v == "0" || v == "false" || v == "off");
}

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const std::string v = env_or(name, "");
  if (v.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') {
    throw std::invalid_argument(name + ": '" + v + "' is not an integer");
  }
  if (errno == ERANGE) {
    throw std::invalid_argument(name + ": '" + v + "' is out of range");
  }
  return parsed;
}

std::uint64_t env_count(const std::string& name, std::uint64_t fallback) {
  const std::string v = env_or(name, "");
  if (v.empty()) return fallback;
  const std::int64_t parsed = env_int(name, 0);
  if (parsed < 0) {
    throw std::invalid_argument(name + ": '" + v + "' is negative");
  }
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace scal::util
