#include "exec/jobs.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "util/env.hpp"

namespace scal::exec {

std::size_t hardware_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t parse_jobs(const std::string& text, std::size_t fallback) {
  if (text == "hw" || text == "auto") return hardware_jobs();
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || value < 1) {
    return fallback;
  }
  return static_cast<std::size_t>(value);
}

std::size_t env_jobs(std::size_t fallback) {
  const std::string text = util::env_or("SCAL_JOBS", "");
  if (text.empty()) return fallback;
  const std::size_t jobs = parse_jobs(text, 0);
  if (jobs == 0) {
    throw std::invalid_argument("SCAL_JOBS: '" + text +
                                "' is not a positive integer or 'hw'");
  }
  return jobs;
}

}  // namespace scal::exec
