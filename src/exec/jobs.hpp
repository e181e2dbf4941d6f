#pragma once
// Job-count resolution shared by benches, examples, and tests:
//   --jobs N   >   SCAL_JOBS=N   >   default 1
// "hw" (flag or env value) means hardware_jobs().  Jobs count lanes, so
// jobs = 4 pairs with a ThreadPool of 3 workers plus the caller.

#include <cstddef>
#include <string>

namespace scal::exec {

/// std::thread::hardware_concurrency(), never less than 1.
std::size_t hardware_jobs() noexcept;

/// Parse a job-count string: a positive integer, or "hw"/"auto" for
/// hardware_jobs().  Returns `fallback` on anything else, an
/// out-of-range number included.
std::size_t parse_jobs(const std::string& text, std::size_t fallback);

/// SCAL_JOBS from the environment, or `fallback` when unset or empty.
/// Throws std::invalid_argument naming the variable and its text when
/// parse_jobs rejects it.
std::size_t env_jobs(std::size_t fallback = 1);

}  // namespace scal::exec
