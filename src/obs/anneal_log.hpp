#pragma once
// AnnealLog: per-iteration telemetry of the simulated-annealing enabler
// search — objective values, temperature, accept/reject — exported as
// CSV.  Shows what the tuner actually explored: which moves were taken,
// where the chains cooled, and how the feasible pockets of the
// efficiency-band-penalized G landscape were entered.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace scal::obs {

struct AnnealRecord {
  /// Caller context (e.g. "LOWEST k=3"); empty for standalone searches.
  std::string label;
  std::uint64_t chain = 0;
  std::uint64_t iteration = 0;  ///< within the chain
  double temperature = 0.0;
  double candidate_value = 0.0;
  double current_value = 0.0;  ///< after the accept/reject decision
  double best_value = 0.0;
  bool accepted = false;
  bool improved = false;  ///< accepted with a strictly better value
  /// This evaluation was answered by the tuner's memoization cache
  /// (serial-replay semantics: same at any --jobs count and independent
  /// of whether value memoization was actually enabled).
  bool cached = false;
};

class AnnealLog {
 public:
  void add(AnnealRecord record) { records_.push_back(std::move(record)); }

  const std::vector<AnnealRecord>& records() const noexcept {
    return records_;
  }
  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }

  std::uint64_t accepted_count() const noexcept;
  std::uint64_t improving_count() const noexcept;
  /// Smallest candidate value seen (0 when empty).
  double best_value() const noexcept;

  void write_csv(std::ostream& os) const;
  /// Returns false (and logs) when the file cannot be written.
  bool write_file(const std::string& path) const;

 private:
  std::vector<AnnealRecord> records_;
};

}  // namespace scal::obs
