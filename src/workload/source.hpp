#pragma once
// Pluggable workload sources (docs/WORKLOADS.md): every arrival stream
// the grid consumes comes from a WorkloadSource — the Cirne-Berman
// synthetic generator, a saved CSV trace, or a Standard Workload Format
// log — optionally wrapped in composable load modulators.  A SourceSpec
// names one such stack declaratively (so configs stay hashable and
// digest-able), and arrivals() memoizes collected streams process-wide
// so the systems of a sweep, a session or a tuner lane stop
// regenerating identical arrivals.

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "workload/generator.hpp"
#include "workload/job.hpp"
#include "workload/modulator.hpp"
#include "workload/stream.hpp"
#include "workload/trace.hpp"

namespace scal::workload {

enum class SourceKind : std::uint8_t {
  kSynthetic,  ///< WorkloadGenerator (the default; seed-path identical)
  kTrace,      ///< CSV trace saved by save_trace (exact replay)
  kSwf,        ///< Standard Workload Format log (swf.hpp mapping)
};

std::string to_string(SourceKind kind);

/// Declarative description of a workload stack: a base source plus a
/// chain of modulators applied in order.  The default-constructed spec
/// is the legacy synthetic path (is_default() == true), which the grid
/// keeps byte-identical to the seed goldens.
struct SourceSpec {
  SourceKind kind = SourceKind::kSynthetic;
  /// Trace / SWF file path (kTrace, kSwf).
  std::string path;
  /// SWF time scale: simulation time units per trace second (kSwf).
  double time_scale = 1.0;
  std::vector<ModulatorSpec> modulators;

  bool is_default() const noexcept {
    return kind == SourceKind::kSynthetic && modulators.empty();
  }

  /// Throws std::invalid_argument on nonsense (missing paths, bad
  /// modulator parameters, non-positive time scale).
  void validate() const;

  /// Human/manifest-readable one-liner, e.g.
  ///   "swf:tests/data/small.swf@0.1+diurnal(amplitude=0.6,period=500)".
  std::string summary() const;

  /// Parse the CLI form: "synthetic" (or ""), "trace:PATH", or
  /// "swf:PATH[@SCALE]".  Modulators are attached separately (the
  /// --modulate spec).  Throws std::invalid_argument on bad input.
  static SourceSpec parse(const std::string& text);
};

/// The existing generator behind the source interface.  Constructed the
/// way GridSystem always seeded it — util::RandomStream(seed,
/// "workload") — so the emitted stream is the seed stream, job for job.
class SyntheticSource : public WorkloadSource {
 public:
  SyntheticSource(const WorkloadConfig& config, util::RandomStream rng)
      : gen_(config, rng) {}

  bool next(Job& out) override {
    out = gen_.next();
    return true;  // unbounded: the horizon terminates the stream
  }

 private:
  WorkloadGenerator gen_;
};

/// Replay of a CSV trace written by save_trace, streamed row by row —
/// the file is never materialized.  Rows with arrivals at or past
/// `horizon` are skipped (not terminal: every row is still read and
/// validated) and origin clusters are remapped modulo `clusters`; ids,
/// order, and every other field come straight from the file.
class TraceSource : public WorkloadSource {
 public:
  TraceSource(const std::string& path, sim::Time horizon,
              std::uint32_t clusters);

  bool next(Job& out) override;

 private:
  std::ifstream file_;
  TraceReader reader_;
  sim::Time horizon_;
  std::uint32_t clusters_;
};

/// One modulator layered over any source: arrivals are passed through
/// the modulator's TimeWarp (everything else is untouched).  Chains
/// compose by nesting; each layer owns its private RNG substream.
class ModulatedSource : public WorkloadSource {
 public:
  ModulatedSource(std::unique_ptr<WorkloadSource> base,
                  const ModulatorSpec& spec, std::uint64_t warp_seed);
  ~ModulatedSource() override;

  bool next(Job& out) override;

 private:
  std::unique_ptr<WorkloadSource> base_;
  std::unique_ptr<TimeWarp> warp_;
};

/// Build the full source stack for `spec`, bounded at `horizon`: the
/// base source (seeded like the grid expects, with `workload.clusters`
/// already set to the run's cluster count) wrapped by the modulator
/// chain in spec order, position i drawing from
/// modulator_seeds(seed).at(i), and the whole stack wrapped in a
/// BoundedStream, so pulling it yields exactly the run's arrivals.
std::unique_ptr<WorkloadSource> make_source(const SourceSpec& spec,
                                            const WorkloadConfig& workload,
                                            std::uint64_t seed,
                                            sim::Time horizon);

/// One run's arrival stream, plus whether the ArrivalCache already held
/// it.
struct Arrivals {
  std::unique_ptr<WorkloadSource> source;
  bool from_cache = false;
};

/// The arrivals for (spec, workload, seed, horizon), after one
/// ArrivalCache lookup under `key`, which must fingerprint every input
/// that shapes the stream (grid::workload_digest provides exactly that).
/// A hit replays the memoized vector.  On a miss, `memoize` collects the
/// stack and stores the vector for later runs with the same key;
/// otherwise the skipped store is counted and the live stack is
/// returned, keeping per-job memory O(1) for one-shot runs.
/// Thread-safe.
Arrivals arrivals(const std::array<std::uint64_t, 2>& key,
                  const SourceSpec& spec, const WorkloadConfig& workload,
                  std::uint64_t seed, sim::Time horizon, bool memoize);

}  // namespace scal::workload
