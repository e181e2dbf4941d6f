#include "workload/source.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "workload/arrival_cache.hpp"
#include "workload/swf.hpp"
#include "workload/trace.hpp"

namespace scal::workload {

std::string to_string(SourceKind kind) {
  switch (kind) {
    case SourceKind::kSynthetic: return "synthetic";
    case SourceKind::kTrace: return "trace";
    case SourceKind::kSwf: return "swf";
  }
  return "?";
}

void SourceSpec::validate() const {
  if (kind != SourceKind::kSynthetic && path.empty()) {
    throw std::invalid_argument("SourceSpec: " + to_string(kind) +
                                " source needs a path");
  }
  if (!std::isfinite(time_scale) || !(time_scale > 0.0)) {
    throw std::invalid_argument(
        "SourceSpec: time scale must be finite and positive");
  }
  for (const ModulatorSpec& m : modulators) m.validate();
}

std::string SourceSpec::summary() const {
  std::string out = to_string(kind);
  if (!path.empty()) {
    out += ':';
    out += path;
  }
  if (kind == SourceKind::kSwf && time_scale != 1.0) {
    std::ostringstream scale;
    scale << time_scale;
    out += '@';
    out += scale.str();
  }
  for (const ModulatorSpec& m : modulators) {
    const std::string clause = m.to_spec();
    // diurnal:amplitude=... reads better as diurnal(amplitude=...) in a
    // one-line summary.
    const auto colon = clause.find(':');
    out += '+';
    out.append(clause, 0, colon);
    out += '(';
    out.append(clause, colon + 1, std::string::npos);
    out += ')';
  }
  return out;
}

SourceSpec SourceSpec::parse(const std::string& text) {
  SourceSpec spec;
  if (text.empty() || text == "synthetic") return spec;
  const auto colon = text.find(':');
  const std::string kind_name = text.substr(0, colon);
  if (kind_name == "trace") {
    spec.kind = SourceKind::kTrace;
  } else if (kind_name == "swf") {
    spec.kind = SourceKind::kSwf;
  } else {
    throw std::invalid_argument(
        "SourceSpec: expected 'synthetic', 'trace:PATH', or "
        "'swf:PATH[@SCALE]', got '" +
        text + "'");
  }
  if (colon == std::string::npos || colon + 1 >= text.size()) {
    throw std::invalid_argument("SourceSpec: '" + kind_name +
                                "' needs a path");
  }
  spec.path = text.substr(colon + 1);
  if (spec.kind == SourceKind::kSwf) {
    const auto at = spec.path.rfind('@');
    if (at != std::string::npos) {
      const std::string scale_text = spec.path.substr(at + 1);
      char* end = nullptr;
      const double scale = std::strtod(scale_text.c_str(), &end);
      if (end == scale_text.c_str() || *end != '\0' || !std::isfinite(scale) ||
          !(scale > 0.0)) {
        throw std::invalid_argument(
            "SourceSpec: bad time scale '" + scale_text + "'");
      }
      spec.time_scale = scale;
      spec.path = spec.path.substr(0, at);
    }
  }
  spec.validate();
  return spec;
}

namespace {
std::ifstream open_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("TraceSource: cannot open " + path);
  return in;
}
}  // namespace

TraceSource::TraceSource(const std::string& path, sim::Time horizon,
                         std::uint32_t clusters)
    : file_(open_trace(path)),
      reader_(file_),
      horizon_(horizon),
      clusters_(clusters) {
  if (clusters == 0) {
    throw std::invalid_argument("TraceSource: need at least one cluster");
  }
}

bool TraceSource::next(Job& out) {
  // Skip-and-continue on the horizon filter: the reader requires
  // nondecreasing arrivals, so every row after the first one past the
  // horizon is skipped too — but it is still read, and still validated.
  while (reader_.next(out)) {
    if (out.arrival >= horizon_) continue;
    out.origin_cluster =
        static_cast<std::uint32_t>(out.origin_cluster % clusters_);
    return true;
  }
  return false;
}

std::unique_ptr<WorkloadSource> make_source(const SourceSpec& spec,
                                            const WorkloadConfig& workload,
                                            std::uint64_t seed,
                                            sim::Time horizon) {
  spec.validate();
  std::unique_ptr<WorkloadSource> source;
  switch (spec.kind) {
    case SourceKind::kSynthetic:
      source = std::make_unique<SyntheticSource>(
          workload, util::RandomStream(seed, "workload"));
      break;
    case SourceKind::kTrace:
      source =
          std::make_unique<TraceSource>(spec.path, horizon, workload.clusters);
      break;
    case SourceKind::kSwf: {
      // The stable sort by submit time and the first-arrival rebase need
      // the whole log, so an SWF source replays the loaded vector.
      SwfMapping mapping;
      mapping.time_scale = spec.time_scale;
      mapping.t_cpu = workload.t_cpu;
      mapping.benefit_lo = workload.benefit_lo;
      mapping.benefit_hi = workload.benefit_hi;
      mapping.clusters = workload.clusters;
      mapping.seed = seed;
      source = std::make_unique<VectorReplayStream>(
          std::make_shared<const std::vector<Job>>(
              load_swf_file(spec.path, mapping)));
      break;
    }
  }
  const exec::SeedSequence seeds = modulator_seeds(seed);
  for (std::size_t i = 0; i < spec.modulators.size(); ++i) {
    source = std::make_unique<ModulatedSource>(
        std::move(source), spec.modulators[i], seeds.at(i));
  }
  return std::make_unique<BoundedStream>(std::move(source), horizon);
}

Arrivals arrivals(const std::array<std::uint64_t, 2>& key,
                  const SourceSpec& spec, const WorkloadConfig& workload,
                  std::uint64_t seed, sim::Time horizon, bool memoize) {
  ArrivalCache& cache = ArrivalCache::instance();
  if (auto jobs = cache.lookup(key)) {
    return {std::make_unique<VectorReplayStream>(std::move(jobs)), true};
  }
  if (!memoize) {
    // A one-shot run keeps the stack live instead of materializing it;
    // the skipped store shows in the manifest's workload block.
    cache.count_store_skip();
    return {make_source(spec, workload, seed, horizon), false};
  }
  auto jobs = cache.store(key, std::make_shared<const std::vector<Job>>(
                                   collect(*make_source(spec, workload, seed,
                                                        horizon))));
  return {std::make_unique<VectorReplayStream>(std::move(jobs)), false};
}

}  // namespace scal::workload
