#pragma once
// 128-bit digests of a GridConfig (util::Mix128 over the fields, doubles
// by bit pattern, so equal digests mean exactly equal inputs):
//   - config_digest: every field that affects simulation output.  The
//     tuner's evaluation cache (opt::EvalKey) keys on it, so caches can
//     be shared across tunes, RMS kinds, and scale factors without any
//     risk of cross-contamination;
//   - workload_digest: the inputs that shape the arrival stream, the
//     workload::ArrivalCache key;
//   - site_digest: the inputs a grid::Site is built from, the key that
//     tells rms::SimulationSession whether its site serves a run.

#include <array>
#include <cstdint>

#include "grid/config.hpp"

namespace scal::grid {

/// Digest every simulation-affecting field of `config`; the telemetry
/// handle is excluded (observational only).
std::array<std::uint64_t, 2> config_digest(const GridConfig& config);

/// Digest of exactly the inputs that shape the arrival stream (workload
/// model, source spec, seed, horizon, cluster count): the
/// workload::ArrivalCache key.  Equal digests guarantee the generated
/// job vectors are bit-identical, so memoized streams can be shared
/// across systems, sessions, and tuner lanes.
std::array<std::uint64_t, 2> workload_digest(const GridConfig& config);

/// Digest of the inputs a grid::Site depends on: the topology, the seed,
/// cluster_size and estimators_per_cluster.  Equal digests build
/// identical sites.
std::array<std::uint64_t, 2> site_digest(const GridConfig& config);

}  // namespace scal::grid
