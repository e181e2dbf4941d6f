#pragma once
// Persistent EvalCache: a versioned binary serializer for the tuner's
// memoized (EvalKey -> grid::SimulationResult) entries, so a re-run of
// ablation_tuner / ext_path_search over the same configuration space is
// warm from disk.  Values round-trip bit-exactly (doubles are stored as
// raw IEEE-754 bit patterns), so a warm run's objectives are
// byte-identical to the cold run that wrote the file.
//
// Invalidation is two-layered:
//   - whole-file: the header carries a format version, a value-schema
//     stamp, and the writer's code version (git describe).  Any
//     mismatch — including a corrupt or truncated file — discards the
//     file entirely; a simulator change could shift every value.
//   - per-key: entries keep their grid::config_digest, so entries from
//     configurations a run never asks about are inert (preloaded but
//     never hit), never wrong.
// To wipe a stale cache, delete the file; the next run rewrites it.
//
// Files are deterministic: entries are sorted by (digest, point) before
// writing, so saving the same cache contents twice produces identical
// bytes regardless of hash-map iteration order.

#include <cstddef>
#include <string>

#include "core/tuner.hpp"

namespace scal::core {

/// The code-version stamp save/load compare: `git describe` of the
/// binary's source (obs::git_describe()), "unknown" outside a checkout.
std::string eval_cache_code_version();

struct EvalStoreStats {
  std::size_t loaded = 0;           ///< entries preloaded into the cache
  std::size_t entries_in_file = 0;  ///< entries the file declared
  bool found = false;               ///< the file existed and opened
  bool version_mismatch = false;    ///< discarded: version/format/corrupt
};

/// Serialize every ready cache entry to `path` (binary; overwrites).
/// The bytes go to a uniquely named sibling temp file that is renamed
/// over `path`, so the target is always absent or whole, even under a
/// killed run or concurrent writers.  Returns the entry count written.
/// Throws std::runtime_error (leaving no temp file) when the file cannot
/// be written or renamed.
std::size_t save_eval_cache(const EvalCache& cache, const std::string& path,
                            const std::string& code_version);
std::size_t save_eval_cache(const EvalCache& cache, const std::string& path);

/// Preload `cache` from `path` if it exists and its header matches
/// (format, value schema, `code_version`).  Missing file: found=false.
/// Any mismatch or parse failure discards the whole file
/// (version_mismatch=true, nothing preloaded).  Never throws on bad
/// input — a stale cache must degrade to a cold run, not an error.
EvalStoreStats load_eval_cache(EvalCache& cache, const std::string& path,
                               const std::string& code_version);
EvalStoreStats load_eval_cache(EvalCache& cache, const std::string& path);

}  // namespace scal::core
