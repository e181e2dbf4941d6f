#pragma once
// The result schema: the one definition of SimulationResult's stored
// fields.  SimulationResult declares its members by expanding the table,
// the eval store serializes the rows and stamps its files with a hash of
// them (core/eval_store.cpp), grid::fill_manifest renders the manifest's
// result blocks from them, and the tests compare results by walking
// them.  Adding a result field is one FIELD row plus the code that
// computes it: a MetricsCollector count, which lands in the field
// directly, or GridSystem::assemble_result.
//
// Two row kinds, in declaration order:
//   FIELD(type, name, init, block, key)  stored member `type name = init;`
//   DERIVED(expr, block, key)            manifest-only value `r.expr`,
//                                        read or computed from members
// `block` is the ManifestBlock that carries the value under `key`.
// Within a block, keys appear in row order, so the rows are ordered to
// reproduce the manifest's byte layout.

#include <cstdint>
#include <string>
#include <type_traits>

#include "grid/result_mode.hpp"
#include "workload/trace.hpp"

namespace scal::grid {

/// Where a row's value lands in the run manifest.  The gates that decide
/// whether a block is emitted live in grid::fill_manifest.
enum class ManifestBlock {
  kNone,              ///< not in the manifest
  kResult,            ///< "result"
  kFaults,            ///< "faults" (fault spec non-empty)
  kWorkload,          ///< "workload" (non-default source)
  kWorkloadCache,     ///< "workload", each key only when > 0
  kMemory,            ///< "memory" (streaming mode)
  kCtrl,              ///< "ctrl" (control plane on)
  kCounters,          ///< "counters"
  kFaultCounters,     ///< "counters" (fault spec non-empty)
  kBlackoutCounters,  ///< "counters" (agg-blackout set)
};

// clang-format off
#define SCAL_RESULT_SCHEMA(FIELD, DERIVED)                                    \
  /* The paper's terms and the Figure 6/7 measures. */                        \
  FIELD(double, F, 0.0, kResult, "F")                                         \
  DERIVED(G(), kResult, "G")                                                  \
  DERIVED(H(), kResult, "H")                                                  \
  DERIVED(efficiency(), kResult, "efficiency")                                \
  FIELD(double, throughput, 0.0, kResult, "throughput") /* jobs per time */   \
  FIELD(double, mean_response, 0.0, kResult, "mean_response")                 \
  FIELD(double, p95_response, 0.0, kResult, "p95_response")                   \
  /* Bottleneck isolation: the busiest scheduler's share of G_scheduler    */ \
  /* (1 for CENTRAL; ~1/#clusters for a balanced distributed RMS) and its  */ \
  /* own work-in-system time.                                              */ \
  FIELD(double, G_scheduler_max_share, 0.0, kResult, "G_scheduler_max_share") \
  FIELD(double, G_scheduler_max, 0.0, kNone, "")                              \
  FIELD(double, horizon, 0.0, kNone, "")                                      \
  /* Bookkeeping and protocol counters. */                                    \
  FIELD(std::uint64_t, jobs_arrived, 0, kCounters, "jobs_arrived")            \
  FIELD(std::uint64_t, jobs_local, 0, kCounters, "jobs_local")                \
  FIELD(std::uint64_t, jobs_remote, 0, kCounters, "jobs_remote")              \
  FIELD(std::uint64_t, jobs_completed, 0, kCounters, "jobs_completed")        \
  FIELD(std::uint64_t, jobs_succeeded, 0, kCounters, "jobs_succeeded")        \
  FIELD(std::uint64_t, jobs_missed_deadline, 0, kCounters,                    \
        "jobs_missed_deadline")                                               \
  FIELD(std::uint64_t, jobs_unfinished, 0, kCounters, "jobs_unfinished")      \
  FIELD(std::uint64_t, polls, 0, kCounters, "polls")                          \
  FIELD(std::uint64_t, transfers, 0, kCounters, "transfers")                  \
  FIELD(std::uint64_t, auctions, 0, kCounters, "auctions")                    \
  FIELD(std::uint64_t, adverts, 0, kCounters, "adverts")                      \
  FIELD(std::uint64_t, updates_received, 0, kCounters, "updates_received")    \
  FIELD(std::uint64_t, updates_suppressed, 0, kCounters,                      \
        "updates_suppressed")                                                 \
  FIELD(std::uint64_t, network_messages, 0, kCounters, "network_messages")    \
  /* Failure-injection casualties. */                                         \
  FIELD(std::uint64_t, messages_dropped, 0, kCounters, "messages_dropped")    \
  FIELD(std::uint64_t, events_dispatched, 0, kCounters, "events_dispatched")  \
  /* G and H by component; G() and H() sum them. */                           \
  FIELD(double, G_scheduler, 0.0, kCounters, "G_scheduler")                   \
  FIELD(double, G_estimator, 0.0, kCounters, "G_estimator")                   \
  FIELD(double, G_middleware, 0.0, kCounters, "G_middleware")                 \
  FIELD(double, H_control, 0.0, kCounters, "H_control")                       \
  FIELD(double, H_wasted, 0.0, kCounters, "H_wasted")                         \
  /* Control-plane aggregation (docs/CONTROL_PLANE.md): all zero when off; */ \
  /* degenerate knobs build the forest but bypass it, so only tree_depth   */ \
  /* is set.  The tree's own work is charged to G like every other RMS     */ \
  /* server's.                                                             */ \
  FIELD(double, G_aggregator, 0.0, kCtrl, "G_aggregator")                     \
  FIELD(std::uint64_t, ctrl_updates_in, 0, kCtrl, "updates_in")               \
  FIELD(std::uint64_t, ctrl_updates_coalesced, 0, kCtrl, "updates_coalesced") \
  DERIVED(ctrl_coalescing_ratio(), kCtrl, "coalescing_ratio")                 \
  FIELD(std::uint64_t, ctrl_batches, 0, kCtrl, "batches") /* tree-hops */     \
  FIELD(std::uint64_t, ctrl_tree_depth, 0, kCtrl, "tree_depth")               \
  /* Fault subsystem (zero / 1.0 on a fault-free run; docs/FAULTS.md). */     \
  FIELD(std::uint64_t, resource_crashes, 0, kFaultCounters,                   \
        "resource_crashes")                                                   \
  FIELD(std::uint64_t, resource_recoveries, 0, kFaultCounters,                \
        "resource_recoveries")                                                \
  /* In-flight jobs a crash destroyed; of those, requeued or lost past */     \
  /* the requeue budget.                                               */     \
  FIELD(std::uint64_t, jobs_killed, 0, kFaultCounters, "jobs_killed")         \
  FIELD(std::uint64_t, jobs_requeued, 0, kFaultCounters, "jobs_requeued")     \
  FIELD(std::uint64_t, jobs_lost, 0, kFaultCounters, "jobs_lost")             \
  FIELD(std::uint64_t, round_retries, 0, kFaultCounters, "round_retries")     \
  /* Stale views skipped in scans; control work lost to blackouts. */         \
  FIELD(std::uint64_t, status_evictions, 0, kFaultCounters,                   \
        "status_evictions")                                                   \
  FIELD(std::uint64_t, blackout_drops, 0, kFaultCounters, "blackout_drops")   \
  FIELD(std::uint64_t, messages_delayed, 0, kFaultCounters,                   \
        "messages_delayed")                                                   \
  FIELD(std::uint64_t, messages_duplicated, 0, kFaultCounters,                \
        "messages_duplicated")                                                \
  /* Summed down-state resource-time. */                                      \
  FIELD(double, resource_downtime, 0.0, kFaultCounters, "resource_downtime")  \
  /* agg-blackout windows opened. */                                          \
  FIELD(std::uint64_t, aggregator_blackouts, 0, kBlackoutCounters,            \
        "aggregator_blackouts")                                               \
  /* Fraction of resource-time actually up: 1 - downtime / (R * horizon). */ \
  FIELD(double, availability, 1.0, kFaults, "availability")                   \
  DERIVED(efficiency_avail(), kFaults, "efficiency_avail")                    \
  /* Workload provenance (docs/WORKLOADS.md): summary stats of the arrival */ \
  /* stream the run consumed, whether the process-wide ArrivalCache        */ \
  /* already held it, and that cache's byte-budget evictions and skipped   */ \
  /* one-shot stores.                                                      */ \
  FIELD(workload::TraceStats, workload_stats, {}, kNone, "")                  \
  DERIVED(workload_stats.jobs, kWorkload, "jobs")                             \
  DERIVED(workload_stats.span, kWorkload, "span")                             \
  DERIVED(workload_stats.mean_interarrival, kWorkload, "mean_interarrival")   \
  DERIVED(workload_stats.mean_exec_time, kWorkload, "mean_exec")              \
  FIELD(bool, workload_from_cache, false, kWorkload, "from_cache")            \
  FIELD(std::uint64_t, arrival_cache_evictions, 0, kWorkloadCache,            \
        "arrival_cache_evictions")                                            \
  FIELD(std::uint64_t, arrival_cache_store_skips, 0, kWorkloadCache,          \
        "arrival_cache_store_skips")                                          \
  /* Memory tier (docs/PERFORMANCE.md): the result path the run used, the  */ \
  /* lifecycle records kept and dropped past the capacity bound, and the   */ \
  /* arrival arena's peak in-flight slots and recycles.                    */ \
  FIELD(ResultMode, result_mode, ResultMode::kFull, kMemory, "result_mode")   \
  FIELD(std::uint64_t, job_log_records, 0, kMemory, "job_log_records")        \
  FIELD(std::uint64_t, job_log_dropped, 0, kMemory, "job_log_dropped")        \
  FIELD(std::uint64_t, arena_high_water, 0, kMemory, "arena_high_water")      \
  FIELD(std::uint64_t, arena_reuses, 0, kMemory, "arena_reuses")
// clang-format on

/// A stored field's name: `member`, or `member.stat` for one stat of the
/// nested workload_stats.  Two pointers to string literals, so walking
/// the schema allocates nothing.
struct FieldName {
  const char* member;
  const char* stat = nullptr;
  std::string str() const {
    return stat != nullptr ? std::string(member) + "." + stat : member;
  }
};

namespace schema_detail {

/// One stored field of every result being walked.  A TraceStats member
/// is walked stat by stat, so `f` only ever sees scalars.
template <typename T, typename F, typename... Members>
void visit(F& f, const char* name, Members&... members) {
  if constexpr (std::is_same_v<T, workload::TraceStats>) {
#define SCAL_VISIT_STAT(type, stat) f(FieldName{name, #stat}, members.stat...);
    SCAL_TRACE_STATS_FIELDS(SCAL_VISIT_STAT)
#undef SCAL_VISIT_STAT
  } else {
    f(FieldName{name}, members...);
  }
}

}  // namespace schema_detail

/// Calls f(FieldName, r.field...) for every stored field, in row order,
/// of the results `rs` side by side: one result to read or write it,
/// two to compare them.  `Results` may be const.
template <typename F, typename... Results>
void for_each_field(F&& f, Results&... rs) {
#define SCAL_VISIT_FIELD(type, name, init, block, key) \
  schema_detail::visit<type>(f, #name, rs.name...);
#define SCAL_SKIP_DERIVED(expr, block, key)
  SCAL_RESULT_SCHEMA(SCAL_VISIT_FIELD, SCAL_SKIP_DERIVED)
#undef SCAL_VISIT_FIELD
#undef SCAL_SKIP_DERIVED
}

}  // namespace scal::grid
