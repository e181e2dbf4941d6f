#pragma once
// One node of the control plane's aggregation tree (docs/CONTROL_PLANE.md).
//
// An aggregator is a cheap forwarding daemon modeled, like every other
// RMS component, as a FIFO work server: each arriving status update is
// vetted at `process_cost`, coalesced into the pending buffer (a newer
// update for the same resource REPLACES the buffered one — status is
// idempotent, only the latest view matters), and forwarded upstream in
// batches at `forward_cost` per batch.  Coalescing is the control
// plane's G-reduction mechanism: an absorbed update never reaches the
// estimator or the scheduler, so their per-update costs are never paid —
// bought at a staleness price the `status_staleness` histogram exposes.
//
// A batch leaves when the buffer reaches `max_batch`, or when the flush
// timer (`flush_interval` after the first buffered update) fires; a
// flush_interval <= 0 forwards right after processing (no added hold).
//
// Failover semantics (aggregator blackouts, src/fault): going down
// flushes the pending buffer upstream at zero cost — the daemon's host
// hands its spool to the parent before dying, so no update is lost —
// and while down, arriving updates relay straight upstream, unbuffered
// and uncharged (children re-parent to the grandparent).  Zero-fault
// runs never touch this path.
//
// The payload type is grid::StatusUpdate (a header-only value struct);
// delivery up the tree is a callback the owning system wires in, so
// this library depends on sim/net/obs only — grid links ctrl, never the
// other way around.

#include <cstdint>
#include <functional>
#include <vector>

#include "grid/messages.hpp"
#include "net/graph.hpp"
#include "obs/histogram.hpp"
#include "sim/server.hpp"

namespace scal::ctrl {

class Aggregator : public sim::Server {
 public:
  /// `forward` ships a finished batch one hop upstream (parent
  /// aggregator or the root collector); the owner wires in the network
  /// hop.  Costs are in simulated time units of server work.
  Aggregator(sim::Simulator& sim, sim::EntityId id, net::NodeId node,
             double process_cost, double forward_cost,
             std::function<void(std::vector<grid::StatusUpdate>)> forward);

  /// Apply the batching knobs (the tuner moves these); the owner calls
  /// it once after construction.  max_batch >= 1.
  void configure(std::uint32_t max_batch, double flush_interval);

  /// A bundle of updates arrives (network delay already paid).  Charges
  /// process_cost per update, then coalesces into the pending buffer.
  void ingest(std::vector<grid::StatusUpdate> updates);

  /// Blackout hook.  Going down performs the zero-cost failover flush;
  /// while down, ingest() relays unbuffered and uncharged.
  void set_blackout(bool down);
  bool blacked_out() const noexcept { return blackout_; }

  net::NodeId node() const noexcept { return node_; }
  std::uint64_t updates_in() const noexcept { return updates_in_; }
  std::uint64_t updates_coalesced() const noexcept { return coalesced_; }
  std::uint64_t batches_out() const noexcept { return batches_; }

  /// Attach (optional) distribution probes: `coalescing` records the
  /// updates absorbed per forwarded batch, `hop_delay` the buffering
  /// delay each forwarded update spent at this hop.  Observational only.
  void attach_probes(obs::Histogram* coalescing,
                     obs::Histogram* hop_delay) noexcept {
    coalescing_hist_ = coalescing;
    hop_delay_hist_ = hop_delay;
  }

 private:
  struct Pending {
    grid::StatusUpdate update;
    sim::Time buffered_at = 0.0;
  };

  void absorb(grid::StatusUpdate update);
  void maybe_flush();
  void flush();
  void forward_buffer(std::uint64_t absorbed);

  net::NodeId node_;
  double process_cost_;
  double forward_cost_;
  std::function<void(std::vector<grid::StatusUpdate>)> forward_;

  std::uint32_t max_batch_ = 1;
  double flush_interval_ = 0.0;

  std::vector<Pending> buffer_;
  std::uint64_t buffer_absorbed_ = 0;  ///< coalesced into current buffer
  bool timer_armed_ = false;
  bool blackout_ = false;

  std::uint64_t updates_in_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t batches_ = 0;

  obs::Histogram* coalescing_hist_ = nullptr;
  obs::Histogram* hop_delay_hist_ = nullptr;
};

}  // namespace scal::ctrl
