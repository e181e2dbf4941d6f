#pragma once
// The message fabric: delivers payloads between graph nodes with the
// routed end-to-end delay.  The RMS "network link delay" scaling enabler
// from the paper (Tables 2-5) is modeled as a multiplicative delay scale:
// tuning it below 1.0 represents provisioning faster control links and is
// penalized by cost elsewhere (the tuner trades it against efficiency).

#include <cstdint>
#include <optional>

#include "net/routing.hpp"
#include "sim/entity.hpp"
#include "util/rng.hpp"

namespace scal::net {

/// Control-message fault model (fault subsystem): per-message drop /
/// duplication / extra-delay decisions on a dedicated stream.  Applies
/// to the unreliable path only and composes with (runs after) the
/// legacy set_loss check, so enabling it never perturbs the draw
/// sequence of existing loss-injection runs.
struct NetFaults {
  double drop = 0.0;               ///< independent drop probability
  double duplicate = 0.0;          ///< probability of a second delivery
  double delay_probability = 0.0;  ///< probability of extra latency
  double delay_mean = 0.0;         ///< mean of the Exp extra latency
  bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || delay_probability > 0.0;
  }
};

class Network : public sim::Entity {
 public:
  /// Routes over `router`, which must outlive the fabric.  The router is
  /// borrowed so its settled trees survive the fabric: a grid::Site
  /// lends one router to every system built over it.
  Network(sim::Simulator& sim, sim::EntityId id, const Router& router)
      : Entity(sim, id, "network"), router_(router) {}

  /// Deliver `on_arrival` after the routed delay for a message of `size`
  /// units from `src` to `dst`.  src == dst delivers after zero delay
  /// (still via the event queue, preserving causal ordering).
  void send(NodeId src, NodeId dst, double size,
            sim::EventFn on_arrival);

  /// Like send(), but subject to the configured control-message loss
  /// probability (failure injection).  A dropped message simply never
  /// arrives; protocols must tolerate that via timeouts/idempotence.
  void send_unreliable(NodeId src, NodeId dst, double size,
                       sim::EventFn on_arrival);

  /// Enable loss injection.  p in [0, 1); the stream seeds the drop
  /// decisions so runs stay deterministic.
  void set_loss(double probability, util::RandomStream rng);
  std::uint64_t messages_dropped() const noexcept { return dropped_; }

  /// Enable the fault-subsystem message model.  Each unreliable message
  /// draws, in fixed order and only for the classes enabled, drop ->
  /// extra delay -> duplication, so disabled classes consume no draws.
  void set_faults(const NetFaults& faults, util::RandomStream rng);
  std::uint64_t messages_duplicated() const noexcept { return duplicated_; }
  std::uint64_t messages_delayed() const noexcept { return delayed_; }

  /// One-way delay this fabric would charge right now.
  double predict_delay(NodeId src, NodeId dst, double size) const;

  /// Throws unless 0 < scale < +inf.
  void set_delay_scale(double scale);
  double delay_scale() const noexcept { return delay_scale_; }

  std::uint64_t messages_sent() const noexcept { return messages_; }

 private:
  const Router& router_;
  double delay_scale_ = 1.0;
  std::uint64_t messages_ = 0;
  double loss_probability_ = 0.0;
  std::optional<util::RandomStream> loss_rng_;
  std::uint64_t dropped_ = 0;
  NetFaults faults_;
  std::optional<util::RandomStream> fault_rng_;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace scal::net
