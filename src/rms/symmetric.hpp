#pragma once
// Sy-I [Shan-Oliker-Biswas via the paper]: symmetric superscheduling —
// combines S-I and R-I.  Schedulers advertise underutilized resources
// (driven both by the periodic round and by idle events surfaced by the
// status-estimator stream; the double status-estimation path is what
// Case 3 stresses).  A scheduler holding a new REMOTE job uses the
// freshest advertisement if one is live, otherwise falls back to the
// S-I poll.

#include "util/token_map.hpp"

#include "rms/sender_initiated.hpp"

namespace scal::rms {

class SymmetricScheduler : public SenderInitiatedScheduler {
 public:
  using SenderInitiatedScheduler::SenderInitiatedScheduler;

  bool wants_idle_events() const override { return true; }
  void on_start() override { start_volunteering(); }

 protected:
  void handle_job(workload::Job job) override;
  void handle_message(const grid::RmsMessage& msg) override;
  void handle_idle_resource(grid::ResourceIndex resource,
                            std::uint32_t estimator) override;

 private:
  /// Freshest live advertisement within the TTL, or nullptr.
  const grid::ClusterId* freshest_advert();

  util::TokenMap<grid::ClusterId, sim::Time> adverts_;
  /// Event-driven broadcasts are paced per estimator trigger stream.
  util::TokenMap<std::uint32_t, sim::Time> last_event_broadcast_;
  grid::ClusterId freshest_cache_ = 0;
};

}  // namespace scal::rms
