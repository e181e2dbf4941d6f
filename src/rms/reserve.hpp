#pragma once
// RESERVE [Zhou'88 via the paper]: when a scheduler's cluster load drops
// below T_l it registers reservations at L_p remote schedulers.  A
// scheduler whose cluster is above T_l sends a REMOTE arrival toward the
// most recent reservation after probing that the reserver is still below
// threshold; a failed probe cancels the reservation.

#include "util/token_map.hpp"
#include <vector>

#include "rms/base.hpp"

namespace scal::rms {

class ReserveScheduler : public DistributedSchedulerBase {
 public:
  using DistributedSchedulerBase::DistributedSchedulerBase;

 protected:
  void handle_job(workload::Job job) override;
  void handle_message(const grid::RmsMessage& msg) override;
  void after_batch(const grid::StatusBatch& batch) override;

 private:
  struct Reservation {
    grid::ClusterId from = 0;
    sim::Time stamp = 0.0;
  };
  struct Probe {
    workload::Job job;
    std::uint32_t attempt = 0;  ///< robustness retries of this probe
  };

  void maybe_advertise();
  /// Probe the freshest reservation for `job`, or place it locally when
  /// no reservation exists or the cluster is below threshold.
  void probe_reservation(workload::Job job, std::uint32_t attempt);
  /// Most recent reservation, or nullptr.
  Reservation* freshest_reservation();

  std::vector<Reservation> reservations_;
  util::TokenMap<std::uint64_t, Probe> probing_;
  sim::Time last_advert_ = -1e300;
};

}  // namespace scal::rms
