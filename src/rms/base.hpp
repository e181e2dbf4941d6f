#pragma once
// Shared plumbing for the distributed policies: local least-loaded
// placement, the default job-transfer handler, and the mechanisms
// several models share — the volunteering round (R-I, Sy-I), the
// advertisement loop to L_p peers (R-I, Sy-I, RESERVE), and the R-I
// demand/reply handshake (R-I, Sy-I).  The probe-on-arrival poll round
// (LOWEST, S-I, AUCTION, Sy-I) is LowestScheduler's.

#include "grid/scheduler.hpp"
#include "grid/system.hpp"
#include "util/token_map.hpp"

namespace scal::rms {

class DistributedSchedulerBase : public grid::SchedulerBase {
 public:
  using SchedulerBase::SchedulerBase;

 protected:
  /// Place `job` on this cluster's least-loaded resource.
  void schedule_local(workload::Job job);

  /// Transfer `job` to `dst`'s scheduler (kJobTransfer + accounting).
  void transfer_job(grid::ClusterId dst, workload::Job job);

  /// Default handling for an incoming kJobTransfer: schedule locally.
  void handle_message(const grid::RmsMessage& msg) override;

  /// Send a `kind` message to L_p random peers, each counted as an
  /// advert.
  void advertise(grid::MsgKind kind);

  /// Start the periodic volunteering round: from a random offset within
  /// the first volunteer interval, then every interval, volunteer
  /// (advertise kVolunteer) while a fresh table entry sits below delta.
  void start_volunteering();

  /// Open a demand negotiation (R-I handshake): send `job`'s demand to
  /// `volunteer` and hold the job until decide_demand_reply settles it.
  /// A reply lost past the reply timeout falls back to local placement.
  void request_demand(grid::ClusterId volunteer, workload::Job job);

  /// Answer a kDemandRequest (R-I handshake): reply with our ATT
  /// estimate for the demand in msg.a and our busy fraction.
  void reply_demand(const grid::RmsMessage& msg);

  /// Decide a kDemandReply: transfer the negotiated job to the volunteer
  /// if its quoted ATT plus the transfer delay beats the local estimate.
  /// Returns true if the message settled a negotiation.
  bool decide_demand_reply(const grid::RmsMessage& msg);

  const grid::CostModel& costs() const {
    return system().config().costs;
  }
  const grid::ProtocolParams& protocol() const {
    return system().config().protocol;
  }
  const grid::Tuning& tuning() const { return system().config().tuning; }

 private:
  void volunteer_tick();

  /// Jobs held by open demand negotiations, keyed by token.
  util::TokenMap<std::uint64_t, workload::Job> negotiating_;
};

}  // namespace scal::rms
