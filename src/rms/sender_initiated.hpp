#pragma once
// S-I [Shan-Oliker-Biswas via the paper]: sender-initiated
// superscheduling over a grid middleware.  On a REMOTE arrival the
// scheduler polls L_p remote schedulers, which answer with approximate
// waiting time (AWT), expected run time (ERT), and resource utilization
// status (RUS).  The approximate turnaround time ATT = AWT + ERT (plus
// the transfer delay for remote sites) picks the target; ties within
// tolerance psi break toward the smallest RUS.
//
// The round itself is LOWEST's; S-I changes what a peer quotes, the
// transfer delay added to each reply, the tie tolerance, and the
// comparison against the local ATT.

#include "rms/lowest.hpp"

namespace scal::rms {

class SenderInitiatedScheduler : public LowestScheduler {
 public:
  using LowestScheduler::LowestScheduler;

  bool uses_middleware() const override { return true; }

 protected:
  /// ATT = AWT + ERT for a job of demand `demand`.
  double quote(double demand) const override {
    return estimate_awt(cluster()) + estimate_ert(demand);
  }
  double reply_delay(grid::ClusterId peer) const override {
    return predict_transfer_delay(peer);
  }
  double tie_tolerance() const override { return protocol().psi; }
  bool beats_local(const PollRound& round) const override {
    // The local ATT is estimated before the replies are looked at, so
    // its table scan runs (and counts stale entries) even when no peer
    // answered.  Ties within psi stay local (the local site's RUS is
    // free to use).
    const double local_att =
        estimate_awt(cluster()) + estimate_ert(round.job.exec_time);
    return round.any_reply && round.best_quote < local_att - protocol().psi;
  }
};

}  // namespace scal::rms
