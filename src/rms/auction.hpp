#pragma once
// AUCTION [Leland-Ott via the paper]: initial scheduling as in LOWEST.
// When the status stream shows a local resource going idle (or below
// T_l), the scheduler invites L_p neighbors to bid; neighbors holding a
// backlogged resource bid with its load; after a short accumulation
// window the auctioneer awards to the highest-load bidder, which hands
// over a queued job.  This is the PUSH+PULL hybrid whose overhead the
// paper shows degrading when status estimators are scaled (Case 3).

#include "util/token_map.hpp"
#include <vector>

#include "rms/lowest.hpp"

namespace scal::rms {

class AuctionScheduler : public LowestScheduler {
 public:
  using LowestScheduler::LowestScheduler;

  bool wants_idle_events() const override { return true; }

 protected:
  void handle_job(workload::Job job) override;
  void handle_message(const grid::RmsMessage& msg) override;
  void handle_idle_resource(grid::ResourceIndex resource,
                            std::uint32_t estimator) override;

 private:
  struct Bid {
    grid::ClusterId from = 0;
    double load = 0.0;
  };
  struct Auction {
    std::vector<Bid> bids;
  };

  void close_auction(std::uint64_t token);

  /// Auctions in flight, keyed by token.  Triggers are paced per
  /// estimator (see StatusBatch::estimator), so concurrent auctions from
  /// different estimators can coexist.
  util::TokenMap<std::uint64_t, Auction> active_;
  util::TokenMap<std::uint32_t, sim::Time> last_auction_;
};

}  // namespace scal::rms
