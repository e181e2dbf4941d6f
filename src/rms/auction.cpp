#include "rms/auction.hpp"

#include <algorithm>

namespace scal::rms {

void AuctionScheduler::handle_idle_resource(grid::ResourceIndex /*resource*/,
                                            std::uint32_t estimator) {
  // Pace per estimator: at most one auction per accumulation window per
  // trigger stream (independent estimators do not coordinate, which is
  // why the PUSH+PULL overhead grows when estimators are scaled).
  const auto last = last_auction_.find(estimator);
  if (last != last_auction_.end() &&
      now() - last->second < protocol().auction_window) {
    return;
  }
  const auto peers = random_peers(tuning().neighborhood_size);
  if (peers.empty()) return;
  last_auction_[estimator] = now();
  const std::uint64_t token = next_token();
  active_.emplace(token, Auction{});
  system().metrics().count_auction();
  for (const grid::ClusterId peer : peers) {
    grid::RmsMessage invite;
    invite.kind = grid::MsgKind::kAuctionInvite;
    invite.token = token;
    send_message(peer, std::move(invite), costs().sched_advert);
  }
  system().simulator().schedule_in(protocol().auction_window,
                                   [this, token]() {
                                     // Closing the auction is work too.
                                     submit(costs().sched_decision_base,
                                            [this, token]() {
                                              close_auction(token);
                                            });
                                   });
}

void AuctionScheduler::close_auction(std::uint64_t token) {
  const auto it = active_.find(token);
  if (it == active_.end()) return;
  Auction auction = std::move(it->second);
  active_.erase(it);
  if (auction.bids.empty()) return;
  const auto winner = std::max_element(
      auction.bids.begin(), auction.bids.end(),
      [](const Bid& a, const Bid& b) { return a.load < b.load; });
  grid::RmsMessage award;
  award.kind = grid::MsgKind::kAuctionAward;
  award.token = token;
  send_message(winner->from, std::move(award), costs().sched_poll);
}

void AuctionScheduler::handle_message(const grid::RmsMessage& msg) {
  switch (msg.kind) {
    case grid::MsgKind::kAuctionInvite: {
      const grid::ResourceIndex r = most_backlogged(cluster());
      if (r == kNoResource) return;  // nothing above threshold: no bid
      grid::RmsMessage bid;
      bid.kind = grid::MsgKind::kAuctionBid;
      bid.token = msg.token;
      bid.a = table(cluster())[r].load;
      send_message(msg.from, std::move(bid), costs().sched_bid);
      return;
    }
    case grid::MsgKind::kAuctionBid: {
      const auto it = active_.find(msg.token);
      if (it != active_.end()) {
        it->second.bids.push_back(Bid{msg.from, msg.a});
      }
      return;
    }
    case grid::MsgKind::kAuctionAward: {
      // Hand over a queued job from the most backlogged resource.
      const grid::ResourceIndex r = most_backlogged(cluster());
      if (r != kNoResource) {
        if (auto job = system().resource(cluster(), r).steal_queued_job()) {
          transfer_job(msg.from, std::move(*job));
          return;
        }
      }
      grid::RmsMessage decline;
      decline.kind = grid::MsgKind::kNoJob;
      decline.token = msg.token;
      send_message(msg.from, std::move(decline), costs().sched_poll);
      return;
    }
    case grid::MsgKind::kNoJob:
      return;  // auction fizzled; the idle resource stays idle
    default:
      LowestScheduler::handle_message(msg);
  }
}

}  // namespace scal::rms
