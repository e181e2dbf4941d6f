#include "rms/factory.hpp"

#include "rms/auction.hpp"
#include "rms/central.hpp"
#include "rms/hierarchical.hpp"
#include "rms/random_policy.hpp"
#include "rms/lowest.hpp"
#include "rms/receiver_initiated.hpp"
#include "rms/reserve.hpp"
#include "rms/sender_initiated.hpp"
#include "rms/symmetric.hpp"

namespace scal::rms {

grid::SchedulerFactory scheduler_factory(grid::RmsKind kind) {
  return [kind](grid::GridSystem& system, sim::EntityId id,
                grid::ClusterId cluster, net::NodeId node)
             -> std::unique_ptr<grid::SchedulerBase> {
    switch (kind) {
      case grid::RmsKind::kCentral:
        return std::make_unique<CentralScheduler>(system, id, cluster, node);
      case grid::RmsKind::kLowest:
        return std::make_unique<LowestScheduler>(system, id, cluster, node);
      case grid::RmsKind::kReserve:
        return std::make_unique<ReserveScheduler>(system, id, cluster, node);
      case grid::RmsKind::kAuction:
        return std::make_unique<AuctionScheduler>(system, id, cluster, node);
      case grid::RmsKind::kSenderInitiated:
        return std::make_unique<SenderInitiatedScheduler>(system, id, cluster,
                                                          node);
      case grid::RmsKind::kReceiverInitiated:
        return std::make_unique<ReceiverInitiatedScheduler>(system, id,
                                                            cluster, node);
      case grid::RmsKind::kSymmetric:
        return std::make_unique<SymmetricScheduler>(system, id, cluster,
                                                    node);
      case grid::RmsKind::kHierarchical:
        return std::make_unique<HierarchicalScheduler>(system, id, cluster,
                                                       node);
      case grid::RmsKind::kRandom:
        return std::make_unique<RandomScheduler>(system, id, cluster, node);
    }
    throw std::invalid_argument("scheduler_factory: unknown RMS kind");
  };
}

}  // namespace scal::rms
