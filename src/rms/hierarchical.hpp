#pragma once
// HIER: a two-level RMS — the paper's future-work item "(a) developing
// strategies to apply this framework to complex RMS architectures".
//
// Cluster 0's scheduler doubles as the root coordinator.  Leaf
// schedulers place LOCAL jobs on their least-loaded local resource and
// forward REMOTE jobs to the root; each leaf also sends the root a
// periodic cluster digest (busy fraction + least load).  The root
// places forwarded jobs on the cluster with the lowest digest load and
// hands them to that leaf for final local placement.  Decision cost at
// the root scales with the number of *clusters*, not resources — the
// aggregation that makes hierarchy cheaper than CENTRAL at scale.

#include "util/token_map.hpp"

#include "rms/base.hpp"

namespace scal::rms {

class HierarchicalScheduler : public DistributedSchedulerBase {
 public:
  using DistributedSchedulerBase::DistributedSchedulerBase;

  void on_start() override;
  bool is_root() const { return cluster() == 0; }

 protected:
  void handle_job(workload::Job job) override;
  void handle_message(const grid::RmsMessage& msg) override;
  void after_batch(const grid::StatusBatch& batch) override;

 private:
  struct Digest {
    double busy_fraction = 0.0;
    double least_load = 0.0;
    sim::Time stamp = -1e300;
  };

  void send_digest();
  void root_place(workload::Job job);

  /// Root-side view of every cluster (including its own, self-updated).
  util::TokenMap<grid::ClusterId, Digest> digests_;
  sim::Time last_digest_ = -1e300;
};

}  // namespace scal::rms
