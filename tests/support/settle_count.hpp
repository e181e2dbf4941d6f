#pragma once
// SettleCount: how many of a router's queries settled a tree instead of
// reading one — the phase profiler's net.route scope count, the way an
// instrumented run observes routing work.

#include <cstdint>

#include "net/routing.hpp"
#include "obs/phase_profiler.hpp"

namespace scal::test {

class SettleCount {
 public:
  explicit SettleCount(net::Router& router) : router_(router) {
    router_.attach_profiler(&profiler_, phase_);
  }
  ~SettleCount() { router_.attach_profiler(nullptr, 0); }
  SettleCount(const SettleCount&) = delete;
  SettleCount& operator=(const SettleCount&) = delete;

  std::uint64_t operator()() const { return profiler_.stats(phase_).calls; }

 private:
  net::Router& router_;
  obs::PhaseProfiler profiler_{true};
  obs::PhaseId phase_ = profiler_.phase("net.route");
};

}  // namespace scal::test
