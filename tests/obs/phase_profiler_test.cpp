#include "obs/phase_profiler.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace scal::obs {
namespace {

TEST(PhaseProfiler, DisabledByDefaultAndScopesAreInert) {
  PhaseProfiler profiler;
  EXPECT_FALSE(profiler.enabled());
  const PhaseId id = profiler.phase("work");
  {
    PhaseProfiler::Scope scope(&profiler, id);
  }
  EXPECT_EQ(profiler.stats(id).calls, 0u);
}

TEST(PhaseProfiler, NullProfilerScopeIsInert) {
  PhaseProfiler::Scope scope(nullptr, 0);  // must not crash
}

TEST(PhaseProfiler, PhaseIdsAreDenseInRegistrationOrder) {
  PhaseProfiler profiler(/*enabled=*/true);
  EXPECT_EQ(profiler.phase("a"), 0u);
  EXPECT_EQ(profiler.phase("b"), 1u);
  EXPECT_EQ(profiler.phase("a"), 0u);  // lookup, not re-registration
  EXPECT_EQ(profiler.phases().size(), 2u);
}

TEST(PhaseProfiler, CountsCallsPerPhase) {
  PhaseProfiler profiler(/*enabled=*/true);
  const PhaseId a = profiler.phase("a");
  const PhaseId b = profiler.phase("b");
  for (int i = 0; i < 3; ++i) {
    PhaseProfiler::Scope scope(&profiler, a);
  }
  {
    PhaseProfiler::Scope scope(&profiler, b);
  }
  EXPECT_EQ(profiler.stats(a).calls, 3u);
  EXPECT_EQ(profiler.stats(b).calls, 1u);
}

TEST(PhaseProfiler, NestedScopesAttributeSelfTime) {
  PhaseProfiler profiler(/*enabled=*/true);
  const PhaseId outer = profiler.phase("outer");
  const PhaseId inner = profiler.phase("inner");
  {
    PhaseProfiler::Scope outer_scope(&profiler, outer);
    for (int i = 0; i < 50; ++i) {
      PhaseProfiler::Scope inner_scope(&profiler, inner);
      volatile int spin = 0;
      for (int j = 0; j < 1000; ++j) spin = spin + j;
    }
  }
  const PhaseProfiler::PhaseStats& o = profiler.stats(outer);
  const PhaseProfiler::PhaseStats& i = profiler.stats(inner);
  EXPECT_EQ(o.calls, 1u);
  EXPECT_EQ(i.calls, 50u);
  // The outer total covers the inner total; outer self excludes it.
  EXPECT_GE(o.total_ns, i.total_ns);
  EXPECT_EQ(o.self_ns, o.total_ns - i.total_ns);
  // A leaf phase's self time is its total time.
  EXPECT_EQ(i.self_ns, i.total_ns);
}

TEST(PhaseProfiler, RecursiveScopesOnOnePhaseCountEveryEntry) {
  PhaseProfiler profiler(/*enabled=*/true);
  const PhaseId id = profiler.phase("recurse");
  {
    PhaseProfiler::Scope a(&profiler, id);
    {
      PhaseProfiler::Scope b(&profiler, id);
    }
  }
  const PhaseProfiler::PhaseStats& stats = profiler.stats(id);
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_LE(stats.self_ns, stats.total_ns);
}

TEST(PhaseProfiler, MergeAccumulatesByNameAndAppendsNew) {
  PhaseProfiler a(/*enabled=*/true);
  PhaseProfiler b(/*enabled=*/true);
  const PhaseId a_shared = a.phase("shared");
  const PhaseId b_only = b.phase("only_b");
  const PhaseId b_shared = b.phase("shared");
  {
    PhaseProfiler::Scope s(&a, a_shared);
  }
  {
    PhaseProfiler::Scope s(&b, b_shared);
  }
  {
    PhaseProfiler::Scope s(&b, b_shared);
  }
  {
    PhaseProfiler::Scope s(&b, b_only);
  }
  a.merge(b);
  ASSERT_EQ(a.phases().size(), 2u);
  EXPECT_EQ(a.phases()[0].name, "shared");
  EXPECT_EQ(a.phases()[0].calls, 3u);
  EXPECT_EQ(a.phases()[1].name, "only_b");
  EXPECT_EQ(a.phases()[1].calls, 1u);
}

TEST(PhaseProfiler, CountsJsonIsDeterministic) {
  // counts_json() is the bit-identity surface: no wall-clock fields.
  auto run = [] {
    PhaseProfiler profiler(/*enabled=*/true);
    const PhaseId dispatch = profiler.phase("dispatch");
    const PhaseId route = profiler.phase("route");
    for (int i = 0; i < 7; ++i) {
      PhaseProfiler::Scope outer(&profiler, dispatch);
      PhaseProfiler::Scope inner(&profiler, route);
    }
    return profiler.counts_json();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_EQ(first, "{\"dispatch\":7,\"route\":7}");
}

TEST(PhaseProfiler, MergedCountsMatchSerialAtAnySlotOrder) {
  // The parallel reduction: per-slot profilers merged in slot order give
  // the same counts as one serial profiler over the same work.
  PhaseProfiler serial(/*enabled=*/true);
  const PhaseId s = serial.phase("eval");
  for (int i = 0; i < 10; ++i) {
    PhaseProfiler::Scope scope(&serial, s);
  }
  std::vector<PhaseProfiler> slots;
  for (int slot = 0; slot < 3; ++slot) {
    slots.emplace_back(/*enabled=*/true);
  }
  int spread[] = {4, 3, 3};
  for (int slot = 0; slot < 3; ++slot) {
    const PhaseId id = slots[slot].phase("eval");
    for (int i = 0; i < spread[slot]; ++i) {
      PhaseProfiler::Scope scope(&slots[slot], id);
    }
  }
  PhaseProfiler merged(/*enabled=*/true);
  for (const PhaseProfiler& slot : slots) merged.merge(slot);
  EXPECT_EQ(merged.counts_json(), serial.counts_json());
}

TEST(PhaseProfiler, JsonCarriesAllThreeFields) {
  PhaseProfiler profiler(/*enabled=*/true);
  const PhaseId id = profiler.phase("p");
  {
    PhaseProfiler::Scope scope(&profiler, id);
  }
  const std::string json = profiler.to_json();
  EXPECT_NE(json.find("\"calls\":1"), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"self_ns\":"), std::string::npos);
}

TEST(PhaseProfiler, TraceMirrorEmitsCompleteEvents) {
  TraceRecorder trace;
  trace.set_enabled(true);
  const TraceTid tid = trace.register_track("profiler (wall us)");
  PhaseProfiler profiler(/*enabled=*/true);
  profiler.attach_trace(&trace, tid);
  const PhaseId id = profiler.phase("work");
  {
    PhaseProfiler::Scope scope(&profiler, id);
  }
  ASSERT_GE(trace.size(), 1u);
  const TraceEvent& ev = trace.events().back();
  EXPECT_EQ(ev.phase, 'X');
  EXPECT_EQ(ev.name, "work");
  EXPECT_EQ(ev.tid, tid);
  EXPECT_GE(ev.dur, 0.0);

  std::ostringstream os;
  trace.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

}  // namespace
}  // namespace scal::obs
