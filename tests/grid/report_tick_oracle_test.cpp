// Oracle for the status-report tick loop.  grid::Resource skips the ticks
// of a quiet resource and credits them later; the reference below is a
// self-contained model of the always-re-armed loop: every tick is an
// event, re-armed `interval` after it fires, with its own FCFS queue,
// service accounting and event queue.  It shares no code with src/.
//
// Both sides run the same seeded script of accepts, crashes, recoveries
// and steals (service completions follow from the accepts).  Each input
// is scheduled by a relay event a quarter interval before it, so an
// input placed exactly on a tick time is scheduled after the previous
// tick fired, the case the tie rule covers.  The tests compare the
// report stream (stamp bits, load, busy, recovered), updates_suppressed
// and the dispatched-event count after crediting, at checkpoints and at
// the horizon.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <queue>
#include <random>
#include <set>
#include <vector>

#include "grid/metrics.hpp"
#include "grid/resource.hpp"
#include "sim/simulator.hpp"

namespace scal::grid {
namespace {

enum class Input { kAccept, kCrash, kRecover, kSteal };

struct Step {
  double at = 0.0;
  Input input = Input::kAccept;
  double exec = 0.0;  ///< accept: the job's exec time
};

struct Params {
  double interval = 10.0;
  double offset = 0.0;
  bool suppression = true;
  double max_silence = 0.0;
  double rate = 2.0;
  double control = 0.5;  ///< job-control demand per job
};

struct Report {
  std::uint64_t stamp_bits = 0;
  double load = 0.0;
  bool busy = false;
  bool recovered = false;
  bool operator==(const Report& o) const {
    return stamp_bits == o.stamp_bits && load == o.load && busy == o.busy &&
           recovered == o.recovered;
  }
};

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

/// What both sides expose at a checkpoint.
struct Observed {
  std::vector<Report> reports;
  std::uint64_t suppressed = 0;
  std::uint64_t dispatched = 0;
};

/// The reference: a minimal event loop ordered by (time, push order)
/// driving the always-re-armed tick loop.
class Reference {
 public:
  Reference(const Params& p, const std::vector<Step>& script) : p_(p) {
    control_time_ = p.control / p.rate;
    push(p.offset, [this] { tick(); });
    for (const Step& step : script) {
      push(std::max(0.0, step.at - 0.25 * p.interval),
           [this, step] { push(step.at, [this, step] { apply(step); }); });
    }
  }

  void run(double until) {
    while (!queue_.empty() && queue_.top().at <= until) {
      const Event ev = queue_.top();
      queue_.pop();
      if (cancelled_.erase(ev.seq) > 0) continue;
      now_ = ev.at;
      ++out_.dispatched;
      fns_[ev.seq]();
    }
  }

  const Observed& observed() const { return out_; }

 private:
  struct Event {
    double at;
    std::uint64_t seq;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  std::uint64_t push(double at, std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    queue_.push({at, next_seq_});
    return next_seq_++;
  }

  double load() const {
    return static_cast<double>(queue_jobs_.size()) + (in_service_ ? 1.0 : 0.0);
  }

  void begin_service() {
    if (queue_jobs_.empty()) {
      in_service_ = false;
      return;
    }
    const double exec = queue_jobs_.front();
    queue_jobs_.pop_front();
    in_service_ = true;
    const double total = control_time_ + exec / p_.rate;
    completion_ = push(now_ + total, [this] {
      in_service_ = false;
      begin_service();
    });
  }

  void apply(const Step& step) {
    switch (step.input) {
      case Input::kAccept:
        if (down_) return;  // killed on arrival
        queue_jobs_.push_back(step.exec);
        if (!in_service_) begin_service();
        return;
      case Input::kCrash:
        if (down_) return;
        down_ = true;
        if (in_service_) cancelled_.insert(completion_);
        in_service_ = false;
        queue_jobs_.clear();
        return;
      case Input::kRecover:
        if (!down_) return;
        down_ = false;
        recovered_pending_ = true;
        return;
      case Input::kSteal:
        if (!queue_jobs_.empty()) queue_jobs_.pop_back();
        return;
    }
  }

  void tick() {
    if (!down_) {
      const double current = load();
      const bool heartbeat_due =
          p_.max_silence > 0.0 && now_ - last_sent_ >= p_.max_silence;
      const bool unchanged = reported_once_ &&
                             current == last_reported_load_ &&
                             !recovered_pending_;
      if (p_.suppression && unchanged && !heartbeat_due) {
        ++out_.suppressed;
      } else {
        out_.reports.push_back(
            {bits(now_), current, in_service_, recovered_pending_});
        last_reported_load_ = current;
        reported_once_ = true;
        recovered_pending_ = false;
        last_sent_ = now_;
      }
    }
    push(now_ + p_.interval, [this] { tick(); });
  }

  Params p_;
  double control_time_ = 0.0;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::deque<std::function<void()>> fns_;  // stable across push_back
  std::set<std::uint64_t> cancelled_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;

  std::deque<double> queue_jobs_;
  bool in_service_ = false;
  std::uint64_t completion_ = 0;
  bool down_ = false;
  bool recovered_pending_ = false;
  bool reported_once_ = false;
  double last_reported_load_ = -1.0;
  double last_sent_ = 0.0;

  Observed out_;
};

/// The real Resource on the real kernel, driven by the same script.
class Real {
 public:
  Real(const Params& p, const std::vector<Step>& script)
      : res_(sim_, 0, /*cluster=*/0, /*index=*/0, p.rate, p.control,
             metrics_, [this](const StatusUpdate& u) {
               out_.reports.push_back(
                   {bits(u.stamp), u.load, u.busy, u.recovered});
             }) {
    res_.start_reporting(p.interval, p.offset, p.suppression, p.max_silence);
    for (const Step& step : script) {
      sim_.schedule_at(std::max(0.0, step.at - 0.25 * p.interval),
                       [this, step] {
                         sim_.schedule_at(step.at,
                                          [this, step] { apply(step); });
                       });
    }
  }

  void run(double until) {
    fired_ += sim_.run(until);
    res_.credit_skipped_ticks(sim_.now());
  }

  Observed observed() {
    out_.suppressed = metrics_.snapshot().updates_suppressed;
    out_.dispatched = sim_.dispatched_events();
    return out_;
  }
  std::uint64_t fired() const { return fired_; }

 private:
  void apply(const Step& step) {
    switch (step.input) {
      case Input::kAccept: {
        workload::Job job;
        job.id = next_job_++;
        job.exec_time = step.exec;
        res_.accept_job(job);
        return;
      }
      case Input::kCrash:
        res_.crash();
        return;
      case Input::kRecover:
        res_.recover();
        return;
      case Input::kSteal:
        res_.steal_queued_job();
        return;
    }
  }

  sim::Simulator sim_;
  MetricsCollector metrics_;
  Observed out_;
  Resource res_;
  workload::JobId next_job_ = 1;
  std::uint64_t fired_ = 0;
};

/// Runs both sides through `checkpoints` (the last is the horizon) and
/// expects the same observations at each; returns the events the real
/// kernel fired.
std::uint64_t expect_same(const Params& p, const std::vector<Step>& script,
                          const std::vector<double>& checkpoints) {
  Reference ref(p, script);
  Real real(p, script);
  for (const double until : checkpoints) {
    ref.run(until);
    real.run(until);
    const Observed want = ref.observed();
    const Observed got = real.observed();
    EXPECT_EQ(got.reports.size(), want.reports.size()) << "at " << until;
    for (std::size_t i = 0;
         i < std::min(got.reports.size(), want.reports.size()); ++i) {
      EXPECT_TRUE(got.reports[i] == want.reports[i])
          << "report " << i << " at " << until << ": load "
          << got.reports[i].load << " vs " << want.reports[i].load;
    }
    EXPECT_EQ(got.suppressed, want.suppressed) << "at " << until;
    EXPECT_EQ(got.dispatched, want.dispatched) << "at " << until;
  }
  return real.fired();
}

/// A seeded script: `n` inputs at uniform times in (0, horizon), mostly
/// accepts, with crashes, recoveries and steals mixed in when `faults`.
std::vector<Step> random_script(std::uint64_t seed, int n, double horizon,
                                bool faults) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> when(0.0, horizon);
  std::uniform_real_distribution<double> exec(0.5, 40.0);
  std::uniform_int_distribution<int> kind(0, faults ? 9 : 7);
  std::vector<Step> script;
  for (int i = 0; i < n; ++i) {
    Step step;
    step.at = when(rng);
    const int k = kind(rng);
    step.input = k < 6   ? Input::kAccept
                 : k < 8 ? Input::kSteal
                 : k < 9 ? Input::kCrash
                         : Input::kRecover;
    step.exec = exec(rng);
    script.push_back(step);
  }
  return script;
}

/// `k` ticks after the first, by the timer's own additions.
double tick_time(const Params& p, int k) {
  double t = 0.0 + p.offset;
  for (int i = 0; i < k; ++i) t += p.interval;
  return t;
}

TEST(ReportTickOracle, SuppressionSkipsQuietTicks) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Params p;
    p.interval = 3.7;
    p.offset = 1.3 + 0.05 * static_cast<double>(seed);
    const auto script = random_script(seed, 40, 1000.0, /*faults=*/false);
    const std::uint64_t fired =
        expect_same(p, script, {250.0, 400.0, 1000.0});
    Reference ref(p, script);
    ref.run(1000.0);
    EXPECT_LT(fired, ref.observed().dispatched) << "seed " << seed;
  }
}

TEST(ReportTickOracle, SuppressionOffArmsEveryTickWhileUp) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Params p;
    p.suppression = false;
    p.interval = 2.5;
    p.offset = 0.7;
    // Up throughout, every tick fires.
    const auto up = random_script(seed, 30, 500.0, /*faults=*/false);
    Reference ref(p, up);
    ref.run(500.0);
    EXPECT_EQ(expect_same(p, up, {123.4, 500.0}), ref.observed().dispatched);
    // A down resource's ticks are skipped all the same.
    expect_same(p, random_script(seed, 30, 500.0, /*faults=*/true),
                {123.4, 500.0});
  }
}

TEST(ReportTickOracle, HeartbeatsWithoutInputs) {
  for (const double silence : {0.5, 2.0, 3.3, 25.0}) {
    Params p;
    p.interval = 4.0;
    p.offset = 1.1;
    p.max_silence = silence * p.interval;
    expect_same(p, {}, {77.7, 1000.0});
  }
}

TEST(ReportTickOracle, HeartbeatsWithInputsCrashesAndRecoveries) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const double silence : {0.5, 2.0, 3.3}) {
      Params p;
      p.interval = 5.0;
      p.offset = 0.2 * static_cast<double>(seed);
      p.max_silence = silence * p.interval;
      const auto script = random_script(seed, 50, 800.0, /*faults=*/true);
      expect_same(p, script, {100.0, 333.3, 800.0});
    }
  }
}

TEST(ReportTickOracle, CrashAndRecoverWhileDormant) {
  Params p;
  p.interval = 10.0;
  p.offset = 3.0;
  // Idle from the first report on: dormant, then down for 200 units,
  // then recovered (one forced report), then dormant again.
  const std::vector<Step> script = {{101.5, Input::kCrash, 0.0},
                                    {301.5, Input::kRecover, 0.0},
                                    {502.5, Input::kAccept, 4.0}};
  expect_same(p, script, {200.0, 400.0, 700.0});
}

TEST(ReportTickOracle, CrashAndRecoverWhileHeartbeatArmed) {
  Params p;
  p.interval = 10.0;
  p.offset = 3.0;
  p.max_silence = 45.0;  // heartbeat armed four ticks past a report
  const std::vector<Step> script = {{24.5, Input::kCrash, 0.0},
                                    {58.0, Input::kRecover, 0.0},
                                    {71.0, Input::kAccept, 30.0},
                                    {76.0, Input::kCrash, 0.0},
                                    {131.0, Input::kRecover, 0.0}};
  expect_same(p, script, {60.0, 300.0});
}

TEST(ReportTickOracle, InputExactlyOnATickSeesTheTickFirst) {
  for (const double silence : {0.0, 30.0}) {
    Params p;
    p.interval = 10.0;
    p.offset = 3.0;
    p.max_silence = silence;
    // Inputs land exactly on skipped ticks: the tick saw the old state.
    const std::vector<Step> script = {
        {tick_time(p, 4), Input::kAccept, 7.0},
        {tick_time(p, 9), Input::kAccept, 1.0},
        {tick_time(p, 9), Input::kAccept, 1.0},
        {tick_time(p, 15), Input::kCrash, 0.0},
        {tick_time(p, 20), Input::kRecover, 0.0}};
    expect_same(p, script, {tick_time(p, 12), 400.0});
  }
}

TEST(ReportTickOracle, HorizonExactlyOnATick) {
  for (const double silence : {0.0, 20.0}) {
    Params p;
    p.interval = 10.0;
    p.offset = 3.0;
    p.max_silence = silence;
    const std::vector<Step> script = {{37.0, Input::kAccept, 2.0}};
    expect_same(p, script, {tick_time(p, 6), tick_time(p, 30)});
  }
}

TEST(ReportTickOracle, FarHeartbeatStaysCheap) {
  // A heartbeat far past the horizon is reached through ticks armed on
  // the way, so planning it never walks the whole gap at once.
  Params p;
  p.interval = 1.0;
  p.offset = 0.5;
  p.max_silence = 1e12;
  const auto script = random_script(3, 20, 20000.0, /*faults=*/true);
  expect_same(p, script, {20000.0});
}

}  // namespace
}  // namespace scal::grid
