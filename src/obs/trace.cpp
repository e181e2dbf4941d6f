#include "obs/trace.hpp"

#include <fstream>
#include <ostream>

#include "obs/json.hpp"
#include "util/log.hpp"

namespace scal::obs {

TraceTid TraceRecorder::register_track(const std::string& name) {
  const auto tid = static_cast<TraceTid>(tracks_.size());
  tracks_.push_back(name);
  return tid;
}

TraceEvent& TraceRecorder::push(char phase, TraceTid tid, double at) {
  TraceEvent& ev = events_.emplace_back();
  ev.phase = phase;
  ev.tid = tid;
  ev.ts = at * scale_;
  return ev;
}

void TraceRecorder::begin(TraceTid tid, const char* name, const char* cat,
                          double at) {
  begin(tid, name, cat, at, {});
}

void TraceRecorder::begin(TraceTid tid, const char* name, const char* cat,
                          double at,
                          std::vector<std::pair<std::string, double>> args) {
  if (!enabled_) return;
  TraceEvent& ev = push('B', tid, at);
  ev.name = name;
  ev.cat = cat;
  ev.args = std::move(args);
}

void TraceRecorder::end(TraceTid tid, double at) {
  if (!enabled_) return;
  push('E', tid, at);
}

void TraceRecorder::instant(TraceTid tid, const char* name, const char* cat,
                            double at) {
  instant(tid, name, cat, at, {});
}

void TraceRecorder::instant(TraceTid tid, const char* name, const char* cat,
                            double at,
                            std::vector<std::pair<std::string, double>> args) {
  if (!enabled_) return;
  TraceEvent& ev = push('i', tid, at);
  ev.name = name;
  ev.cat = cat;
  ev.args = std::move(args);
}

void TraceRecorder::counter(TraceTid tid, const char* name, double at,
                            double value) {
  if (!enabled_) return;
  TraceEvent& ev = push('C', tid, at);
  ev.name = name;
  ev.args.emplace_back("value", value);
}

void TraceRecorder::complete(TraceTid tid, const char* name, const char* cat,
                             double ts_us, double dur_us) {
  if (!enabled_) return;
  TraceEvent& ev = events_.emplace_back();
  ev.phase = 'X';
  ev.tid = tid;
  ev.ts = ts_us;  // already trace microseconds; bypass the sim-time scale
  ev.dur = dur_us;
  ev.name = name;
  ev.cat = cat;
}

void TraceRecorder::async_begin(TraceTid tid, std::uint64_t id,
                                const char* name, const char* cat,
                                double at) {
  if (!enabled_) return;
  TraceEvent& ev = push('b', tid, at);
  ev.async_id = id;
  ev.name = name;
  ev.cat = cat;
}

void TraceRecorder::async_instant(TraceTid tid, std::uint64_t id,
                                  const char* name, const char* cat,
                                  double at) {
  if (!enabled_) return;
  TraceEvent& ev = push('n', tid, at);
  ev.async_id = id;
  ev.name = name;
  ev.cat = cat;
}

void TraceRecorder::async_end(TraceTid tid, std::uint64_t id, const char* cat,
                              double at) {
  if (!enabled_) return;
  TraceEvent& ev = push('e', tid, at);
  ev.async_id = id;
  ev.cat = cat;
}

namespace {

void write_event(std::ostream& os, const TraceEvent& ev) {
  JsonObject obj;
  const char phase[2] = {ev.phase, '\0'};
  obj.field("ph", phase);
  obj.field("pid", std::uint64_t{0});
  obj.field("tid", std::uint64_t{ev.tid});
  obj.field("ts", ev.ts);
  if (ev.phase == 'X') obj.field("dur", ev.dur);
  if (!ev.name.empty()) obj.field("name", ev.name);
  if (!ev.cat.empty()) obj.field("cat", ev.cat);
  if (ev.phase == 'b' || ev.phase == 'n' || ev.phase == 'e') {
    obj.field("id", std::uint64_t{ev.async_id});
  }
  if (ev.phase == 'i') obj.field("s", "t");  // instant scope: thread
  if (!ev.args.empty() || !ev.str_args.empty()) {
    JsonObject args;
    for (const auto& [key, value] : ev.args) args.field(key, value);
    for (const auto& [key, value] : ev.str_args) args.field(key, value);
    obj.raw("args", args.str());
  }
  os << obj.str();
}

}  // namespace

void TraceRecorder::write_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  // Process + track name metadata first.
  {
    JsonObject process;
    process.field("ph", "M").field("pid", std::uint64_t{0})
        .field("name", "process_name")
        .raw("args", JsonObject().field("name", "scal simulation").str());
    os << process.str();
    first = false;
  }
  for (TraceTid tid = 0; tid < tracks_.size(); ++tid) {
    JsonObject track;
    track.field("ph", "M").field("pid", std::uint64_t{0})
        .field("tid", std::uint64_t{tid})
        .field("name", "thread_name")
        .raw("args", JsonObject().field("name", tracks_[tid]).str());
    os << ",";
    os << track.str();
  }
  for (const TraceEvent& ev : events_) {
    if (!first) os << ",";
    first = false;
    os << "\n";
    write_event(os, ev);
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool TraceRecorder::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    SCAL_WARN("trace: cannot open " << path);
    return false;
  }
  write_json(out);
  return static_cast<bool>(out);
}

}  // namespace scal::obs
