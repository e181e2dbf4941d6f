#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>

#include "obs/json.hpp"

namespace bench {

void SpanLog::add(const char* name, Clock::time_point start,
                  Clock::time_point end, std::int64_t request) {
  Span span;
  span.name = name;
  span.start_s = std::chrono::duration<double>(start - origin_).count();
  span.end_s = std::chrono::duration<double>(end - origin_).count();
  span.request = request;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = tids_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size()));
  span.tid = it->second;
  spans_.push_back(span);
}

void SpanLog::resolve() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::size_t> order(spans_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Per thread, outer spans first: earlier start, then later end.
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_s != y.start_s) return x.start_s < y.start_s;
    return x.end_s > y.end_s;
  });
  std::vector<std::size_t> open;
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    Span& span = spans_[i];
    if (open.empty() || span.tid != tid) {
      open.clear();
      tid = span.tid;
    }
    while (!open.empty() && spans_[open.back()].end_s < span.end_s) {
      open.pop_back();
    }
    span.parent = open.empty() ? -1 : static_cast<std::int64_t>(open.back());
    open.push_back(i);
  }
}

std::map<std::string, NameTime> SpanLog::times_since(double from_s) const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  std::map<std::string, NameTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.start_s < from_s) continue;
    NameTime& t = out[span.name];
    const double duration = span.end_s - span.start_s;
    t.total_s += duration;
    t.self_s += duration - child_s[i];
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    scal::obs::JsonObject args;
    args.field("span", static_cast<std::uint64_t>(i))
        .field("parent", static_cast<std::int64_t>(span.parent))
        .field("request", static_cast<std::int64_t>(span.request));
    scal::obs::JsonObject event;
    event.field("name", span.name)
        .field("ph", "X")
        .field("pid", std::uint64_t{1})
        .field("tid", static_cast<std::uint64_t>(span.tid))
        .field("ts", span.start_s * 1e6)
        .field("dur", (span.end_s - span.start_s) * 1e6)
        .raw("args", args.str());
    out << (i == 0 ? "\n" : ",\n") << event.str();
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace bench
