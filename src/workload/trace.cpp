#include "workload/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace scal::workload {

void TraceStatsAccumulator::add(const Job& job) {
  if (jobs_ == 0) {
    first_arrival_ = job.arrival;
    prev_arrival_ = job.arrival;
  }
  ++jobs_;
  if (job.job_class == JobClass::kLocal) ++local_;
  else ++remote_;
  exec_sum_ += job.exec_time;
  max_exec_ = std::max(max_exec_, job.exec_time);
  demand_sum_ += job.exec_time;
  interarrival_sum_ += job.arrival - prev_arrival_;
  prev_arrival_ = job.arrival;
}

TraceStats TraceStatsAccumulator::stats() const {
  TraceStats s;
  s.jobs = jobs_;
  if (jobs_ == 0) return s;
  s.local_jobs = local_;
  s.remote_jobs = remote_;
  s.mean_exec_time = exec_sum_ / static_cast<double>(jobs_);
  s.max_exec_time = max_exec_;
  s.total_demand = demand_sum_;
  if (jobs_ > 1) {
    s.mean_interarrival =
        interarrival_sum_ / static_cast<double>(jobs_ - 1);
  }
  s.span = prev_arrival_ - first_arrival_;
  return s;
}

TraceStats summarize(const std::vector<Job>& jobs) {
  TraceStatsAccumulator acc;
  for (const Job& j : jobs) acc.add(j);
  return acc.stats();
}

namespace {
constexpr const char* kHeader =
    "id,arrival,exec_time,requested_time,partition_size,cancellable,"
    "job_class,benefit_factor,benefit_deadline,origin_cluster";
}

void save_trace(const std::vector<Job>& jobs, std::ostream& out) {
  out << kHeader << '\n';
  out << std::setprecision(17);
  for (const Job& j : jobs) {
    out << j.id << ',' << j.arrival << ',' << j.exec_time << ','
        << j.requested_time << ',' << j.partition_size << ','
        << (j.cancellable ? 1 : 0) << ','
        << (j.job_class == JobClass::kLocal ? "LOCAL" : "REMOTE") << ','
        << j.benefit_factor << ',' << j.benefit_deadline << ','
        << j.origin_cluster << '\n';
  }
}

void save_trace_file(const std::vector<Job>& jobs, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_trace_file: cannot open " + path);
  save_trace(jobs, out);
}

TraceReader::TraceReader(std::istream& in) : in_(&in) {
  std::string line;
  if (!std::getline(*in_, line)) {
    in_ = nullptr;  // empty input: a valid, already-exhausted trace
    return;
  }
  line_ = 1;
  if (line != kHeader) {
    throw std::runtime_error("load_trace: unexpected header: " + line);
  }
}

namespace {

/// The whole cell as a T, or nullopt if any of it is not part of the
/// number or the value does not fit T.  std::from_chars takes no
/// leading space or '+', and no '-' for an unsigned T.
template <typename T>
std::optional<T> parse_cell(std::string_view cell) {
  T value{};
  const char* const end = cell.data() + cell.size();
  const auto [stop, ec] = std::from_chars(cell.data(), end, value);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return value;
}

}  // namespace

bool TraceReader::next(Job& out) {
  if (in_ == nullptr) return false;
  std::string line;
  while (std::getline(*in_, line)) {
    ++line_;
    if (line.empty()) continue;
    const auto fail = [&](const std::string& what) {
      return std::runtime_error("load_trace: line " + std::to_string(line_) +
                                ": " + what + ": " + line);
    };
    std::string_view rest = line;
    bool more = true;
    const auto next_cell = [&]() {
      if (!more) throw fail("truncated row");
      const auto comma = rest.find(',');
      const std::string_view cell = rest.substr(0, comma);
      more = comma != std::string_view::npos;
      if (more) rest.remove_prefix(comma + 1);
      return cell;
    };
    const auto bad = [&](const char* field, std::string_view cell) {
      return fail(std::string("bad ") + field + " '" + std::string(cell) +
                  "'");
    };
    const auto integer = [&]<typename T>(T, const char* field) {
      const std::string_view cell = next_cell();
      const std::optional<T> value = parse_cell<T>(cell);
      if (!value) throw bad(field, cell);
      return *value;
    };
    // Times and benefit fields: finite and non-negative.
    const auto amount = [&](const char* field) {
      const std::string_view cell = next_cell();
      const std::optional<double> value = parse_cell<double>(cell);
      if (!value || !std::isfinite(*value) || *value < 0.0) {
        throw bad(field, cell);
      }
      return *value;
    };
    Job j;
    j.id = integer(std::uint64_t{}, "id");
    j.arrival = amount("arrival");
    if (j.arrival < last_arrival_) {
      throw fail("arrival earlier than the previous row's");
    }
    j.exec_time = amount("exec_time");
    j.requested_time = amount("requested_time");
    j.partition_size = integer(std::uint32_t{}, "partition_size");
    const std::string_view cancellable = next_cell();
    if (cancellable != "0" && cancellable != "1") {
      throw bad("cancellable", cancellable);
    }
    j.cancellable = cancellable == "1";
    const std::string_view cls = next_cell();
    if (cls != "LOCAL" && cls != "REMOTE") throw bad("job class", cls);
    j.job_class = cls == "LOCAL" ? JobClass::kLocal : JobClass::kRemote;
    j.benefit_factor = amount("benefit_factor");
    j.benefit_deadline = amount("benefit_deadline");
    j.origin_cluster = integer(std::uint32_t{}, "origin_cluster");
    if (more) throw fail("extra cells");
    last_arrival_ = j.arrival;
    out = j;
    return true;
  }
  return false;
}

std::vector<Job> load_trace(std::istream& in) {
  std::vector<Job> jobs;
  TraceReader reader(in);
  Job job;
  while (reader.next(job)) jobs.push_back(job);
  return jobs;
}

std::vector<Job> load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_trace_file: cannot open " + path);
  return load_trace(in);
}

}  // namespace scal::workload
