#include "workload/swf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace scal::workload {

namespace {

// The 18 standard SWF fields, by position.
enum SwfField : std::size_t {
  kJobNumber = 0,
  kSubmitTime = 1,
  kWaitTime = 2,
  kRunTime = 3,
  kUsedProcs = 4,
  kAvgCpu = 5,
  kUsedMemory = 6,
  kRequestedProcs = 7,
  kRequestedTime = 8,
  kRequestedMemory = 9,
  kStatus = 10,
  kUserId = 11,
  kGroupId = 12,
  kExecutable = 13,
  kQueue = 14,
  kPartition = 15,
  kPrecedingJob = 16,
  kThinkTime = 17,
  kFieldCount = 18,
};

[[noreturn]] void bad_cell(std::size_t line_no, std::size_t field,
                           const std::string& text, const char* why) {
  throw std::runtime_error("swf: line " + std::to_string(line_no) +
                           ": field " + std::to_string(field + 1) + " '" +
                           text + "' " + why);
}

double parse_field(const std::string& text, std::size_t line_no,
                   std::size_t field) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    bad_cell(line_no, field, text, "is not a number");
  }
  if (!std::isfinite(v)) bad_cell(line_no, field, text, "is not finite");
  return v;
}

}  // namespace

std::vector<Job> load_swf(std::istream& in, const SwfMapping& mapping) {
  if (!std::isfinite(mapping.time_scale) || !(mapping.time_scale > 0.0)) {
    throw std::invalid_argument("swf: time scale must be finite and positive");
  }
  if (mapping.clusters == 0) {
    throw std::invalid_argument("swf: need at least one cluster");
  }

  struct Record {
    double submit = 0.0;
    double exec = 0.0;
    double requested = 0.0;
    double uid = -1.0;
  };
  std::vector<Record> records;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;               // blank
    if (line[start] == ';' || line[start] == '#') continue;  // header

    double fields[kFieldCount];
    std::fill(std::begin(fields), std::end(fields), -1.0);
    std::istringstream row(line);
    std::string cell;
    std::size_t count = 0;
    while (row >> cell) {
      if (count < kFieldCount) {
        fields[count] = parse_field(cell, line_no, count);
        // The origin mapping casts the user id to an integer: range-check
        // it first, since an out-of-range cast is undefined behavior.
        if (count == kUserId && !(fields[count] < 0x1p64)) {
          bad_cell(line_no, count, cell, "is out of range for a user id");
        }
      }
      ++count;
    }
    if (count < kRunTime + 1) {
      throw std::runtime_error("swf: line " + std::to_string(line_no) +
                               ": record has " + std::to_string(count) +
                               " fields, need at least 4");
    }

    Record rec;
    rec.submit = fields[kSubmitTime];
    if (rec.submit < 0.0) continue;  // unplaceable: submit time missing

    // Actual run time, falling back to the user's requested time when
    // the log lacks it; neither positive means the job never ran
    // (cancelled before start) — skip it.
    double run = fields[kRunTime];
    if (run < 0.0) run = fields[kRequestedTime];
    if (!(run > 0.0)) continue;
    rec.exec = run * mapping.time_scale;

    const double requested = fields[kRequestedTime];
    rec.requested = requested > 0.0
                        ? std::max(rec.exec, requested * mapping.time_scale)
                        : rec.exec;
    rec.uid = fields[kUserId];
    records.push_back(rec);
  }

  // Some archive logs have out-of-order submit stamps; the simulator
  // schedules in time order, so sort (stably) before id assignment.
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.submit < b.submit;
                   });

  std::vector<Job> jobs;
  jobs.reserve(records.size());
  const double base = records.empty() ? 0.0 : records.front().submit;
  util::RandomStream benefit_rng(mapping.seed, "swf-benefit");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& rec = records[i];
    Job j;
    j.id = i;
    j.arrival = (rec.submit - base) * mapping.time_scale;
    j.exec_time = rec.exec;
    j.requested_time = rec.requested;
    j.partition_size = 1;   // paper Section 3.1
    j.cancellable = false;  // paper Section 3.1
    j.job_class = j.exec_time <= mapping.t_cpu ? JobClass::kLocal
                                               : JobClass::kRemote;
    j.benefit_factor =
        benefit_rng.uniform(mapping.benefit_lo, mapping.benefit_hi);
    j.benefit_deadline = j.exec_time * j.benefit_factor;
    j.origin_cluster = static_cast<std::uint32_t>(
        rec.uid >= 0.0 ? static_cast<std::uint64_t>(rec.uid) % mapping.clusters
                       : i % mapping.clusters);
    jobs.push_back(j);
  }
  return jobs;
}

std::vector<Job> load_swf_file(const std::string& path,
                               const SwfMapping& mapping) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_swf_file: cannot open " + path);
  return load_swf(in, mapping);
}

}  // namespace scal::workload
