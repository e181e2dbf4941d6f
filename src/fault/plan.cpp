#include "fault/plan.hpp"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace scal::fault {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("fault spec: " + what);
}

double number(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
    bad("'" + key + "' expects a finite number, got '" + text + "'");
  }
  return v;
}

std::uint32_t count(const std::string& key, const std::string& text) {
  const double v = number(key, text);
  // Range-check before the cast: converting an out-of-range double to
  // an integer is undefined behavior.
  if (!(v >= 0.0 && v <= static_cast<double>(UINT32_MAX)) ||
      v != std::floor(v)) {
    bad("'" + key + "' expects a small non-negative integer, got '" + text +
        "'");
  }
  return static_cast<std::uint32_t>(v);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

// Every range check below is written to fail on NaN.
void check_probability(const char* key, double p) {
  if (!(p >= 0.0 && p < 1.0)) {
    bad(std::string(key) + " must be in [0, 1)");
  }
}

/// Trims a trailing ".000000" noise from default double formatting.
std::string fmt(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace

void FaultPlan::validate() const {
  if (!(churn.mtbf >= 0.0 && churn.mttr >= 0.0)) {
    bad("churn mtbf/mttr must be non-negative");
  }
  if (churn.enabled() && !(churn.mttr > 0.0)) {
    bad("churn with mtbf > 0 requires mttr > 0");
  }
  check_probability("net drop", messages.drop);
  check_probability("net dup", messages.duplicate);
  check_probability("net delayp", messages.delay_probability);
  if (messages.delay_probability > 0.0 && !(messages.delay_mean > 0.0)) {
    bad("net delayp > 0 requires delaym > 0");
  }
  for (const BlackoutSpec* b :
       {&estimator_blackout, &scheduler_blackout, &aggregator_blackout}) {
    if (!(b->period >= 0.0 && b->length >= 0.0)) {
      bad("blackout period/length must be non-negative");
    }
    if (b->enabled() && !(b->length < b->period)) {
      bad("blackout length must be shorter than its period");
    }
  }
  if (any()) {
    if (!(robustness.staleness_factor > 1.0)) {
      bad("robust stale factor must exceed 1 (one update interval)");
    }
    if (!(robustness.retry_backoff_base > 0.0)) {
      bad("robust backoff must be positive");
    }
    if (robustness.retry_budget > 16) {
      bad("robust retries capped at 16");
    }
  }
}

std::string FaultPlan::to_spec() const {
  if (!any()) return "";
  std::ostringstream out;
  const char* sep = "";
  if (churn.enabled()) {
    out << sep << "churn:mtbf=" << fmt(churn.mtbf)
        << ",mttr=" << fmt(churn.mttr);
    sep = ";";
  }
  if (messages.enabled()) {
    out << sep << "net:";
    const char* comma = "";
    if (messages.drop > 0.0) {
      out << comma << "drop=" << fmt(messages.drop);
      comma = ",";
    }
    if (messages.duplicate > 0.0) {
      out << comma << "dup=" << fmt(messages.duplicate);
      comma = ",";
    }
    if (messages.delay_probability > 0.0) {
      out << comma << "delayp=" << fmt(messages.delay_probability)
          << ",delaym=" << fmt(messages.delay_mean);
    }
    sep = ";";
  }
  if (estimator_blackout.enabled()) {
    out << sep << "est-blackout:period=" << fmt(estimator_blackout.period)
        << ",length=" << fmt(estimator_blackout.length);
    sep = ";";
  }
  if (scheduler_blackout.enabled()) {
    out << sep << "sched-blackout:period=" << fmt(scheduler_blackout.period)
        << ",length=" << fmt(scheduler_blackout.length);
    sep = ";";
  }
  if (aggregator_blackout.enabled()) {
    out << sep << "agg-blackout:period=" << fmt(aggregator_blackout.period)
        << ",length=" << fmt(aggregator_blackout.length);
    sep = ";";
  }
  // Always recorded for active plans: the manifest alone must pin the
  // robustness behavior the run actually had.
  out << sep << "robust:stale=" << fmt(robustness.staleness_factor)
      << ",retries=" << robustness.retry_budget
      << ",backoff=" << fmt(robustness.retry_backoff_base)
      << ",requeue=" << robustness.requeue_budget;
  return out.str();
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (const std::string& clause : split(spec, ';')) {
    const auto colon = clause.find(':');
    if (colon == std::string::npos) {
      bad("clause '" + clause + "' is missing ':'");
    }
    const std::string name = clause.substr(0, colon);
    for (const std::string& kv : split(clause.substr(colon + 1), ',')) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        bad("'" + kv + "' in clause '" + name + "' is missing '='");
      }
      const std::string key = kv.substr(0, eq);
      const std::string val = kv.substr(eq + 1);
      if (name == "churn") {
        if (key == "mtbf") {
          plan.churn.mtbf = number(key, val);
        } else if (key == "mttr") {
          plan.churn.mttr = number(key, val);
        } else {
          bad("unknown churn key '" + key + "'");
        }
      } else if (name == "net") {
        if (key == "drop") {
          plan.messages.drop = number(key, val);
        } else if (key == "dup") {
          plan.messages.duplicate = number(key, val);
        } else if (key == "delayp") {
          plan.messages.delay_probability = number(key, val);
        } else if (key == "delaym") {
          plan.messages.delay_mean = number(key, val);
        } else {
          bad("unknown net key '" + key + "'");
        }
      } else if (name == "est-blackout" || name == "sched-blackout" ||
                 name == "agg-blackout") {
        BlackoutSpec& b = name == "est-blackout"
                              ? plan.estimator_blackout
                              : (name == "sched-blackout"
                                     ? plan.scheduler_blackout
                                     : plan.aggregator_blackout);
        if (key == "period") {
          b.period = number(key, val);
        } else if (key == "length") {
          b.length = number(key, val);
        } else {
          bad("unknown blackout key '" + key + "'");
        }
      } else if (name == "robust") {
        if (key == "stale") {
          plan.robustness.staleness_factor = number(key, val);
        } else if (key == "retries") {
          plan.robustness.retry_budget = count(key, val);
        } else if (key == "backoff") {
          plan.robustness.retry_backoff_base = number(key, val);
        } else if (key == "requeue") {
          plan.robustness.requeue_budget = count(key, val);
        } else {
          bad("unknown robust key '" + key + "'");
        }
      } else {
        bad("unknown clause '" + name + "'");
      }
    }
  }
  plan.validate();
  return plan;
}

}  // namespace scal::fault
