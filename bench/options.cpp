#include "options.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "common.hpp"
#include "exec/jobs.hpp"
#include "util/env.hpp"

namespace scal::bench {

namespace {
/// Set by Options::parse (--jobs beats SCAL_JOBS beats 1).
std::size_t g_jobs = 0;
/// Fault knobs from the CLI (beat the SCAL_BENCH_* fallbacks).
std::string g_fault_spec;
bool g_fault_spec_set = false;
double g_mtbf = 0.0;
double g_mttr = 0.0;
/// Workload knobs from the CLI (beat the SCAL_BENCH_* fallbacks).
std::string g_workload_spec;
bool g_workload_spec_set = false;
std::string g_modulate_spec;
bool g_modulate_spec_set = false;
/// Persistent eval-cache path (--eval-cache beats SCAL_BENCH_EVAL_CACHE).
std::string g_eval_cache_path;
bool g_eval_cache_path_set = false;

/// A time knob: 0 when unset or empty, else a finite positive number,
/// ending the process through knob_error on anything else.
double env_real(const std::string& name) {
  return read_knob(name, [&] {
    const std::string text = util::env_or(name, "");
    if (text.empty()) return 0.0;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || !(v > 0.0)) {
      throw std::invalid_argument("'" + text +
                                  "' is not a finite positive number");
    }
    return v;
  });
}
}  // namespace

// Options::parse has checked the flags, so only the environment's text
// can fail to parse below.

fault::FaultPlan fault_plan() {
  const std::string spec = g_fault_spec_set
                               ? g_fault_spec
                               : util::env_or("SCAL_BENCH_FAULTS", "");
  fault::FaultPlan plan = read_knob(
      "SCAL_BENCH_FAULTS", [&] { return fault::FaultPlan::parse(spec); });
  const double mtbf = g_mtbf > 0.0 ? g_mtbf : env_real("SCAL_BENCH_MTBF");
  const double mttr = g_mttr > 0.0 ? g_mttr : env_real("SCAL_BENCH_MTTR");
  if (mtbf > 0.0) {
    plan.churn.mtbf = mtbf;
    plan.churn.mttr = mttr > 0.0 ? mttr : 40.0;
  } else if (mttr > 0.0 && plan.churn.enabled()) {
    plan.churn.mttr = mttr;
  }
  plan.validate();
  return plan;
}

std::size_t job_count() {
  if (g_jobs == 0) {
    g_jobs = read_knob("SCAL_JOBS", [] { return exec::env_jobs(1); });
  }
  return g_jobs;
}

workload::SourceSpec workload_source() {
  const std::string source =
      g_workload_spec_set ? g_workload_spec
                          : util::env_or("SCAL_BENCH_WORKLOAD", "");
  workload::SourceSpec spec = read_knob("SCAL_BENCH_WORKLOAD", [&] {
    return workload::SourceSpec::parse(source);
  });
  const std::string chain =
      g_modulate_spec_set ? g_modulate_spec
                          : util::env_or("SCAL_BENCH_MODULATE", "");
  if (!chain.empty()) {
    for (workload::ModulatorSpec& stage :
         read_knob("SCAL_BENCH_MODULATE",
                   [&] { return workload::parse_modulators(chain); })) {
      spec.modulators.push_back(std::move(stage));
    }
  }
  spec.validate();
  return spec;
}

Options Options::parse(int argc, char** argv,
                       const std::string& default_label) {
  Options opts;
  obs::TelemetryConfig& tc = opts.telemetry;
  tc.probe_interval = 25.0;
  tc.label = default_label;

  auto usage = [&](const std::string& complaint) {
    std::cerr << argv[0] << ": " << complaint << "\n"
              << "usage: " << argv[0]
              << " [--trace PATH] [--probe PATH] [--probe-interval T]\n"
              << "       [--manifest PATH] [--anneal PATH] [--metrics]\n"
              << "       [--label NAME] [--jobs N|hw] [--faults SPEC]\n"
              << "       [--mtbf T] [--mttr T] [--workload SPEC]\n"
              << "       [--swf PATH[@SCALE]] [--modulate SPEC]\n"
              << "       [--eval-cache PATH]\n";
    std::exit(2);
  };
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      usage("missing value for " + std::string(argv[i]));
    }
    return argv[++i];
  };
  auto real_value = [&](int& i) -> double {
    const std::string flag = argv[i];
    const std::string text = value(i);
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(v) ||
        v <= 0.0) {
      usage(flag + " expects a finite positive number, got '" + text + "'");
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      tc.trace_path = value(i);
    } else if (flag == "--probe") {
      tc.probe_path = value(i);
    } else if (flag == "--probe-interval") {
      tc.probe_interval = real_value(i);
    } else if (flag == "--manifest") {
      tc.manifest_path = value(i);
    } else if (flag == "--anneal") {
      tc.anneal_path = value(i);
    } else if (flag == "--metrics") {
      tc.metrics = true;
    } else if (flag == "--label") {
      tc.label = value(i);
    } else if (flag == "--jobs") {
      const std::string text = value(i);
      const std::size_t jobs = exec::parse_jobs(text, 0);
      if (jobs == 0) {
        usage("--jobs expects a positive integer or 'hw', got '" + text +
              "'");
      }
      g_jobs = jobs;
    } else if (flag == "--faults") {
      g_fault_spec = value(i);
      g_fault_spec_set = true;
      try {
        fault::FaultPlan::parse(g_fault_spec);
      } catch (const std::exception& e) {
        usage("--faults: " + std::string(e.what()));
      }
    } else if (flag == "--mtbf") {
      g_mtbf = real_value(i);
    } else if (flag == "--mttr") {
      g_mttr = real_value(i);
    } else if (flag == "--workload") {
      g_workload_spec = value(i);
      g_workload_spec_set = true;
      try {
        workload::SourceSpec::parse(g_workload_spec);
      } catch (const std::exception& e) {
        usage("--workload: " + std::string(e.what()));
      }
    } else if (flag == "--swf") {
      g_workload_spec = "swf:" + value(i);
      g_workload_spec_set = true;
      try {
        workload::SourceSpec::parse(g_workload_spec);
      } catch (const std::exception& e) {
        usage("--swf: " + std::string(e.what()));
      }
    } else if (flag == "--eval-cache") {
      g_eval_cache_path = value(i);
      g_eval_cache_path_set = true;
    } else if (flag == "--modulate") {
      g_modulate_spec = value(i);
      g_modulate_spec_set = true;
      try {
        workload::parse_modulators(g_modulate_spec);
      } catch (const std::exception& e) {
        usage("--modulate: " + std::string(e.what()));
      }
    } else {
      usage("unexpected argument '" + flag + "'");
    }
  }
  opts.jobs = job_count();
  opts.faults = fault_plan();
  opts.workload = workload_source();
  read_cache_budgets();
  opts.eval_cache_path = g_eval_cache_path_set
                             ? g_eval_cache_path
                             : util::env_or("SCAL_BENCH_EVAL_CACHE", "");
  return opts;
}

}  // namespace scal::bench
