// Tables 1-5: the paper's configuration tables, printed from the very
// structs the figure benches execute, so the printed values are the
// reproduction's ground truth (not a transcription).

#include <iostream>

#include "common.hpp"
#include "util/table.hpp"

namespace {

void print_case_table(const char* label, const scal::core::ScalingCase& c,
                      const scal::grid::GridConfig& base) {
  using scal::util::Table;
  std::cout << label << ": " << c.name << '\n';
  Table table({"role", "value"});
  table.set_align(1, scal::util::Align::kLeft);
  for (const auto& row : c.scaling_variable_rows()) {
    table.add_row({"Scaling variable", row});
  }
  for (const auto& row : c.enabler_rows()) {
    table.add_row({"Scaling enabler", row});
  }
  table.add_row({"Base network size",
                 std::to_string(base.topology.nodes) + " nodes"});
  table.add_row({"Base clusters", std::to_string(base.cluster_count())});
  table.add_row({"Base mean interarrival",
                 Table::fixed(base.workload.mean_interarrival, 3) +
                     " time units"});
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  using namespace scal;
  using util::Table;

  const grid::GridConfig base = bench::case2_base();

  std::cout << "Table 1: Common variables used for all experiments\n";
  Table t1({"variable", "value", "comments"});
  t1.set_align(1, util::Align::kLeft);
  t1.set_align(2, util::Align::kLeft);
  t1.add_row({"T_CPU", Table::fixed(base.workload.t_cpu, 0) + " time units",
              "jobs with execution time <= T_CPU are LOCAL, else REMOTE"});
  t1.add_row({"T_l", Table::fixed(base.protocol.t_l, 1),
              "threshold load at a scheduler"});
  t1.add_row({"U_b(jobid)", "u x job run time, u ~ U[" +
                                Table::fixed(base.workload.benefit_lo, 0) +
                                ", " +
                                Table::fixed(base.workload.benefit_hi, 0) +
                                "]",
              "user benefit function (success deadline)"});
  t1.add_row({"partition size", "1", "paper Section 3.1"});
  t1.add_row({"job cancellation", "0", "paper Section 3.1"});
  t1.print(std::cout);
  std::cout << '\n';

  print_case_table("Table 2", core::ScalingCase::case1_network_size(),
                   bench::case1_base());
  print_case_table("Table 3", core::ScalingCase::case2_service_rate(),
                   bench::case2_base());
  print_case_table("Table 4", core::ScalingCase::case3_estimators(),
                   bench::case3_base());
  print_case_table("Table 5", core::ScalingCase::case4_neighborhood(),
                   bench::case4_base());
  return 0;
}
