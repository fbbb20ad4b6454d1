/// \file quickstart.cpp
/// \brief Smallest complete use of the library: build a tiny DVFS cluster,
/// submit a handful of jobs, schedule them with the power-aware EASY
/// backfilling policy, and inspect the schedule and the energy bill.
///
/// The run is described by a report::RunSpec (its core::PolicySpec names
/// the policy in the registry; platform defaults are the paper's) and
/// executed with report::run_workload — the entry point for hand-written
/// job lists. It streams the list through the same simulation path as the
/// archive/SWF-driven experiments, admitting the whole list up front, so
/// the list need not be sorted by submit time.
///
/// Run: ./quickstart
#include <iostream>

#include "report/experiment.hpp"
#include "util/table.hpp"

using namespace bsld;

int main() {
  // Five jobs, SWF-style: {id, submit, runtime@Ftop, requested, size, user}.
  wl::Workload workload;
  workload.name = "quickstart";
  workload.cpus = 8;
  workload.jobs = {
      {1, 0, 3000, 3600, 4, 0},     // starts immediately, half the machine
      {2, 10, 7000, 7200, 6, 0},    // must wait for job 1 -> head reservation
      {3, 20, 500, 600, 2, 1},      // backfills next to job 1
      {4, 30, 1000, 1800, 2, 1},    // backfills after job 3
      {5, 40, 2000, 2400, 8, 2},    // whole machine, runs last
  };

  // The paper's power-aware scheduler: EASY backfilling + BSLD-threshold
  // frequency assignment (BSLDthreshold = 2, WQthreshold = NO LIMIT), on
  // the paper's gear set / power model / beta = 0.5 (the spec defaults).
  report::RunSpec spec;
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = std::nullopt;
  spec.policy.dvfs = dvfs;

  const sim::SimulationResult result =
      report::run_workload(workload, spec).sim();

  std::cout << "Policy: " << result.policy << "\n\n";
  util::Table table({"Job", "Size", "Submit", "Start", "End", "Gear (GHz)",
                     "Runtime@Ftop", "Actual runtime", "BSLD"});
  for (std::size_t c = 1; c < 9; ++c) table.set_align(c, util::Align::kRight);
  for (const sim::JobOutcome& job : result.jobs) {
    table.add_row({std::to_string(job.id), std::to_string(job.size),
                   std::to_string(job.submit), std::to_string(job.start),
                   std::to_string(job.end),
                   util::fmt_double(spec.gears[job.gear].frequency_ghz, 1),
                   std::to_string(job.run_time_top),
                   std::to_string(job.scaled_runtime),
                   util::fmt_double(job.bsld, 2)});
  }
  std::cout << table << '\n';

  std::cout << "Jobs run below the top frequency: " << result.reduced_jobs
            << " of " << result.jobs.size() << '\n'
            << "Average BSLD: " << util::fmt_double(result.avg_bsld, 2) << '\n'
            << "CPU energy (computational, idle=0): "
            << util::fmt_double(result.energy.computational_joules / 1e6, 3)
            << " MJ\n"
            << "CPU energy (total, idle=low):       "
            << util::fmt_double(result.energy.total_joules / 1e6, 3)
            << " MJ\n";
  return 0;
}
