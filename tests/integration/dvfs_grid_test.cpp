/// \file dvfs_grid_test.cpp
/// \brief Parameterized sweeps over the full (BSLDthreshold, WQthreshold)
/// grid: policy-level invariants that must hold for every cell of the
/// paper's Figs. 3-5, plus cross-cell dominance relations.
#include <gtest/gtest.h>

#include "testing/helpers.hpp"
#include "workload/synthetic.hpp"

namespace bsld {
namespace {

wl::Workload grid_workload(std::uint64_t seed) {
  wl::WorkloadSpec spec;
  spec.name = "grid";
  spec.cpus = 48;
  spec.num_jobs = 400;
  spec.arrival.load_target = 0.75;
  spec.arrival.daily_amplitude = 0.6;
  spec.arrival.burst_probability = 0.3;
  return wl::generate(spec, seed);
}

class DvfsGridTest
    : public ::testing::TestWithParam<
          std::tuple<double, std::optional<std::int64_t>, std::uint64_t>> {
 protected:
  testing::Models models_;
};

TEST_P(DvfsGridTest, CellInvariants) {
  const auto& [threshold, wq, seed] = GetParam();
  const wl::Workload load = grid_workload(seed);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = threshold;
  dvfs.wq_threshold = wq;
  const auto run =
      testing::run(load, models_, testing::policy("easy", dvfs));
  const auto baseline = testing::run(load, models_);

  // DVFS can only consume less or equal computational energy than the
  // baseline: reduced gears strictly dominate on energy-per-work, and at
  // worst nothing is reduced.
  EXPECT_LE(run.energy.computational_joules,
            baseline.energy.computational_joules * (1.0 + 1e-9));

  // Reduced-job accounting is consistent with the per-gear histogram.
  std::int64_t below_top = 0;
  for (std::size_t g = 0; g + 1 < run.jobs_per_gear.size(); ++g) {
    below_top += run.jobs_per_gear[g];
  }
  EXPECT_EQ(below_top, run.reduced_jobs);

  // Every reduced job individually satisfied causality and dilation.
  for (const sim::JobOutcome& job : run.jobs) {
    if (job.gear != models_.gears.top_index()) {
      EXPECT_GT(job.scaled_runtime, 0);
      EXPECT_GE(job.scaled_runtime, job.run_time_top);
    }
  }

  // The baseline never reduces anything.
  EXPECT_EQ(baseline.reduced_jobs, 0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, DvfsGridTest,
    ::testing::Combine(
        ::testing::Values(1.5, 2.0, 3.0),
        ::testing::Values(std::optional<std::int64_t>{0},
                          std::optional<std::int64_t>{4},
                          std::optional<std::int64_t>{16},
                          std::optional<std::int64_t>{}),
        ::testing::Values(7u, 41u)));

class DvfsDominanceTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  sim::SimulationResult run_cell(const wl::Workload& load, double threshold,
                                 std::optional<std::int64_t> wq) {
    core::DvfsConfig dvfs;
    dvfs.bsld_threshold = threshold;
    dvfs.wq_threshold = wq;
    return testing::run(load, models_, testing::policy("easy", dvfs));
  }
  testing::Models models_;
};

TEST_P(DvfsDominanceTest, NoLimitReducesAtLeastAsManyAsWqZero) {
  const wl::Workload load = grid_workload(GetParam());
  const auto wq0 = run_cell(load, 2.0, 0);
  const auto open = run_cell(load, 2.0, std::nullopt);
  // Relaxing the WQ gate can only admit more reductions on the identical
  // trace... up to scheduling feedback; on these light grid traces the
  // relation is stable and is the paper's Fig. 4 reading direction.
  EXPECT_GE(open.reduced_jobs, wq0.reduced_jobs);
  EXPECT_LE(open.energy.computational_joules,
            wq0.energy.computational_joules * (1.0 + 1e-9));
}

TEST_P(DvfsDominanceTest, WqZeroKeepsPenaltyBelowNoLimit) {
  const wl::Workload load = grid_workload(GetParam());
  const auto wq0 = run_cell(load, 3.0, 0);
  const auto open = run_cell(load, 3.0, std::nullopt);
  EXPECT_LE(wq0.avg_bsld, open.avg_bsld + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DvfsDominanceTest,
                         ::testing::Values(7u, 41u, 97u));

}  // namespace
}  // namespace bsld
