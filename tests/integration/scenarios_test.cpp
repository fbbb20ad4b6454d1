/// \file scenarios_test.cpp
/// \brief Cross-module scenario tests: the paper's mechanisms observed
/// end-to-end on purpose-built miniature workloads.
#include <gtest/gtest.h>

#include "testing/helpers.hpp"

namespace bsld {
namespace {

using testing::Models;
using testing::job;
using testing::workload;

class ScenarioTest : public ::testing::Test {
 protected:
  /// EASY under the paper's DVFS policy with these thresholds.
  core::PolicySpec dvfs(double threshold, std::optional<std::int64_t> wq) {
    core::DvfsConfig config;
    config.bsld_threshold = threshold;
    config.wq_threshold = wq;
    return testing::policy("easy", config);
  }

  Models models_;
};

TEST_F(ScenarioTest, DvfsSavesEnergyOnLightLoad) {
  // Sparse long jobs: everything runs at the lowest gear; active power
  // 26.8 W vs 95 W with dilation 1.9375 => ~45% less computational energy.
  std::vector<wl::Job> jobs;
  for (int i = 0; i < 10; ++i) {
    jobs.push_back(job(i + 1, i * 20000, 5000, 5400, 2));
  }
  const wl::Workload load = workload(8, jobs);
  const auto baseline = testing::run(load, models_);
  const auto reduced = testing::run(load, models_, dvfs(2.0, std::nullopt));
  EXPECT_EQ(reduced.reduced_jobs, 10);
  const double ratio = reduced.energy.computational_joules /
                       baseline.energy.computational_joules;
  EXPECT_NEAR(ratio, (26.8 / 95.0) * 1.9375, 0.02);
}

TEST_F(ScenarioTest, SaturationSuppressesDvfs) {
  // Back-to-back full-machine long jobs: every later job's predicted BSLD
  // blows past the threshold, so almost nothing is reduced.
  std::vector<wl::Job> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(job(i + 1, i, 7000, 7200, 8));
  }
  const auto result = testing::run(workload(8, jobs), models_,
                                   dvfs(2.0, std::nullopt));
  EXPECT_LE(result.reduced_jobs, 1);  // only the first, zero-wait job
}

TEST_F(ScenarioTest, WqGateStopsCascadingSlowdown) {
  // Same congested trace: WQ=0 allows DVFS only for the zero-queue first
  // job; the wait-time cascade of WQ=NO must be at least as bad.
  std::vector<wl::Job> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(job(i + 1, i * 600, 3000, 3300, 6));
  }
  const wl::Workload load = workload(8, jobs);
  const auto gated =
      testing::run(load, models_, dvfs(3.0, 0));
  const auto open =
      testing::run(load, models_, dvfs(3.0, std::nullopt));
  EXPECT_LE(gated.reduced_jobs, open.reduced_jobs);
  EXPECT_LE(gated.avg_wait, open.avg_wait);
  EXPECT_GE(open.avg_bsld, gated.avg_bsld);
}

TEST_F(ScenarioTest, ThresholdControlsGearChoice) {
  // One waiting job; tighter thresholds must never pick a lower gear.
  const wl::Workload load =
      workload(4, {job(1, 0, 2000, 2400, 4), job(2, 10, 7000, 7200, 4)});
  GearIndex previous_gear = 0;
  for (const double threshold : {3.0, 2.0, 1.5}) {
    const auto result =
        testing::run(load, models_, dvfs(threshold, std::nullopt));
    EXPECT_GE(result.jobs[1].gear, previous_gear);
    previous_gear = result.jobs[1].gear;
  }
}

TEST_F(ScenarioTest, EnlargedSystemImprovesBsldAndComputationalEnergy) {
  // The §5.2 mechanism in miniature: same trace, +50% CPUs, DVFS on.
  std::vector<wl::Job> jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(job(i + 1, i * 500, 4000, 4500, 4 + (i % 5)));
  }
  const wl::Workload load = workload(16, jobs);
  const auto original = testing::run(load, models_, dvfs(2.0, std::nullopt));
  sim::SimulationConfig enlarged;
  enlarged.cpus = 24;
  const auto bigger =
      testing::run(load, models_, dvfs(2.0, std::nullopt), enlarged);
  EXPECT_LT(bigger.avg_bsld, original.avg_bsld);
  EXPECT_LE(bigger.energy.computational_joules,
            original.energy.computational_joules);
}

TEST_F(ScenarioTest, PenalizedRuntimeEntersBsld) {
  // A lone reduced job has BSLD == its dilation coefficient (long job).
  const auto result =
      testing::run(workload(4, {job(1, 0, 5000, 5400, 2)}), models_,
                   dvfs(2.0, std::nullopt));
  EXPECT_EQ(result.jobs[0].gear, 0);
  EXPECT_NEAR(result.jobs[0].bsld, 1.9375, 0.001);
}

TEST_F(ScenarioTest, BaselineMatchesEq1) {
  // Without DVFS, Eq. 6 degenerates to Eq. 1 for every job.
  std::vector<wl::Job> jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(job(i + 1, i * 100, 900 + i * 10, 1000 + i * 10, 3));
  }
  const auto result = testing::run(workload(8, jobs), models_);
  for (const sim::JobOutcome& outcome : result.jobs) {
    EXPECT_DOUBLE_EQ(outcome.bsld,
                     core::bounded_slowdown(outcome.wait(),
                                            outcome.run_time_top));
  }
}

TEST_F(ScenarioTest, IdleEnergyDominatedByHorizonOnEmptyMachine) {
  // A nearly idle machine: total energy >> computational energy.
  const auto result =
      testing::run(workload(64, {job(1, 0, 100, 200, 1)}), models_);
  EXPECT_GT(result.energy.idle_joules,
            10.0 * result.energy.computational_joules);
}

}  // namespace
}  // namespace bsld
