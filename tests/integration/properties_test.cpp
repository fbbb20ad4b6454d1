/// \file properties_test.cpp
/// \brief Property-based sweeps: structural invariants of complete
/// simulations across random workloads, policies and DVFS settings.
#include <gtest/gtest.h>

#include "testing/helpers.hpp"
#include "workload/synthetic.hpp"

namespace bsld {
namespace {

struct PropertyCase {
  std::int32_t cpus;
  double load;
  const char* policy;  ///< PolicyRegistry key.
  bool dvfs;
  std::optional<std::int64_t> wq;

  friend std::ostream& operator<<(std::ostream& os, const PropertyCase& c) {
    return os << "cpus" << c.cpus << "_load" << c.load << "_"
              << c.policy
              << (c.dvfs ? "_dvfs" : "_top");
  }
};

class SimulationPropertyTest
    : public ::testing::TestWithParam<std::tuple<PropertyCase, std::uint64_t>> {
 protected:
  sim::SimulationResult run_case(const PropertyCase& c, std::uint64_t seed) {
    wl::WorkloadSpec spec;
    spec.name = "prop";
    spec.cpus = c.cpus;
    spec.num_jobs = 300;
    spec.arrival.load_target = c.load;
    spec.arrival.daily_amplitude = 0.6;
    spec.arrival.burst_probability = 0.3;
    const wl::Workload load = wl::generate(spec, seed);
    std::optional<core::DvfsConfig> dvfs;
    if (c.dvfs) {
      core::DvfsConfig config;
      config.bsld_threshold = 2.0;
      config.wq_threshold = c.wq;
      dvfs = config;
    }
    return testing::run(load, models_, testing::policy(c.policy, dvfs));
  }

  testing::Models models_;
};

TEST_P(SimulationPropertyTest, StructuralInvariants) {
  const auto& [c, seed] = GetParam();
  const sim::SimulationResult result = run_case(c, seed);
  const GearIndex top = models_.gears.top_index();

  ASSERT_EQ(result.jobs.size(), 300u);
  std::int64_t reduced = 0;
  for (const sim::JobOutcome& job : result.jobs) {
    // Causality and completeness.
    ASSERT_NE(job.start, kNoTime);
    ASSERT_GE(job.start, job.submit);
    ASSERT_EQ(job.end, job.start + job.scaled_runtime);
    // Dilation laws.
    ASSERT_GE(job.scaled_runtime, job.run_time_top);
    ASSERT_GE(job.scaled_requested, job.scaled_runtime);
    if (job.gear == top) {
      ASSERT_EQ(job.scaled_runtime, job.run_time_top);
    }
    // Metric law.
    ASSERT_GE(job.bsld, 1.0);
    if (job.gear != top) ++reduced;
  }
  EXPECT_EQ(reduced, result.reduced_jobs);

  // No DVFS => nothing reduced, ever.
  if (!c.dvfs) {
    EXPECT_EQ(result.reduced_jobs, 0);
  }

  // Energy laws.
  EXPECT_GT(result.energy.computational_joules, 0.0);
  EXPECT_LE(result.energy.computational_joules, result.energy.total_joules);
  EXPECT_GE(result.energy.idle_joules, 0.0);
  EXPECT_GE(result.utilization, 0.0);
  EXPECT_LE(result.utilization, 1.0 + 1e-9);

  // Gear histogram sums to the job count.
  std::int64_t total = 0;
  for (const std::int64_t count : result.jobs_per_gear) total += count;
  EXPECT_EQ(total, 300);
}

TEST_P(SimulationPropertyTest, DeterministicReplay) {
  const auto& [c, seed] = GetParam();
  const sim::SimulationResult a = run_case(c, seed);
  const sim::SimulationResult b = run_case(c, seed);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    ASSERT_EQ(a.jobs[i].start, b.jobs[i].start);
    ASSERT_EQ(a.jobs[i].end, b.jobs[i].end);
    ASSERT_EQ(a.jobs[i].gear, b.jobs[i].gear);
  }
  EXPECT_DOUBLE_EQ(a.avg_bsld, b.avg_bsld);
  EXPECT_DOUBLE_EQ(a.energy.total_joules, b.energy.total_joules);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimulationPropertyTest,
    ::testing::Combine(
        ::testing::Values(
            PropertyCase{16, 0.5, "easy", false, {}},
            PropertyCase{16, 1.1, "easy", false, {}},
            PropertyCase{64, 0.8, "easy", true,
                         std::nullopt},
            PropertyCase{64, 0.8, "easy", true,
                         std::int64_t{0}},
            PropertyCase{64, 1.2, "easy", true,
                         std::int64_t{4}},
            PropertyCase{32, 0.7, "fcfs", false, {}},
            PropertyCase{32, 0.7, "fcfs", true,
                         std::nullopt}),
        ::testing::Values(11u, 29u, 83u)));

// The selector must not change schedule metrics on a flat machine —
// feasibility is count-based, identity-free.
class SelectorInvarianceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SelectorInvarianceTest, FirstFitAndLastFitAgreeOnMetrics) {
  wl::WorkloadSpec spec;
  spec.name = "selector";
  spec.cpus = 48;
  spec.num_jobs = 250;
  spec.arrival.load_target = 0.9;
  const wl::Workload load = wl::generate(spec, GetParam());
  testing::Models models;
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 16;
  core::PolicySpec policy = testing::policy("easy", dvfs);
  const auto first = testing::run(load, models, policy);
  policy.selector = "LastFit";
  const auto last = testing::run(load, models, policy);
  EXPECT_DOUBLE_EQ(first.avg_bsld, last.avg_bsld);
  EXPECT_DOUBLE_EQ(first.avg_wait, last.avg_wait);
  EXPECT_EQ(first.reduced_jobs, last.reduced_jobs);
  EXPECT_DOUBLE_EQ(first.energy.total_joules, last.energy.total_joules);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorInvarianceTest,
                         ::testing::Values(3u, 59u, 101u));

}  // namespace
}  // namespace bsld
